import numpy as np
import pytest

from symforge.cli import _csv
from symforge.groups import CYCLIC, DIHEDRAL, GroupDescriptor
from symforge.oracle import check_invariance
from symforge.tasks import (
    BUILTIN_NAMES,
    PolynomialSpec,
    builtin_polynomial,
    gen_poly_dataset,
    make_splits,
)


def test_symmetric_benchmark_value():
    spec = builtin_polynomial("S_I(4)")
    # x0*x1*x2*x3 + x4 at (1, 2, 3, 4, 5) = 24 + 5.
    assert spec.evaluate(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))[0] == 29.0


def test_cyclic_benchmark_value_at_ones():
    spec = builtin_polynomial("Z_I(5)")
    # Five chain terms x_a * x_b^2, each equal to 1 at the all-ones input.
    assert spec.evaluate(np.ones(10))[0] == 5.0
    assert builtin_polynomial("D_I(5)").evaluate(np.ones(10))[0] == 10.0


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_polynomials_are_invariant(name):
    spec = builtin_polynomial(name)
    report = check_invariance(spec.evaluate, spec.descriptor)
    assert report.max_violation <= 1e-12


def test_a_polynomial_outside_its_group_is_refused():
    # x0 * x1^2 is not cyclic in (0, 1, 2); the error names an element
    # that moves it.
    terms = ((1, ((0, 1), (1, 2))),)
    with pytest.raises(ValueError, match=r"chain: polynomial is not invariant under Perm"):
        PolynomialSpec("chain", GroupDescriptor(CYCLIC, (0, 1, 2), 3), terms)
    # The same term closed into a cycle is invariant, and is built.
    closed = terms + ((1, ((1, 1), (2, 2))), (1, ((2, 1), (0, 2))))
    assert PolynomialSpec("cycle", GroupDescriptor(CYCLIC, (0, 1, 2), 3), closed).n == 3


def test_builtin_polynomials_not_invariant_beyond_group():
    spec = builtin_polynomial("Z_I(5)")
    rng = np.random.default_rng(0)
    x = rng.uniform(size=10)
    # A transposition inside the cycle is dihedral but not cyclic.
    swapped = x.copy()
    i, j = spec.descriptor.index_set[0], spec.descriptor.index_set[1]
    swapped[[i, j]] = swapped[[j, i]]
    assert abs(spec.evaluate(swapped)[0] - spec.evaluate(x)[0]) > 1e-9


def test_unknown_polynomial_name():
    with pytest.raises(KeyError):
        builtin_polynomial("E_8")


def test_gen_poly_dataset_shapes_and_exactness():
    spec = builtin_polynomial("S_I(4)")
    ds = gen_poly_dataset(spec, 32, np.random.default_rng(0))
    assert ds.inputs.shape == (32, 5)
    assert np.array_equal(ds.targets, spec.evaluate(ds.inputs))
    with pytest.raises(ValueError):
        gen_poly_dataset(spec, 0, np.random.default_rng(0))


def test_dihedral_rows_have_distinct_coordinates():
    spec = builtin_polynomial("D_I(5)")
    ds = gen_poly_dataset(spec, 20, np.random.default_rng(1))
    for row in ds.inputs:
        assert len(set(row.tolist())) == spec.n


def test_make_splits_normalization_and_disjointness():
    spec = builtin_polynomial("Z_I(5)")
    splits, manifest = make_splits(spec, sizes=(32, 16, 16), seed=3)
    train = splits["train"]
    assert train.targets.min() == 0.0 and train.targets.max() == 1.0
    # Val/test use the train normalization, not their own.
    norm = manifest["normalization"]
    raw_val = spec.evaluate(splits["val"].inputs)
    expected = (raw_val - norm["y_min"]) / (norm["y_max"] - norm["y_min"])
    assert np.allclose(splits["val"].targets, expected)
    # Disjoint sub-streams: no shared input rows between splits.
    as_rows = lambda ds: {tuple(r) for r in ds.inputs}
    assert not (as_rows(train) & as_rows(splits["val"]))
    assert not (as_rows(train) & as_rows(splits["test"]))
    assert manifest["sizes"] == {"train": 32, "val": 16, "test": 16}


def test_make_splits_reproducible():
    spec = builtin_polynomial("S_I(4)")
    s1, _ = make_splits(spec, sizes=(16, 8), seed=9)
    s2, _ = make_splits(spec, sizes=(16, 8), seed=9)
    assert np.array_equal(s1["train"].inputs, s2["train"].inputs)
    assert np.array_equal(s1["val"].targets, s2["val"].targets)


def test_make_splits_refuses_sizes_it_cannot_name():
    # Splits are named train, val and test: a fourth size would have no
    # name, and with no size there is no train split to normalize by.
    spec = builtin_polynomial("S_I(4)")
    for sizes in ((8, 4, 4, 4), ()):
        with pytest.raises(ValueError, match="1-3 split sizes"):
            make_splits(spec, sizes=sizes)


def test_persist_load_round_trip(tmp_path):
    # gen-data persists each split through cli._csv; its .17g floats must
    # read back exactly.
    ds = gen_poly_dataset(builtin_polynomial("S_I(4)"), 5, np.random.default_rng(2))
    path = tmp_path / "data.csv"
    header = [f"x_{i + 1}" for i in range(ds.inputs.shape[1])] + ["y"]
    path.write_bytes(_csv(np.column_stack((ds.inputs, ds.targets)).tolist(), header))
    assert path.read_text().splitlines()[0] == "x_1,x_2,x_3,x_4,x_5,y"
    loaded = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(loaded[:, :-1], ds.inputs)
    assert np.array_equal(loaded[:, -1], ds.targets)


class _ScriptedRng:
    """Hands out a fixed stream of values in order, whatever shape is asked."""

    def __init__(self, stream):
        self.stream = np.asarray(stream, dtype=float)
        self.used = 0

    def uniform(self, size):
        count = int(np.prod(size))
        values = self.stream[self.used : self.used + count]
        self.used += count
        return values.reshape(size)


def _row_by_row(spec, m, rng):
    # One row per draw, a row with a repeated coordinate skipped.
    rows = []
    while len(rows) < m:
        x = rng.uniform(size=spec.n)
        if spec.descriptor.kind != DIHEDRAL or len(set(x.tolist())) == spec.n:
            rows.append(x)
    return np.asarray(rows)


@pytest.mark.parametrize("name", ["D_I(5)", "Z_I(5)"])
def test_gen_poly_dataset_keeps_the_row_by_row_stream(name):
    # Rows 2, 3 and 11 repeat a coordinate, and so does the first redrawn
    # row (stream row 20), so a dihedral draw needs three rounds.
    spec = builtin_polynomial(name)
    stream = np.random.default_rng(5).uniform(size=(30, spec.n))
    for row, (i, j) in {2: (0, 1), 3: (4, 9), 11: (2, 7), 20: (3, 5)}.items():
        stream[row, j] = stream[row, i]
    m = 20
    ds_rng, ref_rng = _ScriptedRng(stream.ravel()), _ScriptedRng(stream.ravel())
    ds = gen_poly_dataset(spec, m, ds_rng)
    expected = _row_by_row(spec, m, ref_rng)
    assert np.array_equal(ds.inputs, expected)
    assert ds_rng.used == ref_rng.used
    assert np.array_equal(ds.targets, spec.evaluate(expected))
    if spec.descriptor.kind == DIHEDRAL:
        assert ds_rng.used == (m + 4) * spec.n
        assert not any(np.array_equal(row, stream[20]) for row in ds.inputs)
