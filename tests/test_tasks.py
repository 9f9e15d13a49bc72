import numpy as np
import pytest

from symforge.oracle import check_invariance
from symforge.tasks import (
    BUILTIN_NAMES,
    builtin_polynomial,
    gen_poly_dataset,
    make_splits,
    persist_dataset,
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
    report = check_invariance(
        lambda x: float(spec.evaluate(x)[0]), spec.descriptor, samples=20, tol=1e-12
    )
    assert report.passed


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


def test_persist_load_round_trip(tmp_path):
    ds = gen_poly_dataset(builtin_polynomial("S_I(4)"), 5, np.random.default_rng(2))
    path = tmp_path / "data.csv"
    persist_dataset(ds, path)
    assert path.read_text().splitlines()[0] == "x_1,x_2,x_3,x_4,x_5,y"
    loaded = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(loaded[:, :-1], ds.inputs)
    assert np.array_equal(loaded[:, -1], ds.targets)
