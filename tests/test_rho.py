import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symforge.errors import DimensionError, NotInImageError
from symforge.groups import CYCLIC, DIHEDRAL, SYMMETRIC, Permutation, act
from symforge.rho import rho_inverse, rho_unified, rho_variant


def in_image(m, variant: str) -> bool:
    """Exact test for membership in Im(rho_variant): m is the lift of its
    own preimage."""
    try:
        rho_inverse(m, variant)
    except NotInImageError:
        return False
    return True


def test_rho_cyclic_example():
    out = rho_variant([1.0, 2.0, 3.0], CYCLIC)
    assert np.array_equal(out, [[1.0, 2.0], [2.0, 3.0], [3.0, 1.0]])


def test_rho_dihedral_examples():
    out2 = rho_variant([1.0, 2.0], DIHEDRAL)
    assert out2.shape == (4, 2)
    assert np.array_equal(out2, [[1, 2], [2, 1], [2, 1], [1, 2]])
    out3 = rho_variant([1.0, 2.0, 3.0], DIHEDRAL)
    assert out3.shape == (6, 2)
    assert np.array_equal(
        out3, [[1, 2], [2, 1], [2, 3], [3, 2], [3, 1], [1, 3]]
    )


def test_rho_symmetric_example():
    out = rho_variant([1.0, 2.0, 3.0], SYMMETRIC)
    assert np.array_equal(out, [[1, 1], [2, 2], [3, 3]])


def test_rho_unified_row_major():
    out = rho_unified([1.0, 2.0])
    assert np.array_equal(out, [[1, 1], [1, 2], [2, 1], [2, 2]])
    # Row i*n + j holds (x_i, x_j).
    x = np.array([5.0, 7.0, 9.0])
    out = rho_unified(x)
    for i in range(3):
        for j in range(3):
            assert tuple(out[3 * i + j]) == (x[i], x[j])
    # A batch (m, n) lifts each row: (m, n^2, 2), the stacked per-row lifts.
    batch = np.arange(12.0).reshape(4, 3)
    assert np.array_equal(rho_unified(batch), np.stack([rho_unified(row) for row in batch]))


def test_dimension_guards():
    with pytest.raises(DimensionError):
        rho_variant([1.0], CYCLIC)
    with pytest.raises(DimensionError):
        rho_variant(np.ones((2, 2)), CYCLIC)
    with pytest.raises(DimensionError):
        in_image(np.ones((3, 3)), CYCLIC)
    with pytest.raises(DimensionError):
        rho_inverse(np.ones(4), SYMMETRIC)
    for bad in ([1.0], np.float64(1.0)):
        with pytest.raises(DimensionError):
            rho_unified(bad)


def test_rho_variant_dispatch():
    x = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        rho_variant(x, "affine")
    # An unknown kind is refused before the shape is read.
    with pytest.raises(ValueError):
        rho_variant([1.0], "affine")
    for m in (np.ones((3, 2)), np.ones((1, 2)), np.empty((0, 2))):
        with pytest.raises(ValueError):
            in_image(m, "affine")
        with pytest.raises(ValueError):
            rho_inverse(m, "affine")


def test_in_image_cyclic_shuffle_counts():
    # For distinct entries, exactly the k cyclic row rotations of rho(x)
    # stay in the image; a k = 3 lift has 3! row orders, 3 of which pass.
    x = np.array([0.3, 0.7, 0.1])
    rows = [tuple(r) for r in rho_variant(x, CYCLIC)]
    passing = sum(
        in_image(np.array(perm), CYCLIC) for perm in itertools.permutations(rows)
    )
    assert passing == 3


def test_in_image_rejects_near_misses():
    good = rho_variant([1.0, 2.0, 3.0], CYCLIC)
    bad = good.copy()
    bad[0, 1] += 1e-12
    assert in_image(good, CYCLIC)
    assert not in_image(bad, CYCLIC)
    assert not in_image(good, SYMMETRIC)
    assert not in_image(good[:1], CYCLIC)
    assert not in_image(rho_variant([1.0, 2.0, 3.0], DIHEDRAL)[:3], DIHEDRAL)


@pytest.mark.parametrize("variant", [CYCLIC, DIHEDRAL, SYMMETRIC])
def test_inverse_round_trip(variant):
    rng = np.random.default_rng(7)
    for k in (2, 3, 5, 8):
        x = rng.uniform(size=k)
        m = rho_variant(x, variant)
        assert in_image(m, variant)
        assert np.array_equal(rho_inverse(m, variant), x)


def test_inverse_rejects_outside_image():
    with pytest.raises(NotInImageError):
        rho_inverse(np.array([[1.0, 2.0], [3.0, 4.0]]), CYCLIC)
    with pytest.raises(NotInImageError):
        rho_inverse(np.array([[1.0, 2.0]]), SYMMETRIC)
    # rho_variant lifts only vectors of length >= 2, so an empty or one-row
    # pair matrix is no kind's lift, not even a diagonal one.
    for m in (np.empty((0, 2)), np.array([[1.0, 1.0]])):
        for variant in (CYCLIC, DIHEDRAL, SYMMETRIC):
            assert not in_image(m, variant)
            with pytest.raises(NotInImageError):
                rho_inverse(m, variant)


@pytest.mark.parametrize(
    "variant,rows", [(CYCLIC, 1), (DIHEDRAL, 2), (SYMMETRIC, 1)]
)
def test_row_counts(variant, rows):
    for k in (2, 3, 4, 6):
        assert rho_variant(np.arange(k, dtype=float), variant).shape == (rows * k, 2)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.floats(-10, 10, allow_nan=False), min_size=2, max_size=8, unique=True
    ),
    st.sampled_from([CYCLIC, DIHEDRAL, SYMMETRIC]),
)
def test_lift_is_a_pure_copy(values, variant):
    x = np.asarray(values)
    m = rho_variant(x, variant)
    assert set(m.ravel().tolist()) <= set(x.tolist())
    assert np.array_equal(rho_inverse(m, variant), x)


@settings(max_examples=30, deadline=None)
@given(st.permutations(list(range(5))))
def test_equivariance_as_row_multiset(mapping):
    # A cyclic relabeling of the coordinates permutes the rows of the lift
    # exactly when it preserves the row multiset; the identity always does.
    x = np.array([0.11, 0.23, 0.37, 0.53, 0.71])
    g = Permutation(tuple(mapping))
    lifted = {tuple(r) for r in rho_unified(x)}
    relifted = {tuple(r) for r in rho_unified(act(g, x))}
    assert lifted == relifted
