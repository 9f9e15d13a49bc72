import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symforge.errors import (
    DimensionError,
    EnumerationTooLargeError,
    InvalidDescriptorError,
    NumericError,
)
from symforge.groups import CYCLIC, DIHEDRAL, SYMMETRIC, GroupDescriptor
from symforge.selection import (
    ArmFeature,
    apply_pipeline_front,
    argmax_arm,
    arm_matrix,
    build_m1,
    build_m2,
    complement_mask,
    dense_matrix,
    enumerate_arms,
    rank_arms,
    selected_pairs,
)


def test_build_m1_compacts_index_set():
    d = GroupDescriptor(CYCLIC, (0, 1, 3), 4)
    assert build_m1(d) == ((0, 0), (1, 1), (2, 3))
    x = np.array([10.0, 20.0, 30.0, 40.0])
    m1x = np.zeros(4)
    for u, i in build_m1(d):
        m1x[u] = x[i]
    assert np.array_equal(m1x, [10.0, 20.0, 40.0, 0.0])


def test_build_m2_row_selections():
    n = 5
    cyc = GroupDescriptor(CYCLIC, (0, 2, 4), n)
    assert build_m2(cyc) == ((0, 1), (1, n + 2), (2, 2 * n))
    sym = GroupDescriptor(SYMMETRIC, (0, 2, 4), n)
    assert build_m2(sym) == ((0, 0), (1, n + 1), (2, 2 * n + 2))
    dih = GroupDescriptor(DIHEDRAL, (0, 2, 4), n)
    assert len(build_m2(dih)) == 6
    assert build_m2(dih)[:3] == build_m2(cyc)


def test_m2_is_constant_in_the_index_set():
    # The M2 entries depend only on (n, k, kind), never on which indices
    # were chosen: M1 has already compacted them into the leading slots.
    for kind in (CYCLIC, DIHEDRAL, SYMMETRIC):
        a = GroupDescriptor(kind, (0, 1, 2), 6)
        b = GroupDescriptor(kind, (2, 4, 5), 6)
        assert build_m2(a) == build_m2(b)


def test_selected_pairs_use_original_coordinates():
    # Each kind on I = (1, 3, 4): a dihedral arm selects every cycle edge in
    # both orientations, the forward pairs first, then each one reversed.
    for kind, pairs in (
        (CYCLIC, ((1, 3), (3, 4), (4, 1))),
        (DIHEDRAL, ((1, 3), (3, 4), (4, 1), (3, 1), (4, 3), (1, 4))),
        (SYMMETRIC, ((1, 1), (3, 3), (4, 4))),
    ):
        d = GroupDescriptor(kind, (1, 3, 4), 5)
        assert selected_pairs(d) == pairs, kind
        mask = complement_mask(d)
        assert mask.tolist() == [True, False, True, False, False]


def test_apply_pipeline_front_cyclic_pair():
    d = GroupDescriptor(CYCLIC, (0, 1), 3)
    front = apply_pipeline_front(d, np.array([5.0, 7.0, 9.0]))
    assert front.shape == (12, 2)
    assert front[0].tolist() == [5.0, 7.0]
    assert front[1].tolist() == [7.0, 5.0]
    assert np.all(front[2:9] == 0.0)
    # Complement block: coordinate 2 kept in place, index set zeroed.
    assert np.all(front[9:11] == 0.0)
    assert front[11].tolist() == [9.0, 0.0]


def test_apply_pipeline_front_shape_guard():
    d = GroupDescriptor(SYMMETRIC, (0, 1, 2), 4)
    with pytest.raises(DimensionError):
        apply_pipeline_front(d, np.zeros(5))


def test_encode_arm_reference_example():
    d = GroupDescriptor(CYCLIC, (3, 5, 6, 8), 10)
    arm = ArmFeature(d)
    assert arm.bits == (0, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 0, 1)


def test_encode_arm_kind_bits():
    # The trailing three bits one-hot the kind in groups.KINDS order: S, D, Z.
    for kind, kind_bits in ((SYMMETRIC, (1, 0, 0)), (DIHEDRAL, (0, 1, 0)), (CYCLIC, (0, 0, 1))):
        arm = ArmFeature(GroupDescriptor(kind, (1, 2, 4), 6))
        assert arm.bits == (0, 1, 1, 0, 1, 0) + kind_bits


def test_enumerate_arms_counts():
    assert len(enumerate_arms(2)) == 1
    assert len(enumerate_arms(3)) == 6
    # n choose 2 symmetric pairs + 3 kinds for every larger subset.
    arms = enumerate_arms(5)
    assert len(arms) == 10 + 3 * (10 + 5 + 1)
    assert len({a.bits for a in arms}) == len(arms)
    for a in arms:
        if len(a.descriptor.index_set) == 2:
            assert a.descriptor.kind == SYMMETRIC


def test_enumerate_arms_guards():
    with pytest.raises(EnumerationTooLargeError):
        enumerate_arms(15)
    with pytest.raises(InvalidDescriptorError):
        enumerate_arms(1)


def test_enumerate_arms_memory():
    # An arm stores only its descriptor, and the kinds on one support share
    # its index-set tuple, so the 48,925 arms of n = 14 hold under 12 MB.
    tracemalloc.start()
    try:
        arms = enumerate_arms(14)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(arms) == 48925
    assert held < 12e6


def test_arm_matrix_is_the_arms_bits():
    for n in range(2, 15):
        arms = enumerate_arms(n)
        A = arm_matrix(arms)
        assert np.array_equal(A, np.array([a.bits for a in arms], dtype=bool))
        assert A.dtype == bool and A.flags.f_contiguous
    with pytest.raises(DimensionError):
        arm_matrix(enumerate_arms(3) + enumerate_arms(4))
    with pytest.raises(ValueError, match="empty arm set"):
        argmax_arm(np.zeros(6), arm_matrix([]))


def test_argmax_arm_ties_break_lexicographically():
    arms = enumerate_arms(3)
    A = arm_matrix(arms)
    mu = np.zeros(6)
    assert arms[argmax_arm(mu, A)].bits == min(a.bits for a in arms)
    assert [arms[i].bits for i in rank_arms(mu, A)] == sorted(a.bits for a in arms)
    with pytest.raises(ValueError):
        argmax_arm(np.array([np.nan] * 6), A)
    with pytest.raises(ValueError):
        rank_arms(np.array([np.inf] * 6), A)
    with pytest.raises(ValueError):
        argmax_arm(mu, arm_matrix([]))
    with pytest.raises(DimensionError):
        argmax_arm(np.zeros(5), A)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_argmax_arm_refuses_an_overflowing_score():
    # mu is finite, but the row [1, 1, 1, 0, 0] scores 2e308: it used to be
    # picked among infinite scores, with an overflow warning.
    row = ArmFeature(GroupDescriptor(SYMMETRIC, (0, 1), 2))
    with pytest.raises(NumericError, match="arm scores must be finite"):
        argmax_arm(np.array([1e308, 1e308, 0, 0, 0]), arm_matrix([row]))


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 6), st.sampled_from(["normal", "integer", "sparse"]), st.integers(0, 10**9))
def test_argmax_and_ranking_match_brute_force(n, kind, seed):
    # Integer-valued mu gives exact ties between arms; "sparse" zeroes some
    # coordinates, so arms that differ only there tie exactly too.  The
    # answer must not depend on where an arm sits in the list.
    rng = np.random.default_rng(seed)
    arms = enumerate_arms(n)
    for _ in range(8):
        mu = rng.normal(size=n + 3)
        if kind == "integer":
            mu = rng.integers(-2, 3, size=n + 3).astype(float)
        elif kind == "sparse":
            mu[rng.random(n + 3) < 0.5] = 0.0
        ranked = sorted(arms, key=lambda a: (-float(np.dot(mu, a.bits)), a.bits))
        for order in (arms, [arms[i] for i in rng.permutation(len(arms))]):
            A = arm_matrix(order)
            assert order[argmax_arm(mu, A)].bits == ranked[0].bits
            assert [order[i].bits for i in rank_arms(mu, A)] == [a.bits for a in ranked]


def test_reference_block_structure_n10():
    # n = 10, I = {0, 2, 3, 6, 7}: M1 compacts the five selected coordinates
    # into the leading slots, and the cyclic M2 walks the leading 5-cycle of
    # the unified lift.
    d = GroupDescriptor(CYCLIC, (0, 2, 3, 6, 7), 10)
    assert build_m1(d) == ((0, 0), (1, 2), (2, 3), (3, 6), (4, 7))
    assert build_m2(d) == ((0, 1), (1, 12), (2, 23), (3, 34), (4, 40))
    assert selected_pairs(d) == ((0, 2), (2, 3), (3, 6), (6, 7), (7, 0))


def test_entry_dumps():
    d = GroupDescriptor(SYMMETRIC, (0, 2), 3)
    dense = dense_matrix(build_m1(d), (3, 3))
    assert dense.tolist() == [[1, 0, 0], [0, 0, 1], [0, 0, 0]]
