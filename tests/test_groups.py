import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symforge.errors import InvalidDescriptorError
from symforge.groups import (
    CYCLIC,
    DIHEDRAL,
    PRODUCT,
    SYMMETRIC,
    GroupDescriptor,
    Permutation,
    act,
    cyclic_generator,
    elements,
    orbit,
    reflection,
)


def test_cyclic_generator_example():
    g = cyclic_generator((0, 1, 3), 4)
    assert g(0) == 1
    assert g(1) == 3
    assert g(3) == 0
    assert g(2) == 2


def test_reflection_example():
    s = reflection((0, 1, 3), 4)
    assert s(0) == 3 and s(3) == 0 and s(1) == 1 and s(2) == 2


def test_act_shift_example():
    g = Permutation((1, 2, 0))
    out = act(g, np.array([0.1, 0.2, 0.3]))
    assert np.allclose(out, [0.2, 0.3, 0.1])


def test_act_does_not_mutate_input():
    x = np.array([1.0, 2.0, 3.0])
    act(Permutation((2, 0, 1)), x)
    assert np.array_equal(x, [1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "kind,k,expected",
    [
        (CYCLIC, 3, 3),
        (CYCLIC, 5, 5),
        (DIHEDRAL, 3, 6),
        (DIHEDRAL, 5, 10),
        (DIHEDRAL, 2, 2),
        (SYMMETRIC, 3, 6),
        (SYMMETRIC, 4, 24),
    ],
)
def test_element_counts(kind, k, expected):
    d = GroupDescriptor(kind, tuple(range(k)), k + 2)
    elems = elements(d)
    assert len(elems) == expected
    assert d.order() == expected
    assert len({g.mapping for g in elems}) == expected


@pytest.mark.parametrize("kind", [CYCLIC, DIHEDRAL, SYMMETRIC])
def test_closure_and_inverses(kind):
    d = GroupDescriptor(kind, (0, 2, 3, 5), 6)
    elems = {g.mapping for g in elements(d)}
    for g in elements(d):
        assert g.inverse().mapping in elems
        for h in elements(d):
            assert g.compose(h).mapping in elems


def test_elements_fix_complement():
    d = GroupDescriptor(DIHEDRAL, (1, 2, 4), 6)
    for g in elements(d):
        for i in (0, 3, 5):
            assert g(i) == i


def test_compose_matches_action_composition():
    rng = np.random.default_rng(0)
    x = rng.uniform(size=5)
    g = Permutation((1, 2, 0, 4, 3))
    h = Permutation((0, 3, 4, 2, 1))
    assert np.array_equal(act(g.compose(h), x), act(g, act(h, x)))


def test_invalid_descriptors():
    with pytest.raises(InvalidDescriptorError):
        GroupDescriptor("frieze", (0, 1, 2), 5)
    with pytest.raises(InvalidDescriptorError):
        GroupDescriptor(CYCLIC, (0,), 5)
    with pytest.raises(InvalidDescriptorError):
        GroupDescriptor(CYCLIC, (0, 1, 7), 5)
    with pytest.raises(InvalidDescriptorError):
        GroupDescriptor(CYCLIC, (0, 0, 1), 5)
    with pytest.raises(InvalidDescriptorError):
        Permutation((0, 0, 1))


def test_product_validation():
    c3 = GroupDescriptor(CYCLIC, (0, 1, 2), 8)
    s2 = GroupDescriptor(SYMMETRIC, (3, 4), 8)
    prod = GroupDescriptor(PRODUCT, (), 8, (c3, s2))
    assert prod.order() == 6
    assert prod.index_set == (0, 1, 2, 3, 4)
    assert len(elements(prod)) == 6
    # Overlapping supports are rejected.
    with pytest.raises(InvalidDescriptorError):
        GroupDescriptor(
            PRODUCT, (), 8, (c3, GroupDescriptor(SYMMETRIC, (2, 3), 8))
        )
    # Equal component orders are rejected.
    with pytest.raises(InvalidDescriptorError):
        GroupDescriptor(
            PRODUCT,
            (),
            8,
            (c3, GroupDescriptor(CYCLIC, (3, 4, 5), 8)),
        )
    # Two symmetric factors are rejected even with distinct orders.
    with pytest.raises(InvalidDescriptorError):
        GroupDescriptor(
            PRODUCT,
            (),
            8,
            (
                GroupDescriptor(SYMMETRIC, (0, 1), 8),
                GroupDescriptor(SYMMETRIC, (2, 3, 4), 8),
            ),
        )


def test_orbit_sizes():
    x = np.array([0.1, 0.2, 0.3, 0.9, 0.8])
    assert len(orbit(GroupDescriptor(CYCLIC, (0, 1, 2), 5), x)) == 3
    assert len(orbit(GroupDescriptor(SYMMETRIC, (0, 1, 2), 5), x)) == 6
    # A constant vector is a fixed point of every subgroup action.
    ones = np.ones(5)
    assert len(orbit(GroupDescriptor(SYMMETRIC, (0, 1, 2, 3, 4), 5), ones)) == 1


def test_generated_group_matches_descriptor():
    # <g> for g = (0 1 2)(3 4) is the product of its two cycles' groups.
    g = Permutation((1, 2, 0, 4, 3, 5))
    d = GroupDescriptor(
        PRODUCT,
        (),
        6,
        (GroupDescriptor(CYCLIC, (0, 1, 2), 6), GroupDescriptor(CYCLIC, (3, 4), 6)),
    )
    generated = {Permutation.identity(6).mapping}
    cur = g
    while cur.mapping not in generated:
        generated.add(cur.mapping)
        cur = cur.compose(g)
    assert {e.mapping for e in elements(d)} == generated


def test_record_round_trip_is_one_based():
    d = GroupDescriptor(CYCLIC, (2, 4, 5), 10)
    rec = d.to_record()
    assert rec == {"kind": CYCLIC, "index_set": [3, 5, 6], "n": 10}
    prod = GroupDescriptor(
        PRODUCT,
        (),
        8,
        (GroupDescriptor(CYCLIC, (0, 1, 2), 8), GroupDescriptor(SYMMETRIC, (3, 4), 8)),
    )
    assert prod.to_record() == {
        "kind": PRODUCT,
        "n": 8,
        "components": [
            {"kind": CYCLIC, "index_set": [1, 2, 3], "n": 8},
            {"kind": SYMMETRIC, "index_set": [4, 5], "n": 8},
        ],
    }


@settings(max_examples=30, deadline=None)
@given(
    st.permutations(list(range(6))),
    st.lists(st.floats(-1, 1, allow_nan=False), min_size=6, max_size=6),
)
def test_action_is_a_left_action(mapping, values):
    g = Permutation(tuple(mapping))
    x = np.asarray(values)
    assert np.array_equal(act(g.inverse(), act(g, x)), x)


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 7))
def test_cyclic_generator_has_order_k(k):
    d = GroupDescriptor(CYCLIC, tuple(range(k)), k + 1)
    g = cyclic_generator(d.index_set, d.n)
    cur = g
    for _ in range(k - 1):
        cur = cur.compose(g)
    assert cur == Permutation.identity(k + 1)
