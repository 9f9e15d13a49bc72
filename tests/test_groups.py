import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symforge.errors import InvalidDescriptorError
from symforge.groups import (
    CYCLIC,
    DIHEDRAL,
    SYMMETRIC,
    GroupDescriptor,
    Permutation,
    act,
    elements,
    orbit,
)
from symforge.oracle import _product_elements


def inverse(g: Permutation) -> Permutation:
    inv = [0] * g.n
    for i, j in enumerate(g.mapping):
        inv[j] = i
    return Permutation(tuple(inv))


def test_cyclic_generator_example():
    # The first cyclic element is the one-step cycle of the index set.
    g = elements(GroupDescriptor(CYCLIC, (0, 1, 3), 4))[0]
    assert g.mapping == (1, 3, 2, 0)


def test_reflection_example():
    # The last dihedral element is the reflection of the index set.
    s = elements(GroupDescriptor(DIHEDRAL, (0, 1, 3), 4))[-1]
    assert s.mapping == (3, 1, 2, 0)


def _generator_reference(kind, idx, n):
    """The element list built from generators: the powers
    pi^1 .. pi^k of the one-step cycle pi, then, for dihedral, sigma * pi^r
    for the reflection sigma, deduplicated."""
    k = len(idx)
    pi = list(range(n))
    sigma = list(range(n))
    for j, i in enumerate(idx):
        pi[i] = idx[(j + 1) % k]
        sigma[i] = idx[k - 1 - j]
    pi, sigma = Permutation(tuple(pi)), Permutation(tuple(sigma))
    powers = [pi]
    while len(powers) < k:
        powers.append(powers[-1].compose(pi))
    if kind == CYCLIC:
        return [g.mapping for g in powers]
    return list(dict.fromkeys(g.mapping for g in powers + [sigma.compose(p) for p in powers]))


@pytest.mark.parametrize("kind", [CYCLIC, DIHEDRAL])
def test_element_order_matches_generator_reference(kind):
    # symmetrize, check_invariance and the lift verifier read this order.
    for n in range(2, 7):
        for size in range(2, n + 1):
            for idx in itertools.combinations(range(n), size):
                got = [g.mapping for g in elements(GroupDescriptor(kind, idx, n))]
                assert got == _generator_reference(kind, idx, n), (idx, n)


def test_symmetric_element_order_is_lexicographic():
    for n in range(2, 7):
        for size in range(2, n + 1):
            for idx in itertools.combinations(range(n), size):
                got = [g.mapping for g in elements(GroupDescriptor(SYMMETRIC, idx, n))]
                assert len(set(got)) == math.factorial(size)
                assert got == sorted(got, key=lambda m: [m[i] for i in idx]), (idx, n)


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
        assert inverse(g).mapping in elems
        for h in elements(d):
            assert g.compose(h).mapping in elems


def test_elements_fix_complement():
    d = GroupDescriptor(DIHEDRAL, (1, 2, 4), 6)
    for g in elements(d):
        for i in (0, 3, 5):
            assert g.mapping[i] == i


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
    components = (GroupDescriptor(CYCLIC, (0, 1, 2), 6), GroupDescriptor(CYCLIC, (3, 4), 6))
    generated = {Permutation.identity(6).mapping}
    cur = g
    while cur.mapping not in generated:
        generated.add(cur.mapping)
        cur = cur.compose(g)
    assert {e.mapping for e in _product_elements(components)} == generated


def test_record_is_zero_based():
    d = GroupDescriptor(CYCLIC, (2, 4, 5), 10)
    rec = d.to_record()
    assert rec == {"kind": CYCLIC, "index_set": [2, 4, 5]}


@settings(max_examples=30, deadline=None)
@given(
    st.permutations(list(range(6))),
    st.lists(st.floats(-1, 1, allow_nan=False), min_size=6, max_size=6),
)
def test_action_is_a_left_action(mapping, values):
    g = Permutation(tuple(mapping))
    x = np.asarray(values)
    assert np.array_equal(act(inverse(g), act(g, x)), x)


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 7))
def test_cyclic_generator_has_order_k(k):
    g = elements(GroupDescriptor(CYCLIC, tuple(range(k)), k + 1))[0]
    cur = g
    for _ in range(k - 1):
        cur = cur.compose(g)
    assert cur == Permutation.identity(k + 1)
