import math

import numpy as np
import pytest

from symforge import oracle
from symforge.bandit import DiscoveryConfig, run_discovery
from symforge.errors import EnumerationTooLargeError, InvalidDescriptorError
from symforge.groups import (
    CYCLIC,
    DIHEDRAL,
    SYMMETRIC,
    GroupDescriptor,
    act,
    elements,
)
from symforge.net import Dataset, TrainConfig
from symforge.oracle import (
    check_invariance,
    find_set_e_counterexample,
    nonrealizability_counts,
    rho_product,
    step3_passing_perms,
    verify_orbit_mapping,
    verify_product_group,
)
from symforge.selection import ArmFeature


def test_check_invariance_accepts_and_rejects():
    d = GroupDescriptor(SYMMETRIC, (0, 1, 2), 4)
    good = check_invariance(lambda X: X[:, :3].sum(axis=1), d)
    assert good.passed  # violations only at summation-order rounding level
    bad = check_invariance(lambda X: X[:, 0], d)
    assert not bad.passed
    assert bad.worst_x is not None and bad.worst_g is not None
    # The worst pair is one the check drew, and it moves x_0 by the maximum.
    X = np.random.default_rng(0).uniform(size=(100, 4))
    assert any(np.array_equal(bad.worst_x, x) for x in X)
    assert abs(act(bad.worst_g, bad.worst_x)[0] - bad.worst_x[0]) == bad.max_violation
    # A NaN output is no evidence of invariance; it used to be skipped.
    assert not check_invariance(lambda X: np.where(X[:, 0] < 0.5, np.nan, 0.0), d).passed


@pytest.mark.parametrize(
    "descriptor",
    [
        GroupDescriptor(CYCLIC, (0, 2, 3), 5),
        GroupDescriptor(DIHEDRAL, (1, 2, 3, 4), 5),
        GroupDescriptor(SYMMETRIC, (0, 1, 2), 4),
    ],
    ids=lambda d: f"{d.kind}-k{d.k}",
)
def test_check_invariance_makes_one_pass_per_group_element(descriptor):
    # One call on the sample block and one on its image under each
    # element, each on all 100 samples, which are the values 100
    # one-row draws from the same seed give.
    calls = []

    def fn(X):
        calls.append(X)
        return X[:, 0]

    report = check_invariance(fn, descriptor)
    assert len(calls) == descriptor.order() + 1
    rng = np.random.default_rng(0)
    rows = np.array([rng.uniform(size=descriptor.n) for _ in range(100)])
    assert np.array_equal(calls[0], rows)
    group = elements(descriptor)
    assert all(np.array_equal(X, act(g, rows)) for X, g in zip(calls[1:], group))
    moved = max(np.abs(act(g, rows)[:, 0] - rows[:, 0]).max() for g in group)
    assert report.max_violation == moved


def symmetrize(fn, descriptor: GroupDescriptor):
    """Group average of the batch function fn: the canonical invariant
    reference function."""
    group = elements(descriptor)
    scale = 1.0 / len(group)

    def averaged(X):
        return scale * sum(fn(act(g, X)) for g in group)

    return averaged


def test_symmetrize_projection():
    d = GroupDescriptor(SYMMETRIC, (0, 1), 3)
    averaged = symmetrize(lambda X: X[:, 0], d)
    X = np.array([[0.2, 0.8, 0.5]])
    assert np.isclose(averaged(X)[0], 0.5 * (0.2 + 0.8))
    # Idempotent: averaging an already invariant function changes nothing.
    twice = symmetrize(averaged, d)
    assert np.isclose(twice(X)[0], averaged(X)[0])
    assert check_invariance(averaged, d).max_violation <= 1e-12


@pytest.mark.parametrize("kind", [CYCLIC, DIHEDRAL, SYMMETRIC])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_passing_relabelings_count_is_group_order(kind, k):
    rng = np.random.default_rng(10 * k)
    d = GroupDescriptor(kind, tuple(range(k)), k)
    group = {g.mapping for g in elements(d)}
    for _ in range(5):
        x = rng.uniform(size=k)
        while len(set(x.tolist())) < k:
            x = rng.uniform(size=k)
        passing = step3_passing_perms(kind, x)
        assert len(passing) == len(group)
        assert {h.mapping for h in passing} == group


def test_step3_guard():
    with pytest.raises(EnumerationTooLargeError):
        step3_passing_perms(CYCLIC, np.arange(9, dtype=float))


@pytest.mark.parametrize("kind", [CYCLIC, DIHEDRAL, SYMMETRIC])
def test_orbit_mapping_verification(kind):
    for k in (3, 4):
        report = verify_orbit_mapping(kind, k)
        assert report.passed, report.failures
        assert report.counts == [report.order] * report.trials


def test_duplicate_entries_break_dihedral_characterization():
    found = find_set_e_counterexample()
    assert found is not None
    x, h = found
    assert len(set(x.tolist())) < 4
    dihedral = {g.mapping for g in elements(GroupDescriptor(DIHEDRAL, (0, 1, 2, 3), 4))}
    assert h.mapping not in dihedral
    # And the characterization never fails on distinct entries (covered by
    # the orbit-mapping check above); a distinct-entry input admits exactly
    # the dihedral relabelings.
    rng = np.random.default_rng(3)
    x = rng.uniform(size=4)
    assert {p.mapping for p in step3_passing_perms(DIHEDRAL, x)} == dihedral


def test_nonrealizability_counts():
    for k in (3, 4):
        report = nonrealizability_counts(k)
        assert report.passed, report.failures
    with pytest.raises(ValueError):
        nonrealizability_counts(2)


def test_cyclic_vs_symmetric_orbit_sizes_explicitly():
    # The counting argument itself: k! > k for k >= 3, so no invertible
    # linear map can carry a symmetric orbit onto a cyclic one.
    for k in (3, 4, 5):
        assert math.factorial(k) > k


def test_rho_product_concatenates_blocks():
    comps = (
        GroupDescriptor(CYCLIC, (0, 1, 2), 5),
        GroupDescriptor(SYMMETRIC, (3, 4), 5),
    )
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    lifted = rho_product(comps, x)
    assert lifted.shape == (5, 2)  # k + k rows: 3 cyclic + 2 symmetric
    assert np.array_equal(lifted[:3], [[1, 2], [2, 3], [3, 1]])
    assert np.array_equal(lifted[3:], [[4, 4], [5, 5]])


def test_product_group_verification():
    combos = [
        (
            GroupDescriptor(CYCLIC, (0, 1, 2), 5),
            GroupDescriptor(SYMMETRIC, (3, 4), 5),
        ),
        (
            GroupDescriptor(DIHEDRAL, (0, 1, 2), 7),
            GroupDescriptor(CYCLIC, (3, 4, 5, 6), 7),
        ),
    ]
    for components in combos:
        report = verify_product_group(components, trials=3)
        assert report.passed, report.failures
        assert report.order == math.prod(c.order() for c in components)


def test_product_validation():
    c3 = GroupDescriptor(CYCLIC, (0, 1, 2), 8)
    s2 = GroupDescriptor(SYMMETRIC, (3, 4), 8)
    assert verify_product_group((c3, s2), trials=1).order == 6
    rejected = {
        "empty": (),
        "overlapping supports": (c3, GroupDescriptor(SYMMETRIC, (2, 3), 8)),
        "mixed n": (c3, GroupDescriptor(SYMMETRIC, (3, 4), 9)),
        "equal orders": (c3, GroupDescriptor(CYCLIC, (3, 4, 5), 8)),
        # Two symmetric factors are rejected even with distinct orders.
        "two symmetric": (
            GroupDescriptor(SYMMETRIC, (0, 1), 8),
            GroupDescriptor(SYMMETRIC, (2, 3, 4), 8),
        ),
    }
    for components in rejected.values():
        with pytest.raises(InvalidDescriptorError):
            verify_product_group(components, trials=1)


def test_product_support_guard():
    # C3 x C6 has 18 elements, but step 3 would search all 9! relabelings of
    # its 9 coordinates.
    components = (
        GroupDescriptor(CYCLIC, (0, 1, 2), 9),
        GroupDescriptor(CYCLIC, tuple(range(3, 9)), 9),
    )
    with pytest.raises(EnumerationTooLargeError, match="product support of 9 coordinates"):
        verify_product_group(components, trials=1)


def test_end_to_end_symmetrized_probe_prefers_true_kind():
    # Symmetrize a generic function over a known group, then let the
    # discovery loop compare the true arm against the other kinds on the
    # same support: the true arm must win on held-out loss.
    n, k = 4, 3
    true = GroupDescriptor(CYCLIC, tuple(range(k)), n)
    probe = symmetrize(lambda X: X[:, 0] * X[:, 1] ** 2 + 0.5 * X[:, 3], true)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(64, n))
        y = probe(X)
        y = (y - y.min()) / (y.max() - y.min())
        arms = [
            ArmFeature(GroupDescriptor(kind, tuple(range(k)), n))
            for kind in (CYCLIC, DIHEDRAL, SYMMETRIC)
        ]
        cfg = DiscoveryConfig(
            T=9,
            train_cfg=TrainConfig(epochs=150, batch_size=16, seed=0),
            size_bonus=0.0,
            seed=seed,
        )
        result = run_discovery(arms, Dataset(X, y), cfg)
        # A failed or unpulled arm has no fit.
        fits = {a.descriptor.kind: result.fits.get(a.bits) for a in arms}
        losses = {kind: float("inf") if fit is None else fit.loss for kind, fit in fits.items()}
        assert losses[CYCLIC] <= min(losses[DIHEDRAL], losses[SYMMETRIC])


_real_rho_variant = oracle.rho_variant
_real_rho_inverse = oracle.rho_inverse


def _reversed_inverse(m, kind):
    return _real_rho_inverse(m, kind)[::-1]


def _position_tagged_lift(x, kind):
    lifted = _real_rho_variant(x, kind)
    return np.column_stack([lifted, np.arange(len(lifted))])


def _untagged_inverse(m, kind):
    return _real_rho_inverse(m[:, :2], kind)


def _symmetric_lift(x, kind):
    return _real_rho_variant(x, SYMMETRIC)


def _symmetric_inverse(m, kind):
    return _real_rho_inverse(m, SYMMETRIC)


BROKEN_LIFTS = {
    # The inverse no longer recovers x: step 1 alone fails.
    "reversed-inverse": (_real_rho_variant, _reversed_inverse, {"step1"}),
    # Each row carries its position, so a relabeling moves rows to other
    # tags: equivariance fails, and only the identity keeps the rows.
    "position-tags": (_position_tagged_lift, _untagged_inverse, {"step2", "step3-count"}),
    # The symmetric lift is preserved by every relabeling: equivariance
    # holds, but more relabelings than the group's preserve the rows.
    "symmetric-lift": (_symmetric_lift, _symmetric_inverse, {"step3-count", "step3-membership"}),
    # The same lift against the verified kind's own inverse: the lifted rows
    # leave that inverse's image, which is a step-1 failure, not an error.
    "symmetric-lift-real-inverse": (
        _symmetric_lift,
        _real_rho_inverse,
        {"step1", "step3-count", "step3-membership"},
    ),
}

VERIFIERS = {
    "cyclic-k4": lambda: oracle.verify_orbit_mapping(CYCLIC, 4),
    "cyclic3xsymmetric2": lambda: oracle.verify_product_group(
        (GroupDescriptor(CYCLIC, (0, 1, 2), 5), GroupDescriptor(SYMMETRIC, (3, 4), 5)),
        trials=3,
    ),
}


@pytest.mark.parametrize("verifier", VERIFIERS)
@pytest.mark.parametrize("broken", BROKEN_LIFTS)
def test_verifiers_report_a_broken_lift(monkeypatch, broken, verifier):
    lift, inverse, steps = BROKEN_LIFTS[broken]
    monkeypatch.setattr(oracle, "rho_variant", lift)
    monkeypatch.setattr(oracle, "rho_inverse", inverse)
    report = VERIFIERS[verifier]()
    assert not report.passed
    labels = {failure[0] for failure in report.failures}
    assert steps <= labels, labels
    assert labels - steps <= {"step4"}, labels
