"""Brute-force ground truth: the invariance check, lift verification and
orbit-counting arguments.

One invariance check (`check_invariance`) serves the network and the
builtin polynomials: it runs a batch function once on its block of samples
and once on the block's image under each group element.

One lift verifier serves single-kind and product groups, which exist only
here: it takes a group's single-kind factors, one kind being the
one-component case, so the same per-trial checks (injectivity, equivariance,
image characterization) and relabeling search run for both, and
`verify_orbit_mapping` adds the orbit-to-canonical-form check on top.

The orbit of a pair matrix under row permutations is never enumerated;
sorting the rows lexicographically gives a canonical representative, and
canonical-form equality is equivalent to row-permutation-orbit equality.
For distinct-entry inputs the rows of every rho variant are distinct, so
"some row permutation of rho(x) lies in the image" is equivalent to "some
relabeling h of the coordinates preserves the row multiset", which keeps
the search space at k! instead of (rows)!.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EnumerationTooLargeError, InvalidDescriptorError, NotInImageError
from .groups import (
    CYCLIC,
    DIHEDRAL,
    SYMMETRIC,
    SYMMETRIC_K_GUARD,
    GroupDescriptor,
    Permutation,
    act,
    elements,
    orbit,
)
from .rho import rho_inverse, rho_variant

# The checks' sample sizes and the invariance tolerance; no caller needs others.
_INVARIANCE_SAMPLES = 100
_INVARIANCE_TOL = 1e-9
_ORBIT_TRIALS = 100
_NONREAL_TRIALS = 50


@dataclass
class InvarianceReport:
    max_violation: float
    worst_x: np.ndarray | None
    worst_g: Permutation | None
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tol


def check_invariance(fn, descriptor: GroupDescriptor):
    """Max of |fn(g.X) - fn(X)| over all group elements and the rows of X,
    _INVARIANCE_SAMPLES uniform inputs drawn as one block from a generator
    seeded with 0; it passes within _INVARIANCE_TOL.  fn maps an (m, n)
    batch to its m outputs and is called once on X and once per element.
    The worst (x, g) is the first maximum with the samples in draw order
    and each sample's elements in `elements` order."""
    X = np.random.default_rng(0).uniform(size=(_INVARIANCE_SAMPLES, descriptor.n))
    base = fn(X)
    group = elements(descriptor)
    violations = np.column_stack([np.abs(fn(act(g, X)) - base) for g in group])
    row, col = np.unravel_index(np.argmax(violations), violations.shape)
    return InvarianceReport(float(violations[row, col]), X[row], group[col], _INVARIANCE_TOL)


def _distinct_sample(rng, k):
    while True:
        x = rng.uniform(size=k)
        if len(set(x.tolist())) == k:
            return x


def _row_multiset(m) -> tuple:
    return tuple(sorted(map(tuple, np.asarray(m))))


def rho_product(components, x) -> np.ndarray:
    """Concatenated per-component pair lifts on the component index sets."""
    x = np.asarray(x, dtype=float)
    blocks = [rho_variant(x[list(c.index_set)], c.kind) for c in components]
    return np.concatenate(blocks, axis=0)


def _preserving_relabelings(components, x, support) -> list[Permutation]:
    """The relabelings of `support` (fixing every other coordinate) that
    preserve the row multiset of rho_product(components, x), in the
    lexicographic order of their images."""
    target = _row_multiset(rho_product(components, x))
    relabelings = elements(GroupDescriptor(SYMMETRIC, tuple(support), len(x)))
    return [h for h in relabelings if _row_multiset(rho_product(components, act(h, x))) == target]


def step3_passing_perms(kind: str, x) -> list[Permutation]:
    """All coordinate relabelings preserving the row multiset of rho(x)."""
    x = np.asarray(x, dtype=float)
    k = x.shape[0]
    return _preserving_relabelings((GroupDescriptor(kind, tuple(range(k)), k),), x, range(k))


@dataclass
class VerificationReport:
    """A brute-force check's failures over `trials` samples of a group of
    `order` elements, and each trial's count of row-preserving relabelings."""

    order: int
    trials: int
    failures: list = field(default_factory=list)
    counts: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _product_elements(components) -> list[Permutation]:
    """One element of each factor, composed, in `itertools.product` order."""
    identity = Permutation.identity(components[0].n)
    factors = itertools.product(*map(elements, components))
    return [functools.reduce(Permutation.compose, combo, identity) for combo in factors]


def _verify_lift(components, trials, orbits=False):
    """Steps 1-3 of the lift verification of the group with factors
    `components` on `trials` distinct-entry samples, and step 4 when
    `orbits` is set.

    1. The lift is injective: each component's block of the lift
       round-trips exactly through rho_inverse, which must not refuse it.
    2. The lift is equivariant: every group element permutes the rows.
    3. Image characterization: exactly the group's relabelings of the
       support preserve the row multiset.
    4. Distinct orbits lift to distinct row-sorted canonical forms; that
       every point of an orbit lifts to the same one is step 2.
    """
    rng = np.random.default_rng(0)
    support = sorted(i for c in components for i in c.index_set)
    group = _product_elements(components)
    group_set = {g.mapping for g in group}
    report = VerificationReport(len(group), trials)

    canon_by_orbit = []
    for trial in range(trials):
        x = _distinct_sample(rng, components[0].n)
        for c in components:
            xc = x[list(c.index_set)]
            try:
                round_trips = np.array_equal(rho_inverse(rho_variant(xc, c.kind), c.kind), xc)
            except NotInImageError:  # the lift left the inverse's image
                round_trips = False
            if not round_trips:
                report.failures.append(("step1", trial, c))

        canon = _row_multiset(rho_product(components, x))
        for h in group:
            if _row_multiset(rho_product(components, act(h, x))) != canon:
                report.failures.append(("step2", trial, h))

        passing = _preserving_relabelings(components, x, support)
        report.counts.append(len(passing))
        if len(passing) != len(group):
            report.failures.append(("step3-count", trial, len(passing)))
        for h in passing:
            if h.mapping not in group_set:
                report.failures.append(("step3-membership", trial, h))

        if not orbits:
            continue
        this_orbit = frozenset(tuple(act(g, x)) for g in group)
        for other_orbit, other_canon in canon_by_orbit:
            same_orbit = this_orbit == other_orbit
            if same_orbit != (canon == other_canon):
                report.failures.append(("step4", trial, x))
        canon_by_orbit.append((this_orbit, canon))
    return report


def verify_orbit_mapping(kind: str, k: int) -> VerificationReport:
    """All four steps of the lift verification for one kind on k
    coordinates, on _ORBIT_TRIALS samples drawn from a generator seeded with 0."""
    return _verify_lift((GroupDescriptor(kind, tuple(range(k)), k),), _ORBIT_TRIALS, orbits=True)


def find_set_e_counterexample():
    """A duplicate-coordinate input on 4 coordinates where the dihedral
    image test admits a relabeling outside the dihedral group; None if 200
    tries, drawn from a generator seeded with 0, find none."""
    k = 4
    rng = np.random.default_rng(0)
    descriptor = GroupDescriptor(DIHEDRAL, tuple(range(k)), k)
    dihedral = {g.mapping for g in elements(descriptor)}
    for _ in range(200):
        x = _distinct_sample(rng, k)
        i, j = rng.choice(k, size=2, replace=False)
        x[i] = x[j]
        for h in step3_passing_perms(DIHEDRAL, x):
            if h.mapping not in dihedral:
                return x, h
    return None


def nonrealizability_counts(k: int):
    """Orbit-size counting behind the linear non-realizability argument:
    cyclic orbits have at most k points while the symmetric orbit of a
    generic image under an invertible map has k! points.  Each of
    _NONREAL_TRIALS trials draws, from a generator seeded with 0, a Gaussian
    map of condition number at most 1e3 and a distinct-entry input."""
    if k < 3:
        raise ValueError("the counting argument needs k >= 3")
    rng = np.random.default_rng(0)
    cyclic = GroupDescriptor(CYCLIC, tuple(range(k)), k)
    symmetric = GroupDescriptor(SYMMETRIC, tuple(range(k)), k)
    report = VerificationReport(math.factorial(k), _NONREAL_TRIALS)
    for trial in range(_NONREAL_TRIALS):
        while True:
            M = rng.normal(size=(k, k))
            if np.linalg.cond(M) <= 1e3:
                break
        x = _distinct_sample(rng, k)
        z = M @ x
        if len(set(z.tolist())) < k:
            report.failures.append(("degenerate-image", trial))
            continue
        if len(orbit(cyclic, x)) > k:
            report.failures.append(("cyclic-orbit", trial, x))
        if len(orbit(symmetric, z)) != report.order:
            report.failures.append(("symmetric-orbit", trial, z))
    return report


def verify_product_group(components, trials) -> VerificationReport:
    """Steps 1-3 of the lift verification, on `trials` samples drawn from a
    generator seeded with 0, for the concatenated lift of the product of
    `components`: at least one single-kind factor, all in one n, on
    disjoint index sets of at most SYMMETRIC_K_GUARD coordinates in all,
    with distinct orders and at most one symmetric."""
    components = tuple(components)
    if not components:
        raise InvalidDescriptorError("product descriptor needs components")
    if len({c.n for c in components}) > 1:
        raise InvalidDescriptorError("component ambient dimension mismatch")
    support = [i for c in components for i in c.index_set]
    if len(set(support)) != len(support):
        raise InvalidDescriptorError("component index sets must be disjoint")
    orders = [c.order() for c in components]
    if len(set(orders)) != len(orders):
        raise InvalidDescriptorError("product components must have pairwise distinct orders")
    if [c.kind for c in components].count(SYMMETRIC) > 1:
        raise InvalidDescriptorError("at most one product component may be symmetric")
    if math.prod(orders) > 10**4:
        raise EnumerationTooLargeError("product order exceeds verification guard")
    if len(support) > SYMMETRIC_K_GUARD:
        # Step 3 searches every relabeling of the support, the symmetric group on it.
        raise EnumerationTooLargeError(
            f"product support of {len(support)} coordinates exceeds the relabeling-search "
            f"guard of {SYMMETRIC_K_GUARD}"
        )
    return _verify_lift(components, trials)
