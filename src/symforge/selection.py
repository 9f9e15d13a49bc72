"""Selection matrices M1/M2, the bandit arm space and its binary encoding.

M1 (n x n) compacts the index set into the leading slots: (M1 x)_u = x_{i_u}
for u < k and 0 above.  M2 (n^2 x n^2) is a constant row selection on the
unified pair lift: with slot u holding x_{i_u}, the pair (x_{i_u}, x_{i_v})
sits at unified row u*n + v, so the value conditions defining M2 reduce to
fixed source-row indices per subgroup kind.

Both matrices are fixed by the arm's subgroup, so they, the selected pairs,
the complement mask and the arm's bit vector are all read off its
`GroupDescriptor`, the one field an arm stores.  The matrices are stored
sparsely as (row, col) entry lists.  The complement block zeroes the
coordinates inside the index set and keeps the rest in place, so it is
untouched by every element of the arm's group.

`arm_scores` is the one arm scorer: the argmax, the ranking and the
scores a run reports all read it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EnumerationTooLargeError, InvalidDescriptorError, NumericError
from .groups import CYCLIC, KINDS, SYMMETRIC, GroupDescriptor
from .rho import rho_unified

ARM_N_GUARD = 14


def build_m1(descriptor: GroupDescriptor) -> tuple[tuple[int, int], ...]:
    """Sparse entries of M1: one 1 per row u < k, at column i_u."""
    return tuple((u, i) for u, i in enumerate(descriptor.index_set))


def build_m2(descriptor: GroupDescriptor) -> tuple[tuple[int, int], ...]:
    """Sparse entries of M2 as (output row, unified source row) pairs."""
    n, k = descriptor.n, descriptor.k
    if descriptor.kind == SYMMETRIC:
        return tuple((u, u * n + u) for u in range(k))
    if descriptor.kind == CYCLIC:
        return tuple((u, u * n + (u + 1) % k) for u in range(k))
    fwd = [(u, u * n + (u + 1) % k) for u in range(k)]
    bwd = [(k + u, ((u + 1) % k) * n + u) for u in range(k)]
    return tuple(fwd + bwd)


def selected_pairs(descriptor: GroupDescriptor) -> tuple[tuple[int, int], ...]:
    """Original-coordinate index pairs picked by M2, in output-row order."""
    idx, n = descriptor.index_set, descriptor.n
    return tuple((idx[src // n], idx[src % n]) for _, src in build_m2(descriptor))


def complement_mask(descriptor: GroupDescriptor) -> np.ndarray:
    """Boolean mask of coordinates outside the index set."""
    mask = np.ones(descriptor.n, dtype=bool)
    mask[list(descriptor.index_set)] = False
    return mask


def apply_pipeline_front(descriptor: GroupDescriptor, x) -> np.ndarray:
    """The n(n+1) x 2 input to phi: M2 rho(M1 x) stacked over the complement.

    Output rows beyond M2's nonzero rows are (0, 0); the last n rows pair
    each complement coordinate with 0.
    """
    x = np.asarray(x, dtype=float)
    n = descriptor.n
    if x.shape != (n,):
        raise DimensionError(f"expected a vector of length {n}")
    m1x = np.zeros(n)
    for u, i in build_m1(descriptor):
        m1x[u] = x[i]
    lifted = rho_unified(m1x)
    front = np.zeros((n * n, 2))
    for out_row, src in build_m2(descriptor):
        front[out_row] = lifted[src]
    comp = np.zeros((n, 2))
    comp[complement_mask(descriptor), 0] = x[complement_mask(descriptor)]
    return np.concatenate([front, comp], axis=0)


@dataclass(frozen=True, slots=True)
class ArmFeature:
    """A bandit arm: its subgroup, played as n index bits plus the 3-bit
    kind one-hot (S, D, Z)."""

    descriptor: GroupDescriptor

    @property
    def bits(self) -> tuple[int, ...]:
        d = self.descriptor
        bits = [0] * (d.n + 3)
        for i in d.index_set:
            bits[i] = 1
        bits[d.n + KINDS.index(d.kind)] = 1
        return tuple(bits)


def enumerate_arms(n: int) -> list[ArmFeature]:
    """All (kind, I) arms with |I| >= 2; for |I| = 2 the three kinds coincide
    as actions, so only the symmetric arm is kept.  The kinds on one support
    share its index-set tuple."""
    if n > ARM_N_GUARD:
        raise EnumerationTooLargeError(f"arm enumeration for n={n} exceeds guard")
    if n < 2:
        raise InvalidDescriptorError("need n >= 2 for any arm")
    arms = []
    for size in range(2, n + 1):
        for combo in itertools.combinations(range(n), size):
            kinds = (SYMMETRIC,) if size == 2 else KINDS
            for kind in kinds:
                arms.append(ArmFeature(GroupDescriptor(kind, combo, n)))
    return arms


def arm_matrix(arms) -> np.ndarray:
    """The arms' bits as one 0/1 matrix, a row per arm, stored by column so
    that `arm_scores` reads each column contiguously.  It is filled in one
    scatter from the arms' index sets and kinds; every arm must act on the
    same n."""
    descriptors = [a.descriptor for a in arms]
    if not descriptors:
        return np.zeros((0, 0), dtype=bool, order="F")
    n = descriptors[0].n
    if any(d.n != n for d in descriptors):
        raise DimensionError("arms act on different n")
    kind_bit = {kind: (n + j,) for j, kind in enumerate(KINDS)}
    ones = [d.k + 1 for d in descriptors]
    cols = itertools.chain.from_iterable(d.index_set + kind_bit[d.kind] for d in descriptors)
    A = np.zeros((len(descriptors), n + 3), dtype=bool, order="F")
    A[np.repeat(np.arange(len(A)), ones), np.fromiter(cols, np.intp, sum(ones))] = True
    return A


def arm_scores(mu, A) -> np.ndarray:
    """a . mu for every row a of the arm matrix, summed column by column.

    Every row takes the same float operations in the same order, so rows
    whose products agree tie exactly wherever they sit in A.  A BLAS
    matrix-vector product can split such a tie by an ulp, depending on the
    row's position, and the tie-break would then never be reached.
    """
    mu = np.asarray(mu, dtype=float)
    if len(A) == 0:
        raise ValueError("empty arm set")
    if mu.shape != (A.shape[1],):
        raise DimensionError(f"mu must have length {A.shape[1]}")
    if not np.all(np.isfinite(mu)):
        raise ValueError("mu must be finite")
    score = np.zeros(len(A))
    with np.errstate(over="ignore", invalid="ignore"):
        for column, weight in zip(A.T, mu):
            score += column * weight
    if not np.all(np.isfinite(score)):
        raise NumericError("arm scores must be finite")
    return score


def _codes(A) -> np.ndarray:
    """Each row's bits read as a binary number: the codes order the rows as
    their bit vectors order lexicographically."""
    return arm_scores(2.0 ** np.arange(A.shape[1] - 1, -1, -1), A)


def argmax_arm(mu, A) -> int:
    """Row of the arm matrix with the largest score a . mu; ties go to the
    lexicographically smallest bit vector."""
    score = arm_scores(mu, A)
    tied = np.flatnonzero(score == score.max())
    return int(tied[np.argmin(_codes(A[tied]))])


def rank_arms(mu, A) -> np.ndarray:
    """Rows of the arm matrix by score a . mu descending, ties broken as in
    argmax_arm."""
    return np.lexsort((_codes(A), -arm_scores(mu, A)))


def dense_matrix(entries, shape) -> np.ndarray:
    """The 0/1 integer matrix of a sparse selection matrix."""
    dense = np.zeros(shape, dtype=int)
    for row, col in entries:
        dense[row, col] = 1
    return dense
