"""Selection matrices M1/M2, the bandit arm space and its binary encoding.

M1 (n x n) compacts the index set into the leading slots: (M1 x)_u = x_{i_u}
for u < k and 0 above.  M2 (n^2 x n^2) is a constant row selection on the
unified pair lift: with slot u holding x_{i_u}, the pair (x_{i_u}, x_{i_v})
sits at unified row u*n + v, so the value conditions defining M2 reduce to
fixed source-row indices per subgroup kind.

Both matrices are stored sparsely as (row, col) entry lists.  The complement
block zeroes the coordinates inside the index set and keeps the rest in
place, so it is untouched by every element of the arm's group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EnumerationTooLargeError, InvalidDescriptorError, NumericError
from .groups import CYCLIC, DIHEDRAL, SYMMETRIC, GroupDescriptor
from .rho import rho_unified

ARM_N_GUARD = 14

# One-hot order of the trailing kind bits.
KIND_BIT_ORDER = (SYMMETRIC, DIHEDRAL, CYCLIC)


def build_m1(descriptor: GroupDescriptor) -> tuple[tuple[int, int], ...]:
    """Sparse entries of M1: one 1 per row u < k, at column i_u."""
    _require_single(descriptor)
    return tuple((u, i) for u, i in enumerate(descriptor.index_set))


def build_m2(descriptor: GroupDescriptor) -> tuple[tuple[int, int], ...]:
    """Sparse entries of M2 as (output row, unified source row) pairs."""
    _require_single(descriptor)
    n, k = descriptor.n, descriptor.k
    if descriptor.kind == SYMMETRIC:
        return tuple((u, u * n + u) for u in range(k))
    if descriptor.kind == CYCLIC:
        return tuple((u, u * n + (u + 1) % k) for u in range(k))
    fwd = [(u, u * n + (u + 1) % k) for u in range(k)]
    bwd = [(k + u, ((u + 1) % k) * n + u) for u in range(k)]
    return tuple(fwd + bwd)


def _require_single(descriptor: GroupDescriptor):
    if descriptor.kind not in (SYMMETRIC, CYCLIC, DIHEDRAL):
        raise InvalidDescriptorError("selection matrices need a single-kind descriptor")


@dataclass(frozen=True)
class SelectionPair:
    """M1/M2 realized for one arm, plus the derived index bookkeeping."""

    descriptor: GroupDescriptor
    m1_entries: tuple[tuple[int, int], ...]
    m2_entries: tuple[tuple[int, int], ...]

    @staticmethod
    def for_descriptor(descriptor: GroupDescriptor) -> "SelectionPair":
        return SelectionPair(descriptor, build_m1(descriptor), build_m2(descriptor))

    @property
    def n(self) -> int:
        return self.descriptor.n

    def selected_pairs(self) -> tuple[tuple[int, int], ...]:
        """Original-coordinate index pairs picked by M2, in output-row order."""
        idx, n = self.descriptor.index_set, self.n
        return tuple((idx[src // n], idx[src % n]) for _, src in self.m2_entries)

    def complement_mask(self) -> np.ndarray:
        """Boolean mask of coordinates outside the index set."""
        mask = np.ones(self.n, dtype=bool)
        mask[list(self.descriptor.index_set)] = False
        return mask


def apply_pipeline_front(sp: SelectionPair, x) -> np.ndarray:
    """The n(n+1) x 2 input to phi: M2 rho(M1 x) stacked over the complement.

    Output rows beyond M2's nonzero rows are (0, 0); the last n rows pair
    each complement coordinate with 0.
    """
    x = np.asarray(x, dtype=float)
    n = sp.n
    if x.shape != (n,):
        raise DimensionError(f"expected a vector of length {n}")
    m1x = np.zeros(n)
    for u, i in sp.m1_entries:
        m1x[u] = x[i]
    lifted = rho_unified(m1x)
    front = np.zeros((n * n, 2))
    for out_row, src in sp.m2_entries:
        front[out_row] = lifted[src]
    comp = np.zeros((n, 2))
    comp[sp.complement_mask(), 0] = x[sp.complement_mask()]
    return np.concatenate([front, comp], axis=0)


@dataclass(frozen=True)
class ArmFeature:
    """A bandit arm: n index bits plus the 3-bit kind one-hot (S, D, Z)."""

    bits: tuple[int, ...]
    descriptor: GroupDescriptor


def encode_arm(descriptor: GroupDescriptor) -> ArmFeature:
    _require_single(descriptor)
    n = descriptor.n
    bits = [0] * (n + 3)
    for i in descriptor.index_set:
        bits[i] = 1
    bits[n + KIND_BIT_ORDER.index(descriptor.kind)] = 1
    return ArmFeature(tuple(bits), descriptor)


def enumerate_arms(n: int) -> list[ArmFeature]:
    """All (kind, I) arms with |I| >= 2; for |I| = 2 the three kinds coincide
    as actions, so only the symmetric arm is kept."""
    if n > ARM_N_GUARD:
        raise EnumerationTooLargeError(f"arm enumeration for n={n} exceeds guard")
    if n < 2:
        raise InvalidDescriptorError("need n >= 2 for any arm")
    arms = []
    for size in range(2, n + 1):
        for combo in itertools.combinations(range(n), size):
            kinds = (SYMMETRIC,) if size == 2 else KIND_BIT_ORDER
            for kind in kinds:
                arms.append(encode_arm(GroupDescriptor(kind, combo, n)))
    return arms


def arm_matrix(arms) -> np.ndarray:
    """The arms' bits as one 0/1 matrix, a row per arm, stored by column so
    that `_scores` reads each column contiguously."""
    return np.array([a.bits for a in arms], dtype=bool, order="F")


def _scores(mu, A) -> np.ndarray:
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
    return _scores(2.0 ** np.arange(A.shape[1] - 1, -1, -1), A)


def argmax_arm(mu, A) -> int:
    """Row of the arm matrix with the largest score a . mu; ties go to the
    lexicographically smallest bit vector."""
    score = _scores(mu, A)
    tied = np.flatnonzero(score == score.max())
    return int(tied[np.argmin(_codes(A[tied]))])


def rank_arms(mu, A) -> np.ndarray:
    """Rows of the arm matrix by score a . mu descending, ties broken as in
    argmax_arm."""
    return np.lexsort((_codes(A), -_scores(mu, A)))


def dense_matrix(entries, shape) -> np.ndarray:
    """The 0/1 integer matrix of a sparse selection matrix."""
    dense = np.zeros(shape, dtype=int)
    for row, col in entries:
        dense[row, col] = 1
    return dense
