"""Locally cyclic, dihedral and symmetric subgroups of S_n and their actions.

Index sets are 0-based, in memory and in every artifact.  A permutation
acts on a vector by index pullback: ``(g . x)[i] = x[g(i)]``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EnumerationTooLargeError, InvalidDescriptorError

SYMMETRIC = "symmetric"
CYCLIC = "cyclic"
DIHEDRAL = "dihedral"

# The kinds, in the one-hot order of an arm's trailing kind bits.
KINDS = (SYMMETRIC, DIHEDRAL, CYCLIC)

SYMMETRIC_K_GUARD = 8


@dataclass(frozen=True)
class Permutation:
    """A permutation of [n], stored as the tuple of 0-based images."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        n = len(self.mapping)
        if sorted(self.mapping) != list(range(n)):
            raise InvalidDescriptorError(f"not a bijection on [{n}]: {self.mapping}")

    @property
    def n(self) -> int:
        return len(self.mapping)

    def compose(self, other: "Permutation") -> "Permutation":
        """Return the permutation p with act(p, x) == act(self, act(other, x))."""
        if self.n != other.n:
            raise DimensionError("cannot compose permutations of different sizes")
        return Permutation(tuple(other.mapping[j] for j in self.mapping))

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))


@dataclass(frozen=True, slots=True)
class GroupDescriptor:
    """Names a subgroup of S_n: one kind acting on one index set.

    An index set given as a sorted tuple is kept, not copied, so the
    descriptors on one support can share one tuple.  Products of such
    groups exist only in the lift verifier (`oracle.verify_product_group`),
    which takes their factors directly.
    """

    kind: str
    index_set: tuple[int, ...]
    n: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidDescriptorError(f"unknown kind {self.kind!r}")
        idx = tuple(sorted(self.index_set))
        if len(idx) < 2 or len(set(idx)) != len(idx):
            raise InvalidDescriptorError("index set needs at least 2 distinct indices")
        if idx[0] < 0 or idx[-1] >= self.n:
            raise InvalidDescriptorError(f"index set {idx} not within [0, {self.n})")
        if type(self.index_set) is not tuple or idx != self.index_set:
            object.__setattr__(self, "index_set", idx)

    @property
    def k(self) -> int:
        return len(self.index_set)

    def order(self) -> int:
        if self.kind == SYMMETRIC:
            return math.factorial(self.k)
        if self.kind == CYCLIC:
            return self.k
        # As an action on R^n the k = 2 dihedral group collapses to a
        # single transposition.
        return self.k if self.k == 2 else 2 * self.k

    def to_record(self) -> dict:
        """The kind and the 0-based index set, the record every artifact
        writes a subgroup as."""
        return {"kind": self.kind, "index_set": list(self.index_set)}


def _relabeling(idx, images, n: int) -> Permutation:
    """The permutation of [n] mapping idx[j] to images[j] and fixing the rest."""
    mapping = list(range(n))
    for i, image in zip(idx, images):
        mapping[i] = image
    return Permutation(tuple(mapping))


def elements(descriptor: GroupDescriptor) -> list[Permutation]:
    """Enumerate the group in a fixed, reproducible order, each element a
    relabeling of the sorted index set idx.

    Cyclic: the rotations idx[r:] + idx[:r], r = 1 .. k (the powers pi^1 ..
    pi^k of the one-step cycle).  Dihedral: those rotations, then each one
    reversed (sigma * pi^1 .. sigma * pi^k; duplicates collapse for k = 2).
    Symmetric: lexicographic over the images of the index set.
    """
    idx, n, k = descriptor.index_set, descriptor.n, descriptor.k
    if descriptor.kind == SYMMETRIC:
        if k > SYMMETRIC_K_GUARD:
            raise EnumerationTooLargeError(f"symmetric enumeration for k={k} refused")
        return [_relabeling(idx, images, n) for images in itertools.permutations(idx)]
    rotations = [idx[r:] + idx[:r] for r in range(1, k + 1)]
    if descriptor.kind == DIHEDRAL:
        rotations = list(dict.fromkeys(rotations + [rot[::-1] for rot in rotations]))
    return [_relabeling(idx, images, n) for images in rotations]


def act(g: Permutation, x) -> np.ndarray:
    """Apply the index pullback action: out[i] = x[g(i)].  Pure copy."""
    x = np.asarray(x)
    if x.shape[-1] != g.n:
        raise DimensionError(f"vector length {x.shape[-1]} != permutation size {g.n}")
    return x[..., list(g.mapping)]


def orbit(descriptor: GroupDescriptor, x) -> frozenset[tuple[float, ...]]:
    """The points g . x over the group's elements."""
    x = np.asarray(x, dtype=float)
    return frozenset(tuple(act(g, x)) for g in elements(descriptor))
