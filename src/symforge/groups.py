"""Locally cyclic, dihedral and symmetric subgroups of S_n and their actions.

Index sets are 0-based internally; serialization (`GroupDescriptor.to_record`)
uses 1-based indices.  A permutation acts on a vector by index pullback:
``(g . x)[i] = x[g(i)]``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, EnumerationTooLargeError, InvalidDescriptorError

SYMMETRIC = "symmetric"
CYCLIC = "cyclic"
DIHEDRAL = "dihedral"
PRODUCT = "product"

KINDS = (SYMMETRIC, CYCLIC, DIHEDRAL)

SYMMETRIC_K_GUARD = 8
PRODUCT_ORDER_GUARD = 10**6


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

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def compose(self, other: "Permutation") -> "Permutation":
        """Return the permutation p with act(p, x) == act(self, act(other, x))."""
        if self.n != other.n:
            raise DimensionError("cannot compose permutations of different sizes")
        return Permutation(tuple(other.mapping[j] for j in self.mapping))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.mapping):
            inv[j] = i
        return Permutation(tuple(inv))

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))


@dataclass(frozen=True)
class GroupDescriptor:
    """Names a subgroup of S_n: a (kind, index set) pair or a product of them.

    For kind == PRODUCT, `components` holds the single-kind factors; their
    index sets must be pairwise disjoint, the factor orders pairwise distinct,
    and at most one factor may be symmetric.
    """

    kind: str
    index_set: tuple[int, ...]
    n: int
    components: tuple["GroupDescriptor", ...] = field(default=())

    def __post_init__(self):
        if self.kind == PRODUCT:
            if len(self.components) < 1:
                raise InvalidDescriptorError("product descriptor needs components")
            seen: set[int] = set()
            orders = []
            n_symmetric = 0
            for comp in self.components:
                if comp.kind not in KINDS:
                    raise InvalidDescriptorError("nested products are not supported")
                if comp.n != self.n:
                    raise InvalidDescriptorError("component ambient dimension mismatch")
                if seen & set(comp.index_set):
                    raise InvalidDescriptorError("component index sets must be disjoint")
                seen |= set(comp.index_set)
                orders.append(comp.order())
                n_symmetric += comp.kind == SYMMETRIC
            if len(set(orders)) != len(orders):
                raise InvalidDescriptorError(
                    "product components must have pairwise distinct orders"
                )
            if n_symmetric > 1:
                raise InvalidDescriptorError(
                    "at most one product component may be symmetric"
                )
            object.__setattr__(
                self, "index_set", tuple(sorted(seen))
            )
            return
        if self.kind not in KINDS:
            raise InvalidDescriptorError(f"unknown kind {self.kind!r}")
        idx = tuple(sorted(self.index_set))
        if len(idx) < 2 or len(set(idx)) != len(idx):
            raise InvalidDescriptorError("index set needs at least 2 distinct indices")
        if idx[0] < 0 or idx[-1] >= self.n:
            raise InvalidDescriptorError(f"index set {idx} not within [0, {self.n})")
        object.__setattr__(self, "index_set", idx)

    @property
    def k(self) -> int:
        return len(self.index_set)

    def order(self) -> int:
        if self.kind == SYMMETRIC:
            return math.factorial(self.k)
        if self.kind == CYCLIC:
            return self.k
        if self.kind == DIHEDRAL:
            # As an action on R^n the k = 2 dihedral group collapses to a
            # single transposition.
            return self.k if self.k == 2 else 2 * self.k
        return math.prod(c.order() for c in self.components)

    def to_record(self) -> dict:
        """Serializable record; index sets are written 1-based."""
        if self.kind == PRODUCT:
            return {
                "kind": self.kind,
                "n": self.n,
                "components": [c.to_record() for c in self.components],
            }
        return {
            "kind": self.kind,
            "index_set": [i + 1 for i in self.index_set],
            "n": self.n,
        }


def _relabeling(idx, images, n: int) -> Permutation:
    """The permutation of [n] mapping idx[j] to images[j] and fixing the rest."""
    mapping = list(range(n))
    for i, image in zip(idx, images):
        mapping[i] = image
    return Permutation(tuple(mapping))


def cyclic_generator(index_set, n: int) -> Permutation:
    """The permutation cycling `index_set` one step and fixing everything else."""
    idx = tuple(sorted(index_set))
    if len(idx) < 2:
        raise InvalidDescriptorError("cyclic generator needs |I| >= 2")
    if idx[0] < 0 or idx[-1] >= n:
        raise InvalidDescriptorError(f"index set {idx} not within [0, {n})")
    return _relabeling(idx, idx[1:] + idx[:1], n)


def reflection(index_set, n: int) -> Permutation:
    """Reflection about the center of the ordered index set."""
    idx = tuple(sorted(index_set))
    return _relabeling(idx, idx[::-1], n)


def elements(descriptor: GroupDescriptor) -> list[Permutation]:
    """Enumerate the group in a fixed, reproducible order.

    Cyclic: pi^1 .. pi^k.  Dihedral: the cyclic powers followed by
    sigma * pi^1 .. sigma * pi^k (duplicates collapse for k = 2).
    Symmetric: lexicographic over the images of the index set.
    """
    if descriptor.kind == PRODUCT:
        if descriptor.order() > PRODUCT_ORDER_GUARD:
            raise EnumerationTooLargeError(
                f"product order {descriptor.order()} exceeds guard"
            )
        factor_elems = [elements(c) for c in descriptor.components]
        out = []
        for combo in itertools.product(*factor_elems):
            g = Permutation.identity(descriptor.n)
            for p in combo:
                g = g.compose(p)
            out.append(g)
        return out

    idx, n, k = descriptor.index_set, descriptor.n, descriptor.k
    if descriptor.kind == SYMMETRIC:
        if k > SYMMETRIC_K_GUARD:
            raise EnumerationTooLargeError(f"symmetric enumeration for k={k} refused")
        return [_relabeling(idx, images, n) for images in itertools.permutations(idx)]

    pi = cyclic_generator(idx, n)
    powers = [pi]
    while len(powers) < k:
        powers.append(powers[-1].compose(pi))
    if descriptor.kind == CYCLIC:
        return powers
    sigma = reflection(idx, n)
    return list(dict.fromkeys(powers + [sigma.compose(p) for p in powers]))


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
