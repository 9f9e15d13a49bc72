"""Synthetic regression tasks: the builtin invariant polynomials.

The builtin polynomials have integer coefficients and are term-permutations
under their group, so generated targets are exactly invariant; a
`PolynomialSpec` is refused unless `oracle.check_invariance` finds it
invariant within 1e-12.  Targets are min-max normalized with train-split
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GenerationError
from .groups import CYCLIC, DIHEDRAL, SYMMETRIC, GroupDescriptor
from .net import Dataset
from .oracle import check_invariance

# Cycle orders, 0-based: the index sets {1,2,3,4}, {1,2,3,6,7} and
# {1,2,3,6,7,9,10} of the benchmark definitions.
_CYCLE_5 = (0, 1, 2, 5, 6)
_CYCLE_7 = (0, 1, 2, 5, 6, 8, 9)


@dataclass(frozen=True)
class PolynomialSpec:
    """A target polynomial with its invariance group.

    terms: tuple of (coefficient, ((variable, exponent), ...)) monomials.
    """

    name: str
    descriptor: GroupDescriptor
    terms: tuple

    def __post_init__(self):
        report = check_invariance(self.evaluate, self.descriptor)
        if not report.max_violation <= 1e-12:  # a NaN violation is refused too
            raise ValueError(f"{self.name}: polynomial is not invariant under {report.worst_g}")

    @property
    def n(self) -> int:
        return self.descriptor.n

    def evaluate(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.zeros(X.shape[0])
        for coeff, monomial in self.terms:
            term = np.full(X.shape[0], float(coeff))
            for var, exp in monomial:
                term = term * X[:, var] ** exp
            out += term
        return out


def _chain_terms(cycle, close_reversed=False):
    pairs = [(cycle[j], cycle[(j + 1) % len(cycle)]) for j in range(len(cycle))]
    if close_reversed:
        pairs += [(b, a) for a, b in pairs]
    return tuple((1, ((a, 1), (b, 2))) for a, b in pairs)


# Each builtin's group and terms; its PolynomialSpec, with the invariance
# check, is built when asked for.
_BUILTINS = {
    "S_I(4)": (
        GroupDescriptor(SYMMETRIC, (0, 1, 2, 3), 5),
        ((1, ((0, 1), (1, 1), (2, 1), (3, 1))), (1, ((4, 1),))),
    ),
    "Z_I(5)": (GroupDescriptor(CYCLIC, _CYCLE_5, 10), _chain_terms(_CYCLE_5)),
    "Z_I(7)": (GroupDescriptor(CYCLIC, _CYCLE_7, 10), _chain_terms(_CYCLE_7)),
    "D_I(5)": (GroupDescriptor(DIHEDRAL, _CYCLE_5, 10), _chain_terms(_CYCLE_5, True)),
    "D_I(7)": (GroupDescriptor(DIHEDRAL, _CYCLE_7, 10), _chain_terms(_CYCLE_7, True)),
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin_polynomial(name: str) -> PolynomialSpec:
    """The benchmark polynomials, keyed by kind and index-set size."""
    if name not in _BUILTINS:
        raise KeyError(f"unknown polynomial {name!r}; valid names: {BUILTIN_NAMES}")
    return PolynomialSpec(name, *_BUILTINS[name])


def gen_poly_dataset(spec: PolynomialSpec, m: int, rng) -> Dataset:
    """Uniform inputs on [0,1]^n with exact targets.

    For dihedral specs, rows with a repeated coordinate are redrawn, in stream
    order: the orbit-mapping argument for dihedral groups fails on such inputs.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    X = np.empty((0, spec.n))
    while len(X) < m:
        rows = rng.uniform(size=(m - len(X), spec.n))
        if spec.descriptor.kind == DIHEDRAL:
            rows = rows[(np.diff(np.sort(rows, axis=1), axis=1) != 0).all(axis=1)]
        X = np.concatenate([X, rows])
    return Dataset(X, spec.evaluate(X))


# Train, val and test rows: make_splits' default, and `discover`'s.
SPLIT_SIZES = (64, 480, 4800)


def make_splits(spec: PolynomialSpec, sizes=SPLIT_SIZES, seed=0):
    """Train/val/test from disjoint sub-streams of one seed, targets min-max
    normalized to [0,1] with train statistics; 1-3 sizes name train, val
    and test in that order.  Returns (splits, manifest)."""
    if not 1 <= len(sizes) <= 3:
        raise ValueError(f"need 1-3 split sizes (train, val, test), got {len(sizes)}")
    streams = np.random.SeedSequence(seed).spawn(len(sizes))
    names = ("train", "val", "test")[: len(sizes)]
    raw = {
        name: gen_poly_dataset(spec, size, np.random.default_rng(stream))
        for name, size, stream in zip(names, sizes, streams)
    }
    y_min = float(raw["train"].targets.min())
    y_max = float(raw["train"].targets.max())
    span = y_max - y_min
    if span <= 0:
        raise GenerationError("degenerate target range in the training split")
    splits = {
        name: Dataset(ds.inputs, (ds.targets - y_min) / span)
        for name, ds in raw.items()
    }
    manifest = {
        "spec": spec.name,
        "descriptor": spec.descriptor.to_record(),
        "n": spec.n,
        "seed": seed,
        "sizes": {name: size for name, size in zip(names, sizes)},
        "normalization": {"y_min": y_min, "y_max": y_max},
    }
    return splits, manifest
