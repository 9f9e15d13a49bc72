"""Pair-lifting maps: the per-subgroup lift and the unified all-pairs form.

A pair matrix is an (m, 2) float array of (left, right) coordinate pairs.
`rho_variant` is the one per-kind lift.  `rho_unified` lifts a vector, or
a batch of them on the last axis, to all ordered pairs.  A pair matrix is
in a kind's image exactly when it is the lift of its own preimage: the
left entry of each row, or of every other row for dihedral.  All maps here
are pure copies of input coordinates, so image-membership and inversion
use exact floating-point equality.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NotInImageError
from .groups import CYCLIC, DIHEDRAL, SYMMETRIC


def rho_unified(x) -> np.ndarray:
    """All ordered pairs (x_i, x_j) of each length-n vector on x's last axis,
    i outer and j inner (row-major): shape (..., n^2, 2)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] < 2:
        raise DimensionError("expected vectors of length >= 2 on the last axis")
    n = x.shape[-1]
    return np.stack([np.repeat(x, n, axis=-1), np.tile(x, n)], axis=-1)


def rho_variant(x, variant: str) -> np.ndarray:
    """The lift of a vector x of length k >= 2 for one subgroup kind:
    cyclic rows (x_r, x_{r+1}) with wrap-around (k rows); dihedral rows
    alternating (x_r, x_{r+1}) and (x_{r+1}, x_r) (2k rows); symmetric
    diagonal rows (x_r, x_r) (k rows)."""
    if variant not in (CYCLIC, DIHEDRAL, SYMMETRIC):
        raise ValueError(f"unknown rho variant {variant!r}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] < 2:
        raise DimensionError("expected a vector of length >= 2")
    if variant == SYMMETRIC:
        return np.stack([x, x], axis=1)
    nxt = np.roll(x, -1)
    if variant == CYCLIC:
        return np.stack([x, nxt], axis=1)
    return np.stack([x, nxt, nxt, x], axis=1).reshape(-1, 2)


def rho_inverse(m, variant: str) -> np.ndarray:
    """The preimage x of m, with rho_variant(x) == m; exact round trip.
    Raises NotInImageError when m is not the lift of its preimage."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[1] != 2:
        raise DimensionError("pair matrix must have shape (rows, 2)")
    x = (m[0::2, 0] if variant == DIHEDRAL else m[:, 0]).copy()
    try:
        lift = rho_variant(x, variant)
    except DimensionError:  # a preimage of fewer than 2 entries has no lift
        lift = None
    if lift is None or not np.array_equal(lift, m):
        raise NotInImageError(f"pair matrix is not in Im(rho_{variant})")
    return x
