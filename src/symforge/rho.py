"""Pair-lifting maps: per-subgroup variants and the unified all-pairs form.

A pair matrix is an (m, 2) float array of (left, right) coordinate pairs.
All maps here are pure copies of input coordinates, so image-membership and
inversion use exact floating-point equality.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NotInImageError
from .groups import CYCLIC, DIHEDRAL, SYMMETRIC


def _as_vector(x, min_len=2):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] < min_len:
        raise DimensionError(f"expected a vector of length >= {min_len}")
    return x


def rho_cyclic(x) -> np.ndarray:
    """Rows (x_r, x_{r+1}) with cyclic wrap-around; k rows."""
    x = _as_vector(x)
    return np.stack([x, np.roll(x, -1)], axis=1)


def rho_dihedral(x) -> np.ndarray:
    """Rows alternating (x_r, x_{r+1}) and (x_{r+1}, x_r); 2k rows."""
    x = _as_vector(x)
    fwd = np.stack([x, np.roll(x, -1)], axis=1)
    out = np.empty((2 * x.shape[0], 2))
    out[0::2] = fwd
    out[1::2] = fwd[:, ::-1]
    return out


def rho_symmetric(x) -> np.ndarray:
    """Diagonal rows (x_r, x_r); k rows."""
    x = _as_vector(x)
    return np.stack([x, x], axis=1)


def rho_unified(x) -> np.ndarray:
    """All ordered pairs (x_i, x_j), i outer and j inner (row-major); n^2 rows."""
    x = _as_vector(x)
    n = x.shape[0]
    left = np.repeat(x, n)
    right = np.tile(x, n)
    return np.stack([left, right], axis=1)


def rho_variant(x, variant: str) -> np.ndarray:
    if variant == CYCLIC:
        return rho_cyclic(x)
    if variant == DIHEDRAL:
        return rho_dihedral(x)
    if variant == SYMMETRIC:
        return rho_symmetric(x)
    raise ValueError(f"unknown rho variant {variant!r}")


def in_image(m, variant: str) -> bool:
    """Exact structural test for membership in Im(rho_variant)."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[1] != 2:
        raise DimensionError("pair matrix must have shape (rows, 2)")
    rows = m.shape[0]
    if variant == CYCLIC:
        if rows < 2:
            return False
        return bool(np.all(m[:, 1] == np.roll(m[:, 0], -1)))
    if variant == SYMMETRIC:
        return bool(np.all(m[:, 0] == m[:, 1]))
    if variant == DIHEDRAL:
        if rows < 4 or rows % 2 != 0:
            return False
        fwd, bwd = m[0::2], m[1::2]
        if not np.all(bwd == fwd[:, ::-1]):
            return False
        return bool(np.all(fwd[:, 1] == np.roll(fwd[:, 0], -1)))
    raise ValueError(f"unknown rho variant {variant!r}")


def rho_inverse(m, variant: str) -> np.ndarray:
    """Recover x with rho_variant(x) == m; exact round trip."""
    m = np.asarray(m, dtype=float)
    if not in_image(m, variant):
        raise NotInImageError(f"pair matrix is not in Im(rho_{variant})")
    if variant == DIHEDRAL:
        return m[0::2, 0].copy()
    return m[:, 0].copy()
