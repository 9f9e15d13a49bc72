"""SGD-only ablation: continuous M1/M2 trained jointly with phi.

Instead of selecting a discrete (M1, M2) arm, both matrices are relaxed to
unconstrained reals and learned by the same minibatch SGD as the embedding
and head networks.  The pipeline is

    y = M1 x;  P = all-pairs rows (y_i, y_j);  Z = M2 P;  Q = (I - M1) x;
    out = phi(Z, Q).

This module holds the dense front (Z, Q) and its backward into M1 and M2;
phi's pass is `net`'s, with the rows of Z pooled in their own order.

Neither learned matrix reads as an arm.  At the CLI defaults (seed 1) on
the five builtin tasks, M1 ends dense: 92-100% of its off-diagonal entries
exceed 0.01 in size, the largest 0.44-0.78.  M2 barely moves from its
near-identity start: it stays within 0.033 (n = 10) and 0.106 (S_I(4),
n = 5) of the identity, entrywise, and rounds to the identity, which is no
arm's M2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .net import (
    ABSOLUTE,
    SQUARED,
    Dataset,
    PhiParams,
    TrainConfig,
    _phi_forward,
    _phi_loss_and_grad,
    _residual_loss,
    _sgd,
    init_params,
)
from .rho import rho_unified


@dataclass
class RelaxedParams:
    """M1, M2 and phi's weights in the one float64 vector `theta`; `m1`,
    `m2` and `phi` are views into it."""

    theta: np.ndarray
    n: int
    p: int
    h: int
    m1: np.ndarray = field(init=False, repr=False)  # (n, n)
    m2: np.ndarray = field(init=False, repr=False)  # (n^2, n^2)
    phi: PhiParams = field(init=False, repr=False)

    def __post_init__(self):
        n2 = self.n * self.n
        self.m1 = self.theta[:n2].reshape(self.n, self.n)
        self.m2 = self.theta[n2 : n2 + n2 * n2].reshape(n2, n2)
        self.phi = PhiParams(self.theta[n2 + n2 * n2 :], self.p, self.h, self.n)


def init_relaxed(n: int, p: int = 16, h: int = 32, seed: int = 0) -> RelaxedParams:
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(n)
    m1 = np.eye(n) + rng.uniform(-bound, bound, size=(n, n))
    m2 = np.eye(n * n) + rng.uniform(-bound, bound, size=(n * n, n * n)) / n
    phi = init_params(n, p=p, h=h, seed=seed + 1)
    return RelaxedParams(np.concatenate([m1.ravel(), m2.ravel(), phi.theta]), n, p, h)


def _dense_front(params: RelaxedParams, X):
    """The all-pairs rows P (m, n^2, 2) of Y = M1 x, Z = M2 P and
    Q = (I - M1) x for a batch."""
    Y = X @ params.m1.T  # (m, n)
    P = rho_unified(Y)  # row i*n+j holds (y_i, y_j)
    Z = params.m2 @ P
    return P, Z, X - Y


def forward_relaxed(params: RelaxedParams, X) -> np.ndarray:
    _, Z, Q = _dense_front(params, np.asarray(X, dtype=float))
    return _phi_forward(params.phi, Z, None, Q)


def _pair_major(A):
    """A (m, n^2, 2) laid out as (n^2, 2m): row r holds every sample's pair r."""
    return A.transpose(1, 0, 2).reshape(A.shape[1], -1)


def loss_and_grad_relaxed(params: RelaxedParams, X, y, loss_kind=SQUARED, *, out=None):
    """Mean loss over the batch and its gradients for all relaxed parameters.

    The gradients are written into `out`, a RelaxedParams shaped like
    params, when one is given."""
    X = np.asarray(X, dtype=float)
    m, n = X.shape
    P, Z, Q = _dense_front(params, X)
    grads = out
    if grads is None:
        grads = RelaxedParams(np.empty_like(params.theta), n, params.p, params.h)
    loss, dZ, dQ = _phi_loss_and_grad(
        params.phi, Z, None, Q, np.asarray(y, dtype=float), loss_kind, grads.phi, input_grad=True
    )
    dZ = dZ.reshape(m, n * n, 2)
    np.matmul(_pair_major(dZ), _pair_major(P).T, out=grads.m2)
    dP = params.m2.T @ dZ
    # P row i*n+j is (y_i, y_j): scatter the two slots back onto y.
    dY = dP[:, :, 0].reshape(m, n, n).sum(axis=2) + dP[:, :, 1].reshape(
        m, n, n
    ).sum(axis=1)
    dY -= dQ  # Q = x - y
    np.matmul(dY.T, X, out=grads.m1)
    return loss, grads


def train_relaxed(dataset: Dataset, cfg: TrainConfig, p: int = 16, h: int = 32):
    """Joint minibatch SGD over M1, M2 and phi.  Returns (params, final loss)."""
    rng = np.random.default_rng(cfg.seed)
    params = init_relaxed(dataset.inputs.shape[1], p=p, h=h, seed=cfg.seed)
    grads = RelaxedParams(np.empty_like(params.theta), params.n, p, h)
    X, y = dataset.inputs, dataset.targets

    def grad_fn(rows):
        loss, _ = loss_and_grad_relaxed(params, X[rows], y[rows], cfg.loss_kind, out=grads)
        return loss, grads.theta

    _sgd(params.theta, grad_fn, cfg, len(dataset), rng)
    return params, _residual_loss(forward_relaxed(params, X) - y, cfg.loss_kind)


def evaluate_relaxed(params: RelaxedParams, dataset: Dataset, metric=ABSOLUTE) -> float:
    return _residual_loss(forward_relaxed(params, dataset.inputs) - dataset.targets, metric)
