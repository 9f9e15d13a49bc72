"""SGD-only ablation: continuous M1/M2 trained jointly with phi.

Instead of selecting a discrete (M1, M2) arm, both matrices are relaxed to
unconstrained reals and learned by the same minibatch SGD as the embedding
and head networks.  The pipeline is

    y = M1 x;  P = all-pairs rows (y_i, y_j);  Z = M2 P;  Q = (I - M1) x;
    out = phi(Z, Q).

This module holds the dense front (Z, Q) and its backward into M1 and M2;
phi's pass is `net`'s, with the rows of Z pooled in their own order.  The
front is written into buffers that end in the ones column phi's bias rows
multiply; in `train_relaxed`, `net._sgd` keeps them for the fit, one set
per batch size, and `forward_relaxed` runs through `net._predict`, whose
blocks of rows each allocate their own.

Neither learned matrix reads as an arm.  At the CLI defaults (seed 1) on
the five builtin tasks, as measured at commit d45e48a with numpy 2.4.6 and
OpenBLAS's SkylakeX kernel, M1 ends dense: 92-100% of its off-diagonal
entries exceed 0.01 in size, the largest 0.44-0.78.  M2 barely moves from
its near-identity start: its largest entrywise distance from the identity
is 0.033 (n = 10) and 0.106 (S_I(4), n = 5), to three decimals, and it
rounds to the identity, which is no arm's M2.  The test suite holds the
S_I(4) and Z_I(5) runs to these figures.
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
    _phi_buffers,
    _phi_forward,
    _phi_loss_and_grad,
    _predict,
    _residual_loss,
    _sgd,
    init_params,
)
from .rho import rho_unified


@dataclass
class RelaxedParams:
    """M1, M2 and phi's weights in the one float64 vector `theta`; `m1`,
    `m2` and `phi` are views into it.  phi has `net`'s widths."""

    theta: np.ndarray
    n: int
    m1: np.ndarray = field(init=False, repr=False)  # (n, n)
    m2: np.ndarray = field(init=False, repr=False)  # (n^2, n^2)
    phi: PhiParams = field(init=False, repr=False)

    def __post_init__(self):
        n2 = self.n * self.n
        self.m1 = self.theta[:n2].reshape(self.n, self.n)
        self.m2 = self.theta[n2 : n2 + n2 * n2].reshape(n2, n2)
        self.phi = PhiParams(self.theta[n2 + n2 * n2 :], self.n)


def init_relaxed(n: int, seed: int) -> RelaxedParams:
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(n)
    m1 = np.eye(n) + rng.uniform(-bound, bound, size=(n, n))
    m2 = np.eye(n * n) + rng.uniform(-bound, bound, size=(n * n, n * n)) / n
    phi = init_params(n, seed=seed + 1)
    return RelaxedParams(np.concatenate([m1.ravel(), m2.ravel(), phi.theta]), n)


def _front_buffers(n: int, rows: int):
    """(Z, Q) buffers for a batch of `rows` samples: (rows, n^2, 3) and
    (rows, n + 1), each with phi's trailing ones column."""
    return np.ones((rows, n * n, 3)), np.ones((rows, n + 1))


def _dense_front(params: RelaxedParams, X, front):
    """The all-pairs rows P (m, n^2, 2) of Y = M1 x, and Z = M2 P and
    Q = (I - M1) x for a batch, written into the `front` buffers (see
    `_front_buffers`) ahead of their ones columns.  Returns (P, Z, Q)."""
    Z, Q = front
    Y = X @ params.m1.T  # (m, n)
    P = rho_unified(Y)  # row i*n+j holds (y_i, y_j)
    np.matmul(params.m2, P, out=Z[..., :-1])
    np.subtract(X, Y, out=Q[:, :-1])
    return P, Z, Q


def forward_relaxed(params: RelaxedParams, X) -> np.ndarray:
    def forward_rows(block):
        _, Z, Q = _dense_front(params, block, _front_buffers(params.n, len(block)))
        return _phi_forward(params.phi, Z, Q)

    return _predict(forward_rows, X)


def _pair_major(A):
    """A (m, n^2, 2) laid out as (n^2, 2m): row r holds every sample's pair r."""
    return A.transpose(1, 0, 2).reshape(A.shape[1], -1)


def _buffers(params: RelaxedParams, rows: int):
    """The front's buffers and phi's for a batch of `rows` samples."""
    return _front_buffers(params.n, rows), _phi_buffers(params.phi, rows, params.n**2)


def loss_and_grad_relaxed(
    params: RelaxedParams, X, y, loss_kind=SQUARED, *, out=None, buffers=None
):
    """Mean loss over the batch and its gradients for all relaxed parameters.

    The gradients are written into `out`, a RelaxedParams shaped like
    params, when one is given.  `buffers` are `_buffers` for the batch's
    shape, which `net._sgd` keeps across a fit's steps; without them the
    pass allocates its own."""
    X = np.asarray(X, dtype=float)
    m, n = X.shape
    if buffers is None:
        buffers = _buffers(params, m)
    front, phi_buffers = buffers
    P, Z, Q = _dense_front(params, X, front)
    grads = out
    if grads is None:
        grads = RelaxedParams(np.empty_like(params.theta), n)
    loss, dZ, dQ = _phi_loss_and_grad(
        params.phi, Z, Q, np.asarray(y, dtype=float), loss_kind, grads.phi, True, phi_buffers
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


def train_relaxed(dataset: Dataset, cfg: TrainConfig):
    """Joint minibatch SGD over M1, M2 and phi, in `net._sgd`.  Returns
    (params, final loss), the loss `evaluate_relaxed` gives on dataset in
    cfg.loss_kind; a non-finite training loss raises NumericError."""
    rng = np.random.default_rng(cfg.seed)
    params = init_relaxed(dataset.inputs.shape[1], seed=cfg.seed)
    grads = RelaxedParams(np.empty_like(params.theta), params.n)
    X, y = dataset.inputs, dataset.targets

    def step(rows, buffers):
        loss_and_grad_relaxed(params, X[rows], y[rows], cfg.loss_kind, out=grads, buffers=buffers)

    return _sgd(
        params.theta, grads.theta, step, lambda rows: _buffers(params, rows),
        lambda: (params, evaluate_relaxed(params, dataset, cfg.loss_kind)),
        cfg, len(dataset), rng,
    )


def evaluate_relaxed(params: RelaxedParams, dataset: Dataset, metric=ABSOLUTE) -> float:
    return _residual_loss(forward_relaxed(params, dataset.inputs) - dataset.targets, metric)
