"""SGD-only ablation: continuous M1/M2 trained jointly with phi.

Instead of selecting a discrete (M1, M2) arm, both matrices are relaxed to
unconstrained reals and learned by the same minibatch SGD as the embedding
and head networks.  The pipeline is

    y = M1 x;  P = all-pairs rows (y_i, y_j);  Z = M2 P;
    pooled = mean_rows eta(Z);  q = (I - M1) x;  out = mu_head([pooled; q]).

This reproduces the ablation result that joint gradient descent over the
matrices underperforms discrete selection and produces dense,
uninterpretable matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError
from .net import (
    ABSOLUTE,
    SQUARED,
    Dataset,
    PhiParams,
    TrainConfig,
    _mlp_backward,
    _mlp_forward,
    _residual_grad,
    _residual_loss,
    _sgd,
    init_params,
)


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


def _relaxed_front(params: RelaxedParams, X):
    """Pooled embedding and complement for a batch, plus caches."""
    m, n = X.shape
    Y = X @ params.m1.T  # (m, n)
    # All-pairs rows in row-major order: row i*n+j holds (y_i, y_j).
    P = np.stack([np.repeat(Y, n, axis=1), np.tile(Y, (1, n))], axis=2)  # (m, n^2, 2)
    Z = np.einsum("rs,msk->mrk", params.m2, P)  # (m, n^2, 2)
    flatZ = Z.reshape(m * n * n, 2)
    E, eta_caches = _mlp_forward(params.phi.eta, flatZ)
    pooled = E.reshape(m, n * n, params.phi.p).mean(axis=1)
    Q = X - Y  # (I - M1) x
    return pooled, Q, (P, eta_caches)


def forward_relaxed(params: RelaxedParams, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    pooled, Q, _ = _relaxed_front(params, X)
    out, _ = _mlp_forward(params.phi.mu_head, np.concatenate([pooled, Q], axis=1))
    if not np.all(np.isfinite(out)):
        raise NumericError("non-finite relaxed output")
    return out[:, 0]


def loss_and_grad_relaxed(params: RelaxedParams, X, y, loss_kind=SQUARED):
    """Mean loss over the batch and its gradients for all relaxed parameters."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    m, n = X.shape
    s = n * n
    pooled, Q, (P, eta_caches) = _relaxed_front(params, X)
    z = np.concatenate([pooled, Q], axis=1)
    out, mu_caches = _mlp_forward(params.phi.mu_head, z)
    resid = out[:, 0] - y
    loss = _residual_loss(resid, loss_kind)
    if not np.isfinite(loss):
        raise NumericError("non-finite relaxed loss")

    grads = RelaxedParams(np.empty_like(params.theta), n, params.p, params.h)
    dpred = _residual_grad(resid, loss_kind)[:, None]
    dz = _mlp_backward(params.phi.mu_head, mu_caches, dpred, grads.phi.mu_head)
    p = params.p
    d_pooled = dz[:, :p] / s
    dQ = dz[:, p:]
    up = np.repeat(d_pooled, s, axis=0)
    dflatZ = _mlp_backward(params.phi.eta, eta_caches, up, grads.phi.eta)
    dZ = dflatZ.reshape(m, s, 2)
    np.einsum("mrk,msk->rs", dZ, P, out=grads.m2)
    dP = np.einsum("rs,mrk->msk", params.m2, dZ)
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
    X, y = dataset.inputs, dataset.targets

    def grad_fn(rows):
        loss, grads = loss_and_grad_relaxed(params, X[rows], y[rows], cfg.loss_kind)
        return loss, grads.theta

    _sgd(params.theta, grad_fn, cfg, len(dataset), rng)
    return params, _residual_loss(forward_relaxed(params, X) - y, cfg.loss_kind)


def evaluate_relaxed(params: RelaxedParams, dataset: Dataset, metric=ABSOLUTE) -> float:
    return _residual_loss(forward_relaxed(params, dataset.inputs) - dataset.targets, metric)
