import hashlib
from dataclasses import replace

import numpy as np
import pytest

from symforge.errors import TrainingDivergedError
from symforge.net import (
    ABSOLUTE,
    SQUARED,
    Dataset,
    PhiParams,
    TrainConfig,
    _phi_loss_and_grad,
    _with_ones,
)
from symforge.relaxed import (
    _dense_front,
    _front_buffers,
    evaluate_relaxed,
    forward_relaxed,
    init_relaxed,
    loss_and_grad_relaxed,
    train_relaxed,
)
from symforge.rho import rho_unified


def test_relaxed_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    n = 3
    params = init_relaxed(n, seed=1)
    X = rng.uniform(size=(5, n))
    y = rng.uniform(size=5)
    _, grads = loss_and_grad_relaxed(params, X, y)
    flat = params.theta
    gflat = grads.theta
    step = 1e-5
    worst = 0.0
    # Every coordinate: M1, M2 and phi, whose backward pass reads eta's
    # input from the front buffer Z.
    assert flat.size == 3499
    for idx in range(flat.size):
        bumped = flat.copy()
        bumped[idx] += step
        lp, _ = loss_and_grad_relaxed(replace(params, theta=bumped), X, y)
        bumped[idx] -= 2 * step
        lm, _ = loss_and_grad_relaxed(replace(params, theta=bumped), X, y)
        fd = (lp - lm) / (2 * step)
        worst = max(worst, abs(fd - gflat[idx]) / max(abs(fd) + abs(gflat[idx]), 1e-6))
    assert worst <= 1e-4


def _einsum_reference(params, X, y, loss_kind):
    """Z and the (m1, m2, phi) gradients with the M2 contractions written as
    einsums, the reference for the matmul forms in `relaxed`."""
    m, n = X.shape
    Y = X @ params.m1.T
    P = rho_unified(Y)
    Z = np.einsum("rs,msk->mrk", params.m2, P)
    phi = PhiParams(np.empty_like(params.phi.theta), n)
    _, dZ, dQ = _phi_loss_and_grad(
        params.phi, _with_ones(Z), _with_ones(X - Y), y, loss_kind, phi, input_grad=True
    )
    dZ = dZ.reshape(m, n * n, 2)
    m2 = np.einsum("mrk,msk->rs", dZ, P)
    dP = np.einsum("rs,mrk->msk", params.m2, dZ)
    dY = dP[:, :, 0].reshape(m, n, n).sum(axis=2) + dP[:, :, 1].reshape(m, n, n).sum(axis=1)
    m1 = (dY - dQ).T @ X
    return Z, m1, m2, phi.theta


def _assert_close(actual, desired):
    # rtol 1e-12 of the array's largest entry: a few gradient entries are
    # sums that nearly cancel, and any change of summation order moves them
    # by more than 1e-12 of their own size (seen: 3e-11 of it, 1e-18 absolute).
    np.testing.assert_allclose(actual, desired, rtol=1e-12, atol=1e-12 * np.abs(desired).max())


@pytest.mark.parametrize("loss_kind", [SQUARED, ABSOLUTE])
@pytest.mark.parametrize("batch", [1, 3, 16])
@pytest.mark.parametrize("n", [4, 10])
def test_relaxed_contractions_match_einsum_reference(n, batch, loss_kind):
    rng = np.random.default_rng(n * 100 + batch)
    params = init_relaxed(n, seed=batch)
    X = rng.uniform(-1, 1, size=(batch, n))
    y = rng.uniform(size=batch)
    Z, m1, m2, phi = _einsum_reference(params, X, y, loss_kind)
    _, Z_front, Q_front = _dense_front(params, X, _front_buffers(n, batch))
    _assert_close(Z_front[..., :-1], Z)
    assert (Z_front[..., -1] == 1).all() and (Q_front[:, -1] == 1).all()
    _, grads = loss_and_grad_relaxed(params, X, y, loss_kind)
    _assert_close(grads.m1, m1)
    _assert_close(grads.m2, m2)
    _assert_close(grads.phi.theta, phi)


def test_relaxed_training_reduces_loss_deterministically():
    rng = np.random.default_rng(2)
    X = rng.uniform(size=(48, 3))
    y = X.sum(axis=1) / 3.0
    ds = Dataset(X, y)
    cfg = TrainConfig(epochs=40, batch_size=16, lr_initial=0.05, seed=3)
    params, final = train_relaxed(ds, cfg)
    init_loss = float(
        np.mean((forward_relaxed(init_relaxed(3, seed=3), X) - y) ** 2)
    )
    assert final < init_loss
    params2, final2 = train_relaxed(ds, cfg)
    assert final == final2
    assert np.array_equal(params.m1, params2.m1)
    assert np.array_equal(params.m2, params2.m2)


def test_relaxed_training_follows_the_loss_kind():
    # The ablation trains and reports on the configured loss, as train_sgd does.
    rng = np.random.default_rng(7)
    X = rng.uniform(size=(32, 3))
    ds = Dataset(X, X[:, 0] * X[:, 1] + X[:, 2])
    cfg = TrainConfig(epochs=10, batch_size=16, lr_initial=0.05, seed=1)
    squared, squared_loss = train_relaxed(ds, cfg)
    absolute, absolute_loss = train_relaxed(ds, replace(cfg, loss_kind=ABSOLUTE))
    assert cfg.loss_kind == SQUARED
    assert not np.array_equal(absolute.theta, squared.theta)
    resid = forward_relaxed(absolute, X) - ds.targets
    assert absolute_loss == float(np.mean(np.abs(resid)))
    assert squared_loss == float(np.mean((forward_relaxed(squared, X) - ds.targets) ** 2))


def test_relaxed_matrices_are_dense():
    # Joint SGD never produces the sparse 0/1 structure of a selected arm;
    # that contrast is the point of this mode.
    rng = np.random.default_rng(4)
    X = rng.uniform(size=(48, 3))
    ds = Dataset(X, X[:, 0] * X[:, 1] + X[:, 2])
    cfg = TrainConfig(epochs=30, batch_size=16, lr_initial=0.05, seed=0)
    params, _ = train_relaxed(ds, cfg)
    off_diag = params.m1 - np.diag(np.diag(params.m1))
    assert np.mean(np.abs(off_diag) > 1e-3) > 0.5


def test_relaxed_divergence_is_reported():
    rng = np.random.default_rng(5)
    ds = Dataset(rng.uniform(size=(16, 3)), rng.uniform(size=16))
    cfg = TrainConfig(epochs=30, batch_size=16, lr_initial=1e6, lr_decay=1.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        TrainingDivergedError
    ):
        train_relaxed(ds, cfg)


def test_relaxed_evaluate_metrics():
    rng = np.random.default_rng(6)
    ds = Dataset(rng.uniform(size=(10, 3)), rng.uniform(size=10))
    params = init_relaxed(3, seed=0)
    mae = evaluate_relaxed(params, ds, metric=ABSOLUTE)
    mse = evaluate_relaxed(params, ds, metric=SQUARED)
    assert mae <= np.sqrt(mse) + 1e-12
    with pytest.raises(ValueError):
        evaluate_relaxed(params, ds, metric="R2")


def test_zero_rows_give_no_outputs():
    assert forward_relaxed(init_relaxed(3, seed=0), np.empty((0, 3))).shape == (0,)


# sha256 of train_relaxed's weight bytes followed by its final loss's bytes.
# Float64 results can depend on the BLAS build and kernel; these come from
# numpy 2.4 with OpenBLAS 0.3 on x86-64, under its SkylakeX kernel.
TRAIN_RELAXED_DIGESTS = {
    SQUARED: "27b5fc614c381c5e4f39259d4ce56c22a9e3dde359d594c35219f20898fc8d91",
    ABSOLUTE: "53fba073b986b7136eaa37b136d7109ce89d9205e36c74f3567e3a650cde6396",
}


def test_train_relaxed_golden_bits(blas_core):
    rng = np.random.default_rng(12)
    ds = Dataset(rng.uniform(size=(37, 5)), rng.uniform(size=37))  # short last batch
    for loss_kind, digest in TRAIN_RELAXED_DIGESTS.items():
        cfg = TrainConfig(epochs=4, batch_size=8, seed=3, loss_kind=loss_kind)
        params, loss = train_relaxed(ds, cfg)
        got = hashlib.sha256(params.theta.tobytes() + np.float64(loss).tobytes())
        assert got.hexdigest() == digest, (loss_kind, blas_core)
