import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symforge.errors import NumericError
from symforge.groups import CYCLIC, DIHEDRAL, SYMMETRIC, GroupDescriptor, act, elements
from symforge.net import (
    ABSOLUTE,
    SQUARED,
    Dataset,
    PhiParams,
    TrainConfig,
    evaluate,
    forward_batch,
    gradient_check,
    init_params,
    _init_mlp,
    _mlp_buffers,
    _mlp_loss_and_grad,
    _mlp_size,
    _mlp_views,
    _pair_layout,
    _with_ones,
    loss_and_grad,
    mean_loss,
    train_reference_mlp,
    train_sgd,
)
from symforge.relaxed import evaluate_relaxed, forward_relaxed, init_relaxed
from symforge.selection import apply_pipeline_front, build_m2, enumerate_arms


def _pair(kind=CYCLIC, idx=(0, 2, 3), n=5):
    return GroupDescriptor(kind, idx, n)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 2)), np.zeros(0))
    ds = Dataset([[1, 2]], [3])
    assert len(ds) == 1 and ds.inputs.dtype == float


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(lr_decay=0.0)
    with pytest.raises(ValueError, match="lr < inf"):
        TrainConfig(lr_initial=float("inf"))
    with pytest.raises(ValueError):
        TrainConfig(loss_kind="hinge")


def test_flat_round_trip():
    params = init_params(4, seed=3)
    vec = params.theta
    # The layers are views into the one weight vector.
    params.eta[0][0, 0] = 7.0
    assert vec[0] == 7.0
    with pytest.raises(ValueError):
        PhiParams(np.zeros(vec.size + 1), params.n)


def test_forward_bitwise_invariance():
    # Any weights: the output is identical, bit for bit, under every element
    # of the arm's group, because pooled rows are summed in sorted order.
    rng = np.random.default_rng(5)
    for kind, idx in ((CYCLIC, (0, 1, 3, 4)), (DIHEDRAL, (1, 2, 4)), (SYMMETRIC, (0, 2, 3))):
        d = GroupDescriptor(kind, idx, 5)
        params = init_params(5, seed=1)
        X = rng.uniform(size=(10, 5))
        base = forward_batch(params, d, X)
        for g in elements(d):
            assert np.array_equal(forward_batch(params, d, act(g, X)), base)


def test_forward_not_invariant_under_wrong_group():
    d = _pair(CYCLIC, (0, 1, 2), 5)
    params = init_params(5, seed=2)
    x = np.array([0.9, 0.1, 0.5, 0.3, 0.7])
    swapped = x.copy()
    swapped[[0, 1]] = swapped[[1, 0]]  # transposition outside the cyclic group
    moved, kept = forward_batch(params, d, np.array([swapped, x]))
    assert moved != kept


def test_forward_rejects_nonfinite():
    d = _pair()
    params = init_params(5, seed=0)
    with pytest.raises(NumericError):
        forward_batch(params, d, np.array([[np.nan] * 5]))


def test_loss_kinds_agree_on_zero_residual():
    d = _pair()
    params = init_params(5, seed=0)
    X = np.random.default_rng(0).uniform(size=(6, 5))
    y = forward_batch(params, d, X)
    for kind in (SQUARED, ABSOLUTE):
        loss, _ = loss_and_grad(params, d, X, y, kind)
        assert loss == 0.0


def test_gradient_check_small():
    rng = np.random.default_rng(0)
    d = _pair(DIHEDRAL, (0, 1, 3), 5)
    params = init_params(5, seed=4)
    X = rng.uniform(size=(8, 5))
    y = rng.uniform(size=8)
    assert gradient_check(params, d, X, y) <= 1e-4


def test_training_fits_constant_target():
    rng = np.random.default_rng(1)
    X = rng.uniform(size=(32, 4))
    ds = Dataset(X, np.full(32, 0.5))
    d = _pair(SYMMETRIC, (0, 1, 2), 4)
    # Full-batch descent at the default learning rate: a bias-only fit that
    # must reach the tolerance.
    cfg = TrainConfig(epochs=200, batch_size=32, lr_decay=1.0, seed=0)
    _, final = train_sgd(ds, d, cfg)
    assert final <= 1e-6


def test_training_with_zero_lr_keeps_params():
    rng = np.random.default_rng(2)
    ds = Dataset(rng.uniform(size=(16, 4)), rng.uniform(size=16))
    d = _pair(CYCLIC, (0, 1, 2), 4)
    cfg = TrainConfig(epochs=3, batch_size=8, lr_initial=0.0, seed=7)
    params, _ = train_sgd(ds, d, cfg)
    assert np.array_equal(params.theta, init_params(4, seed=7).theta)


def test_training_is_deterministic():
    rng = np.random.default_rng(3)
    ds = Dataset(rng.uniform(size=(24, 4)), rng.uniform(size=24))
    d = _pair(CYCLIC, (0, 1, 3), 4)
    cfg = TrainConfig(epochs=10, batch_size=8, seed=11)
    p1, l1 = train_sgd(ds, d, cfg)
    p2, l2 = train_sgd(ds, d, cfg)
    assert l1 == l2
    assert np.array_equal(p1.theta, p2.theta)


def test_training_divergence_raises():
    rng = np.random.default_rng(4)
    ds = Dataset(rng.uniform(size=(16, 4)), rng.uniform(size=16))
    d = _pair(CYCLIC, (0, 1, 2), 4)
    cfg = TrainConfig(epochs=50, batch_size=16, lr_initial=1e6, lr_decay=1.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        NumericError, match="loss became non-finite"
    ):
        train_sgd(ds, d, cfg)


def test_mae_bounded_by_rmse():
    rng = np.random.default_rng(6)
    ds = Dataset(rng.uniform(size=(20, 5)), rng.uniform(size=20))
    d = _pair()
    params = init_params(5, seed=0)
    mae = evaluate(params, d, ds)
    mse = mean_loss(params, d, ds, SQUARED)
    assert mae <= np.sqrt(mse) + 1e-12
    assert mae == mean_loss(params, d, ds, ABSOLUTE)
    assert mse == mean_loss(params, d, ds, SQUARED)
    with pytest.raises(ValueError):
        mean_loss(params, d, ds, "R2")


def test_reference_mlp_learns_linear_target():
    rng = np.random.default_rng(8)
    X = rng.uniform(size=(64, 4))
    ds = Dataset(X, X @ np.array([0.2, -0.1, 0.3, 0.1]))
    cfg = TrainConfig(epochs=200, batch_size=16, seed=0)
    _, predict = train_reference_mlp(ds, cfg)
    assert float(np.mean((predict(X) - ds.targets) ** 2)) <= 1e-3


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_batched_forward_matches_single(seed):
    rng = np.random.default_rng(seed)
    d = _pair(DIHEDRAL, (0, 2, 4), 5)
    params = init_params(5, seed=0)
    X = rng.uniform(size=(5, 5))
    batched = forward_batch(params, d, X)
    singles = [forward_batch(params, d, x[None, :])[0] for x in X]
    # BLAS may round differently for different batch shapes, so this is a
    # tight numerical comparison rather than a bitwise one.
    assert np.allclose(batched, np.asarray(singles), rtol=1e-12, atol=1e-14)


# sha256 of train_sgd's weight bytes followed by its final loss's bytes, taken
# from the step that folds each layer's bias into its matmul (one a_aug @ Wb
# per layer, over pre-sorted pairs).  A change that keeps that step must not
# move a single bit.  Float64 results can depend on the BLAS build and kernel;
# these come from numpy 2.4 with OpenBLAS 0.3 on x86-64, under its SkylakeX
# kernel (the Haswell and Sandybridge kernels give other bits).  A failure
# names the kernel that ran.
TRAIN_SGD_DIGESTS = {
    (CYCLIC, (0, 1, 3), SQUARED):
        "7ad4659fe869f44eeb8d098ca800a958365cb5093be407f85be61a607db30828",
    (DIHEDRAL, (1, 2, 4), SQUARED):
        "e9b948ce9999e2b95dfc2f6b0c38a5894e983f6015c54fae8daf26c21147ba94",
    (SYMMETRIC, (0, 2, 3, 4), ABSOLUTE):
        "709637ab6e4f010c65a205da2f5ca2765edd13b8fcee24d55f69eb155aacabc1",
}


def test_train_sgd_golden_bits(blas_core):
    rng = np.random.default_rng(12)
    ds = Dataset(rng.uniform(size=(37, 5)), rng.uniform(size=37))  # short last batch
    for (kind, idx, loss_kind), digest in TRAIN_SGD_DIGESTS.items():
        cfg = TrainConfig(epochs=4, batch_size=8, seed=3, loss_kind=loss_kind)
        params, loss = train_sgd(ds, _pair(kind, idx, 5), cfg)
        got = hashlib.sha256(params.theta.tobytes() + np.float64(loss).tobytes())
        assert got.hexdigest() == digest, (kind, idx, blas_core)


def test_layout_rows_match_per_batch_path():
    # train_sgd builds the pair layout of the whole dataset once and takes
    # each batch's rows; the loss and gradient must equal, bit for bit, those
    # from the layout built out of the batch itself.  Values on a 0.1 grid
    # give ties in the per-row sort.
    rng = np.random.default_rng(13)
    X = np.round(rng.uniform(size=(37, 5)), 1)
    y = rng.uniform(size=37)
    for kind, idx in ((CYCLIC, (0, 1, 3)), (DIHEDRAL, (1, 2, 4)), (SYMMETRIC, (0, 2, 3, 4))):
        d = _pair(kind, idx, 5)
        params = init_params(5, seed=2)
        layout = _pair_layout(d, X)
        out = PhiParams(np.empty_like(params.theta), params.n)
        perm = rng.permutation(37)
        for start in range(0, 37, 16):  # 16, 16, then a short batch of 5
            rows = perm[start : start + 16]
            loss, grads = loss_and_grad(params, d, X[rows], y[rows], SQUARED)
            got, returned = loss_and_grad(
                params, d, layout.take(rows), y[rows], SQUARED, out=out
            )
            assert returned is out
            assert np.float64(got).tobytes() == np.float64(loss).tobytes()
            assert out.theta.tobytes() == grads.theta.tobytes()


def test_pair_layout_matches_pipeline_front():
    # Criterion 4 checks apply_pipeline_front against the reference lift,
    # but training reads the pair layout: each row's s pairs must be the
    # front's first s rows in lexicographic order, the rest of the front's
    # n^2 block zero, and q the first column of the complement block, whose
    # second column is zero; P and q end in a ones column.
    rng = np.random.default_rng(4)
    n = 7
    for arm in enumerate_arms(n):
        d = arm.descriptor
        X = rng.normal(size=(3, n))
        layout = _pair_layout(d, X)
        s = len(build_m2(d))
        assert layout.P.shape == (3, s, 3) and layout.q.shape == (3, n + 1)
        assert (layout.P[:, :, 2] == 1).all() and (layout.q[:, n] == 1).all()
        for i, x in enumerate(X):
            front = apply_pipeline_front(d, x)
            pairs = front[:s][np.lexsort((front[:s, 1], front[:s, 0]))]
            assert np.array_equal(layout.P[i, :, :2], pairs), (arm.descriptor, i)
            assert not front[s : n * n].any(), (arm.descriptor, i)
            assert np.array_equal(layout.q[i, :n], front[n * n :, 0]), (arm.descriptor, i)
            assert not front[n * n :, 1].any(), (arm.descriptor, i)


# sha256 of train_reference_mlp's predictions on its own training set, on the
# train_sgd golden set.  Same BLAS caveat as TRAIN_SGD_DIGESTS.
REFERENCE_MLP_DIGESTS = {
    SQUARED: "65b991330274d49bc92bb069ab52a4e19ea4742ca0f44e79020f49e8985a2018",
    ABSOLUTE: "06ed0d5b4afeeb463ffe8a71b79cd2f3d2b9b90bbc4ad1ec44b7aeca6fa5b747",
}


def test_train_reference_mlp_golden_bits(blas_core):
    rng = np.random.default_rng(12)
    ds = Dataset(rng.uniform(size=(37, 5)), rng.uniform(size=37))
    for loss_kind, digest in REFERENCE_MLP_DIGESTS.items():
        cfg = TrainConfig(epochs=4, batch_size=8, seed=3, loss_kind=loss_kind)
        _, predict = train_reference_mlp(ds, cfg)
        got = hashlib.sha256(predict(ds.inputs).tobytes()).hexdigest()
        assert got == digest, (loss_kind, blas_core)


def test_zero_rows_give_no_outputs():
    rng = np.random.default_rng(12)
    ds = Dataset(rng.uniform(size=(37, 5)), rng.uniform(size=37))
    _, predict = train_reference_mlp(ds, TrainConfig(epochs=1, batch_size=8))
    X = np.empty((0, 5))
    assert forward_batch(init_params(5, seed=0), _pair(), X).shape == (0,)
    assert predict(X).shape == (0,)


# sha256 of forward_batch on three arms, forward_relaxed and the reference
# MLP's predictor, on 480 and 4800 seeded rows of n = 5, taken while each
# evaluated its rows in one whole-array pass.  Same BLAS caveat as
# TRAIN_SGD_DIGESTS.
EVALUATION_DIGESTS = {
    480: "49db8d2f3ff99523dab96fc19a2a151f4ee4be7cddb9d64cc67f4cc13807ba10",
    4800: "c2f3449af388d4ae7c04e043e9bd745a6fa0d9d8d396cedde78e41cb8ea27f36",
}


def test_evaluation_golden_bits(blas_core):
    rng = np.random.default_rng(12)
    ds = Dataset(rng.uniform(size=(37, 5)), rng.uniform(size=37))
    _, predict = train_reference_mlp(ds, TrainConfig(epochs=4, batch_size=8, seed=3))
    params, relaxed = init_params(5, seed=3), init_relaxed(5, seed=3)
    for rows, digest in EVALUATION_DIGESTS.items():
        X = np.random.default_rng(rows).uniform(size=(rows, 5))
        got = hashlib.sha256()
        for kind, idx in ((CYCLIC, (0, 1, 3)), (DIHEDRAL, (1, 2, 4)), (SYMMETRIC, (0, 1, 2, 3, 4))):
            got.update(forward_batch(params, _pair(kind, idx), X).tobytes())
        got.update(forward_relaxed(relaxed, X).tobytes())
        got.update(predict(X).tobytes())
        assert got.hexdigest() == digest, (rows, blas_core)


def _peak_bytes(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluation_memory_is_bounded_by_the_block():
    # An evaluation's buffers are bounded by its row block, not by the
    # split: on 4800 rows it may hold the (m,) outputs, but not activations.
    rng = np.random.default_rng(12)
    fit = Dataset(rng.uniform(size=(37, 5)), rng.uniform(size=37))
    _, predict = train_reference_mlp(fit, TrainConfig(epochs=1, batch_size=8))
    params, relaxed = init_params(5, seed=3), init_relaxed(5, seed=3)
    d = _pair(SYMMETRIC, (0, 1, 2, 3, 4))
    sets = [Dataset(rng.uniform(size=(rows, 5)), rng.uniform(size=rows)) for rows in (128, 4800)]
    for name, run in (
        ("evaluate_relaxed", lambda ds: evaluate_relaxed(relaxed, ds)),
        ("evaluate", lambda ds: evaluate(params, d, ds)),
        ("predict", lambda ds: predict(ds.inputs)),
    ):
        small, large = (_peak_bytes(lambda: run(ds)) for ds in sets)
        assert large < 2 * small, (name, small, large)


def test_reference_mlp_divergence_raises():
    # lr 2.0 without decay blows the reference fit up; it must not hand back
    # a predictor that outputs NaN.
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(40, 3))
    y = X[:, 0] + X[:, 1]
    ds = Dataset(X, (y - y.min()) / (y.max() - y.min()))
    cfg = TrainConfig(epochs=30, lr_initial=2.0, lr_decay=1.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        NumericError, match="loss became non-finite"
    ):
        train_reference_mlp(ds, cfg)


def test_fits_share_no_buffers():
    # Each training loop allocates its activation buffers for its own batch
    # shapes and drops them when it returns: a fit of another arm, with
    # another pair count, and a forward pass on more rows in between leave a
    # repeated fit bit-identical, and nothing of a finished fit stays
    # allocated (a cache of buffers shared across fits holds about 1.5 MB).
    rng = np.random.default_rng(12)
    ds = Dataset(rng.uniform(size=(37, 5)), rng.uniform(size=37))  # short last batch
    wide = Dataset(rng.uniform(size=(480, 5)), rng.uniform(size=480))
    cfg = TrainConfig(epochs=4, batch_size=8, seed=3)
    a, b = _pair(CYCLIC, (0, 1, 3), 5), _pair(SYMMETRIC, (0, 1, 2, 3, 4), 5)
    assert len(build_m2(a)) != len(build_m2(b))
    first, first_loss = train_sgd(ds, a, cfg)
    mean_loss(first, a, wide, SQUARED)
    train_sgd(ds, b, cfg)
    again, again_loss = train_sgd(ds, a, cfg)
    assert again.theta.tobytes() == first.theta.tobytes()
    assert np.float64(again_loss).tobytes() == np.float64(first_loss).tobytes()

    layers, predict = train_reference_mlp(ds, cfg)
    first = predict(ds.inputs).tobytes(), [layer.tobytes() for layer in layers]
    predict(wide.inputs)
    train_reference_mlp(Dataset(wide.inputs[:50], wide.targets[:50]), cfg)
    layers, predict = train_reference_mlp(ds, cfg)
    assert (predict(ds.inputs).tobytes(), [layer.tobytes() for layer in layers]) == first

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        params, _ = train_sgd(ds, b, cfg)
        mean_loss(params, b, wide, SQUARED)
        del params
        train_reference_mlp(ds, cfg)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 8192, held


def _worst_fd_error(loss_at, theta, grad, coords, step=1e-5):
    """gradient_check's relative error, over the given coordinates."""
    worst = 0.0
    for idx in coords:
        bumped = theta.copy()
        bumped[idx] += step
        lp = loss_at(bumped)
        bumped[idx] -= 2 * step
        fd = (lp - loss_at(bumped)) / (2 * step)
        worst = max(worst, abs(fd - grad[idx]) / max(abs(fd) + abs(grad[idx]), 1e-6))
    return worst


def test_every_coordinate_matches_finite_differences():
    # Every weight and bias coordinate of eta, the head and the reference
    # MLP is checked, at criterion 6's tolerance; gradient_check samples
    # only 20.  eta's two hidden buffers have the same shape, so a backward
    # pass that read the wrong one as a layer's input would still get
    # every bias row right, but not the weights.
    rng = np.random.default_rng(6)
    X, y = rng.uniform(size=(10, 5)), rng.uniform(size=10)
    d = _pair(DIHEDRAL, (1, 2, 4), 5)
    params = init_params(5, seed=3)
    assert params.theta.size == 3473
    _, grads = loss_and_grad(params, d, X, y)
    assert np.abs(grads.theta).max() > 1e-3
    phi_loss = lambda theta: loss_and_grad(replace(params, theta=theta), d, X, y)[0]
    assert _worst_fd_error(phi_loss, params.theta, grads.theta, range(3473)) <= 1e-4

    dims = (5, 12, 12, 1)
    theta, grad = np.empty(_mlp_size(dims)), np.empty(_mlp_size(dims))
    layers, _ = _mlp_views(theta, dims)
    _init_mlp(layers, rng)
    A = _with_ones(X)

    def mlp_loss(theta, grad):
        layers, grads = _mlp_views(theta, dims)[0], _mlp_views(grad, dims)[0]
        return _mlp_loss_and_grad(layers, A, y, SQUARED, grads, False, _mlp_buffers(layers, 10))[0]

    mlp_loss(theta, grad)
    assert theta.size == 241
    assert np.abs(grad).max() > 1e-3
    loss_at = lambda theta: mlp_loss(theta, np.empty_like(theta))
    assert _worst_fd_error(loss_at, theta, grad, range(241)) <= 1e-4
