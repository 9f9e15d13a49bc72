"""Permutation-invariant network in sum-pooling canonical form, with SGD.

The model for one arm is
    f(x) = mu_head([ pool_rows eta(pair_row) ; complement ]),
where the pooled embedding is the mean of eta over the rows selected by M2.
The n^2 - s zero rows each contribute the input-independent constant
eta(0, 0), so mean-over-selected equals an affine reparametrization of the
all-row sum and stays inside the row-permutation-invariant class.  The
selected embeddings are summed in lexicographic order of their pair values,
which makes the output bitwise identical under any permutation of the
selected rows.

Each row's selected pairs, sorted into that summation order, and its
complement block depend only on the arm, which its `GroupDescriptor`
names, and on the row, so `train_sgd` builds this pair layout once per
(arm, dataset) and every step takes its batch's rows.

This module runs phi for the package: `_phi_forward` and
`_phi_loss_and_grad` serve the arm network and the SGD-only ablation
(`relaxed`), and one MLP loss step serves phi's head and the reference MLP.
Each layer's weights are one (d_in + 1, d_out) block, W over the bias row,
and every layer input carries a trailing ones column, so a layer is one
matmul and one more gives both its weight and bias gradients.  Inputs get
their ones column once, in the pair layout, the reference MLP's inputs and
the ablation's front; hidden layers write their activations into buffers
that keep it.  A pass's buffers hold its activations, and the backward
pass reads them there: each layer's input is the pass's input or the
hidden buffer before it.  The last layer's output and the hidden layers'
gradients have buffers too, so a training step allocates nothing the size
of its pair rows: when each step allocated and freed those arrays, glibc
handed the memory back and faulted it in again at every step until the
process first freed a larger block, and the first SGD-only discovery in a
process ran 1.4-1.9x as long as the next (measured before the buffers were
added, on Z_I(5) at the CLI defaults on a 2-vCPU Xeon: about 700,000 page
faults against 2,000).  `_sgd`, the one training loop, allocates the
buffers per fit, one set per batch size, and drops them when the fit
returns.  Every forward-only pass (`forward_batch`, the reference MLP's
predictor and the ablation's `forward_relaxed`) runs through `_predict`, in
blocks of `_EVAL_ROWS` rows that each allocate their own buffers, so an
evaluation's memory is bounded by the block, not by the split.

Everything is float64 numpy; gradients are hand-derived reverse mode and
checked against central finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import NumericError
from .groups import GroupDescriptor
from .selection import complement_mask, selected_pairs

SQUARED = "squared"
ABSOLUTE = "absolute"

# Rows per block of a forward-only pass.  The last block is left short, not
# padded: a pass of at most this many rows (a fit split's final loss, a
# holdout, a single row) then stays one whole pass, bit for bit, while
# padding each block to 64 rows moved the rewards in discovery's pulls.
# Outputs over more rows equal one whole pass's at 100, 200, 480 and 4800
# rows; where the last block has only a few rows (65, 129, 481 rows) the
# last row can move by up to 1.1e-16, because BLAS rounds a matrix's
# trailing rows apart from the rest, in a whole pass as in a block.
_EVAL_ROWS = 64

# phi's widths, eta's output P and every hidden layer's H (see PhiParams); the
# reference MLP and the ablation have them too.
P_WIDTH, H_WIDTH = 16, 32

# Weight coordinates `gradient_check` compares with finite differences.
_GRADIENT_COORDS = 20


@dataclass
class Dataset:
    inputs: np.ndarray  # (m, n)
    targets: np.ndarray  # (m,)

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.inputs.ndim != 2 or self.targets.shape != (self.inputs.shape[0],):
            raise ValueError("inputs must be (m, n) with m targets")
        if self.inputs.shape[0] < 1:
            raise ValueError("dataset must be non-empty")

    def __len__(self):
        return self.inputs.shape[0]


@dataclass
class TrainConfig:
    epochs: int = 400
    batch_size: int = 16
    lr_initial: float = 0.2
    lr_decay: float = 0.997
    seed: int = 0
    loss_kind: str = SQUARED

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs >= 1 and batch_size >= 1 required")
        if not (self.lr_initial >= 0 and 0 < self.lr_decay <= 1):
            raise ValueError("need lr >= 0 and 0 < decay <= 1")
        if self.loss_kind not in (SQUARED, ABSOLUTE):
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")


@dataclass
class PhiParams:
    """Weights of the embedding MLP (eta) and the head MLP (mu_head) on n
    input coordinates, at phi's one shape: p = P_WIDTH and h = H_WIDTH.

    eta: 2 -> h -> h -> p, tanh hidden, linear output.
    mu_head: (p + n) -> h -> h -> 1, tanh hidden, linear output.

    All weights live in the one float64 vector `theta`; `eta` and `mu_head`
    are lists of layer views into it, so an in-place update of `theta`
    moves every layer.  Each layer is one contiguous (d_in + 1, d_out)
    block, W over the bias row b, which the forward and backward passes
    multiply whole.  The activation buffers are not part of the
    parameters: `_sgd` allocates them per fit.
    """

    theta: np.ndarray
    n: int
    eta: list = field(init=False, repr=False)
    mu_head: list = field(init=False, repr=False)

    def __post_init__(self):
        self.eta, rest = _mlp_views(self.theta, (2, H_WIDTH, H_WIDTH, P_WIDTH))
        self.mu_head, rest = _mlp_views(rest, (P_WIDTH + self.n, H_WIDTH, H_WIDTH, 1))
        if rest.size:
            raise ValueError("weight vector longer than the network")


def _mlp_size(dims) -> int:
    return sum((d_in + 1) * d_out for d_in, d_out in zip(dims[:-1], dims[1:]))


def _mlp_views(vec, dims):
    """Views into the head of vec for an MLP with the given widths, and the
    rest of vec.  Each layer is its contiguous (d_in + 1, d_out) block Wb,
    W over the bias row, which multiplies an input carrying a trailing ones
    column."""
    layers, pos = [], 0
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        layers.append(vec[pos : pos + (d_in + 1) * d_out].reshape(d_in + 1, d_out))
        pos += (d_in + 1) * d_out
    return layers, vec[pos:]


def _init_mlp(layers, rng):
    for Wb in layers:
        bound = 1.0 / np.sqrt(Wb.shape[0] - 1)
        Wb[:-1] = rng.uniform(-bound, bound, size=Wb[:-1].shape)
        Wb[-1] = rng.uniform(-bound, bound, size=Wb.shape[1])


def init_params(n: int, seed: int) -> PhiParams:
    rng = np.random.default_rng(seed)
    size = _mlp_size((2, H_WIDTH, H_WIDTH, P_WIDTH)) + _mlp_size((P_WIDTH + n, H_WIDTH, H_WIDTH, 1))
    params = PhiParams(np.empty(size), n)
    _init_mlp(params.eta, rng)
    _init_mlp(params.mu_head, rng)
    return params


def _with_ones(A) -> np.ndarray:
    """A with a trailing ones column on its last axis: the input a layer
    block multiplies, its bias row included."""
    out = np.ones(A.shape[:-1] + (A.shape[-1] + 1,))
    out[..., :-1] = A
    return out


class _Buffers(NamedTuple):
    """The arrays an MLP pass over `rows` rows writes into (see
    `_mlp_buffers`), so that `_sgd`'s steps allocate none the size of the
    batch's rows."""

    hidden: list  # (rows, d + 1) per hidden layer of width d, last column 1
    act: list  # hidden[i][:, :-1], the layer's tanh output
    out: np.ndarray  # (rows, d_out), the last layer's output
    grad: list  # (rows, d) per hidden layer, the gradient wrt its output


def _mlp_buffers(layers, rows) -> _Buffers:
    """`_Buffers` for an MLP pass over `rows` rows.  The hidden buffers'
    last column is 1 for the next layer's bias row.  They are column-major,
    so the d activation columns are one contiguous block: numpy's tanh runs
    its vectorized loop only on contiguous memory, and on a row-major
    buffer's strided view it took 1.4-2x as long (16-160 rows of 32)."""
    hidden = [np.ones((rows, Wb.shape[1] + 1), order="F") for Wb in layers[:-1]]
    return _Buffers(
        hidden,
        [H[:, :-1] for H in hidden],
        np.empty((rows, layers[-1].shape[1])),
        [np.empty((rows, Wb.shape[1])) for Wb in layers[:-1]],
    )


def _mlp_forward(layers, A, buffers: _Buffers):
    """Tanh hidden layers, linear last layer, written into `buffers`; returns
    the output.  A carries a trailing ones column, and so does each hidden
    buffer, so each layer is one matmul with its block."""
    a = A
    for Wb, H, act in zip(layers, buffers.hidden, buffers.act):
        np.matmul(a, Wb, out=act)
        np.tanh(act, out=act)
        a = H
    return np.matmul(a, layers[-1], out=buffers.out)


def _mlp_backward(layers, A, grad_out, grads, input_cols, buffers: _Buffers):
    """The backward pass of the `_mlp_forward` over A that filled `buffers`:
    writes the param grads into `grads`, blocks shaped like `layers`, and
    returns the grad wrt A's leading `input_cols` data columns, or None
    when that is 0.  Each later layer's input is read from
    `buffers.hidden`; the hidden layers' gradients go into `buffers.grad`,
    and each tanh output in `buffers.act` is spent: it is overwritten with
    tanh's derivative.  Every output here is C-contiguous, so `np.dot`
    writes it, the same bits as `np.matmul` at less dispatch.  (The
    forward's last layer keeps `np.matmul`: with its column-major input,
    `np.dot` took 1.1-1.2x as long at the ablation's 1600 rows.)"""
    g = grad_out
    for i in range(len(layers) - 1, 0, -1):
        np.dot(buffers.hidden[i - 1].T, g, out=grads[i])  # gW, then gb as the last row
        g = np.dot(g, layers[i][:-1].T, out=buffers.grad[i - 1])
        act = buffers.act[i - 1]  # g *= 1 - act**2
        np.multiply(act, act, out=act)
        np.subtract(1.0, act, out=act)
        np.multiply(g, act, out=g)
    np.dot(A.T, g, out=grads[0])
    return g @ layers[0][:input_cols].T if input_cols else None


class _PairLayout(NamedTuple):
    """The arm-constant front of a batch: each row's s selected pairs P
    (m, s, 3), sorted lexicographically by pair value, and the complement
    block q (m, n + 1); both carry a trailing ones column."""

    P: np.ndarray
    q: np.ndarray

    def take(self, rows) -> "_PairLayout":
        """The layout of the given rows: each row's entries depend on that
        row alone."""
        return _PairLayout(self.P[rows], self.q[rows])


def _pair_layout(descriptor: GroupDescriptor, X) -> _PairLayout:
    P = X[:, np.array(selected_pairs(descriptor))]  # (m, s, 2)
    order = np.lexsort((P[:, :, 1], P[:, :, 0]), axis=1)
    P = np.take_along_axis(P, order[:, :, None], axis=1)
    return _PairLayout(_with_ones(P), _with_ones(X * complement_mask(descriptor)))


def _phi_buffers(params: PhiParams, rows: int, s_count: int):
    """phi's `_Buffers` for a batch of `rows` samples of s_count pair rows
    each: eta's, then the head's."""
    return _mlp_buffers(params.eta, rows * s_count), _mlp_buffers(params.mu_head, rows)


def _phi_pool(params: PhiParams, P, q, eta_buffers):
    """The head input [mean of eta over the pair rows P (m, s, 3) ; q].  P
    and q carry ones columns, and so does the head input.  Each sample's
    rows are summed in the order P holds them: sorted by pair value in a
    `_PairLayout`, for the bitwise invariance the module docstring
    describes."""
    m, s_count, _ = P.shape
    E = _mlp_forward(params.eta, P.reshape(m * s_count, 3), eta_buffers)
    pooled = E.reshape(m, s_count, P_WIDTH).sum(axis=1) / s_count
    return np.concatenate([pooled, q], axis=1)


def _phi_forward(params: PhiParams, P, q) -> np.ndarray:
    """phi's output (m,) for pair rows P and complement q."""
    eta_buffers, head_buffers = _phi_buffers(params, *P.shape[:2])
    z = _phi_pool(params, P, q, eta_buffers)
    out = _mlp_forward(params.mu_head, z, head_buffers)
    if not np.all(np.isfinite(out)):
        raise NumericError("non-finite network output")
    return out[:, 0]


def _phi_loss_and_grad(params: PhiParams, P, q, y, loss_kind, grads, input_grad, buffers=None):
    """Mean loss of phi on the batch; writes the weight gradient into grads,
    a PhiParams.  `buffers` are `_phi_buffers` for the batch's shape,
    allocated here when None.  Returns (loss, dP, dq): the gradients wrt the
    pair rows, flattened to (m * s, 2), and wrt q (m, n), or None for both
    if not input_grad; the head's input gradient then covers only the
    pooled columns."""
    m, s_count, _ = P.shape
    if buffers is None:
        buffers = _phi_buffers(params, m, s_count)
    eta_buffers, head_buffers = buffers
    z = _phi_pool(params, P, q, eta_buffers)
    head_cols = z.shape[1] - 1 if input_grad else P_WIDTH
    loss, dz = _mlp_loss_and_grad(
        params.mu_head, z, y, loss_kind, grads.mu_head, head_cols, head_buffers
    )
    # Each pair row of a sample shares that sample's pooled gradient, at the
    # mean-pooling scale.  eta's output is spent once pooled, so its buffer
    # takes these rows.
    up = eta_buffers.out
    up.reshape(m, s_count, P_WIDTH)[...] = (dz[:, :P_WIDTH] / s_count)[:, None, :]
    A = P.reshape(m * s_count, 3)
    dP = _mlp_backward(params.eta, A, up, grads.eta, 2 if input_grad else 0, eta_buffers)
    return loss, dP, dz[:, P_WIDTH:] if input_grad else None


def _predict(forward_rows, X) -> np.ndarray:
    """forward_rows, a forward pass from a (k, n) block of rows to its (k,)
    outputs, over X (m, n) in blocks of `_EVAL_ROWS` rows; returns the (m,)
    outputs."""
    X = np.asarray(X, dtype=float)
    out = np.empty(len(X))
    for start in range(0, len(X), _EVAL_ROWS):
        out[start : start + _EVAL_ROWS] = forward_rows(X[start : start + _EVAL_ROWS])
    return out


def forward_batch(params: PhiParams, descriptor: GroupDescriptor, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        raise NumericError("non-finite input")
    return _predict(lambda block: _phi_forward(params, *_pair_layout(descriptor, block)), X)


def forward(params: PhiParams, descriptor: GroupDescriptor, x) -> float:
    return float(forward_batch(params, descriptor, np.asarray(x, dtype=float)[None, :])[0])


def _residual_loss(resid, kind) -> float:
    """Mean squared (SQUARED) or absolute (ABSOLUTE) residual."""
    if kind == SQUARED:
        return float(np.square(resid).sum()) / len(resid)
    if kind == ABSOLUTE:
        return float(np.abs(resid).sum()) / len(resid)
    raise ValueError(f"unknown loss kind {kind!r}")


def _residual_grad(resid, kind) -> np.ndarray:
    """Gradient of `_residual_loss` wrt each residual."""
    if kind == SQUARED:
        return 2.0 * resid / len(resid)
    return np.sign(resid) / len(resid)


def _mlp_loss_and_grad(layers, A, y, loss_kind, grads, input_cols, buffers):
    """Mean loss of the MLP on (A, y), A with its ones column, into
    `buffers` (see `_mlp_buffers`); writes its weight gradient into grads,
    blocks shaped like layers.  Returns (loss, gradient wrt A's leading
    `input_cols` data columns, or None when that is 0); a non-finite loss
    raises NumericError."""
    out = _mlp_forward(layers, A, buffers)
    resid = out[:, 0] - y
    loss = _residual_loss(resid, loss_kind)
    if not np.isfinite(loss):
        raise NumericError("loss became non-finite")
    dpred = _residual_grad(resid, loss_kind)
    return loss, _mlp_backward(layers, A, dpred[:, None], grads, input_cols, buffers)


def loss_and_grad(
    params: PhiParams, descriptor: GroupDescriptor, X, y, loss_kind=SQUARED, *,
    out=None, buffers=None,
):
    """Mean loss over the batch and its gradient wrt all weights.

    X is the (m, n) batch or its `_PairLayout` for the arm.  The gradient is
    written into `out`, a PhiParams shaped like params, when one is given.
    `buffers` are `_phi_buffers` for the batch's shape, which `_sgd` keeps
    across a fit's steps; without them the pass allocates its own.
    """
    if not isinstance(X, _PairLayout):
        X = _pair_layout(descriptor, np.asarray(X, dtype=float))
    grads = out
    if grads is None:
        grads = PhiParams(np.empty_like(params.theta), params.n)
    loss, _, _ = _phi_loss_and_grad(
        params, *X, np.asarray(y, dtype=float), loss_kind, grads, False, buffers
    )
    return loss, grads


def mean_loss(params: PhiParams, descriptor: GroupDescriptor, dataset: Dataset, loss_kind):
    pred = forward_batch(params, descriptor, dataset.inputs)
    return _residual_loss(pred - dataset.targets, loss_kind)


def _sgd(theta, grad, step, buffers, final, cfg: TrainConfig, m: int, rng):
    """The one minibatch SGD loop, which owns a fit from its first batch to
    its final loss: updates theta in place and returns final().

    Each epoch shuffles the m rows with rng and walks them in batches of
    cfg.batch_size at learning rate lr_initial * lr_decay**epoch.
    step(rows, batch_buffers) writes the batch's gradient into grad, a
    vector shaped like theta; batch_buffers are buffers(len(rows)), made
    once per batch size, and they live for this fit alone.  final() gives
    the trainer's result, with its final loss, after the last step.  A step
    whose loss is non-finite raises NumericError.  numpy's overflow
    warnings are silenced in the steps and in final(): the error raised, if
    any, is the one report.
    """
    sized = cache(buffers)
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            lr = cfg.lr_initial * cfg.lr_decay**epoch
            perm = rng.permutation(m)
            for start in range(0, m, cfg.batch_size):
                rows = perm[start : start + cfg.batch_size]
                step(rows, sized(len(rows)))
                theta -= lr * grad
        return final()


def train_sgd(dataset: Dataset, descriptor: GroupDescriptor, cfg: TrainConfig):
    """Minibatch SGD with per-epoch decayed learning rate, in `_sgd`.

    Deterministic given the seed: the parameter init and the shuffles come
    from two streams seeded with it.  Returns (params, final mean training
    loss); a non-finite training loss raises NumericError.
    """
    rng = np.random.default_rng(cfg.seed)
    params = init_params(dataset.inputs.shape[1], seed=cfg.seed)
    grads = PhiParams(np.empty_like(params.theta), params.n)
    layout = _pair_layout(descriptor, dataset.inputs)
    y = dataset.targets

    def step(rows, buffers):
        loss_and_grad(
            params, descriptor, layout.take(rows), y[rows], cfg.loss_kind, out=grads,
            buffers=buffers,
        )

    return _sgd(
        params.theta, grads.theta, step,
        lambda rows: _phi_buffers(params, rows, layout.P.shape[1]),
        lambda: (params, mean_loss(params, descriptor, dataset, cfg.loss_kind)),
        cfg, len(dataset), rng,
    )


def gradient_check(params: PhiParams, descriptor: GroupDescriptor, X, y) -> float:
    """Max relative error between analytic and central finite-difference
    gradients, at a step of 1e-5, over `_GRADIENT_COORDS` parameter
    coordinates drawn from a generator seeded with 0.

    The relative error is guarded with an absolute floor: coordinates whose
    gradient is below the finite-difference resolution would otherwise
    report meaningless ratios.
    """
    step = 1e-5
    rng = np.random.default_rng(0)
    flat = params.theta
    _, grads = loss_and_grad(params, descriptor, X, y)
    gflat = grads.theta
    worst = 0.0
    for idx in rng.choice(flat.size, size=_GRADIENT_COORDS, replace=False):
        bumped = flat.copy()
        bumped[idx] += step
        lp, _ = loss_and_grad(replace(params, theta=bumped), descriptor, X, y)
        bumped[idx] -= 2 * step
        lm, _ = loss_and_grad(replace(params, theta=bumped), descriptor, X, y)
        fd = (lp - lm) / (2 * step)
        err = abs(fd - gflat[idx]) / max(abs(fd) + abs(gflat[idx]), 1e-6)
        worst = max(worst, err)
    return worst


def train_reference_mlp(dataset: Dataset, cfg: TrainConfig):
    """Plain MLP on the raw input, no invariance imposed: the symmetry-free
    reference fit, with hidden layers H_WIDTH wide, trained in `_sgd` with
    the same budget as cfg.  Returns (layers, predict), each layer its
    weight block.  The init and the shuffles come from one seeded stream.
    A non-finite training loss raises NumericError."""
    rng = np.random.default_rng(cfg.seed)
    dims = (dataset.inputs.shape[1], H_WIDTH, H_WIDTH, 1)
    theta, grad = np.empty(_mlp_size(dims)), np.empty(_mlp_size(dims))
    layers, _ = _mlp_views(theta, dims)
    grad_layers, _ = _mlp_views(grad, dims)
    _init_mlp(layers, rng)
    X, y = _with_ones(dataset.inputs), dataset.targets

    def step(rows, buffers):
        _mlp_loss_and_grad(layers, X[rows], y[rows], cfg.loss_kind, grad_layers, 0, buffers)

    def forward_rows(block):
        return _mlp_forward(layers, _with_ones(block), _mlp_buffers(layers, len(block)))[:, 0]

    return _sgd(
        theta, grad, step, lambda rows: _mlp_buffers(layers, rows),
        lambda: (layers, lambda X: _predict(forward_rows, X)), cfg, len(dataset), rng,
    )


def evaluate(params: PhiParams, descriptor: GroupDescriptor, dataset: Dataset):
    """The MAE on dataset: `mean_loss` in ABSOLUTE."""
    return mean_loss(params, descriptor, dataset, ABSOLUTE)
