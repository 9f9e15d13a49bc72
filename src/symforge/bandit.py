"""Linear Thompson sampling over arms, and a synthetic linear-bandit simulator.

The posterior is the standard Gaussian linear-model one: precision
B = I + sum a a^T over played arms, reward-weighted sum f, mean B^-1 f.
Each update factors B = L L^T once and solves for the mean; a sample
reuses L, so its covariance is exactly nu^2 B^-1.  One LinTS step,
posterior_sample then posterior_update, serves discovery and the
simulator: a `BanditPosterior` holds one posterior or a stack of them on
its leading axes, and the simulator steps its stack of one posterior per
trial through the same two functions, so every trial of a step shares one
batched factorization.  The simulator checks the log(T)/T
misidentification trend for the empirical-play recommendation rule.

Discovery's pulls step through `lints_loop`, one LinTS loop over a reward
source: discovery's source fits and rewards each pulled arm, and the loop
alone samples, plays, updates and ranks.  The posterior is a function of
the (arm, reward) history, so a source that returns the rewards recorded
in a run's pulls.csv replays the run's pulls and its ranking, with no
training.

Discovery fits, on a second CPU when the process may run on one, the arm
the posterior predicts for the next pull while this process fits the
current one: a pull forks a child for that arm, and reads its fit and
reaps it before the pull returns.  `_ArmFits` owns a run's fits: the pulled
arms' memo, those children and the in-process fit.  A fit is
deterministic, so the outputs are byte-identical with the children and
without them.
"""

from __future__ import annotations

import os
import pickle
import threading
from dataclasses import astuple, dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, NumericError
from .net import (
    SQUARED,
    Dataset,
    PhiParams,
    TrainConfig,
    _residual_loss,
    evaluate,
    mean_loss,
    train_reference_mlp,
    train_sgd,
)
from .selection import ArmFeature, argmax_arm, arm_matrix, rank_arms


@dataclass(frozen=True)
class BanditPosterior:
    """One posterior, or a stack of them on the leading axes."""

    B: np.ndarray  # (..., d, d) precision, I + sum a a^T
    L: np.ndarray  # lower Cholesky factor of B
    f: np.ndarray  # (..., d) reward-weighted arm sum
    mu_hat: np.ndarray  # exact solution of B mu = f
    nu: float

    @staticmethod
    def fresh(d: int, nu: float, stack: tuple = ()) -> "BanditPosterior":
        eye = np.tile(np.eye(d), (*stack, 1, 1))
        return BanditPosterior(eye, eye.copy(), np.zeros((*stack, d)), np.zeros((*stack, d)), nu)

    @property
    def d(self) -> int:
        return self.B.shape[-1]


def posterior_sample(post: BanditPosterior, z) -> np.ndarray:
    """mu_hat + nu L^-T z for each posterior, a draw from N(mu_hat, nu^2 B^-1)
    when z is standard normal, refused unless its absolute sum, which bounds
    every 0/1 arm's score a . mu, is finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        Lt = np.swapaxes(post.L, -1, -2)
        mu = post.mu_hat + post.nu * np.linalg.solve(Lt, z[..., None])[..., 0]
        if not np.isfinite(np.abs(mu) @ np.ones(post.d)).all():
            raise NumericError("posterior sample must be finite, and so must its absolute sum")
    return mu


def posterior_update(post: BanditPosterior, a, gamma) -> BanditPosterior:
    """Rank-1 precision update of each posterior, with its arm a and reward
    gamma; the mean is re-solved, never drifted."""
    a = np.asarray(a, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if not np.isfinite(gamma).all():
        raise NumericError("reward must be finite")
    B = post.B + a[..., :, None] * a[..., None, :]
    f = post.f + gamma[..., None] * a
    try:
        L = np.linalg.cholesky(B)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"posterior precision not SPD: {exc}")
    mu_hat = np.linalg.solve(B, f[..., None])[..., 0]
    return BanditPosterior(B, L, f, mu_hat, post.nu)


def _holdout_split(dataset: Dataset, frac: float):
    """(fit, held): the head to fit on and the tail, round(frac * m) rows,
    held out.  A tail that would be empty or everything raises
    DimensionError."""
    n_held = int(round(frac * len(dataset)))
    if not 0 < n_held < len(dataset):
        raise DimensionError(
            f"holding out {frac:g} of {len(dataset)} train rows leaves {n_held} held out "
            f"and {len(dataset) - n_held} to fit; each needs at least one row"
        )
    fit = Dataset(dataset.inputs[:-n_held], dataset.targets[:-n_held])
    return fit, Dataset(dataset.inputs[-n_held:], dataset.targets[-n_held:])


def _reference_fit(
    fit: Dataset, held: Dataset, train_cfg: TrainConfig, references: dict | None = None
):
    """The symmetry-free reference MLP fit on `fit`, and its held-out MSE
    (floored at 1e-12).  `references`, when given, maps the
    rows and settings of earlier fits to their predictors: a fit is
    deterministic, so one on the same rows with the same settings is
    reused, and a new one is added.  A fit that diverges raises NumericError
    from its step, and so does a fit whose loss on its own rows is not below
    that of their mean, or whose held-out loss is non-finite: a reference
    that diverged to a huge finite loss would otherwise centre every
    reward."""
    references = {} if references is None else references
    key = (fit.inputs.shape, fit.inputs.tobytes(), fit.targets.tobytes(), astuple(train_cfg))
    if key not in references:
        _, references[key] = train_reference_mlp(fit, train_cfg)
    predict = references[key]
    fit_loss = _residual_loss(predict(fit.inputs) - fit.targets, SQUARED)
    constant = _residual_loss(fit.targets.mean() - fit.targets, SQUARED)
    if not fit_loss < constant:
        raise NumericError(
            f"reference fit does no better than the mean ({fit_loss:.3g} >= {constant:.3g})"
        )
    loss = _residual_loss(predict(held.inputs) - held.targets, SQUARED)
    if not np.isfinite(loss):
        raise NumericError("reference fit has a non-finite held-out loss")
    return predict, max(loss, 1e-12)


_SCREEN_HOLDOUT = 0.25  # the share of rows, at the tail, that screening holds out
# screen_coordinates' defaults, and `discover`'s.
SCREEN_THRESHOLD = 0.08
SCREEN_REPEATS = 30


def screen_coordinates(
    dataset: Dataset,
    train_cfg: TrainConfig,
    threshold: float = SCREEN_THRESHOLD,
    repeats: int = SCREEN_REPEATS,
    seed: int = 0,
    references: dict | None = None,
) -> tuple:
    """Coordinates the target measurably depends on, by permutation importance.

    A symmetry-free reference MLP is fit on the head of the dataset; a
    coordinate is kept when shuffling its column raises the held-out MSE,
    on average over `repeats` >= 1 shuffles, by more than `threshold` times
    the base MSE.  Restricting arms to the kept coordinates removes the
    vacuous arms over coordinates the target ignores (any subgroup acting
    only on those is trivially respected and would crowd the ranking).
    Falls back to all coordinates if fewer than two pass.  A dataset too
    small to hold a row out raises DimensionError.  The reference fit is
    added to `references`, when a dict is given, for run_discovery to reuse.
    """
    if repeats < 1:
        raise ValueError(f"need repeats >= 1, got {repeats}")
    n = dataset.inputs.shape[1]
    fit, held = _holdout_split(dataset, _SCREEN_HOLDOUT)
    predict, base = _reference_fit(fit, held, train_cfg, references)
    rng = np.random.default_rng(seed)
    importance = np.zeros(n)
    for j in range(n):
        for _ in range(repeats):
            shuffled = held.inputs.copy()
            shuffled[:, j] = shuffled[rng.permutation(len(held)), j]
            importance[j] += _residual_loss(predict(shuffled) - held.targets, SQUARED) - base
    importance /= repeats
    kept = tuple(int(j) for j in np.flatnonzero(importance > threshold * base))
    if len(kept) < 2:
        return tuple(range(n))
    return kept


def filter_arms(arms, coordinates) -> list:
    """Arms whose index set lies inside the given coordinate set."""
    allowed = set(coordinates)
    return [a for a in arms if set(a.descriptor.index_set) <= allowed]


@dataclass(frozen=True)
class PullRecord:
    """train_loss is the arm's reward loss, its MSE on the held-out rows;
    inf when the fit failed."""

    t: int
    arm: ArmFeature
    reward: float
    train_loss: float


class ArmFit(NamedTuple):
    params: PhiParams
    loss: float  # the held-out MSE, as PullRecord.train_loss


def _fit_arm(arm, fit_data: Dataset, held_data: Dataset, train_cfg: TrainConfig) -> ArmFit | None:
    """phi trained for the arm on fit_data, in train_cfg's loss, and its
    MSE on held_data; None when the fit fails: its training loss, its
    final loss or its held-out MSE raises NumericError."""
    try:
        params, _ = train_sgd(fit_data, arm.descriptor, train_cfg)
        loss = mean_loss(params, arm.descriptor, held_data, SQUARED)
    except NumericError:
        return None
    return ArmFit(params, loss)


_SIGKILL = 9  # POSIX's number for SIGKILL; `signal` is not loaded to name it


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class _ArmFits:
    """The arm fits of one discovery run, on its rows and settings: the
    pulled arms' fits, the in-process fit, and forked children that each
    fit one arm.

    A pull that fits its arm in-process first forks a child that fits the
    arm predicted for the next pull; the pull reads the child's fit into
    `ready`, then kills and reaps the child, before it returns or raises,
    so no child outlives its pull.  A child inherits the arms and the rows.
    Children are forked when the platform can fork, the process may run on
    at least two CPUs and runs no other Python thread, whose locks a forked
    child could inherit held.  A failed fork stops forking for the run; a
    child that dies, or whose reply does not load, loses only its own fit.
    A child's fit is the one `_fit_arm` gives in-process, so forking
    changes where a fit is made, never what it is.  `counts` holds the fits
    made in-process, the children forked and their fits taken."""

    def __init__(self, arms, fit_data: Dataset, held_data: Dataset, train_cfg: TrainConfig):
        self.arms, self.train_cfg = arms, train_cfg
        self.fit_data, self.held_data = fit_data, held_data
        self.pulled = {}  # bits -> ArmFit or None of each pulled arm
        self.ready = {}  # bits -> ArmFit or None: children's fits not yet used
        self.counts = dict(in_process=0, handed=0, taken=0)
        self.forks = hasattr(os, "fork") and _cpu_count() >= 2 and threading.active_count() == 1

    def get(self, arm, predict=None) -> ArmFit | None:
        """The arm's fit: its pulled fit, else a child's, else one made
        in-process.  A pull passes `predict`, which gives the index of the
        arm predicted for the next pull, or None: before an in-process fit,
        and only then, a child is forked to fit that arm, so the child fits
        the next arm while this process fits this one.  A pull's fit is kept
        as its arm's pulled fit."""
        bits = arm.bits
        if bits in self.pulled:
            return self.pulled[bits]
        if bits in self.ready:
            self.counts["taken"] += 1
            fit = self.ready.pop(bits)
        else:
            child = self._fork(predict(), bits) if predict is not None and self.forks else None
            self.counts["in_process"] += 1
            try:
                fit = _fit_arm(arm, self.fit_data, self.held_data, self.train_cfg)
                if child is not None:
                    self._read(child)
            finally:
                if child is not None:
                    _reap(child)
        if predict is not None:
            self.pulled[bits] = fit
        return fit

    def _fork(self, index: int | None, bits):
        """Fork a child that fits arms[index] and dumps (theta, held-out
        loss), or None for a failed fit, to a pipe; returns its pid, the
        pipe's read end and the arm's bits.  No child, and None, when index
        is None, the arm is `bits`, pulled or fit already, or the fork
        fails, which stops forking for the run."""
        fitted = self.pulled.keys() | self.ready.keys() | {bits}
        if index is None or self.arms[index].bits in fitted:
            return None
        fds = []
        try:
            fds += os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            self.forks = False
            return None
        if pid == 0:  # the child: exits, silently, whatever happens; never returns
            try:
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, 1)
                os.dup2(devnull, 2)
                fit = _fit_arm(self.arms[index], self.fit_data, self.held_data, self.train_cfg)
                with open(fds[1], "wb") as up:
                    pickle.dump(None if fit is None else (fit.params.theta, fit.loss), up)
            finally:
                os._exit(0)
        os.close(fds[1])
        self.counts["handed"] += 1
        return pid, open(fds[0], "rb"), self.arms[index].bits

    def _read(self, child) -> None:
        """Load the child's reply, waiting for it, into `ready`; a reply
        that does not load, as from a child that died, is dropped."""
        _, up, bits = child
        try:
            reply = pickle.load(up)
        except (OSError, EOFError, MemoryError, pickle.UnpicklingError):
            return
        if reply is not None:
            reply = ArmFit(PhiParams(reply[0], self.fit_data.inputs.shape[1]), reply[1])
        self.ready[bits] = reply


def _reap(child) -> None:
    """Close the child's pipe, then kill and reap it."""
    pid, up, _ = child
    up.close()
    try:
        os.kill(pid, _SIGKILL)
        os.waitpid(pid, 0)
    except (ProcessLookupError, ChildProcessError):
        pass  # already reaped: this process ignores SIGCHLD


@dataclass
class DiscoveryConfig:
    T: int
    nu: float = 0.5
    train_cfg: TrainConfig = field(default_factory=TrainConfig)
    reward_holdout: float = 0.25
    size_bonus: float = 1.2
    seed: int = 0

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("need T >= 1")
        if not 0.0 < self.reward_holdout < 1.0:
            raise ValueError("reward_holdout must be in (0, 1)")
        if not 0 <= self.nu < np.inf:
            raise ValueError("nu must be finite and >= 0")
        if not np.isfinite(self.size_bonus):
            raise ValueError("size_bonus must be finite")


@dataclass
class DiscoveryResult:
    ranking: list[ArmFeature]  # all arms, by a^T mu_hat descending
    records: list[PullRecord]
    posterior: BanditPosterior
    arm_fits: _ArmFits  # the run's fits, and the rows and settings they use

    @property
    def fits(self) -> dict:
        """bits -> ArmFit of each pulled arm, None if its fit failed; fit once per run."""
        return self.arm_fits.pulled


def lints_loop(arms, cfg: DiscoveryConfig, reward):
    """(ranking, records, posterior) of cfg.T LinTS pulls over the arms,
    each rewarded by `reward(t, arm, predict)`, which returns the pull's
    (reward, loss) and is recorded as given.

    The generator is seeded with cfg.seed, and each pull draws the next
    pull's normals before it is rewarded.  During pull t, `predict(lo, hi)`
    gives the index of the arm that pull t + 1 plays if pull t is rewarded
    the posterior's own estimate of its arm, clipped to [lo, hi]; None at
    the last pull, and when that raises NumericError.  The loop is the same
    whatever the source: a source that returns the rewards in a run's
    pulls.csv replays the run's pulls and its ranking.  The ranking is of
    all arms, by a^T mu_hat descending.
    """
    rng = np.random.default_rng(cfg.seed)
    A = arm_matrix(arms)
    post = BanditPosterior.fresh(A.shape[1], cfg.nu)
    records = []
    z = rng.standard_normal(post.d)
    for t in range(1, cfg.T + 1):
        arm = arms[argmax_arm(posterior_sample(post, z), A)]
        # The next pull's normals, drawn now for the prediction: the
        # generator's stream is the same.
        z = rng.standard_normal(post.d) if t < cfg.T else None

        def predict(lo, hi):
            if z is None:
                return None
            gamma = float(np.clip(np.dot(arm.bits, post.mu_hat), lo, hi))
            try:
                return argmax_arm(posterior_sample(posterior_update(post, arm.bits, gamma), z), A)
            except NumericError:
                return None

        gamma, loss = reward(t, arm, predict)
        records.append(PullRecord(t, arm, gamma, loss))
        post = posterior_update(post, arm.bits, gamma)
    return [arms[i] for i in rank_arms(post.mu_hat, A)], records, post


def run_discovery(
    arms, dataset: Dataset, cfg: DiscoveryConfig, references: dict | None = None
) -> DiscoveryResult:
    """Algorithm loop: `lints_loop` over a reward source that trains phi for
    the pulled arm and rewards it by its held-out loss.

    The reward loss is the MSE on a held-out tail of the dataset (fraction
    reward_holdout, trained on the rest), whatever loss train_cfg trains:
    with enough epochs every arm can memorize a small training set, but
    only arms whose symmetry the target respects generalize, so the
    held-out loss is what separates them.  The reward is centered on the
    held-out MSE of a symmetry-free reference MLP, fit with the same
    budget before the first pull: arms whose inductive bias helps
    get positive rewards, harmful constraints get negative ones, so the
    fitted mu_hat turns positive on the useful coordinates.  A bonus
    size_bonus * |I| / n favours arms on larger supports; it is the same for
    every kind on one support, so only the held-out loss tells the kinds on
    a support apart.  So a fitted arm's reward lies in [bonus - 1,
    bonus + 1], the range the next arm is predicted over.  The bandit's
    decisions depend on the rewards alone: `lints_loop`, fed a run's
    recorded rewards, replays its pulls and ranking from pulls.csv with no
    training.

    Training failures never abort the loop: an arm whose training diverges
    or whose loss is non-finite gets the floor reward -1 and loss inf.  The
    reference is reused when `references` (as screen_coordinates fills it)
    holds one fit on the same rows with the same train_cfg; its failure,
    like a non-finite dataset, refuses the run with a SymforgeError before
    any arm is trained.  A fit is deterministic (the same seed on the
    same rows), so an arm is trained on its first pull and a re-pull reuses
    that fit, with the same weights, loss and reward, or its failure.  For
    the same reason a pull that trains an arm can first fork a child that
    trains the arm predicted for the next pull on another CPU; the pull
    reads the child's fit and reaps it before it returns, and a later pull
    of that arm takes the fit.  `_ArmFits` owns the fits, the children and
    the rows and settings the fits use, and the result keeps it, so
    evaluate_top_arms fits other arms the same way.  Only pulled arms enter
    `fits`.
    """
    if not arms:
        raise ValueError("empty arm set")
    if not (np.all(np.isfinite(dataset.inputs)) and np.all(np.isfinite(dataset.targets))):
        raise NumericError("non-finite value in the dataset")
    fit_data, held_data = _holdout_split(dataset, cfg.reward_holdout)
    _, ref_loss = _reference_fit(fit_data, held_data, cfg.train_cfg, references)
    fits = _ArmFits(arms, fit_data, held_data, cfg.train_cfg)

    def reward(t, arm, predict):
        # Bonus for larger index sets.  It depends on |I| alone, so it
        # favours larger supports but does not rank a group above its
        # subgroups on the same support.
        bonus = cfg.size_bonus * arm.descriptor.k / arm.descriptor.n
        fit = fits.get(arm, lambda: predict(bonus - 1.0, bonus + 1.0))
        if fit is None:
            return -1.0, float("inf")
        return float(np.clip((ref_loss - fit.loss) / ref_loss, -1.0, 1.0)) + bonus, fit.loss

    return DiscoveryResult(*lints_loop(arms, cfg, reward), fits)


def evaluate_top_arms(result: DiscoveryResult, dataset: Dataset, top: int = 3):
    """[(arm, MAE on dataset)] for the leading ranked arms, in one fit regime:
    a pulled arm's fit, or failure, from the run, else a fit on the same rows
    and settings, which a child of the run may have made already.  None when
    the fit fails or the evaluation raises NumericError."""
    out = []
    for arm in result.ranking[:top]:
        fit = result.arm_fits.get(arm)
        mae = None
        if fit is not None:
            try:
                mae = evaluate(fit.params, arm.descriptor, dataset)
            except NumericError:
                pass
        out.append((arm, mae))
    return out


@dataclass
class LinearInstance:
    """A synthetic linear bandit with a unique best arm and Gaussian noise."""

    mu_star: np.ndarray
    arms: np.ndarray  # (n_arms, d) binary feature rows
    noise_sigma: float
    best_index: int = field(init=False)

    def __post_init__(self):
        self.mu_star = np.asarray(self.mu_star, dtype=float)
        self.arms = np.asarray(self.arms, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            means = self.arms @ self.mu_star
        if means.ndim != 1 or means.size < 2:
            raise ValueError("instance needs a mu_star vector and at least two arms")
        if not np.isfinite(means).all():
            raise ValueError("arm means must be finite")
        order = np.sort(means)[::-1]
        if not order[0] > order[1]:
            raise ValueError("instance needs a unique best arm")
        if not 0 <= self.noise_sigma < np.inf:
            raise ValueError("noise_sigma must be finite and >= 0")
        self.best_index = int(np.argmax(means))


# Steps of normals each simulator trial draws from its generator at a time.
# One standard_normal((k, d + 1)) block is the same stream as k steps of
# standard_normal(d) then standard_normal(), so the block size does not
# change the draws.  It trades generator calls for memory: at 200 trials
# and d = 5, a block of 10 steps holds 96 KB, and one of 50 would hold 480 KB.
_DRAW_BLOCK = 10


def lints_play_counts(instance: LinearInstance, horizons, nu, rngs):
    """LinTS runs to max(horizons), one per generator, in lockstep.

    Returns {T: (len(rngs), n_arms) play counts}.  Each run draws, per
    step, standard_normal(d) for its sample and standard_normal() for its
    reward noise from its own generator, so row i equals a run on rngs[i]
    alone.  The runs' posteriors are one stacked BanditPosterior, so each
    step is one posterior_sample and one posterior_update for all trials."""
    n_arms, d = instance.arms.shape
    trials = len(rngs)
    T_max = max(horizons)
    horizon_set = set(horizons)
    means = instance.arms @ instance.mu_star
    post = BanditPosterior.fresh(d, nu, (trials,))
    counts = np.zeros((trials, n_arms), dtype=int)
    rows = np.arange(trials)
    snapshots = {}
    draws = np.empty((trials, _DRAW_BLOCK, d + 1))
    for t in range(T_max):
        if t % _DRAW_BLOCK == 0:
            steps = min(_DRAW_BLOCK, T_max - t)
            for rng, block in zip(rngs, draws[:, :steps]):
                rng.standard_normal(out=block)
        z = draws[:, t % _DRAW_BLOCK]
        mu = posterior_sample(post, z[:, :d])
        # An overflowing reward sum leaves f infinite, and the next sample refuses it.
        with np.errstate(over="ignore", invalid="ignore"):
            idx = np.argmax(mu @ instance.arms.T, axis=1)
            reward = means[idx] + instance.noise_sigma * z[:, d]
            post = posterior_update(post, instance.arms[idx], reward)
        counts[rows, idx] += 1
        if t + 1 in horizon_set:
            snapshots[t + 1] = counts.copy()
    return snapshots


def simulate_linear(instance: LinearInstance, horizons, nu, trials, seed=0):
    """Empirical P[A_T != a*] per horizon, A_T drawn from the play counts.

    The trials run in lockstep (see lints_play_counts), each on its own
    generator spawned from `seed`."""
    if trials < 1:
        raise ValueError("need at least one trial")
    horizons = list(horizons)
    if not horizons or not all(
        isinstance(T, (int, np.integer)) and not isinstance(T, bool) and T >= 1 for T in horizons
    ):
        raise ValueError(f"horizons must be a non-empty list of whole numbers >= 1: {horizons!r}")
    if not 0 <= nu < np.inf:
        raise ValueError("nu must be finite and >= 0")
    horizons = sorted(set(horizons))
    # Each trial's recommended arm at each horizon.  It is allocated before
    # the generators, which are Python objects: a trial count too large for
    # memory then fails on this one array, not while building them, where a
    # finalizer can fail as well.
    guesses = np.empty((trials, len(horizons)), dtype=int)
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(trials)]
    snapshots = lints_play_counts(instance, horizons, nu, rngs)
    for i, rng in enumerate(rngs):
        for k, T in enumerate(horizons):
            counts = snapshots[T][i]
            guesses[i, k] = rng.choice(len(counts), p=counts / counts.sum())
    wrong = np.count_nonzero(guesses != instance.best_index, axis=0)
    return {T: int(w) / trials for T, w in zip(horizons, wrong)}
