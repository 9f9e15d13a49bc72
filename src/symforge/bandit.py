"""Linear Thompson sampling over arms, and a synthetic linear-bandit simulator.

The posterior is the standard Gaussian linear-model one: precision
B = I + sum a a^T over played arms, reward-weighted sum f, mean B^-1 f.
Each update factors B = L L^T once; the mean is solved with L, and a
sample reuses it, so its covariance is exactly nu^2 B^-1.  The simulator
checks the log(T)/T misidentification trend for the empirical-play
recommendation rule.  It runs its trials in lockstep on stacks of these
posteriors, with one batched factorization per step for all trials.
Discovery keeps the single-posterior functions: numpy's batched
factorization and solves differ from scipy's in the last bits, which would
change discovery's rewards and mu_hat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .errors import NumericError, TrainingDivergedError
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
from .selection import ArmFeature, SelectionPair, argmax_arm, arm_matrix, rank_arms


@dataclass(frozen=True)
class BanditPosterior:
    B: np.ndarray  # (d, d) precision, I + sum a a^T
    L: np.ndarray  # lower Cholesky factor of B
    f: np.ndarray  # (d,) reward-weighted arm sum
    mu_hat: np.ndarray  # exact solution of B mu = f
    nu: float

    @staticmethod
    def fresh(d: int, nu: float) -> "BanditPosterior":
        return BanditPosterior(np.eye(d), np.eye(d), np.zeros(d), np.zeros(d), nu)

    @property
    def d(self) -> int:
        return self.B.shape[0]


def posterior_sample(post: BanditPosterior, rng: np.random.Generator) -> np.ndarray:
    """Draw mu ~ N(mu_hat, nu^2 B^-1) as mu_hat + nu L^-T z, refused unless
    its absolute sum, which bounds every 0/1 arm's score a . mu, is finite."""
    z = rng.standard_normal(post.d)
    with np.errstate(over="ignore", invalid="ignore"):
        mu = post.mu_hat + post.nu * solve_triangular(post.L, z, lower=True, trans="T")
        if not np.isfinite(np.abs(mu).sum()):
            raise NumericError("posterior sample must be finite, and so must its absolute sum")
    return mu


def posterior_update(post: BanditPosterior, a, gamma: float) -> BanditPosterior:
    """Rank-1 precision update; the mean is re-solved, never drifted."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(gamma):
        raise NumericError("reward must be finite")
    B = post.B + np.outer(a, a)
    f = post.f + gamma * a
    try:
        L = cholesky(B, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"posterior precision not SPD: {exc}")
    return BanditPosterior(B, L, f, cho_solve((L, True), f), post.nu)


def _holdout_split(dataset: Dataset, frac: float):
    """(fit, held): the head to fit on and the tail, round(frac * m) rows,
    held out.  held is None when that tail would be empty or everything."""
    n_held = int(round(frac * len(dataset)))
    if not 0 < n_held < len(dataset):
        return dataset, None
    fit = Dataset(dataset.inputs[:-n_held], dataset.targets[:-n_held])
    return fit, Dataset(dataset.inputs[-n_held:], dataset.targets[-n_held:])


def _reference_fit(fit: Dataset, held: Dataset, train_cfg: TrainConfig, loss_kind):
    """The symmetry-free reference MLP fit on `fit`, and its held-out loss
    (floored at 1e-12).  A diverged fit raises TrainingDivergedError.  A fit
    whose loss on its own rows is not below that of their mean, or whose
    held-out loss is non-finite, raises NumericError: a reference that
    diverged to a huge finite loss would otherwise centre every reward."""
    _, predict = train_reference_mlp(fit, train_cfg)
    fit_loss = _residual_loss(predict(fit.inputs) - fit.targets, loss_kind)
    constant = _residual_loss(fit.targets.mean() - fit.targets, loss_kind)
    if not fit_loss < constant:
        raise NumericError(
            f"reference fit does no better than the mean ({fit_loss:.3g} >= {constant:.3g})"
        )
    loss = _residual_loss(predict(held.inputs) - held.targets, loss_kind)
    if not np.isfinite(loss):
        raise NumericError("reference fit has a non-finite held-out loss")
    return predict, max(loss, 1e-12)


_SCREEN_HOLDOUT = 0.25  # the share of rows, at the tail, that screening holds out


def screen_coordinates(
    dataset: Dataset,
    train_cfg: TrainConfig,
    threshold: float = 0.08,
    repeats: int = 30,
    seed: int = 0,
) -> tuple:
    """Coordinates the target measurably depends on, by permutation importance.

    A symmetry-free reference MLP is fit on the head of the dataset; a
    coordinate is kept when shuffling its column raises the held-out MSE by
    more than `threshold` times the base MSE.  Restricting arms to the kept
    coordinates removes the vacuous arms over coordinates the target
    ignores (any subgroup acting only on those is trivially respected and
    would crowd the ranking).  Falls back to all coordinates if fewer than
    two pass, or if the dataset is too small to hold any rows out.
    """
    n = dataset.inputs.shape[1]
    fit, held = _holdout_split(dataset, _SCREEN_HOLDOUT)
    if held is None:
        return tuple(range(n))
    predict, base = _reference_fit(fit, held, train_cfg, SQUARED)
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
    """train_loss is the arm's reward loss: held out when a holdout exists,
    else on the rows it was fit on; inf when the fit failed."""

    t: int
    arm: ArmFeature
    reward: float
    train_loss: float


class ArmFit(NamedTuple):
    params: PhiParams
    loss: float  # the reward loss, as PullRecord.train_loss


def _fit_arm(arm, fit_data: Dataset, held_data, train_cfg: TrainConfig) -> ArmFit | None:
    """phi trained for the arm on fit_data, and its loss on held_data (on
    fit_data when held_data is None); None when the fit fails."""
    sp = SelectionPair.for_descriptor(arm.descriptor)
    try:
        params, loss = train_sgd(fit_data, sp, train_cfg)
        if held_data is not None:
            loss = mean_loss(params, sp, held_data, train_cfg.loss_kind)
    except (NumericError, TrainingDivergedError):
        return None
    return ArmFit(params, loss)


@dataclass
class DiscoveryConfig:
    T: int
    nu: float = 0.5
    train_cfg: TrainConfig = field(default_factory=TrainConfig)
    loss_cap: float = 1.0
    reward_holdout: float = 0.25
    size_bonus: float = 1.2
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.reward_holdout < 1.0:
            raise ValueError("reward_holdout must be in [0, 1)")
        if not 0 < self.loss_cap < np.inf:
            raise ValueError("loss_cap must be finite and > 0")
        if not 0 <= self.nu < np.inf:
            raise ValueError("nu must be finite and >= 0")


@dataclass
class DiscoveryResult:
    ranking: list[ArmFeature]  # all arms, by a^T mu_hat descending
    records: list[PullRecord]
    posterior: BanditPosterior
    fits: dict  # bits -> ArmFit of each pulled arm whose fit succeeded
    fit_data: Dataset  # the rows every arm is fit on
    train_cfg: TrainConfig


def run_discovery(arms, dataset: Dataset, cfg: DiscoveryConfig) -> DiscoveryResult:
    """Algorithm loop: sample mu, play the argmax arm, train phi for it,
    reward with the capped negative loss, update the posterior.

    The reward loss is measured on a held-out tail of the dataset (fraction
    reward_holdout, trained on the rest): with enough epochs every arm can
    memorize a small training set, but only arms whose symmetry the target
    respects generalize, so the held-out loss is what separates them.  The
    reward is centered on the held-out loss of a symmetry-free reference
    MLP trained once with the same budget: arms whose inductive bias helps
    get positive rewards, harmful constraints get negative ones, so the
    fitted mu_hat turns positive on the useful coordinates.  A bonus
    size_bonus * |I| / n favours arms on larger supports; it is the same for
    every kind on one support, so only the held-out loss tells the kinds on
    a support apart.  With reward_holdout = 0 the literal rule is used
    instead: reward -min(L_train, loss_cap)/loss_cap.

    Training failures never abort the loop: an arm whose training diverges
    or whose loss is non-finite gets the floor reward -1 and loss inf.  The
    reference is fit when the first reward needs it, and its failure, like
    a non-finite dataset, ends the run with a SymforgeError.  Every pull
    trains from scratch with the same seed, so a re-pulled arm gets the
    same weights and reward.  The result keeps the fits, and the rows and
    settings they used, so evaluate_top_arms fits other arms the same way.
    """
    if cfg.T < 1:
        raise ValueError("need T >= 1")
    if not arms:
        raise ValueError("empty arm set")
    if not (np.all(np.isfinite(dataset.inputs)) and np.all(np.isfinite(dataset.targets))):
        raise NumericError("non-finite value in the dataset")
    rng = np.random.default_rng(cfg.seed)
    A = arm_matrix(arms)
    post = BanditPosterior.fresh(A.shape[1], cfg.nu)
    records = []
    fits: dict = {}
    n_coords = dataset.inputs.shape[1]
    fit_data, held_data = _holdout_split(dataset, cfg.reward_holdout)
    ref_loss = None
    for t in range(1, cfg.T + 1):
        mu = posterior_sample(post, rng)
        arm = arms[argmax_arm(mu, A)]
        fit = _fit_arm(arm, fit_data, held_data, cfg.train_cfg)
        if fit is None:
            loss, gamma = float("inf"), -1.0
        else:
            fits[arm.bits] = fit
            loss = fit.loss
            if held_data is None:
                gamma = -min(loss, cfg.loss_cap) / cfg.loss_cap
            else:
                if ref_loss is None:
                    _, ref_loss = _reference_fit(
                        fit_data, held_data, cfg.train_cfg, cfg.train_cfg.loss_kind
                    )
                gamma = float(np.clip((ref_loss - loss) / ref_loss, -1.0, 1.0))
                # Bonus for larger index sets.  It depends on |I| alone, so
                # it favours larger supports but does not rank a group above
                # its subgroups on the same support.
                gamma += cfg.size_bonus * len(arm.descriptor.index_set) / n_coords
        records.append(PullRecord(t, arm, gamma, loss))
        post = posterior_update(post, arm.bits, gamma)
    ranking = [arms[i] for i in rank_arms(post.mu_hat, A)]
    return DiscoveryResult(ranking, records, post, fits, fit_data, cfg.train_cfg)


def evaluate_top_arms(result: DiscoveryResult, dataset: Dataset, top: int = 3):
    """[(arm, MAE on dataset)] for the leading ranked arms, in one fit regime:
    a pulled arm's fit from the run, else a fit on the same rows and
    settings.  None when the fit fails or the evaluation raises NumericError."""
    out = []
    for arm in result.ranking[:top]:
        fit = result.fits.get(arm.bits) or _fit_arm(arm, result.fit_data, None, result.train_cfg)
        mae = None
        if fit is not None:
            try:
                mae = evaluate(fit.params, SelectionPair.for_descriptor(arm.descriptor), dataset)
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
    delta_min: float = field(init=False)  # gap between the best two mean rewards
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
        gap = float(order[0] - order[1])
        if not gap > 0:
            raise ValueError("instance needs a unique best arm")
        if not 0 <= self.noise_sigma < np.inf:
            raise ValueError("noise_sigma must be finite and >= 0")
        self.delta_min = gap
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
    alone.  The posteriors are held as stacks: each step factors every
    precision with one batched Cholesky, and the sample and the mean are
    batched solves."""
    n_arms, d = instance.arms.shape
    trials = len(rngs)
    T_max = max(horizons)
    horizon_set = set(horizons)
    means = instance.arms @ instance.mu_star
    B = np.tile(np.eye(d), (trials, 1, 1))
    L = B.copy()
    f = np.zeros((trials, d))
    mu_hat = np.zeros((trials, d))
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
        with np.errstate(over="ignore", invalid="ignore"):
            # mu = mu_hat + nu L^-T z, so its covariance is nu^2 B^-1.
            mu = mu_hat + nu * np.linalg.solve(L.transpose(0, 2, 1), z[:, :d, None])[..., 0]
            if not np.isfinite(mu).all():
                raise NumericError("posterior sample must be finite")
            idx = np.argmax(mu @ instance.arms.T, axis=1)
            reward = means[idx] + instance.noise_sigma * z[:, d]
            if not np.isfinite(reward).all():
                raise NumericError("reward must be finite")
            a = instance.arms[idx]
            f += reward[:, None] * a
        B += a[:, :, None] * a[:, None, :]
        try:
            L = np.linalg.cholesky(B)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"posterior precision not SPD: {exc}")
        mu_hat = np.linalg.solve(B, f[..., None])[..., 0]
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
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(trials)]
    snapshots = lints_play_counts(instance, horizons, nu, rngs)
    misid = {T: 0 for T in horizons}
    for i, rng in enumerate(rngs):
        for T in horizons:
            counts = snapshots[T][i]
            guess = rng.choice(len(counts), p=counts / counts.sum())
            misid[T] += int(guess != instance.best_index)
    return {T: misid[T] / trials for T in horizons}
