import hashlib
import os
import re
import threading
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from symforge import bandit, net, tasks
from symforge.bandit import (
    BanditPosterior,
    DiscoveryConfig,
    DiscoveryResult,
    LinearInstance,
    _holdout_split,
    evaluate_top_arms,
    filter_arms,
    lints_loop,
    lints_play_counts,
    posterior_sample,
    posterior_update,
    run_discovery,
    screen_coordinates,
    simulate_linear,
)
from symforge.cli import discovery_artifacts
from symforge.errors import DimensionError, NumericError, SymforgeError
from symforge.groups import CYCLIC, SYMMETRIC, GroupDescriptor
from symforge.net import ABSOLUTE, SQUARED, Dataset, TrainConfig, evaluate, mean_loss, train_sgd
from symforge.selection import ArmFeature, arm_matrix, arm_scores, enumerate_arms, rank_arms

FAST = TrainConfig(epochs=20, batch_size=16, seed=0)
DIVERGED = "loss became non-finite"  # the NumericError of a diverging fit


# run_discovery forks its children only where os.fork exists and no other
# Python thread runs.
needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork") or threading.active_count() > 1, reason="no fork here"
)


@pytest.fixture
def serial(monkeypatch):
    """Fit every arm in this process.  A test that counts the calls of a
    patched function sees only this process's calls, not the children's."""
    monkeypatch.setattr(bandit, "_cpu_count", lambda: 1)


def test_posterior_single_unit_observation():
    post = BanditPosterior.fresh(3, nu=1.0)
    e1 = np.array([1.0, 0.0, 0.0])
    post = posterior_update(post, e1, gamma=1.0)
    assert np.allclose(post.mu_hat, [0.5, 0.0, 0.0])
    assert np.allclose(post.B, np.diag([2.0, 1.0, 1.0]))


def test_posterior_mean_is_exact_solution():
    rng = np.random.default_rng(0)
    post = BanditPosterior.fresh(5, nu=0.3)
    for _ in range(20):
        a = rng.integers(0, 2, size=5).astype(float)
        post = posterior_update(post, a, float(rng.normal()))
    resid = np.linalg.norm(post.B @ post.mu_hat - post.f)
    assert resid <= 1e-10 * max(np.linalg.norm(post.f), 1.0)


def test_posterior_sample_with_zero_nu_is_the_mean():
    post = BanditPosterior.fresh(4, nu=0.0)
    post = posterior_update(post, np.array([1.0, 1.0, 0.0, 0.0]), 0.7)
    rng = np.random.default_rng(1)
    for _ in range(5):
        assert np.array_equal(posterior_sample(post, rng.standard_normal(4)), post.mu_hat)


def test_posterior_sample_refuses_an_overflowing_absolute_sum():
    # Each entry is finite, but the absolute sum that bounds an arm's score
    # is not; in a stack, one such posterior refuses the whole draw.
    post = replace(BanditPosterior.fresh(2, nu=0.0), mu_hat=np.array([1e308, 1e308]))
    with pytest.raises(NumericError, match="absolute sum"):
        posterior_sample(post, np.zeros(2))
    stack = BanditPosterior.fresh(2, nu=0.0, stack=(3,))
    finite = np.array([[0.5, 0.5], [1e307, 1e307], [0.0, 1.0]])
    assert np.array_equal(posterior_sample(replace(stack, mu_hat=finite), np.zeros((3, 2))), finite)
    finite[1] = 1e308
    with pytest.raises(NumericError, match="absolute sum"):
        posterior_sample(replace(stack, mu_hat=finite), np.zeros((3, 2)))


def test_posterior_sample_moments():
    # Fresh posterior: samples are N(0, nu^2 I); check first two moments
    # to three standard errors over many draws.
    nu = 0.7
    post = BanditPosterior.fresh(2, nu=nu)
    rng = np.random.default_rng(2)
    draws = np.array([posterior_sample(post, rng.standard_normal(2)) for _ in range(20000)])
    se_mean = nu / np.sqrt(len(draws))
    assert np.all(np.abs(draws.mean(axis=0)) <= 3 * se_mean)
    cov = np.cov(draws.T)
    se_var = nu**2 * np.sqrt(2 / len(draws))
    assert np.all(np.abs(np.diag(cov) - nu**2) <= 3 * se_var)
    assert abs(cov[0, 1]) <= 3 * nu**2 / np.sqrt(len(draws))


def test_posterior_update_shrinks_variance_along_arm():
    post = BanditPosterior.fresh(3, nu=1.0)
    a = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    before = a @ np.linalg.inv(post.B) @ a
    post = posterior_update(post, a, 0.1)
    after = a @ np.linalg.inv(post.B) @ a
    # Sherman-Morrison: the quadratic form drops by before^2 / (1 + before).
    assert np.isclose(before - after, before**2 / (1 + before))


def test_posterior_sample_reuses_the_update_factor(monkeypatch):
    rng = np.random.default_rng(4)
    post = BanditPosterior.fresh(5, nu=0.3)
    for _ in range(8):
        post = posterior_update(post, rng.integers(0, 2, size=5), float(rng.normal()))
    assert np.allclose(post.L @ post.L.T, post.B)

    def no_factorization(*args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")

    # A sample does no factorization of its own; an update converts a
    # failed one into a NumericError.
    monkeypatch.setattr(np.linalg, "cholesky", no_factorization)
    z = np.random.default_rng(9).standard_normal(5)
    mu = posterior_sample(post, z)
    assert np.allclose(post.L.T @ (mu - post.mu_hat), post.nu * z)
    with pytest.raises(NumericError):
        posterior_update(post, np.ones(5), 0.5)


def test_posterior_rejects_nonfinite_reward():
    post = BanditPosterior.fresh(2, nu=0.5)
    with pytest.raises(NumericError):
        posterior_update(post, np.array([1.0, 0.0]), float("nan"))


def test_reward_rescaling_preserves_ranking():
    rng = np.random.default_rng(3)
    arms = enumerate_arms(4)
    pulls = [(arms[i % len(arms)].bits, float(rng.normal())) for i in range(30)]
    base = BanditPosterior.fresh(7, nu=0.5)
    scaled = BanditPosterior.fresh(7, nu=0.5)
    for bits, gamma in pulls:
        base = posterior_update(base, bits, gamma)
        scaled = posterior_update(scaled, bits, 2.5 * gamma)
    assert np.allclose(scaled.mu_hat, 2.5 * base.mu_hat)
    order = lambda post: sorted(
        arms, key=lambda a: (-float(np.dot(post.mu_hat, a.bits)), a.bits)
    )
    assert [a.bits for a in order(base)] == [a.bits for a in order(scaled)]


def _toy_dataset(n=4, m=40, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(m, n))
    y = X[:, 0] + X[:, 1] + 0.0 * X[:, 2:].sum(axis=1)
    return Dataset(X, (y - y.min()) / (y.max() - y.min()))


def test_discovery_config_validation():
    for holdout in (0.0, 1.0):
        with pytest.raises(ValueError, match="reward_holdout"):
            DiscoveryConfig(T=10, reward_holdout=holdout)
    cfg = DiscoveryConfig(T=0, train_cfg=FAST)
    with pytest.raises(ValueError):
        run_discovery(enumerate_arms(3), _toy_dataset(3), cfg)
    with pytest.raises(ValueError):
        run_discovery([], _toy_dataset(3), DiscoveryConfig(T=2, train_cfg=FAST))


def test_discovery_single_arm_runs_all_pulls():
    arm = ArmFeature(GroupDescriptor(SYMMETRIC, (0, 1), 4))
    cfg = DiscoveryConfig(T=4, train_cfg=FAST, seed=1)
    result = run_discovery([arm], _toy_dataset(), cfg)
    assert len(result.records) == 4
    assert all(rec.arm.bits == arm.bits for rec in result.records)
    assert result.ranking == [arm]
    # Every pull updates the precision by the same rank-1 term.
    expected_B = np.eye(7) + 4 * np.outer(arm.bits, arm.bits)
    assert np.allclose(result.posterior.B, expected_B)


def test_discovery_is_deterministic():
    arms = enumerate_arms(4)
    cfg = DiscoveryConfig(T=6, train_cfg=FAST, seed=5)
    r1 = run_discovery(arms, _toy_dataset(), cfg)
    r2 = run_discovery(arms, _toy_dataset(), cfg)
    assert [rec.arm.bits for rec in r1.records] == [rec.arm.bits for rec in r2.records]
    assert [rec.reward for rec in r1.records] == [rec.reward for rec in r2.records]
    assert [a.bits for a in r1.ranking] == [a.bits for a in r2.ranking]


def test_lints_loop_predicts_the_next_pull():
    # A source that rewards each pull the posterior's own estimate of its
    # arm, clipped to a range drawn per pull, makes every prediction come
    # true: predict(lo, hi) is the next pull's arm, and None at the last
    # pull.  The source tracks a mirror of the loop's posterior.
    arms = enumerate_arms(6)
    clipped = 0
    for seed in range(10):
        cfg = DiscoveryConfig(T=30, seed=seed)
        mirror = BanditPosterior.fresh(len(arms[0].bits), cfg.nu)
        ranges = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(cfg.T, 2))
        predicted = []

        def estimate(t, arm, predict):
            nonlocal mirror, clipped
            lo, hi = np.sort(ranges[t - 1])
            guess = np.dot(arm.bits, mirror.mu_hat)
            gamma = float(np.clip(guess, lo, hi))
            clipped += gamma != guess
            predicted.append(predict(lo, hi))
            mirror = posterior_update(mirror, arm.bits, gamma)
            return gamma, 0.0

        _, records, post = lints_loop(arms, cfg, estimate)
        assert post.mu_hat.tobytes() == mirror.mu_hat.tobytes()
        assert predicted[-1] is None
        assert [arms[i] for i in predicted[:-1]] == [r.arm for r in records[1:]]
        assert len({r.arm for r in records}) > 1, seed
    assert clipped > 0


@pytest.mark.parametrize("constant", [0.0, 0.5, 2.0])
def test_lints_loop_without_sampling_noise_plays_the_smallest_bits(constant):
    # With nu = 0 the sample is the mean.  A constant reward >= 0 keeps the
    # first pull's arm, the smallest bit vector of all under the tie-break,
    # ahead of every other arm.
    arms = enumerate_arms(5)
    cfg = DiscoveryConfig(T=12, nu=0.0, seed=3)
    ranking, records, _ = lints_loop(arms, cfg, lambda t, arm, predict: (constant, 1.0))
    smallest = min(arm.bits for arm in arms)
    assert [r.arm.bits for r in records] == [smallest] * cfg.T
    assert ranking[0].bits == smallest


def test_lints_loop_records_each_reward_as_given():
    # The source is called once per pull, t = 1..T, with the pulled arm, and
    # its (reward, loss), the floor of a failed fit included, is recorded as
    # given.
    arms = enumerate_arms(4)
    cfg = DiscoveryConfig(T=9, seed=2)
    floor = (-1.0, float("inf"))
    given_rewards = [floor if t % 3 == 0 else (0.1 * t, 0.01 * t) for t in range(cfg.T)]
    calls = []

    def source(t, arm, predict):
        calls.append((t, arm))
        return given_rewards[t - 1]

    _, records, post = lints_loop(arms, cfg, source)
    assert calls == [(r.t, r.arm) for r in records]
    assert [r.t for r in records] == list(range(1, cfg.T + 1))
    assert [(r.reward, r.train_loss) for r in records] == given_rewards
    pulled = np.array([r.arm.bits for r in records])
    assert np.array_equal(post.B, np.eye(post.d) + pulled.T @ pulled)


DISCOVERY_DIGESTS = {
    1: "355dfacb930419e46ef8bf109ed5bffe7fbe77ddbbb022bae290337ac10d22dd",
    2: "e635e2d7c609f0d0bacf4bbaf4b54d71ca55bcc6e98a19fb01e895334da3ba51",
    3: "f8db7af7da4a83edae089e926fe369e08c4e8eb999dc05e186963651df1db3ac",
}


def test_discovery_golden_bits(blas_core):
    # sha256 of the pulls.csv and ranking.csv bytes, in the CLI's formats.
    for seed, digest in DISCOVERY_DIGESTS.items():
        cfg = DiscoveryConfig(T=10, train_cfg=FAST, seed=seed)
        result = run_discovery(enumerate_arms(5), _toy_dataset(5), cfg)
        mu_hat = result.posterior.mu_hat
        pulls = "t,bits,reward,loss\n" + "".join(
            f"{r.t},{''.join(map(str, r.arm.bits))},{r.reward:.17g},{r.train_loss:.17g}\n"
            for r in result.records
        )
        ranking = "rank,kind,index_set,score\n" + "".join(
            f"{i},{a.descriptor.kind},{' '.join(map(str, a.descriptor.index_set))},"
            f"{np.dot(mu_hat, a.bits):.17g}\n"
            for i, a in enumerate(result.ranking)
        )
        got = hashlib.sha256(pulls.encode() + ranking.encode()).hexdigest()
        assert got == digest, (seed, blas_core)


def test_discovery_artifacts_match_the_golden_format(blas_core):
    # The CLI's renderer writes the bytes that test_discovery_golden_bits
    # hashes, and its top3 scores are ranking.csv's leading scores.
    for seed, digest in DISCOVERY_DIGESTS.items():
        cfg = DiscoveryConfig(T=10, train_cfg=FAST, seed=seed)
        data = _toy_dataset(5)
        result = run_discovery(enumerate_arms(5), data, cfg)
        top = evaluate_top_arms(result, data, top=3)
        files, fields = discovery_artifacts(result, top)
        got = hashlib.sha256(files["pulls.csv"] + files["ranking.csv"]).hexdigest()
        assert got == digest, (seed, blas_core)
        leading = files["ranking.csv"].decode().splitlines()[1:4]
        assert [float(row.split(",")[3]) for row in leading] == [r["score"] for r in fields["top3"]]
        assert [r["val_mae"] for r in fields["top3"]] == [mae for _, mae in top]
        winner = result.ranking[0].descriptor
        assert fields["winner"] == {"kind": winner.kind, "index_set": list(winner.index_set)}
        assert files["m1.csv"].count(b"\n") == 5 and files["m2.csv"].count(b"\n") == 25


def test_ranking_csv_prints_the_scores_that_ranked_the_arms():
    # n = 13 is the smallest n whose rows have 16 bits, where a BLAS dot
    # product can sum a row in another order than arm_scores and so print
    # a score other than the one that ranked the arm.
    arms = enumerate_arms(13)
    A = arm_matrix(arms)
    mu_hat = np.random.default_rng(13).normal(size=A.shape[1])
    order = rank_arms(mu_hat, A)
    posterior = replace(BanditPosterior.fresh(A.shape[1], 0.5), mu_hat=mu_hat)
    ranking = [arms[i] for i in order]
    result = DiscoveryResult(ranking, [], posterior, None)
    files, fields = discovery_artifacts(result, [(arm, None) for arm in ranking[:3]])
    rows = files["ranking.csv"].decode().splitlines()[1:]
    printed = np.array([float(row.split(",")[3]) for row in rows])
    assert printed.tobytes() == arm_scores(mu_hat, A)[order].tobytes()
    assert np.all(np.diff(printed) <= 0)
    assert [r["score"] for r in fields["top3"]] == printed[:3].tolist()
    assert all(type(r["score"]) is float for r in fields["top3"])
    yaml.safe_dump(fields)


def test_too_few_rows_to_hold_out_are_refused():
    # round(0.25 * 2) = 0 rows held out: no reward and no screening can be
    # measured, so both refuse the split and name it.
    ds = _toy_dataset(3, m=2)
    for run in (
        lambda: run_discovery(enumerate_arms(3), ds, DiscoveryConfig(T=2, train_cfg=FAST)),
        lambda: screen_coordinates(ds, FAST, repeats=2),
    ):
        with pytest.raises(DimensionError, match="0.25 of 2 train rows"):
            run()
    # round(0.9 * 2) = 2 rows: none would be left to fit on.
    with pytest.raises(DimensionError, match="0.9 of 2 train rows"):
        _holdout_split(ds, 0.9)


def test_discovery_refuses_a_diverging_reference_before_any_pull(monkeypatch):
    # The reference is fit before the first pull, so settings under which it
    # diverges refuse the run before any arm is trained.  Arms that diverge
    # under a healthy reference are floored instead (see
    # test_discovery_floors_mid_training_divergence).
    calls = []

    def counting_train_sgd(*args, **kwargs):
        calls.append(None)
        return train_sgd(*args, **kwargs)

    monkeypatch.setattr(bandit, "train_sgd", counting_train_sgd)
    bad = TrainConfig(epochs=30, batch_size=16, lr_initial=1e6, lr_decay=1.0)
    cfg = DiscoveryConfig(T=3, train_cfg=bad, seed=0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError, match=DIVERGED):
        run_discovery(enumerate_arms(3), _toy_dataset(3), cfg)
    assert calls == []


def test_discovery_survives_nonfinite_held_out_loss(monkeypatch, serial):
    # A NumericError on one pull's held-out loss floors that pull, and the
    # run goes on.  Only a pull that trains measures a held-out loss, so the
    # 2nd mean_loss call is the first pull of the 2nd distinct arm.
    calls = []
    real_mean_loss = bandit.mean_loss

    def flaky_mean_loss(*args):
        calls.append(None)
        if len(calls) == 2:
            raise NumericError("non-finite network output")
        return real_mean_loss(*args)

    monkeypatch.setattr(bandit, "mean_loss", flaky_mean_loss)
    cfg = DiscoveryConfig(T=4, train_cfg=FAST, seed=0)
    result = run_discovery(enumerate_arms(3), _toy_dataset(3), cfg)
    assert len(result.records) == 4
    first = result.records[0].arm.bits
    i_bad = next(i for i, rec in enumerate(result.records) if rec.arm.bits != first)
    bad = result.records[i_bad]
    assert bad.reward == -1.0 and np.isinf(bad.train_loss)
    assert all(np.isfinite(rec.train_loss) for i, rec in enumerate(result.records) if i != i_bad)


def test_discovery_trains_each_arm_once(monkeypatch, serial):
    # A fit is deterministic, so a re-pulled arm reuses its first fit: one
    # train_sgd call per distinct arm, and every record equals what a fresh
    # fit of its arm gives.
    ds = _toy_dataset(3)
    cfg = DiscoveryConfig(T=8, train_cfg=FAST, seed=0)
    calls = []

    def counting_train_sgd(*args, **kwargs):
        calls.append(None)
        return train_sgd(*args, **kwargs)

    monkeypatch.setattr(bandit, "train_sgd", counting_train_sgd)
    result = run_discovery(enumerate_arms(3), ds, cfg)
    monkeypatch.undo()
    distinct = {rec.arm.bits for rec in result.records}
    assert len(distinct) < cfg.T  # the run has re-pulls
    assert len(calls) == len(distinct)
    fit_rows, held_rows = _holdout_split(ds, cfg.reward_holdout)
    _, ref_loss = bandit._reference_fit(fit_rows, held_rows, FAST)
    for rec in result.records:
        fresh = bandit._fit_arm(rec.arm, fit_rows, held_rows, FAST)
        reward = float(np.clip((ref_loss - fresh.loss) / ref_loss, -1.0, 1.0))
        reward += cfg.size_bonus * len(rec.arm.descriptor.index_set) / ds.inputs.shape[1]
        assert rec.train_loss == fresh.loss and rec.reward == reward
        assert np.array_equal(result.fits[rec.arm.bits].params.theta, fresh.params.theta)


def test_discovery_keeps_a_failed_fit(monkeypatch, serial):
    # A failed fit would fail again, so a re-pull of its arm, and
    # evaluate_top_arms, read the failure from the run instead of training.
    ds = _toy_dataset(3)
    cfg = DiscoveryConfig(T=8, train_cfg=FAST, seed=0)
    calls = []

    def diverging_train_sgd(*args):
        calls.append(None)
        raise NumericError(DIVERGED)

    monkeypatch.setattr(bandit, "train_sgd", diverging_train_sgd)
    result = run_discovery(enumerate_arms(3), ds, cfg)
    distinct = {rec.arm.bits for rec in result.records}
    assert len(distinct) < cfg.T  # the run re-pulls a failed arm
    assert len(calls) == len(distinct)
    assert result.fits == dict.fromkeys(distinct)
    top = evaluate_top_arms(result, ds, top=3)
    assert [mae for _, mae in top] == [None] * 3
    assert len(calls) == len(distinct) + sum(arm.bits not in distinct for arm, _ in top)


def test_discovery_rewards_held_out_mse_whatever_the_training_loss():
    # An arm trained in MAE is still rewarded by its held-out MSE, the loss
    # the reference is scored in.
    ds = _toy_dataset(3)
    mae_cfg = replace(FAST, loss_kind=ABSOLUTE)
    cfg = DiscoveryConfig(T=6, train_cfg=mae_cfg)
    result = run_discovery(enumerate_arms(3), ds, cfg)
    fit_rows, held_rows = _holdout_split(ds, cfg.reward_holdout)
    for rec in result.records:
        params, _ = train_sgd(fit_rows, rec.arm.descriptor, mae_cfg)
        assert rec.train_loss == mean_loss(params, rec.arm.descriptor, held_rows, SQUARED)


def test_discovery_floors_mid_training_divergence(monkeypatch):
    # Step k of the arm's training fails: train_sgd raises that step's own
    # error and the pull is floored.  Each re-pull reuses the failure and is
    # floored too, without training again.
    k = 5
    losses, raised, errors = [], [], []
    real_loss_and_grad = net.loss_and_grad

    def failing_loss_and_grad(*args, **kwargs):
        if len(losses) == k - 1:
            raised.append(NumericError(DIVERGED))
            raise raised[-1]
        loss, grads = real_loss_and_grad(*args, **kwargs)
        losses.append(loss)
        return loss, grads

    def recording_train_sgd(*args, **kwargs):
        try:
            return train_sgd(*args, **kwargs)
        except NumericError as exc:
            errors.append(exc)
            raise

    monkeypatch.setattr(net, "loss_and_grad", failing_loss_and_grad)
    monkeypatch.setattr(bandit, "train_sgd", recording_train_sgd)
    arm = ArmFeature(GroupDescriptor(SYMMETRIC, (0, 1), 4))
    cfg = DiscoveryConfig(T=3, train_cfg=FAST, seed=1)
    result = run_discovery([arm], _toy_dataset(), cfg)
    assert len(errors) == 1 and errors[0] is raised[0]
    assert len(losses) == k - 1
    assert all(rec.reward == -1.0 and np.isinf(rec.train_loss) for rec in result.records)
    assert result.fits == {arm.bits: None}


def _builtin_run(task, monkeypatch, cpus):
    """run_discovery on a builtin task's train split, its arms screened to
    the true support, with the CPU probe reading `cpus`; returns the result
    and the number of fits made in this process."""
    spec = tasks.builtin_polynomial(task)
    splits, _ = tasks.make_splits(spec, sizes=(64,), seed=1)
    arms = filter_arms(enumerate_arms(spec.n), spec.descriptor.index_set)
    cfg = DiscoveryConfig(T=16, train_cfg=replace(FAST, epochs=40), seed=1)
    calls = []
    real_fit_arm = bandit._fit_arm

    def counting_fit_arm(*args):
        calls.append(None)
        return real_fit_arm(*args)

    with monkeypatch.context() as m:
        m.setattr(bandit, "_cpu_count", lambda: cpus)
        m.setattr(bandit, "_fit_arm", counting_fit_arm)
        result = run_discovery(arms, splits["train"], cfg)
    return result, len(calls)


def _assert_same_run(got, want):
    assert got.records == want.records
    assert got.ranking == want.ranking
    assert got.posterior.mu_hat.tobytes() == want.posterior.mu_hat.tobytes()
    assert set(got.fits) == {r.arm.bits for r in got.records} == set(want.fits)
    for bits, fit in got.fits.items():
        assert fit.loss == want.fits[bits].loss
        assert fit.params.theta.tobytes() == want.fits[bits].params.theta.tobytes()


@needs_fork
@pytest.mark.parametrize("task", ["Z_I(5)", "S_I(4)"])
def test_speculative_fits_are_invisible(task, monkeypatch):
    # A child fits the arm the posterior predicts for the next pull.  A run
    # that takes some of its fits from children gives the records, ranking,
    # posterior and fits of a run that makes every fit itself.
    serial, serial_calls = _builtin_run(task, monkeypatch, cpus=1)
    spec, spec_calls = _builtin_run(task, monkeypatch, cpus=2)
    _assert_same_run(spec, serial)
    assert serial_calls == len(serial.fits)
    assert spec_calls < len(spec.fits)  # the children's fits were taken


def _recording_fork(monkeypatch):
    """Patch os.fork to record the child pids it returns to this process."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(bandit, "_cpu_count", lambda: 2)
    return pids


def _assert_reaped(pid):
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


@needs_fork
def test_no_worker_outlives_its_run(monkeypatch):
    pids = _recording_fork(monkeypatch)
    cfg = DiscoveryConfig(T=8, train_cfg=FAST, seed=0)
    run_discovery(enumerate_arms(4), _toy_dataset(), cfg)
    first = len(pids)
    assert first >= 2
    for pid in pids:
        _assert_reaped(pid)
    # Interrupted in this process's fit of the pull that forks the run's
    # second child, so that child is in flight.
    parent = os.getpid()
    real_fit_arm = bandit._fit_arm

    def interrupted_fit_arm(*args):
        if os.getpid() == parent and len(pids) == first + 2:
            os.kill(pids[-1], 0)  # forked and not yet reaped
            raise KeyboardInterrupt
        return real_fit_arm(*args)

    monkeypatch.setattr(bandit, "_fit_arm", interrupted_fit_arm)
    with pytest.raises(KeyboardInterrupt):
        run_discovery(enumerate_arms(4), _toy_dataset(), cfg)
    assert len(pids) == first + 2
    for pid in pids[first:]:
        _assert_reaped(pid)


@needs_fork
@pytest.mark.parametrize("fault", ["fork fails", "child dies", "a thread runs"])
def test_a_worker_fault_fits_in_process(fault, monkeypatch, capfd):
    # Without children, or with children that die before they reply, every
    # arm is fit in this process, and the run is the same and silent.  A
    # failed fork stops forking for the run.
    cfg = DiscoveryConfig(T=8, train_cfg=FAST, seed=0)
    with monkeypatch.context() as m:
        m.setattr(bandit, "_cpu_count", lambda: 1)
        serial = run_discovery(enumerate_arms(4), _toy_dataset(), cfg)
    pids = _recording_fork(monkeypatch)
    recording_fork = os.fork
    tries = []

    def fork():
        tries.append(None)
        if fault == "fork fails":
            raise OSError("no more processes")
        pid = recording_fork()
        if pid:
            os.kill(pid, bandit._SIGKILL)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, daemon=True)
    if fault == "a thread runs":
        thread.start()
    capfd.readouterr()
    try:
        result = run_discovery(enumerate_arms(4), _toy_dataset(), cfg)
    finally:
        release.set()
        if thread.is_alive():
            thread.join(timeout=10)
    _assert_same_run(result, serial)
    assert capfd.readouterr() == ("", "")
    assert len(tries) == {"fork fails": 1, "child dies": len(pids), "a thread runs": 0}[fault]
    assert bool(pids) == (fault == "child dies")
    for pid in pids:
        _assert_reaped(pid)


def test_fit_counts_add_up_without_a_worker(monkeypatch):
    # Every fit is made in this process: one per pulled arm, and one per
    # top-3 arm that no pull fit.
    result, _ = _builtin_run("D_I(5)", monkeypatch, cpus=1)
    top = evaluate_top_arms(result, result.arm_fits.held_data, top=3)
    unpulled = sum(arm.bits not in result.fits for arm, _ in top)
    assert unpulled > 0
    want = dict(in_process=len(result.fits) + unpulled, handed=0, taken=0)
    assert result.arm_fits.counts == want


@needs_fork
def test_fit_counts_add_up_with_a_worker(monkeypatch):
    # Each fit the serial run makes is made once either way: in this
    # process, or by a child and taken.  With no fault, every child's fit
    # is taken or still ready.
    owners = []
    for cpus in (1, 2):
        result, _ = _builtin_run("D_I(5)", monkeypatch, cpus)
        evaluate_top_arms(result, result.arm_fits.held_data, top=3)
        owners.append(result.arm_fits)
    serial, spec = (owner.counts for owner in owners)
    assert spec["in_process"] + spec["taken"] == serial["in_process"]
    assert spec["taken"] <= spec["handed"]
    assert spec["handed"] == spec["taken"] + len(owners[1].ready)


def _assert_same_fit(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        assert got.loss == want.loss
        assert got.params.theta.tobytes() == want.params.theta.tobytes()


@pytest.fixture
def toy_fits(monkeypatch):
    """A fit owner on six toy arms that forks its children; at teardown,
    each child it forked is reaped."""
    pids = _recording_fork(monkeypatch)
    fits = bandit._ArmFits(enumerate_arms(3), *_holdout_split(_toy_dataset(3), 0.25), FAST)
    assert fits.forks
    yield fits
    assert len(pids) == fits.counts["handed"]
    for pid in pids:
        _assert_reaped(pid)


def _fresh(fits, i):
    """Arm i's fit, made afresh in this process."""
    return bandit._fit_arm(fits.arms[i], fits.fit_data, fits.held_data, FAST)


@needs_fork
def test_a_collected_fit_is_taken_after_other_fits(toy_fits):
    # A pull of arm 0 forks a child that fits arm 3 and returns with that
    # fit ready; a pull of arm 1 forks no child for arm 3 again, and a pull
    # of arm 3 takes the ready fit.
    fits = toy_fits
    _assert_same_fit(fits.get(fits.arms[0], lambda: 3), _fresh(fits, 0))
    assert set(fits.ready) == {fits.arms[3].bits}
    _assert_same_fit(fits.get(fits.arms[1], lambda: 3), _fresh(fits, 1))
    _assert_same_fit(fits.get(fits.arms[3], lambda: None), _fresh(fits, 3))
    assert fits.counts == dict(in_process=2, handed=1, taken=1)
    assert fits.ready == {} and set(fits.pulled) == {fits.arms[i].bits for i in (0, 1, 3)}


@needs_fork
def test_a_failed_worker_fit_arrives_as_none(monkeypatch, toy_fits):
    # The child's fit of arm 4 fails, so it replies None, and a pull of
    # arm 4 takes that failure.
    fits = toy_fits
    real_fit_arm = bandit._fit_arm
    bad = fits.arms[4]
    failing = lambda arm, *rows: None if arm == bad else real_fit_arm(arm, *rows)
    monkeypatch.setattr(bandit, "_fit_arm", failing)
    _assert_same_fit(fits.get(fits.arms[0], lambda: 4), _fresh(fits, 0))
    assert fits.ready == {bad.bits: None}
    assert _fresh(fits, 4) is None
    assert fits.get(bad, lambda: None) is None
    assert fits.counts == dict(in_process=1, handed=1, taken=1)


# A toy run that forks 7 children and pulls the arms of only 4 of them.
_DRAWN_RUN = DiscoveryConfig(T=16, train_cfg=FAST, seed=0)


@lru_cache(maxsize=None)
def _serial_toy_run():
    with pytest.MonkeyPatch.context() as m:
        m.setattr(bandit, "_cpu_count", lambda: 1)
        return run_discovery(enumerate_arms(5), _toy_dataset(5), _DRAWN_RUN)


@needs_fork
@settings(max_examples=40, deadline=None)
@given(dies=st.lists(st.booleans(), max_size=_DRAWN_RUN.T))
def test_whole_runs_match_the_serial_run_under_drawn_worker_schedules(dies):
    # `dies` decides, per fork, whether the child exits before it replies;
    # past the list's end every child replies.  Each run must equal the
    # serial run, lose only the fits of the children that died, and reap
    # every child.
    want = _serial_toy_run()
    draws = iter(dies)
    died = []

    with pytest.MonkeyPatch.context() as m:
        pids = _recording_fork(m)
        recording_fork = os.fork

        def fork():
            dying = next(draws, False)
            pid = recording_fork()
            if dying:
                if not pid:
                    os._exit(0)
                died.append(pid)
            return pid

        m.setattr(os, "fork", fork)
        got = run_discovery(enumerate_arms(5), _toy_dataset(5), _DRAWN_RUN)
    _assert_same_run(got, want)
    counts = got.arm_fits.counts
    assert counts["in_process"] + counts["taken"] == len(got.fits)
    assert counts["handed"] == len(pids) == counts["taken"] + len(got.arm_fits.ready) + len(died)
    for pid in pids:
        _assert_reaped(pid)


@pytest.mark.parametrize("row", [3, 35])  # in the fit part, in the held-out part
def test_discovery_nan_input_is_a_symforge_error(row):
    ds = _toy_dataset(3)
    ds.inputs[row, 1] = np.nan
    cfg = DiscoveryConfig(T=2, train_cfg=FAST, seed=0)
    with pytest.raises(SymforgeError):
        run_discovery(enumerate_arms(3), ds, cfg)
    with pytest.raises(SymforgeError):
        screen_coordinates(ds, FAST, repeats=2, seed=0)


def test_failed_reference_fit_is_a_symforge_error(monkeypatch):
    # The arms train with FAST; only the reference fit fails.  With lr 2.0 and
    # no decay it overflows within 60 epochs on the 30-row fit part.
    ds = _toy_dataset(3)
    cfg = DiscoveryConfig(T=2, train_cfg=FAST)
    bad = TrainConfig(epochs=60, batch_size=16, lr_initial=2.0, lr_decay=1.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError, match=DIVERGED):
        screen_coordinates(ds, bad, repeats=2, seed=0)
    real = bandit.train_reference_mlp
    monkeypatch.setattr(bandit, "train_reference_mlp", lambda fit, _: real(fit, bad))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError, match=DIVERGED):
        run_discovery(enumerate_arms(3), ds, cfg)
    # With 30 epochs the reference ends at a huge but finite loss (2.8e249
    # held out), far worse than predicting the fit targets' mean.
    worse = TrainConfig(epochs=30, batch_size=16, lr_initial=2.0, lr_decay=1.0)
    monkeypatch.setattr(bandit, "train_reference_mlp", lambda fit, _: real(fit, worse))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
        screen_coordinates(ds, FAST, repeats=2, seed=0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
        run_discovery(enumerate_arms(3), ds, cfg)
    # A reference that predicts NaN on the held-out rows.
    nan_fit = lambda fit, _: (None, lambda X: np.full(len(X), np.nan))
    monkeypatch.setattr(bandit, "train_reference_mlp", nan_fit)
    with pytest.raises(NumericError):
        run_discovery(enumerate_arms(3), ds, cfg)
    with pytest.raises(NumericError):
        screen_coordinates(ds, FAST, repeats=2, seed=0)


def test_screen_coordinates_finds_support():
    ds = _toy_dataset(n=4, m=64, seed=7)
    cfg = TrainConfig(epochs=150, batch_size=16, seed=0)
    kept = screen_coordinates(ds, cfg, threshold=0.08, repeats=20, seed=0)
    assert set(kept) >= {0, 1}
    assert set(kept) <= {0, 1, 2, 3}
    arms = filter_arms(enumerate_arms(4), kept)
    assert all(set(a.descriptor.index_set) <= set(kept) for a in arms)


def test_screen_coordinates_falls_back_to_all():
    rng = np.random.default_rng(9)
    ds = Dataset(rng.uniform(size=(40, 4)), rng.uniform(size=40))  # pure noise
    kept = screen_coordinates(ds, FAST, threshold=10.0, repeats=5, seed=0)
    assert kept == (0, 1, 2, 3)


def test_screen_coordinates_refuses_repeats_below_one():
    # repeats=0 would divide the importances by zero and repeats=-3 would
    # run no shuffles; either would keep every coordinate silently.
    for repeats in (0, -3):
        with pytest.raises(ValueError, match="repeats"):
            screen_coordinates(_toy_dataset(3), FAST, repeats=repeats)


def test_evaluate_top_arms_trains_missing(monkeypatch):
    # Every top arm is scored from a fit on the rows the pulls were fit on:
    # a pulled arm from its fit in the run, an unpulled one from a new fit.
    ds = _toy_dataset(3)
    cfg = DiscoveryConfig(T=1, train_cfg=FAST, seed=0)
    result = run_discovery(enumerate_arms(3), ds, cfg)
    top = evaluate_top_arms(result, ds, top=3)
    pulled = [arm.bits in result.fits for arm, _ in top]
    assert any(pulled) and not all(pulled)
    fit_rows = _holdout_split(ds, cfg.reward_holdout)[0]
    for arm, mae in top:
        if arm.bits in result.fits:
            params = result.fits[arm.bits].params
        else:
            params, _ = train_sgd(fit_rows, arm.descriptor, FAST)
        assert mae is not None and mae == evaluate(params, arm.descriptor, ds)

    # A failed fit of an unpulled arm gives None, as does a failed evaluation.
    def diverging_train_sgd(*args):
        raise NumericError(DIVERGED)

    monkeypatch.setattr(bandit, "train_sgd", diverging_train_sgd)
    maes = [mae for _, mae in evaluate_top_arms(result, ds, top=3)]
    assert [mae is not None for mae in maes] == pulled

    def failing_evaluate(*args):
        raise NumericError("non-finite network output")

    monkeypatch.setattr(bandit, "evaluate", failing_evaluate)
    assert [mae for _, mae in evaluate_top_arms(result, ds, top=3)] == [None] * 3


def test_linear_instance_requires_unique_best():
    with pytest.raises(ValueError):
        LinearInstance(np.array([1.0, 1.0]), np.eye(2), 0.1)
    inst = LinearInstance(np.array([1.0, 0.4]), np.eye(2), 0.1)
    assert inst.best_index == 0


def test_linear_instance_derives_its_gap():
    # The best arm's lead is checked from the means, never taken as input.
    with pytest.raises(TypeError):
        LinearInstance(np.array([1.0, 0.4]), np.eye(2), 0.1, 0.6)
    for mu_star in ([], [1.0], [[1.0], [0.4]]):
        with pytest.raises(ValueError):
            LinearInstance(np.asarray(mu_star), np.eye(np.size(mu_star)), 0.1)


# sha256 of the misid.csv bytes of simulate_linear at seeds 0-2, taken
# before the posterior kept its Cholesky factor.
SIMULATOR_DIGESTS = {
    0: "fa18530c9be19d4e8d406c0ded0c9bb27c8f04f1b67e90ab89d671589f393308",
    1: "6b821470c813020e585243806a960917c39bf122e9bad2f96e5de5fb74584349",
    2: "3bb9975accb4f391b08913197dbc6fb6b6d5da86f65ed4cb69e2d66de652069a",
}


def test_simulator_golden_bits(blas_core):
    inst = LinearInstance(np.array([1.0, 0.6, 0.6, 0.6, 0.6]), np.eye(5), 0.5)
    for seed, digest in SIMULATOR_DIGESTS.items():
        rates = simulate_linear(inst, [10, 20, 40], nu=0.5, trials=40, seed=seed)
        csv = "T,misid_rate\n" + "".join(f"{T},{rates[T]:.17g}\n" for T in sorted(rates))
        assert hashlib.sha256(csv.encode()).hexdigest() == digest, (seed, blas_core)


def test_simulator_validation():
    inst = LinearInstance(np.array([1.0, 0.4]), np.eye(2), 0.1)
    with pytest.raises(ValueError):
        simulate_linear(inst, [10], nu=0.5, trials=0)
    for horizons in ([0], [-5, 10], [], [2.5], [True]):
        with pytest.raises(ValueError, match="horizons"):
            simulate_linear(inst, horizons, nu=0.5, trials=2)
    # A NaN sample would make every argmax pick arm 0.
    for nu in (float("nan"), float("inf"), -0.1):
        with pytest.raises(ValueError, match="nu"):
            simulate_linear(inst, [5], nu=nu, trials=2)
    # A repeated horizon is one horizon, not two draws counted into one rate.
    once = simulate_linear(inst, [10], nu=0.5, trials=20, seed=3)
    assert simulate_linear(inst, [10, 10], nu=0.5, trials=20, seed=3) == once


def test_simulator_refuses_non_finite_values(monkeypatch):
    # An arm mean that overflows to inf is refused when the instance is built.
    with pytest.raises(ValueError, match="arm means must be finite"):
        LinearInstance(np.array([1e308]), np.array([[1.0], [2.0]]), 0.0)
    with np.errstate(over="ignore"):
        # The means are finite, but the best arm's mean plus any positive
        # noise overflows, so its reward is not finite.
        noisy = LinearInstance(np.array([np.finfo(float).max, 0.0]), np.eye(2), 1e308)
        with pytest.raises(NumericError, match="reward must be finite"):
            simulate_linear(noisy, [5], nu=0.5, trials=50)
        # Finite rewards of 1e308 add up to an infinite f, so the next
        # sample is not finite either.
        summed = LinearInstance(np.array([1e308]), np.array([[1.0], [0.5]]), 0.0)
        with pytest.raises(NumericError, match="posterior sample must be finite"):
            simulate_linear(summed, [5], nu=0.5, trials=3)

    def no_factorization(*args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", no_factorization)
    inst = LinearInstance(np.array([1.0, 0.4]), np.eye(2), 0.1)
    with pytest.raises(NumericError, match="posterior precision not SPD"):
        simulate_linear(inst, [5], nu=0.5, trials=3)


def _play_counts_one_run(instance, horizons, nu, rng):
    """One LinTS run step by step on the single-posterior path, drawing
    from rng in the order the lockstep simulator must keep."""
    post = BanditPosterior.fresh(instance.mu_star.size, nu)
    counts = np.zeros(len(instance.arms), dtype=int)
    snapshots = {}
    for t in range(1, max(horizons) + 1):
        idx = int(np.argmax(instance.arms @ posterior_sample(post, rng.standard_normal(post.d))))
        reward = instance.arms[idx] @ instance.mu_star
        reward += instance.noise_sigma * rng.standard_normal()
        post = posterior_update(post, instance.arms[idx], reward)
        counts[idx] += 1
        if t in horizons:
            snapshots[t] = counts.copy()
    return snapshots


def test_lockstep_trials_match_single_runs():
    arms = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]]
    )
    inst = LinearInstance(np.array([0.5, 0.3, 0.2, 0.1]), arms, 0.3)
    d = inst.mu_star.size
    # T_max = 133 is not a multiple of the draw block, so the last block is cut.
    horizons = (7, 133)
    assert max(horizons) % bandit._DRAW_BLOCK
    seeds = np.random.SeedSequence(7).spawn(5)
    rngs = [np.random.default_rng(s) for s in seeds]
    stacked = lints_play_counts(inst, horizons, 0.5, rngs)
    for i, (seed, rng) in enumerate(zip(seeds, rngs)):
        alone = lints_play_counts(inst, horizons, 0.5, [np.random.default_rng(seed)])
        reference = _play_counts_one_run(inst, horizons, 0.5, np.random.default_rng(seed))
        for T in horizons:
            assert np.array_equal(stacked[T][i], alone[T][0]), (i, T)
            assert np.array_equal(stacked[T][i], reference[T]), (i, T)
            assert stacked[T][i].sum() == T
        # The run drew exactly T_max steps of d + 1 normals, no more.
        fresh = np.random.default_rng(seed)
        fresh.standard_normal(max(horizons) * (d + 1))
        assert rng.standard_normal() == fresh.standard_normal()


def test_simulator_steps_through_the_discovery_posterior(monkeypatch):
    # Each lockstep step is one posterior_sample and one posterior_update
    # of the stacked posterior, the two functions discovery steps with.
    calls = {"posterior_sample": 0, "posterior_update": 0}
    for name in calls:
        inner = getattr(bandit, name)

        def counted(*args, name=name, inner=inner):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(bandit, name, counted)
    inst = LinearInstance(np.array([0.5, 0.3, 0.2]), np.eye(3), 0.3)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(11).spawn(3)]
    counts = lints_play_counts(inst, [7], 0.5, rngs)
    assert counts[7].sum(axis=1).tolist() == [7, 7, 7]
    assert calls == {"posterior_sample": 7, "posterior_update": 7}


def test_regret_rate_improves_with_horizon():
    # Pseudo-regret per step at T = 1000 should be at most half of the
    # per-step regret at T = 100, averaged over independent runs.
    inst = LinearInstance(np.array([1.0, 0.2, 0.2, 0.2]), np.eye(4), 0.1)
    gaps = inst.arms @ inst.mu_star
    gaps = gaps.max() - gaps
    horizons = (100, 1000)
    per_step = {T: 0.0 for T in horizons}
    root = np.random.SeedSequence(42)
    trials = 60
    rngs = [np.random.default_rng(child) for child in root.spawn(trials)]
    snaps = lints_play_counts(inst, horizons, nu=0.5, rngs=rngs)
    for i in range(trials):
        for T in horizons:
            per_step[T] += float(snaps[T][i] @ gaps) / T / trials
    assert per_step[1000] <= 0.5 * per_step[100]


def test_misidentification_follows_log_over_t():
    inst = LinearInstance(np.array([1.0, 0.2, 0.2, 0.2, 0.2]), np.eye(5), 0.1)
    horizons = [100, 200, 400, 800]
    rates = simulate_linear(inst, horizons, nu=0.5, trials=100, seed=0)
    env = np.array([np.log(T) / T for T in horizons])
    obs = np.array([rates[T] for T in horizons])
    c = float(env @ obs / (env @ env))  # least squares through the origin
    assert c > 0
    assert rates[800] <= rates[100] + 0.05


def test_readme_library_example_finds_the_true_arm(capsys):
    # The README's Python block screens first, as `discover` does; the
    # target of Z_I(5) is cyclic on (0, 1, 2, 5, 6).
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (code,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    exec(code, {})
    top3 = capsys.readouterr().out.splitlines()
    assert len(top3) == 3
    assert "cyclic (0, 1, 2, 5, 6)" in top3


def test_readme_library_example_unscreened_ranks_the_true_arm_2911th():
    # The README: without screening, the Library example's run ranks the
    # true arm, cyclic on (0, 1, 2, 5, 6), 2911th of the 2949 arms of n = 10.
    spec = tasks.builtin_polynomial("Z_I(5)")
    splits, _ = tasks.make_splits(spec, sizes=(64, 480), seed=1)
    cfg = DiscoveryConfig(T=40, train_cfg=TrainConfig(seed=0), seed=1)
    result = run_discovery(enumerate_arms(10), splits["train"], cfg)
    ranked = [arm.bits for arm in result.ranking]
    assert (ranked.index(ArmFeature(spec.descriptor).bits) + 1, len(ranked)) == (2911, 2949)
