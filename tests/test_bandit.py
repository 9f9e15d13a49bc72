import hashlib

import numpy as np
import pytest

from symforge import bandit, net
from symforge.bandit import (
    BanditPosterior,
    DiscoveryConfig,
    LinearInstance,
    _holdout_split,
    evaluate_top_arms,
    filter_arms,
    lints_play_counts,
    posterior_sample,
    posterior_update,
    run_discovery,
    screen_coordinates,
    simulate_linear,
)
from symforge.errors import NumericError, SymforgeError, TrainingDivergedError
from symforge.groups import CYCLIC, SYMMETRIC, GroupDescriptor
from symforge.net import Dataset, TrainConfig, evaluate, train_sgd
from symforge.selection import SelectionPair, encode_arm, enumerate_arms

FAST = TrainConfig(epochs=20, batch_size=16, seed=0)


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
        assert np.array_equal(posterior_sample(post, rng), post.mu_hat)


def test_posterior_sample_moments():
    # Fresh posterior: samples are N(0, nu^2 I); check first two moments
    # to three standard errors over many draws.
    nu = 0.7
    post = BanditPosterior.fresh(2, nu=nu)
    rng = np.random.default_rng(2)
    draws = np.array([posterior_sample(post, rng) for _ in range(20000)])
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
    monkeypatch.setattr(bandit, "cholesky", no_factorization)
    z = np.random.default_rng(9).standard_normal(5)
    mu = posterior_sample(post, np.random.default_rng(9))
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
    with pytest.raises(ValueError):
        DiscoveryConfig(T=10, reward_holdout=1.0)
    cfg = DiscoveryConfig(T=0, train_cfg=FAST)
    with pytest.raises(ValueError):
        run_discovery(enumerate_arms(3), _toy_dataset(3), cfg)
    with pytest.raises(ValueError):
        run_discovery([], _toy_dataset(3), DiscoveryConfig(T=2, train_cfg=FAST))


def test_discovery_single_arm_runs_all_pulls():
    arm = encode_arm(GroupDescriptor(SYMMETRIC, (0, 1), 4))
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


DISCOVERY_DIGESTS = {
    1: "6d5a7fac950115e069d1895e0d1693b20f1e62c72085df56e4c3b3cfc9ff4e6e",
    2: "1af4d5b776bf37ab35d43384c327dc4c36e0b8dc2e775642d1db9e7b2459fda2",
    3: "8ebfe7d02269c9ce9543461c3b8c0a5c6f5f32cba4b3ff8f29c8cee79386e06c",
}


def test_discovery_golden_bits():
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
        assert got == digest, seed


def test_discovery_literal_reward_mode():
    # reward_holdout = 0 switches to the capped negative-training-loss rule.
    arms = enumerate_arms(3)
    cfg = DiscoveryConfig(
        T=5, train_cfg=FAST, reward_holdout=0.0, size_bonus=0.0, seed=2
    )
    result = run_discovery(arms, _toy_dataset(3), cfg)
    for rec in result.records:
        assert -1.0 <= rec.reward <= 0.0


def test_discovery_survives_divergence():
    arms = enumerate_arms(3)
    bad = TrainConfig(epochs=30, batch_size=16, lr_initial=1e6, lr_decay=1.0)
    cfg = DiscoveryConfig(T=3, train_cfg=bad, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        result = run_discovery(arms, _toy_dataset(3), cfg)
    assert all(rec.reward == -1.0 for rec in result.records)
    assert all(np.isinf(rec.train_loss) for rec in result.records)


def test_discovery_survives_nonfinite_held_out_loss(monkeypatch):
    # A NumericError on one pull's held-out loss floors that pull, and the
    # run goes on.
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
    bad = result.records[1]
    assert bad.reward == -1.0 and np.isinf(bad.train_loss)
    assert all(np.isfinite(rec.train_loss) for i, rec in enumerate(result.records) if i != 1)


def test_discovery_floors_mid_training_divergence(monkeypatch):
    # Step k of the arm's training fails: the error carries step k-1's loss
    # and the pull is floored.  The fault stays on, so each re-pull fails at
    # its first step and is floored too.
    k = 5
    losses, errors = [], []
    real_loss_and_grad = net.loss_and_grad

    def failing_loss_and_grad(*args, **kwargs):
        if len(losses) == k - 1:
            raise NumericError("non-finite loss")
        loss, grads = real_loss_and_grad(*args, **kwargs)
        losses.append(loss)
        return loss, grads

    def recording_train_sgd(*args, **kwargs):
        try:
            return train_sgd(*args, **kwargs)
        except TrainingDivergedError as exc:
            errors.append(exc)
            raise

    monkeypatch.setattr(net, "loss_and_grad", failing_loss_and_grad)
    monkeypatch.setattr(bandit, "train_sgd", recording_train_sgd)
    arm = encode_arm(GroupDescriptor(SYMMETRIC, (0, 1), 4))
    cfg = DiscoveryConfig(T=3, train_cfg=FAST, seed=1)
    result = run_discovery([arm], _toy_dataset(), cfg)
    assert len(errors) == cfg.T
    assert errors[0].last_loss == losses[k - 2]
    assert all(rec.reward == -1.0 and np.isinf(rec.train_loss) for rec in result.records)
    assert result.fits == {}


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
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDivergedError):
        screen_coordinates(ds, bad, repeats=2, seed=0)
    real = bandit.train_reference_mlp
    monkeypatch.setattr(bandit, "train_reference_mlp", lambda fit, _: real(fit, bad))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDivergedError):
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
        sp = SelectionPair.for_descriptor(arm.descriptor)
        if arm.bits in result.fits:
            params = result.fits[arm.bits].params
        else:
            params, _ = train_sgd(fit_rows, sp, FAST)
        assert mae is not None and mae == evaluate(params, sp, ds)

    # A failed fit of an unpulled arm gives None, as does a failed evaluation.
    def diverging_train_sgd(*args):
        raise TrainingDivergedError("loss became non-finite", None)

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
    assert np.isclose(inst.delta_min, 0.6)


def test_linear_instance_derives_its_gap():
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


def test_simulator_golden_bits():
    inst = LinearInstance(np.array([1.0, 0.6, 0.6, 0.6, 0.6]), np.eye(5), 0.5)
    for seed, digest in SIMULATOR_DIGESTS.items():
        rates = simulate_linear(inst, [10, 20, 40], nu=0.5, trials=40, seed=seed)
        csv = "T,misid_rate\n" + "".join(f"{T},{rates[T]:.17g}\n" for T in sorted(rates))
        assert hashlib.sha256(csv.encode()).hexdigest() == digest, seed


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
        idx = int(np.argmax(instance.arms @ posterior_sample(post, rng)))
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
