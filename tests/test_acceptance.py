"""End-to-end acceptance checks, one test per criterion.

Each test records a single machine-greppable line
    criterion <k>: PASS|FAIL -- <detail>
which the test-session summary prints as a scorecard (see conftest.py).
Discovery runs are cached per (task, seed) because several criteria share
them; the whole module targets a single-core desktop budget.
"""

import time
from functools import lru_cache

import numpy as np
import yaml

from symforge.bandit import (
    DiscoveryConfig,
    LinearInstance,
    evaluate_top_arms,
    filter_arms,
    lints_loop,
    run_discovery,
    screen_coordinates,
    simulate_linear,
)
from symforge.groups import (
    CYCLIC,
    DIHEDRAL,
    SYMMETRIC,
    GroupDescriptor,
    act,
    elements,
)
from symforge.net import TrainConfig, forward_batch, init_params, gradient_check, train_sgd
from symforge.oracle import (
    check_invariance,
    find_set_e_counterexample,
    nonrealizability_counts,
    step3_passing_perms,
    verify_orbit_mapping,
)
from symforge.relaxed import evaluate_relaxed, train_relaxed
from symforge.rho import rho_variant
from symforge.selection import (
    ArmFeature,
    apply_pipeline_front,
    enumerate_arms,
)
from symforge.tasks import builtin_polynomial, make_splits

TASKS = ("Z_I(5)", "D_I(5)", "S_I(4)")
SEEDS = (1, 2, 3, 4, 5)
TRAIN_CFG = TrainConfig(seed=0)


SCORECARD = []


def _report(num, ok, detail):
    SCORECARD.append((num, ok, detail))
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, detail


@lru_cache(maxsize=None)
def _discovery(task_name, seed):
    spec = builtin_polynomial(task_name)
    splits, _ = make_splits(spec, sizes=(64, 480), seed=seed)
    train, val = splits["train"], splits["val"]
    references = {}  # screening's reference fit, which discovery takes, as in `discover`
    kept = screen_coordinates(
        train, TRAIN_CFG, threshold=0.08, repeats=30, seed=seed, references=references
    )
    arms = filter_arms(enumerate_arms(spec.n), kept)
    cfg = DiscoveryConfig(T=4 * spec.n, train_cfg=TRAIN_CFG, seed=seed)
    result = run_discovery(arms, train, cfg, references)
    return spec, train, val, result


def _true_bits(spec):
    return ArmFeature(spec.descriptor).bits


def test_criterion_01_subgroup_discovery_top3():
    t0 = time.perf_counter()
    hits = {}
    for task in TASKS:
        hits[task] = 0
        for seed in SEEDS:
            spec, _, _, result = _discovery(task, seed)
            top3 = {arm.bits for arm in result.ranking[:3]}
            hits[task] += _true_bits(spec) in top3
    elapsed = time.perf_counter() - t0
    detail = (
        ", ".join(f"{task} {hits[task]}/5" for task in TASKS)
        + f"; {elapsed:.0f}s for all tasks (budget 600s/task)"
    )
    ok = all(h >= 4 for h in hits.values()) and elapsed <= 600 * len(TASKS)
    _report(1, ok, detail)


def test_seven_cycle_tasks_find_their_subgroup_top3():
    # `task.name` accepts Z_I(7) and D_I(7) too, so they get criterion 1's
    # bound at criterion 1's settings.
    for task in ("Z_I(7)", "D_I(7)"):
        hits = 0
        for seed in SEEDS:
            spec, _, _, result = _discovery(task, seed)
            hits += _true_bits(spec) in {arm.bits for arm in result.ranking[:3]}
        assert hits >= 4, f"{task}: true arm in the top 3 in {hits}/5 seeds"


def test_every_discovery_run_replays_from_its_rewards():
    # The bandit's decisions depend on the rewards alone: lints_loop, fed a
    # run's recorded rewards, gives its pulled arms, ranking and mu_hat
    # byte for byte, with no training.
    for task in TASKS + ("Z_I(7)", "D_I(7)"):
        for seed in SEEDS:
            spec, _, _, result = _discovery(task, seed)
            records = result.records
            cfg = DiscoveryConfig(T=4 * spec.n, train_cfg=TRAIN_CFG, seed=seed)
            recorded = lambda t, arm, predict: (records[t - 1].reward, records[t - 1].train_loss)
            ranking, replayed, post = lints_loop(result.arm_fits.arms, cfg, recorded)
            assert replayed == records, (task, seed)
            assert ranking == result.ranking, (task, seed)
            assert post.mu_hat.tobytes() == result.posterior.mu_hat.tobytes(), (task, seed)


def test_criterion_02_mae_ordering():
    target = 3 * 0.042
    ordered_hits = 0
    true_maes = []
    for seed in SEEDS:
        spec, train, val, result = _discovery("Z_I(5)", seed)
        top = evaluate_top_arms(result, val, top=3)
        maes = {arm.bits: mae for arm, mae in top}
        true_mae = maes.get(_true_bits(spec))
        if true_mae is not None:
            true_maes.append(true_mae)
            if true_mae <= min(m for m in maes.values() if m is not None) + 1e-12:
                ordered_hits += 1
    ok = ordered_hits >= 4 and bool(true_maes) and max(true_maes) <= target
    detail = (
        f"true arm has min val-MAE in {ordered_hits}/5 trials; "
        f"MAE range [{min(true_maes):.3f}, {max(true_maes):.3f}] <= {target:.3f}"
        if true_maes
        else "true arm never reached the top-3"
    )
    _report(2, ok, detail)


# README's ablation table, Z_I(5) at CLI defaults: seed -> (sgd-only val
# MAE, bandit winner's val MAE, winner's kind).  The bandit side is
# criterion 1's cached run; `discover` fits the same rows with the same
# settings, and its extra test split does not move train or val.
README_ABLATION = {
    1: (0.0845, 0.0752, DIHEDRAL),
    2: (0.0860, 0.0706, DIHEDRAL),
    3: (0.0803, 0.0544, CYCLIC),
}


@lru_cache(maxsize=None)
def _ablation_mae(task_name, seed):
    """The sgd-only ablation's val MAE, fit on the train rows of the cached
    discovery run for (task, seed)."""
    _, train, val, _ = _discovery(task_name, seed)
    params, _ = train_relaxed(train, TRAIN_CFG)
    return evaluate_relaxed(params, val)


def test_readme_ablation_table_matches_the_runs():
    for seed, (sgd_mae, winner_mae, kind) in README_ABLATION.items():
        _, _, val, result = _discovery("Z_I(5)", seed)
        winner, mae = evaluate_top_arms(result, val, top=1)[0]
        ablation = _ablation_mae("Z_I(5)", seed)
        got = (round(ablation, 4), round(mae, 4), winner.descriptor.kind)
        assert got == (sgd_mae, winner_mae, kind), seed
        assert mae < ablation, seed


def test_winner_fits_better_than_the_ablation():
    # README: recovering the structure "also fits better".  On criterion 1's
    # grid the winner's val MAE is below the ablation's in every run.
    worse = []
    for task in TASKS:
        for seed in SEEDS:
            _, _, val, result = _discovery(task, seed)
            _, mae = evaluate_top_arms(result, val, top=1)[0]
            ablation = _ablation_mae(task, seed)
            if mae is None or not mae < ablation:
                worse.append((task, seed, mae, ablation))
    assert not worse, worse


def test_criterion_03_orbit_mapping_suite():
    t0 = time.perf_counter()
    failures = 0
    for kind in (CYCLIC, DIHEDRAL, SYMMETRIC):
        for k in range(2, 6):
            report = verify_orbit_mapping(kind, k)
            failures += len(report.failures)
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed <= 60
    _report(3, ok, f"{failures} violations over 3 kinds x k=2..5, {elapsed:.1f}s (<=60s)")


def test_criterion_04_front_matches_reference_lift():
    rng = np.random.default_rng(0)
    violations = 0
    checked = 0
    n = 7
    for kind in (CYCLIC, DIHEDRAL, SYMMETRIC):
        for k in range(2, 6):
            for _ in range(10):
                idx = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
                d = GroupDescriptor(kind, idx, n)
                x = rng.uniform(0.1, 1.0, size=n)
                front = apply_pipeline_front(d, x)[: n * n]
                nonzero = front[np.any(front != 0.0, axis=1)]
                got = sorted(map(tuple, nonzero))
                want = sorted(map(tuple, rho_variant(x[list(idx)], kind)))
                checked += 1
                violations += got != want
    _report(4, violations == 0, f"{violations} mismatches over {checked} (kind, I, x) cases")


def test_criterion_05_trained_pipeline_invariance():
    # Trained weights from a cached discovery run on the true arm.
    spec, train, _, result = _discovery("Z_I(5)", 1)
    bits = _true_bits(spec)
    params, _ = result.fits.get(bits) or train_sgd(train, spec.descriptor, TRAIN_CFG)
    trained = check_invariance(lambda X: forward_batch(params, spec.descriptor, X), spec.descriptor)
    # The guarantee is architectural, so it must also hold at random weights
    # for every kind and k <= 5.
    random_ok = True
    worst_random = 0.0
    for kind in (CYCLIC, DIHEDRAL, SYMMETRIC):
        for k in range(2, 6):
            d = GroupDescriptor(kind, tuple(range(1, k + 1)), k + 2)
            pk = init_params(k + 2, seed=k)
            rep = check_invariance(lambda X: forward_batch(pk, d, X), d)
            worst_random = max(worst_random, rep.max_violation)
            random_ok = random_ok and rep.passed
    # Falsifiability: a wrong-group transposition moves the output.
    rng = np.random.default_rng(1)
    x = rng.uniform(size=spec.n)
    outside = x.copy()
    i = spec.descriptor.index_set[0]
    j = next(c for c in range(spec.n) if c not in spec.descriptor.index_set)
    outside[[i, j]] = outside[[j, i]]
    moved, kept = forward_batch(params, spec.descriptor, np.array([outside, x]))
    falsifiable = moved != kept
    ok = trained.passed and random_ok and falsifiable
    _report(
        5,
        ok,
        f"trained max violation {trained.max_violation:.2e}, "
        f"random-weight max {worst_random:.2e} (tol {trained.tol:.0e})",
    )


def test_criterion_06_gradient_check():
    rng = np.random.default_rng(0)
    worst = 0.0
    for kind, idx, n in (
        (CYCLIC, (0, 2, 3), 5),
        (DIHEDRAL, (1, 2, 4), 5),
        (SYMMETRIC, (0, 1, 2, 3), 5),
    ):
        d = GroupDescriptor(kind, idx, n)
        params = init_params(n, seed=3)
        X = rng.uniform(size=(10, n))
        y = rng.uniform(size=10)
        worst = max(worst, gradient_check(params, d, X, y))
    _report(6, worst <= 1e-4, f"max relative gradient error {worst:.2e} (tol 1e-4)")


def test_criterion_07_misidentification_trend():
    t0 = time.perf_counter()
    instance = LinearInstance(
        np.array([1.0, 0.2, 0.2, 0.2, 0.2]), np.eye(5), noise_sigma=0.1
    )
    means = np.sort(instance.arms @ instance.mu_star)
    assert means[-1] - means[-2] >= 0.2
    horizons = [100, 200, 400, 800]
    trials = 200
    rates = simulate_linear(instance, horizons, nu=0.5, trials=trials, seed=0)
    se = {T: np.sqrt(max(rates[T] * (1 - rates[T]), 1e-12) / trials) for T in horizons}
    monotone = all(
        rates[b] <= rates[a] + 1.96 * (se[a] + se[b])
        for a, b in zip(horizons, horizons[1:])
    )
    c = rates[100] * 100 / np.log(100)
    bounded = all(
        rates[T] <= c * np.log(T) / T + 1.96 * se[T] for T in horizons
    )
    elapsed = time.perf_counter() - t0
    ok = monotone and bounded and elapsed <= 300
    detail = (
        "rates " + ", ".join(f"T={T}:{rates[T]:.3f}" for T in horizons)
        + f"; c={c:.2f}, monotone={monotone}, bounded={bounded}, {elapsed:.0f}s (<=300s)"
    )
    _report(7, ok, detail)


def test_criterion_08_orbit_counting():
    reports = [nonrealizability_counts(k) for k in (3, 4, 5)]
    failures = sum(len(report.failures) for report in reports)
    detail = f"{failures} violations over k in {{3,4,5}}, {reports[0].trials} pairs each"
    _report(8, failures == 0, detail)


def test_criterion_09_duplicate_entry_failure():
    found = find_set_e_counterexample()
    dihedral = {g.mapping for g in elements(GroupDescriptor(DIHEDRAL, (0, 1, 2, 3), 4))}
    counter_ok = found is not None and found[1].mapping not in dihedral
    # On distinct entries the passing relabelings are exactly the group.
    rng = np.random.default_rng(0)
    clean = True
    for _ in range(50):
        x = rng.uniform(size=4)
        while len(set(x.tolist())) < 4:
            x = rng.uniform(size=4)
        clean = clean and {
            h.mapping for h in step3_passing_perms(DIHEDRAL, x)
        } == dihedral
    ok = counter_ok and clean
    _report(
        9,
        ok,
        f"duplicate-entry counterexample {'found' if counter_ok else 'missing'}; "
        f"distinct-entry checks clean={clean}",
    )


def test_criterion_10_bitwise_determinism(tmp_path):
    from symforge.cli import load_config, run_bandit_sim, run_discover, run_gen_data

    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(
        yaml.safe_dump(
            {
                "task": {"name": "S_I(4)", "sizes": [48, 16], "seed": 3},
                "arms": {"screen_repeats": 10},
                "bandit": {"T": 6},
                "training": {"epochs": 60},
                "sim": {"horizons": [30, 60], "trials": 25},
                "output": {"dir": str(tmp_path / "runs")},
            }
        )
    )
    cfg = load_config(cfg_path)
    artifacts = {}
    for label, runner in (
        ("gen-data", lambda: run_gen_data(cfg)),
        ("discover", lambda: run_discover(cfg)[0]),
        ("bandit-sim", lambda: run_bandit_sim(cfg)[0]),
    ):
        out = runner()
        first = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
        out = runner()
        second = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
        artifacts[label] = first == second and len(first) > 0
    ok = all(artifacts.values())
    _report(10, ok, ", ".join(f"{k}: {'stable' if v else 'drifted'}" for k, v in artifacts.items()))
