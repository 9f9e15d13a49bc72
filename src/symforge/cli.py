"""Command-line entry point: dataset generation, discovery runs, property
verification suites, and the linear-bandit simulator.

Every command is a pure function of (config file, seed): artifacts land in
an output directory named by the hash of the effective configuration, so
re-running a config reproduces its outputs bit for bit.

Exit codes: 0 = ok, 1 = a verification or discovery check failed,
2 = usage or configuration error.
"""

from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

import click
import numpy as np
import yaml

from .bandit import (
    DiscoveryConfig,
    LinearInstance,
    evaluate_top_arms,
    filter_arms,
    run_discovery,
    screen_coordinates,
    simulate_linear,
)
from .errors import SymforgeError
from .groups import CYCLIC, DIHEDRAL, SYMMETRIC, GroupDescriptor
from .net import TrainConfig, forward, gradient_check, init_params
from .oracle import (
    check_invariance,
    find_set_e_counterexample,
    nonrealizability_counts,
    verify_orbit_mapping,
    verify_product_group,
)
from .relaxed import evaluate_relaxed, train_relaxed
from .selection import SelectionPair, dense_matrix, enumerate_arms
from .tasks import (
    BUILTIN_NAMES,
    builtin_polynomial,
    gen_quadrangle_dataset,
    make_splits,
    persist_dataset,
)

_DEFAULTS = {
    "task": {"kind": "polynomial", "name": "Z_I(5)", "sizes": [64, 480, 4800], "seed": 0},
    "arms": {"screen": True, "screen_threshold": 0.08, "screen_repeats": 30},
    "bandit": {
        "T": None,  # default 4n
        "nu": 0.5,
        "loss_cap": 1.0,
        "reward_holdout": 0.25,
        "size_bonus": 1.2,
    },
    "training": {
        "epochs": 400,
        "batch_size": 16,
        "lr_initial": 0.2,
        "lr_decay": 0.997,
        "loss": "squared",
    },
    "sim": {
        "mu_star": [1.0, 0.2, 0.2, 0.2, 0.2],
        "noise_sigma": 0.1,
        "nu": 0.5,
        "horizons": [100, 200, 400, 800],
        "trials": 200,
    },
    "output": {"dir": "runs"},
}


class ConfigError(SymforgeError):
    pass


def load_config(path, seed_override=None) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        raw = yaml.safe_load(text) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config {path}: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping of sections")
    cfg = {}
    for section, defaults in _DEFAULTS.items():
        merged = dict(defaults)
        user = raw.get(section, {})
        if not isinstance(user, dict):
            raise ConfigError(f"section '{section}' must be a mapping in {path}")
        for key, value in user.items():
            if key not in merged:
                raise ConfigError(f"unknown key '{section}.{key}' in {path}")
            merged[key] = value
        cfg[section] = merged
    for section in raw:
        if section not in _DEFAULTS:
            raise ConfigError(f"unknown section '{section}' in {path}")
    if seed_override is not None:
        cfg["task"]["seed"] = int(seed_override)
    _validate(cfg, path)
    return cfg


def _validate(cfg: dict, path) -> None:
    """Make every conversion and check the runners make, by calling the
    builders they call, so a bad value in any section fails here, whichever
    command loads the config.  It is a ConfigError; cfg is left as it is."""
    try:
        _task_sizes(cfg)
        Path(cfg["output"]["dir"])
        _screening(cfg)
        _discovery_config(cfg, n=1)
        _simulation(cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value in {path}: {exc}")


def config_hash(cfg: dict, tag: str = "") -> str:
    canon = yaml.safe_dump(cfg, sort_keys=True) + tag
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def output_dir(cfg: dict, tag: str = "") -> Path:
    out = Path(cfg["output"]["dir"]) / config_hash(cfg, tag)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}")
    return out


def _seed(cfg: dict) -> int:
    seed = int(cfg["task"]["seed"])
    if seed < 0:
        raise ValueError("task.seed must be >= 0")
    return seed


def _task_sizes(cfg: dict) -> tuple:
    sizes = tuple(int(size) for size in cfg["task"]["sizes"])
    if not sizes or min(sizes) < 1:
        raise ValueError("task.sizes must be a non-empty list of values >= 1")
    return sizes


def _train_config(cfg: dict) -> TrainConfig:
    t = cfg["training"]
    return TrainConfig(
        epochs=int(t["epochs"]),
        batch_size=int(t["batch_size"]),
        lr_initial=float(t["lr_initial"]),
        lr_decay=float(t["lr_decay"]),
        loss_kind=t["loss"],
    )


def _screening(cfg: dict) -> dict:
    """screen_coordinates' keyword arguments from the arms section."""
    a = cfg["arms"]
    repeats = int(a["screen_repeats"])
    if repeats < 1:
        raise ValueError("arms.screen_repeats must be >= 1")
    return {"threshold": float(a["screen_threshold"]), "repeats": repeats}


def _discovery_config(cfg: dict, n: int) -> DiscoveryConfig:
    """The bandit's settings for a task on n coordinates."""
    b = cfg["bandit"]
    T = 4 * n if b["T"] is None else int(b["T"])
    if T < 1:
        raise ValueError("bandit.T must be null (4n) or >= 1")
    return DiscoveryConfig(
        T=T,
        nu=float(b["nu"]),
        train_cfg=_train_config(cfg),
        loss_cap=float(b["loss_cap"]),
        reward_holdout=float(b["reward_holdout"]),
        size_bonus=float(b["size_bonus"]),
        seed=_seed(cfg),
    )


def _simulation(cfg: dict) -> dict:
    """simulate_linear's arguments from the sim section."""
    s = cfg["sim"]
    mu_star = np.asarray(s["mu_star"], dtype=float)
    horizons = [int(T) for T in s["horizons"]]
    trials = int(s["trials"])
    nu = float(s["nu"])
    if not horizons or min(horizons) < 1:
        raise ValueError("sim.horizons must be a non-empty list of values >= 1")
    if trials < 1:
        raise ValueError("sim.trials must be >= 1")
    if not 0 <= nu < np.inf:
        raise ValueError("sim.nu must be finite and >= 0")
    return {
        "instance": LinearInstance(mu_star, np.eye(mu_star.size), float(s["noise_sigma"])),
        "horizons": horizons,
        "nu": nu,
        "trials": trials,
        "seed": _seed(cfg),
    }


def _task_splits(cfg: dict):
    task = cfg["task"]
    sizes = _task_sizes(cfg)
    seed = _seed(cfg)
    if task["kind"] == "polynomial":
        try:
            spec = builtin_polynomial(task["name"])
        except KeyError as exc:
            raise ConfigError(
                f"unknown task name {task['name']!r}; valid names: {BUILTIN_NAMES}"
            ) from exc
        return make_splits(spec, sizes, seed=seed)
    if task["kind"] == "quadrangle":
        names = ("train", "val", "test")[: len(sizes)]
        streams = np.random.SeedSequence(seed).spawn(len(sizes))
        splits = {
            name: gen_quadrangle_dataset(size, np.random.default_rng(stream))
            for name, size, stream in zip(names, sizes, streams)
        }
        manifest = {
            "spec": "quadrangle-area",
            "seed": seed,
            "sizes": {name: size for name, size in zip(names, sizes)},
        }
        return splits, manifest
    raise ConfigError(
        f"unknown task kind {task['kind']!r}; valid kinds: polynomial, quadrangle"
    )


def run_gen_data(cfg: dict) -> Path:
    splits, manifest = _task_splits(cfg)
    out = output_dir(cfg)
    files = {}
    for name, dataset in splits.items():
        path = out / f"{name}.csv"
        persist_dataset(dataset, path)
        files[name] = str(path)
    manifest = dict(manifest, files=files)
    (out / "manifest.yaml").write_text(yaml.safe_dump(manifest, sort_keys=True))
    return out


def _write_matrix(path, matrix):
    with open(path, "w") as fh:
        for row in np.atleast_2d(matrix):
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
            fh.write("\n")


def run_discover(cfg: dict, sgd_only: bool = False) -> tuple[Path, dict]:
    if cfg["task"]["kind"] == "quadrangle":
        # A vertex relabeling moves (x_i, y_i) coordinate pairs together, which
        # no arm on single coordinates expresses, and the stored vertices are
        # in canonical order, so the data never shows the symmetry.
        raise ConfigError(
            "discover does not support task kind 'quadrangle': no arm can express "
            "its vertex relabelings; use gen-data for its datasets"
        )
    t_start = time.perf_counter()
    splits, manifest = _task_splits(cfg)
    train = splits["train"]
    val = splits.get("val")
    n = train.inputs.shape[1]
    dcfg = _discovery_config(cfg, n)
    train_cfg = dcfg.train_cfg
    out = output_dir(cfg, tag="sgd-only" if sgd_only else "")
    report: dict = {"config": cfg, "seed": dcfg.seed, "task": manifest}

    if sgd_only:
        params, loss = train_relaxed(train, train_cfg)
        report["mode"] = "sgd-only"
        report["train_loss"] = loss
        if val is not None:
            report["val_mae"] = evaluate_relaxed(params, val)
        _write_matrix(out / "m1.csv", params.m1)
        _write_matrix(out / "m2.csv", params.m2)
        report["m1_path"] = str(out / "m1.csv")
        report["m2_path"] = str(out / "m2.csv")
        report["timing_seconds"] = round(time.perf_counter() - t_start, 3)
        (out / "report.yaml").write_text(yaml.safe_dump(report, sort_keys=True))
        return out, report

    arms = enumerate_arms(n)
    kept = tuple(range(n))
    if cfg["arms"]["screen"]:
        kept = screen_coordinates(train, train_cfg, seed=dcfg.seed, **_screening(cfg))
        arms = filter_arms(arms, kept)
    result = run_discovery(arms, train, dcfg)

    top = evaluate_top_arms(
        result, val if val is not None else train, top=3,
        train_data=train, train_cfg=train_cfg,
    )
    mu_hat = result.posterior.mu_hat
    report["mode"] = "bandit"
    report["screened_coordinates"] = list(kept)
    report["arm_count"] = len(arms)
    report["T"] = dcfg.T
    report["top3"] = [
        {
            "kind": arm.descriptor.kind,
            "index_set": list(arm.descriptor.index_set),
            "score": float(np.dot(mu_hat, arm.bits)),
            "val_mae": mae,
        }
        for arm, mae in top
    ]

    with open(out / "pulls.csv", "w") as fh:
        fh.write("t,bits,reward,loss\n")
        for rec in result.records:
            bits = "".join(str(b) for b in rec.arm.bits)
            fh.write(f"{rec.t},{bits},{rec.reward:.17g},{rec.train_loss:.17g}\n")
    with open(out / "ranking.csv", "w") as fh:
        fh.write("rank,kind,index_set,score\n")
        for i, arm in enumerate(result.ranking):
            idx = " ".join(str(j) for j in arm.descriptor.index_set)
            fh.write(f"{i},{arm.descriptor.kind},{idx},{np.dot(mu_hat, arm.bits):.17g}\n")
    winner = result.ranking[0]
    sp = SelectionPair.for_descriptor(winner.descriptor)
    _write_matrix(out / "m1.csv", dense_matrix(sp.m1_entries, (n, n)))
    _write_matrix(out / "m2.csv", dense_matrix(sp.m2_entries, (n * n, n * n)))
    report["winner"] = {
        "kind": winner.descriptor.kind,
        "index_set": list(winner.descriptor.index_set),
        "m1_path": str(out / "m1.csv"),
        "m2_path": str(out / "m2.csv"),
    }
    report["pull_log"] = str(out / "pulls.csv")
    report["ranking_path"] = str(out / "ranking.csv")
    report["timing_seconds"] = round(time.perf_counter() - t_start, 3)
    (out / "report.yaml").write_text(yaml.safe_dump(report, sort_keys=True))
    return out, report


VERIFY_SUITES = ("orbits", "product", "nonreal", "gradients", "invariance")


def _verdict(report, failed=None) -> tuple[bool, str]:
    """(passed, summary value): "pass", or else `failed`, by default the
    report's failure count."""
    if report.passed:
        return True, "pass"
    return False, failed or f"{len(report.failures)} failures"


def _suite_checks(suite: str) -> dict:
    """label -> (passed, summary value) for one named suite."""
    if suite == "orbits":
        checks = {
            f"{kind}-k{k}": _verdict(verify_orbit_mapping(kind, k, trials=100))
            for kind in (CYCLIC, DIHEDRAL, SYMMETRIC)
            for k in range(2, 6)
        }
        found = find_set_e_counterexample(k=4) is not None
        checks["dihedral-duplicate-counterexample"] = (found, "found" if found else "missing")
        return checks
    if suite == "product":
        combos = [
            ((GroupDescriptor(CYCLIC, (0, 1, 2), 5), GroupDescriptor(SYMMETRIC, (3, 4), 5)), 10),
            (
                (GroupDescriptor(DIHEDRAL, (0, 1, 2), 7), GroupDescriptor(CYCLIC, (3, 4, 5, 6), 7)),
                3,
            ),
        ]
        return {
            "x".join(f"{c.kind}{len(c.index_set)}" for c in components): _verdict(
                verify_product_group(components, trials=trials)
            )
            for components, trials in combos
        }
    if suite == "nonreal":
        return {f"k{k}": _verdict(nonrealizability_counts(k, trials=50)) for k in (3, 4, 5)}
    if suite == "gradients":
        rng = np.random.default_rng(0)
        sp = SelectionPair.for_descriptor(GroupDescriptor(CYCLIC, (0, 2, 3), 5))
        params = init_params(5, p=8, h=12, seed=0)
        X = rng.uniform(size=(10, 5))
        y = rng.uniform(size=10)
        err = float(gradient_check(params, sp, X, y, n_coords=20))
        return {"max_relative_error": (err <= 1e-4, err)}
    if suite == "invariance":
        checks = {}
        for kind, k in ((CYCLIC, 4), (DIHEDRAL, 4), (SYMMETRIC, 3)):
            descriptor = GroupDescriptor(kind, tuple(range(1, k + 1)), k + 2)
            sp = SelectionPair.for_descriptor(descriptor)
            params = init_params(k + 2, p=8, h=12, seed=1)
            report = check_invariance(lambda x: forward(params, sp, x), descriptor, samples=100)
            checks[f"{kind}-k{k}"] = _verdict(report, f"violation {report.max_violation:.2e}")
        return checks
    raise ConfigError(f"unknown suite {suite!r}; valid suites: {VERIFY_SUITES}")


def run_verify(suite: str) -> tuple[bool, dict]:
    """Run one named property suite with default sizes; (passed, summary)."""
    checks = _suite_checks(suite)
    passed = all(ok for ok, _ in checks.values())
    return passed, {label: value for label, (_, value) in checks.items()}


def run_bandit_sim(cfg: dict) -> tuple[Path, dict]:
    rates = simulate_linear(**_simulation(cfg))
    out = output_dir(cfg)
    with open(out / "misid.csv", "w") as fh:
        fh.write("T,misid_rate\n")
        for T in sorted(rates):
            fh.write(f"{T},{rates[T]:.17g}\n")
    return out, {T: rates[T] for T in sorted(rates)}


@click.group()
def main():
    """Discover which discrete symmetry a target function respects."""


def _run(command, config_path, seed, **kwargs):
    """Load the config and run the command on it.  A SymforgeError from
    either is printed as `error: ...` and exits 2."""
    try:
        return command(load_config(config_path, seed_override=seed), **kwargs)
    except SymforgeError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


@main.command("gen-data")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--seed", type=int, default=None)
def gen_data_cmd(config_path, seed):
    """Generate dataset CSVs and a manifest."""
    out = _run(run_gen_data, config_path, seed)
    click.echo(f"wrote datasets to {out}")


@main.command("discover")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--seed", type=int, default=None)
@click.option("--sgd-only", is_flag=True, default=False)
def discover_cmd(config_path, seed, sgd_only):
    """Run the full discovery pipeline and write a run report."""
    out, report = _run(run_discover, config_path, seed, sgd_only=sgd_only)
    click.echo(f"report written to {out / 'report.yaml'}")
    if not sgd_only:
        for row in report["top3"]:
            click.echo(
                f"  {row['kind']} {row['index_set']} score={row['score']:.4f}"
                + (f" val_mae={row['val_mae']:.4f}" if row["val_mae"] is not None else "")
            )


@main.command("verify")
@click.option("--suite", required=True, type=click.Choice(VERIFY_SUITES))
def verify_cmd(suite):
    """Run a named property-verification suite."""
    passed, summary = run_verify(suite)
    for key, value in summary.items():
        click.echo(f"{suite}.{key}: {value}")
    if not passed:
        click.echo(f"suite {suite}: FAIL", err=True)
        sys.exit(1)
    click.echo(f"suite {suite}: pass")


@main.command("bandit-sim")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--seed", type=int, default=None)
def bandit_sim_cmd(config_path, seed):
    """Monte-Carlo misidentification rates for the linear-bandit simulator."""
    out, rates = _run(run_bandit_sim, config_path, seed)
    for T, rate in rates.items():
        click.echo(f"T={T}: misid={rate:.4f}")
    click.echo(f"csv written to {out / 'misid.csv'}")


if __name__ == "__main__":
    main()
