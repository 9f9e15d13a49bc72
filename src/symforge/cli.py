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
from .tasks import BUILTIN_NAMES, builtin_polynomial, make_splits, persist_dataset

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
        _task(cfg)
        _value(cfg, "output.dir", Path)
        _screening(cfg)
        _discovery_config(cfg, n=1)
        _simulation(cfg)
    except (TypeError, ValueError, ConfigError) as exc:
        raise ConfigError(f"invalid value in {path}: {exc}")


def config_hash(cfg: dict, tag: str = "") -> str:
    canon = yaml.safe_dump(cfg, sort_keys=True) + tag
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def output_dir(cfg: dict, tag: str = "") -> Path:
    out = _value(cfg, "output.dir", Path) / config_hash(cfg, tag)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}")
    return out


def _value(cfg: dict, key: str, cast, ok=None, need=""):
    """The value at the dotted key "section.name", converted by cast.  A
    failed cast, a NaN, or a value that ok rejects is a ConfigError that
    names the key; need says what ok asks for."""
    section, name = key.split(".")
    raw = cfg[section][name]
    try:
        value = cast(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key}: {exc}") from None
    if np.any(value != value):  # NaN is the one value unequal to itself
        raise ConfigError(f"{key} must not be NaN")
    if ok is not None and not ok(value):
        raise ConfigError(f"{key} must be {need}, not {raw!r}")
    return value


def _whole(value) -> int:
    """int(value), refusing a bool, which int() takes as 0 or 1, and a float
    with a fraction, which int() truncates."""
    number = int(value)
    if isinstance(value, bool) or isinstance(value, float) and number != value:
        raise ValueError(f"{value!r} is not a whole number")
    return number


def _counts(values) -> list:
    """A non-empty list of whole numbers >= 1, as task.sizes and sim.horizons
    are; any other iterable, such as the string "48", is refused."""
    counts = [_whole(value) for value in values] if isinstance(values, list) else []
    if not counts or min(counts) < 1:
        raise ValueError(f"{values!r} is not a non-empty list of values >= 1")
    return counts


def _bool(value) -> bool:
    """value itself when it is true or false; bool() would take "no" as true."""
    if not isinstance(value, bool):
        raise TypeError(f"{value!r} is not true or false")
    return value


# (ok, need) pairs for _value, shared by several keys.
_AT_LEAST_1 = (lambda count: count >= 1, ">= 1")
_FINITE_AT_LEAST_0 = (lambda scale: 0 <= scale < np.inf, "finite and >= 0")


def _seed(cfg: dict) -> int:
    return _value(cfg, "task.seed", _whole, lambda seed: seed >= 0, ">= 0")


def _task(cfg: dict) -> tuple:
    """(sizes, seed) of the task section; polynomial is the one task kind."""
    _value(cfg, "task.kind", str, lambda kind: kind == "polynomial", "polynomial")
    return _value(cfg, "task.sizes", _counts, lambda s: len(s) <= 3, "1-3 counts"), _seed(cfg)


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(
        epochs=_value(cfg, "training.epochs", _whole, *_AT_LEAST_1),
        batch_size=_value(cfg, "training.batch_size", _whole, *_AT_LEAST_1),
        lr_initial=_value(cfg, "training.lr_initial", float),
        lr_decay=_value(cfg, "training.lr_decay", float),
        loss_kind=_value(cfg, "training.loss", str),
    )


def _screening(cfg: dict) -> dict | None:
    """screen_coordinates' keyword arguments from the arms section, or None
    when arms.screen is false."""
    kwargs = {
        "threshold": _value(cfg, "arms.screen_threshold", float),
        "repeats": _value(cfg, "arms.screen_repeats", _whole, *_AT_LEAST_1),
    }
    return kwargs if _value(cfg, "arms.screen", _bool) else None


def _discovery_config(cfg: dict, n: int) -> DiscoveryConfig:
    """The bandit's settings for a task on n coordinates."""
    return DiscoveryConfig(
        T=_value(
            cfg,
            "bandit.T",
            lambda T: 4 * n if T is None else _whole(T),
            lambda T: T >= 1,
            "null (4n) or >= 1",
        ),
        nu=_value(cfg, "bandit.nu", float, *_FINITE_AT_LEAST_0),
        train_cfg=_train_config(cfg),
        loss_cap=_value(cfg, "bandit.loss_cap", float, lambda c: 0 < c < np.inf, "finite and > 0"),
        reward_holdout=_value(
            cfg, "bandit.reward_holdout", float, lambda r: 0 <= r < 1, "in [0, 1)"
        ),
        size_bonus=_value(cfg, "bandit.size_bonus", float),
        seed=_seed(cfg),
    )


def _simulation(cfg: dict) -> dict:
    """simulate_linear's arguments from the sim section."""
    mu_star = _value(cfg, "sim.mu_star", lambda mu: np.asarray(mu, dtype=float))
    noise_sigma = _value(cfg, "sim.noise_sigma", float, *_FINITE_AT_LEAST_0)
    return {
        "instance": LinearInstance(mu_star, np.eye(mu_star.size), noise_sigma),
        "horizons": _value(cfg, "sim.horizons", _counts),
        "nu": _value(cfg, "sim.nu", float, *_FINITE_AT_LEAST_0),
        "trials": _value(cfg, "sim.trials", _whole, *_AT_LEAST_1),
        "seed": _seed(cfg),
    }


def _task_splits(cfg: dict):
    sizes, seed = _task(cfg)
    try:
        spec = builtin_polynomial(cfg["task"]["name"])
    except KeyError as exc:
        raise ConfigError(
            f"unknown task name {cfg['task']['name']!r}; valid names: {BUILTIN_NAMES}"
        ) from exc
    return make_splits(spec, sizes, seed=seed)


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
    screening = _screening(cfg)
    if screening is not None:
        kept = screen_coordinates(train, train_cfg, seed=dcfg.seed, **screening)
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
