"""Command-line entry point: dataset generation, discovery runs, property
verification suites, and the linear-bandit simulator.

Every command is a pure function of (config file, seed): artifacts land in
an output directory named by the hash of the effective configuration and
the command (`discover` untagged; `gen-data`, `bandit-sim` and
`discover --sgd-only` by tag), so re-running a command on a config
reproduces its outputs bit for bit.

Exit codes: 0 = ok, 1 = a `verify` suite failed, 2 = a usage or
configuration error, a run refused at run time (a SymforgeError) or a
workload too large for this machine's memory.
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
    SCREEN_REPEATS,
    SCREEN_THRESHOLD,
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
from .net import SQUARED, TrainConfig, forward, gradient_check, init_params
from .oracle import (
    check_invariance,
    find_set_e_counterexample,
    nonrealizability_counts,
    verify_orbit_mapping,
    verify_product_group,
)
from .relaxed import evaluate_relaxed, train_relaxed
from .selection import arm_matrix, arm_scores, build_m1, build_m2, dense_matrix, enumerate_arms
from .tasks import BUILTIN_NAMES, SPLIT_SIZES, builtin_polynomial, make_splits


class ConfigError(SymforgeError):
    pass


def _whole(value) -> int:
    """int(value), refusing a bool, which int() takes as 0 or 1, a float
    with a fraction, which int() truncates, and a float above 2**53, which
    names no one whole number (1e308 epochs would run without end)."""
    number = int(value)
    if isinstance(value, bool) or isinstance(value, float) and not (number == value < 2**53):
        raise ValueError(f"{value!r} is not a whole number below 2**53")
    return number


def _counts(values) -> list:
    """A non-empty list of whole numbers >= 1, as task.sizes and sim.horizons
    are; any other iterable, such as the string "48", is refused."""
    counts = [_whole(value) for value in values] if isinstance(values, list) else []
    if not counts or min(counts) < 1:
        raise ValueError(f"{values!r} is not a non-empty list of values >= 1")
    return counts


def _mu_star(values) -> np.ndarray:
    """values as the simulator's mean vector, refused by LinearInstance over
    the unit arms unless it is finite and one arm is uniquely best."""
    mu_star = np.asarray(values, dtype=float)
    return LinearInstance(mu_star, np.eye(mu_star.size), 0.0).mu_star


# (ok, need) rules shared by several keys; the cast alone checks a key with
# no rule.
_NO_RULE = (None, "")
_AT_LEAST_1 = (lambda count: count >= 1, ">= 1")
_FINITE_AT_LEAST_0 = (lambda scale: 0 <= scale < np.inf, "finite and >= 0")

# Every config key: "section.name": (default, cast, ok, need).  cast converts
# the YAML value or raises; ok, unless None, is the rule the converted value
# must meet, and need says it in words.  A default the library declares is
# read from its class or module.  The library classes check the same ranges
# again, as library input, but their messages do not name the key.
# arms.screen, bandit.reward_holdout and training.loss accept only settings
# that meet criterion 1 (see README); bandit.loss_cap is read by nothing and
# keeps its one value only so that the config hashes do not move.
_KEYS = {
    "task.kind": ("polynomial", str, lambda kind: kind == "polynomial", "polynomial"),
    "task.name": ("Z_I(5)", str, *_NO_RULE),  # checked against the builtins when run
    "task.sizes": (list(SPLIT_SIZES), _counts, lambda sizes: len(sizes) <= 3, "1-3 counts"),
    "task.seed": (0, _whole, lambda seed: seed >= 0, ">= 0"),
    "arms.screen": (True, lambda screen: screen, lambda screen: screen is True, "true"),
    "arms.screen_threshold": (SCREEN_THRESHOLD, float, *_NO_RULE),
    "arms.screen_repeats": (SCREEN_REPEATS, _whole, *_AT_LEAST_1),
    "bandit.T": (
        None,
        lambda T: T if T is None else _whole(T),
        lambda T: T is None or T >= 1,
        "null (4n) or >= 1",
    ),
    "bandit.nu": (DiscoveryConfig.nu, float, *_FINITE_AT_LEAST_0),
    "bandit.loss_cap": (1.0, float, lambda cap: cap == 1.0, "1.0"),
    "bandit.reward_holdout": (
        DiscoveryConfig.reward_holdout, float, lambda share: 0 < share < 1, "in (0, 1)"
    ),
    "bandit.size_bonus": (DiscoveryConfig.size_bonus, float, np.isfinite, "finite"),
    "training.epochs": (TrainConfig.epochs, _whole, *_AT_LEAST_1),
    "training.batch_size": (TrainConfig.batch_size, _whole, *_AT_LEAST_1),
    "training.lr_initial": (TrainConfig.lr_initial, float, *_FINITE_AT_LEAST_0),
    "training.lr_decay": (TrainConfig.lr_decay, float, lambda decay: 0 < decay <= 1, "in (0, 1]"),
    "training.loss": (SQUARED, str, lambda loss: loss == SQUARED, SQUARED),
    "sim.mu_star": ([1.0, 0.2, 0.2, 0.2, 0.2], _mu_star, *_NO_RULE),
    "sim.noise_sigma": (0.1, float, *_FINITE_AT_LEAST_0),
    "sim.nu": (0.5, float, *_FINITE_AT_LEAST_0),
    "sim.horizons": ([100, 200, 400, 800], _counts, *_NO_RULE),
    "sim.trials": (200, _whole, *_AT_LEAST_1),
    "output.dir": ("runs", Path, *_NO_RULE),
}


def _value(cfg: dict, key: str):
    """The value at the dotted key "section.name", converted by the key's
    cast.  A failed cast, a NaN, or a value that breaks the key's rule is a
    ConfigError that names the key."""
    _, cast, ok, need = _KEYS[key]
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


def load_config(path, seed_override=None) -> dict:
    """The config at path merged over the defaults, each value as written.
    Every key is checked here, whichever command loads the config, and
    converted where it is read; any fault is a ConfigError."""
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
    cfg: dict = {}
    for key, (default, *_) in _KEYS.items():
        section, name = key.split(".")
        cfg.setdefault(section, {})[name] = default
    for section, user in raw.items():
        if section not in cfg:
            raise ConfigError(f"unknown section '{section}' in {path}")
        if not isinstance(user, dict):
            raise ConfigError(f"section '{section}' must be a mapping in {path}")
        for name, value in user.items():
            if name not in cfg[section]:
                raise ConfigError(f"unknown key '{section}.{name}' in {path}")
            cfg[section][name] = value
    if seed_override is not None:
        cfg["task"]["seed"] = int(seed_override)
    for key in _KEYS:
        try:
            _value(cfg, key)
        except ConfigError as exc:
            overridden = key == "task.seed" and seed_override is not None
            source = "from --seed" if overridden else f"in {path}"
            raise ConfigError(f"invalid value {source}: {exc}") from None
    return cfg


def config_hash(cfg: dict, tag: str = "") -> str:
    canon = yaml.safe_dump(cfg, sort_keys=True) + tag
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def output_dir(cfg: dict, tag: str = "") -> Path:
    """The path of a run's directory, named by the hash of the config and
    the command's tag, so each command has its own; nothing is created
    here."""
    return _value(cfg, "output.dir") / config_hash(cfg, tag)


def _write(out: Path, files: dict) -> None:
    """Create the run directory out and write files, name -> bytes, into
    it; a command calls this once, after its results exist, so a run
    refused on the way writes nothing.  A failure is a ConfigError naming
    the directory or the file."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ConfigError(f"cannot create output directory {out}: {exc}")
    for name, data in files.items():
        try:
            (out / name).write_bytes(data)
        except OSError as exc:
            raise ConfigError(f"cannot write {out / name}: {exc}") from None


def _discovery_config(cfg: dict, n: int) -> DiscoveryConfig:
    """The bandit's settings for a task on n coordinates."""
    T = _value(cfg, "bandit.T")
    train_cfg = TrainConfig(
        epochs=_value(cfg, "training.epochs"),
        batch_size=_value(cfg, "training.batch_size"),
        lr_initial=_value(cfg, "training.lr_initial"),
        lr_decay=_value(cfg, "training.lr_decay"),
        loss_kind=_value(cfg, "training.loss"),
    )
    return DiscoveryConfig(
        T=4 * n if T is None else T,
        nu=_value(cfg, "bandit.nu"),
        train_cfg=train_cfg,
        reward_holdout=_value(cfg, "bandit.reward_holdout"),
        size_bonus=_value(cfg, "bandit.size_bonus"),
        seed=_value(cfg, "task.seed"),
    )


def _task_splits(cfg: dict):
    name = _value(cfg, "task.name")
    try:
        spec = builtin_polynomial(name)
    except KeyError as exc:
        raise ConfigError(f"unknown task name {name!r}; valid names: {BUILTIN_NAMES}") from exc
    return make_splits(spec, _value(cfg, "task.sizes"), seed=_value(cfg, "task.seed"))


def run_gen_data(cfg: dict) -> Path:
    splits, manifest = _task_splits(cfg)
    files = {}
    for name, dataset in splits.items():
        header = [f"x_{i + 1}" for i in range(dataset.inputs.shape[1])] + ["y"]
        rows = np.column_stack((dataset.inputs, dataset.targets)).tolist()
        files[f"{name}.csv"] = _csv(rows, header)
    files["manifest.yaml"] = yaml.safe_dump(manifest, sort_keys=True).encode()
    out = output_dir(cfg, tag="gen-data")
    _write(out, files)
    return out


def _csv(rows, header=None) -> bytes:
    """CSV bytes, one line per row and the header first: floats as .17g, so
    a re-read float equals the written one, and every other value by str()."""
    lines = [] if header is None else [",".join(header)]
    lines += [",".join(f"{x:.17g}" if isinstance(x, float) else str(x) for x in r) for r in rows]
    return "".join(line + "\n" for line in lines).encode()


def _arm_fields(descriptor) -> dict:
    return {"kind": descriptor.kind, "index_set": list(descriptor.index_set)}


def discovery_artifacts(result, top) -> tuple[dict, dict]:
    """(files, fields) of a discovery run: the bytes of pulls.csv,
    ranking.csv and the winner's dense m1.csv and m2.csv, and the report's
    top3 and winner fields.  top is [(arm, validation MAE or None)] for
    the arms that lead result.ranking.  The scores are the ones the arms
    were ranked by, as Python floats, which yaml.safe_dump takes."""
    scores = arm_scores(result.posterior.mu_hat, arm_matrix(result.ranking)).tolist()
    winner = result.ranking[0].descriptor
    n = winner.n
    pulls = [(r.t, "".join(map(str, r.arm.bits)), r.reward, r.train_loss) for r in result.records]
    ranking = [
        (i, arm.descriptor.kind, " ".join(map(str, arm.descriptor.index_set)), score)
        for i, (arm, score) in enumerate(zip(result.ranking, scores))
    ]
    files = {
        "pulls.csv": _csv(pulls, ("t", "bits", "reward", "loss")),
        "ranking.csv": _csv(ranking, ("rank", "kind", "index_set", "score")),
        "m1.csv": _csv(dense_matrix(build_m1(winner), (n, n))),
        "m2.csv": _csv(dense_matrix(build_m2(winner), (n * n, n * n))),
    }
    top3 = [
        dict(_arm_fields(arm.descriptor), score=score, val_mae=mae)
        for (arm, mae), score in zip(top, scores)
    ]
    return files, {"top3": top3, "winner": _arm_fields(winner)}


def run_discover(cfg: dict, sgd_only: bool = False) -> tuple[Path, dict]:
    t_start = time.perf_counter()
    splits, manifest = _task_splits(cfg)
    train = splits["train"]
    val = splits.get("val")
    n = train.inputs.shape[1]
    dcfg = _discovery_config(cfg, n)
    report: dict = {"config": cfg, "seed": dcfg.seed, "task": manifest}

    if sgd_only:
        params, loss = train_relaxed(train, dcfg.train_cfg)
        report.update(mode="sgd-only", train_loss=loss)
        if val is not None:
            report["val_mae"] = evaluate_relaxed(params, val)
        files = {"m1.csv": _csv(params.m1), "m2.csv": _csv(params.m2)}
    else:
        references: dict = {}  # screening's reference fit, for discovery to reuse
        kept = screen_coordinates(
            train,
            dcfg.train_cfg,
            threshold=_value(cfg, "arms.screen_threshold"),
            repeats=_value(cfg, "arms.screen_repeats"),
            seed=dcfg.seed,
            references=references,
        )
        arms = filter_arms(enumerate_arms(n), kept)
        result = run_discovery(arms, train, dcfg, references)
        if val is None:  # no rows the arms were not fit on
            top = [(arm, None) for arm in result.ranking[:3]]
        else:
            top = evaluate_top_arms(result, val, top=3)
        files, fields = discovery_artifacts(result, top)
        report.update(
            fields,
            mode="bandit",
            screened_coordinates=list(kept),
            arm_count=len(arms),
            T=dcfg.T,
            fits=dict(result.arm_fits.counts),  # the host decides these, so no CSV has them
        )

    report["timing_seconds"] = round(time.perf_counter() - t_start, 3)
    files["report.yaml"] = yaml.safe_dump(report, sort_keys=True).encode()
    out = output_dir(cfg, tag="sgd-only" if sgd_only else "")
    _write(out, files)
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
            f"{kind}-k{k}": _verdict(verify_orbit_mapping(kind, k))
            for kind in (CYCLIC, DIHEDRAL, SYMMETRIC)
            for k in range(2, 6)
        }
        found = find_set_e_counterexample() is not None
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
        return {f"k{k}": _verdict(nonrealizability_counts(k)) for k in (3, 4, 5)}
    if suite == "gradients":
        rng = np.random.default_rng(0)
        descriptor = GroupDescriptor(CYCLIC, (0, 2, 3), 5)
        params = init_params(5, seed=0)
        X = rng.uniform(size=(10, 5))
        y = rng.uniform(size=10)
        err = float(gradient_check(params, descriptor, X, y))
        return {"max_relative_error": (err <= 1e-4, err)}
    if suite == "invariance":
        checks = {}
        for kind, k in ((CYCLIC, 4), (DIHEDRAL, 4), (SYMMETRIC, 3)):
            descriptor = GroupDescriptor(kind, tuple(range(1, k + 1)), k + 2)
            params = init_params(k + 2, seed=1)
            report = check_invariance(lambda x: forward(params, descriptor, x), descriptor)
            checks[f"{kind}-k{k}"] = _verdict(report, f"violation {report.max_violation:.2e}")
        return checks
    raise ConfigError(f"unknown suite {suite!r}; valid suites: {VERIFY_SUITES}")


def run_verify(suite: str) -> tuple[bool, dict]:
    """Run one named property suite with default sizes; (passed, summary)."""
    checks = _suite_checks(suite)
    passed = all(ok for ok, _ in checks.values())
    return passed, {label: value for label, (_, value) in checks.items()}


def run_bandit_sim(cfg: dict) -> tuple[Path, dict]:
    mu_star = _value(cfg, "sim.mu_star")
    rates = simulate_linear(
        LinearInstance(mu_star, np.eye(mu_star.size), _value(cfg, "sim.noise_sigma")),
        horizons=_value(cfg, "sim.horizons"),
        nu=_value(cfg, "sim.nu"),
        trials=_value(cfg, "sim.trials"),
        seed=_value(cfg, "task.seed"),
    )
    rates = dict(sorted(rates.items()))
    out = output_dir(cfg, tag="bandit-sim")
    _write(out, {"misid.csv": _csv(rates.items(), ("T", "misid_rate"))})
    return out, rates


@click.group()
def main():
    """Discover which discrete symmetry a target function respects."""


def _run(command, config_path, seed, **kwargs):
    """Load the config and run the command on it.  A SymforgeError from
    either, or a MemoryError from a workload too large for this machine, is
    printed as `error: ...` and exits 2.  The message is printed after the
    except clause, which releases the failed command's frames and so the
    memory that they hold."""
    try:
        return command(load_config(config_path, seed_override=seed), **kwargs)
    except SymforgeError as exc:
        message = str(exc)
    except MemoryError:
        message = "out of memory: the configured workload is too large for this machine"
    click.echo(f"error: {message}", err=True)
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
    if sgd_only:
        click.echo(
            f"  sgd-only train_loss={report['train_loss']:.4f}"
            + (f" val_mae={report['val_mae']:.4f}" if "val_mae" in report else "")
        )
    else:
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
