"""The benchmark workloads.

Each workload builds its inputs from the seed in `setup`, names the
operations of one round in `ops` (each a call into the package's public
functions), and checks one operation's output in `inspect`.  Checks and
digests run outside the timed region.

Why these four:
- discover-screened: what `symforge discover` users run (criterion-1 tasks
  Z_I(5) and S_I(4), CLI defaults).  SGD on small invariant networks is
  nearly all of the time, and about 40% of the pulls re-train an arm
  already trained, so it is where an arm cache shows.  D_I(5) is left out:
  it costs as much as Z_I(5) and does the same kind of work, and a full
  set of benchmark runs must end within an hour.
- discover-wide: the README's library path with no screening on n = 14
  coordinates (Z_I(5) plus four irrelevant columns), 48,925 arms, at 200
  epochs per pull (half the default, for the same time limit).  The
  Python argmax and ranking over the arm space are a visible share, and
  almost every pull trains a new arm, so an arm cache should do nothing.
- bandit-sim: the LinTS simulator at the criterion-7 settings, dominated by
  the posterior sample and update; the network does no work.
- ablation-sgd-only: `discover --sgd-only`, the only caller of
  `relaxed.train_relaxed`, the third copy of the training loop.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from symforge import bandit, cli, net, selection, tasks
from symforge.groups import GroupDescriptor

# Reduced sizes for the smoke mode: every code path, a few seconds in all.
SMOKE_CONFIG = {
    "arms": {"screen_repeats": 2},
    "bandit": {"T": 4},
    "training": {"epochs": 2},
    "sim": {"horizons": [10, 20, 40], "trials": 4},
}


@dataclass
class Outcome:
    """What one operation produced, as far as the benchmark checks it."""

    steps: int  # bandit pulls, LinTS steps or SGD steps
    problems: list = field(default_factory=list)
    files: dict = field(default_factory=dict)  # name -> bytes, for the digest
    quality: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)  # counts read from the outputs

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name] + b"\0")
        return h.hexdigest()


def write_config(work: Path, label: str, sections: dict, smoke: bool) -> Path:
    """A YAML config (written as JSON, a YAML subset) for `cli.load_config`."""
    merged = {key: dict(value) for key, value in sections.items()}
    if smoke:
        for key, value in SMOKE_CONFIG.items():
            merged.setdefault(key, {}).update(value)
    merged.setdefault("output", {})["dir"] = str(work / "runs")
    path = work / "configs" / f"{label}.yaml"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(merged, sort_keys=True))
    return path


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def finite_or_none(values) -> bool:
    return all(v is None or math.isfinite(v) for v in values)


def discovery_checks(report_top3, pulls, ranking, arm_keys, T, true_key):
    """Checks and quality numbers shared by both discovery workloads.

    pulls: rows with 'bits' and 'loss'; ranking: (kind, index_set) per rank;
    arm_keys: the (kind, index_set) of every arm the bandit searched.
    """
    problems = []
    if len(pulls) != T:
        problems.append(f"pulls.csv has {len(pulls)} rows, expected T={T}")
    if len(ranking) != len(arm_keys) or set(ranking) != set(arm_keys):
        problems.append("ranking is not a permutation of the arm set")
    maes = [row["val_mae"] for row in report_top3]
    if len(maes) != min(3, len(arm_keys)) or not finite_or_none(maes):
        problems.append(f"top-3 validation MAEs must be finite or None, one per arm: {maes}")
    top_keys = [(row["kind"], tuple(row["index_set"])) for row in report_top3]
    hit = true_key in top_keys
    quality = {
        "top3_hit_rate": float(hit),
        "true_arm_val_mae": maes[top_keys.index(true_key)] if hit else None,
        "top1_val_mae": maes[0] if maes else None,
        "diverged_pull_ratio": sum(math.isinf(float(r["loss"])) for r in pulls) / T,
    }
    layer = {
        "distinct_arm_ratio": len({r["bits"] for r in pulls}) / T,
        "arm_count": len(arm_keys),
    }
    return problems, quality, layer


def arm_key(arm):
    return (arm.descriptor.kind, tuple(arm.descriptor.index_set))


class DiscoverScreened:
    name = "discover-screened"
    TASKS = ("Z_I(5)", "S_I(4)")

    def setup(self, seed, smoke, work):
        inputs = []
        for task in self.TASKS:
            path = write_config(
                work, f"{task}-seed{seed}", {"task": {"name": task, "seed": seed}}, smoke
            )
            cfg = cli.load_config(path)
            spec = tasks.builtin_polynomial(task)
            arms = selection.enumerate_arms(spec.n)
            inputs.append((task, cfg, spec, arms))
        return inputs

    def ops(self, inputs):
        return [(task, lambda cfg=cfg: cli.run_discover(cfg)) for task, cfg, _, _ in inputs]

    def inspect(self, inputs, index, output):
        _, _, spec, arms = inputs[index]
        out, report = output
        kept = set(report["screened_coordinates"])
        arm_keys = [arm_key(a) for a in arms if set(a.descriptor.index_set) <= kept]
        pulls = read_rows(out / "pulls.csv")
        ranking = [
            (r["kind"], tuple(int(i) for i in r["index_set"].split()))
            for r in read_rows(out / "ranking.csv")
        ]
        true_key = (spec.descriptor.kind, tuple(spec.descriptor.index_set))
        problems, quality, layer = discovery_checks(
            report["top3"], pulls, ranking, arm_keys, report["T"], true_key
        )
        if report["arm_count"] != len(arm_keys):
            problems.append("report arm_count differs from the screened arm set")
        files = {f: (out / f).read_bytes() for f in ("pulls.csv", "ranking.csv")}
        return Outcome(report["T"], problems, files, quality, layer)


class DiscoverWide:
    name = "discover-wide"
    TASK = "Z_I(5)"
    IRRELEVANT = 4  # uniform columns the target ignores; n = 10 + 4 = 14
    EPOCHS = 200

    def setup(self, seed, smoke, work):
        spec = tasks.builtin_polynomial(self.TASK)
        splits, _ = tasks.make_splits(spec, sizes=(64, 480), seed=seed)
        rng = np.random.default_rng([seed, self.IRRELEVANT])

        def widen(data):
            extra = rng.uniform(size=(len(data), self.IRRELEVANT))
            return net.Dataset(np.hstack([data.inputs, extra]), data.targets)

        train, val = widen(splits["train"]), widen(splits["val"])
        n = train.inputs.shape[1]
        arms = selection.enumerate_arms(n)
        train_cfg = net.TrainConfig(seed=0, epochs=2 if smoke else self.EPOCHS)
        dcfg = bandit.DiscoveryConfig(T=4 if smoke else 4 * n, train_cfg=train_cfg, seed=seed)
        true = GroupDescriptor(spec.descriptor.kind, spec.descriptor.index_set, n)
        return train, val, arms, dcfg, true, work / "runs" / f"wide-seed{seed}"

    def ops(self, inputs):
        train, _, arms, dcfg, _, _ = inputs
        return [(self.TASK, lambda: bandit.run_discovery(arms, train, dcfg))]

    def inspect(self, inputs, index, result):
        _, val, arms, dcfg, true, out = inputs
        # Top-3 MAE of the arms the bandit trained; untrained ones are None.
        top = bandit.evaluate_top_arms(result, val, top=3)
        mu_hat = result.posterior.mu_hat
        # The same formats as `symforge discover`, so digests compare alike.
        pulls_csv = "t,bits,reward,loss\n" + "".join(
            f"{r.t},{''.join(map(str, r.arm.bits))},{r.reward:.17g},{r.train_loss:.17g}\n"
            for r in result.records
        )
        ranking_csv = "rank,kind,index_set,score\n" + "".join(
            f"{i},{a.descriptor.kind},{' '.join(map(str, a.descriptor.index_set))},"
            f"{np.dot(mu_hat, a.bits):.17g}\n"
            for i, a in enumerate(result.ranking)
        )
        out.mkdir(parents=True, exist_ok=True)
        files = {"pulls.csv": pulls_csv.encode(), "ranking.csv": ranking_csv.encode()}
        for name, data in files.items():
            (out / name).write_bytes(data)
        pulls = [{"bits": r.arm.bits, "loss": r.train_loss} for r in result.records]
        top3 = [
            {"kind": a.descriptor.kind, "index_set": a.descriptor.index_set, "val_mae": mae}
            for a, mae in top
        ]
        problems, quality, layer = discovery_checks(
            top3,
            pulls,
            [arm_key(a) for a in result.ranking],
            [arm_key(a) for a in arms],
            dcfg.T,
            (true.kind, tuple(true.index_set)),
        )
        return Outcome(dcfg.T, problems, files, quality, layer)


class BanditSim:
    name = "bandit-sim"

    def setup(self, seed, smoke, work):
        path = write_config(work, f"sim-seed{seed}", {"task": {"seed": seed}}, smoke)
        return cli.load_config(path), smoke

    def ops(self, inputs):
        cfg, _ = inputs
        return [("criterion-7", lambda: cli.run_bandit_sim(cfg))]

    def inspect(self, inputs, index, output):
        cfg, smoke = inputs
        out, rates = output
        sim = cfg["sim"]
        horizons = sorted(int(T) for T in sim["horizons"])
        trials = int(sim["trials"])
        rows = read_rows(out / "misid.csv")
        problems = []
        if [int(r["T"]) for r in rows] != horizons:
            problems.append(f"misid.csv horizons {[r['T'] for r in rows]} != {horizons}")
        if not all(0.0 <= rates[T] <= 1.0 for T in horizons):
            problems.append(f"misidentification rates outside [0, 1]: {rates}")
        monotone, bounded = criterion7(rates, horizons, trials)
        # The trend tests need the criterion-7 trial count to mean anything.
        if not smoke and not monotone:
            problems.append(f"misidentification rates are not monotone: {rates}")
        files = {"misid.csv": (out / "misid.csv").read_bytes()}
        quality = {"misid_rate_Tmax": rates[horizons[-1]], "misid_bounded": float(bounded)}
        return Outcome(trials * horizons[-1], problems, files, quality)


def criterion7(rates, horizons, trials):
    """The criterion-7 trend tests: (monotone, bounded by c log(T)/T)."""
    se = {T: math.sqrt(max(rates[T] * (1 - rates[T]), 1e-12) / trials) for T in horizons}
    monotone = all(
        rates[b] <= rates[a] + 1.96 * (se[a] + se[b]) for a, b in zip(horizons, horizons[1:])
    )
    first = horizons[0]
    c = rates[first] * first / math.log(first)
    bounded = all(rates[T] <= c * math.log(T) / T + 1.96 * se[T] for T in horizons)
    return monotone, bounded


class AblationSgdOnly:
    name = "ablation-sgd-only"
    TASK = "Z_I(5)"

    def setup(self, seed, smoke, work):
        path = write_config(
            work, f"sgd-only-seed{seed}", {"task": {"name": self.TASK, "seed": seed}}, smoke
        )
        cfg = cli.load_config(path)
        return cfg, tasks.builtin_polynomial(self.TASK).n

    def ops(self, inputs):
        cfg, _ = inputs
        return [(self.TASK, lambda: cli.run_discover(cfg, sgd_only=True))]

    def inspect(self, inputs, index, output):
        cfg, n = inputs
        out, report = output
        problems = []
        mae = report.get("val_mae")
        if mae is None or not math.isfinite(mae):
            problems.append(f"sgd-only validation MAE is not finite: {mae}")
        files = {f: (out / f).read_bytes() for f in ("m1.csv", "m2.csv")}
        for name, shape in (("m1.csv", (n, n)), ("m2.csv", (n * n, n * n))):
            got = np.loadtxt(out / name, delimiter=",", ndmin=2).shape
            if got != shape:
                problems.append(f"{name} has shape {got}, expected {shape}")
        t = cfg["training"]
        train_rows = int(cfg["task"]["sizes"][0])
        steps = int(t["epochs"]) * math.ceil(train_rows / int(t["batch_size"]))
        return Outcome(steps, problems, files, {"relaxed_val_mae": mae})


WORKLOADS = {
    w.name: w for w in (DiscoverScreened, DiscoverWide, BanditSim, AblationSgdOnly)
}
