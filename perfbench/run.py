"""symforge benchmark: times calls into the package's public functions.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N [--smoke]

Run from the repository root; the package is imported from `src/`.  One run
sets up its inputs several times, then runs whole rounds of the workload's
operations, at least one, and no round that would end after --seconds.  It
checks every operation's output and prints, as its last line, one JSON
object: end-to-end metrics with --trace 0, per-layer metrics with --trace 1.

Times are nominal seconds (see refclock.py): a timer runs a fixed
reference kernel in short slices between the program's own steps, and each
interval's wall time, less those slices, is scaled by how fast the slices
ran in it.  That cancels the host's changes in speed, which otherwise
spread whole-run medians by 15-30%.  The times before scaling (wall time
less slices, `wall.*`) are per-layer metrics of the traced run.

Set-up time is the package import time plus the median of three timed
input set-ups.

The timed rounds start cold, as one `symforge` command does.  A traced run
first does all an untraced run does and one more round, now warm, then
wraps the public functions with timing spans (see spans.py) and runs
set-up and one round again; the traced round's nominal time over the warm
untraced one's, minus 1, is the tracing overhead.  Spans read a clock that
stands still while reference slices run, so per-layer times are wall time
less slices.

`--workload all` runs every workload, untraced and traced, each in its own
process, and prints all metrics as a table.  `--smoke` shrinks every
workload to a few seconds and checks that each metric named in
BENCHMARK.json is printed with its unit.

Outputs (run directories, span files, results.jsonl) go to .perfbench_out/.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: one process, one BLAS thread.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

LOAD_AT_START = os.getloadavg()
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
import refclock  # noqa: E402  (loads numpy and scipy.linalg)

SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
MIN_SLICES = 3
WORKLOAD_NAMES = ("discover-screened", "discover-wide", "bandit-sim", "ablation-sgd-only")


def import_package(clock) -> refclock.Lap:
    """Import the package from this checkout's src/ and time it."""
    if not (SRC / "symforge" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'symforge'} not found; run from a symforge checkout")
    sys.path.insert(0, str(SRC))
    mark = clock.mark()
    import symforge.cli  # noqa: F401  (loads bandit, net, selection, tasks, relaxed)

    lap = clock.lap(mark)
    if Path(symforge.cli.__file__).resolve().parent != SRC / "symforge":
        sys.exit(f"error: symforge imported from {symforge.cli.__file__}, not {SRC}")
    return lap


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_at_start": LOAD_AT_START,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "git_sha": git_sha(),
        "source_sha256": tree_digest(SRC / "symforge"),
        "bench_sha256": tree_digest(Path(__file__).resolve().parent),
    }


def blas_threads(np):
    """OpenBLAS's own thread count when its library can be found, else the
    value fixed through the environment."""
    import ctypes
    import glob

    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libs_dir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return int(BLAS_THREADS)


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or None


def tree_digest(directory: Path) -> str:
    """sha256 over the Python files under a directory."""
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_round(wl, inputs, records, clock, tracer=None, offset=0):
    """Run one round of operations; append a record per operation.  An
    operation's `seconds` is its wall time less the reference slices in it."""
    for i, (label, call) in enumerate(wl.ops(inputs)):
        if tracer is not None:
            tracer.op = f"op{offset + i}"
        mark = clock.mark()
        try:
            output = call()
        except Exception:
            lap = clock.lap(mark)
            records.append({"label": label, "seconds": lap.work_s, "lap": lap,
                            "error": traceback.format_exc()})
            continue
        lap = clock.lap(mark)
        seconds = lap.work_s
        if tracer is not None:
            tracer.op = "inspect"
        try:
            outcome = wl.inspect(inputs, i, output)
        except Exception:
            records.append({"label": label, "seconds": seconds, "error": traceback.format_exc()})
            continue
        records.append(
            {
                "label": label,
                "seconds": seconds,
                "lap": lap,
                "steps": outcome.steps,
                "digest": outcome.digest,
                "problems": outcome.problems,
                "quality": outcome.quality,
                "layer": outcome.layer,
            }
        )


def measure(wl, inputs, seconds, clock, rounds=None, tracer=None):
    """Whole rounds: a fixed number, or as many as end within `seconds`
    of wall time (always at least one)."""
    records = []
    t0 = time.perf_counter()
    done = 0
    while True:
        start = time.perf_counter()
        run_round(wl, inputs, records, clock, tracer, offset=len(records))
        done += 1
        now = time.perf_counter()
        if rounds is not None:
            if done >= rounds:
                break
        elif now + (now - start) > t0 + seconds:
            break
    return records, done


def failures(records):
    return [r for r in records if "error" in r or r["problems"]]


def mean_of(records, section, key):
    values = [
        r[section][key]
        for r in records
        if "error" not in r and r[section].get(key) is not None
    ]
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer, records, traced_s, overhead):
    """Per-layer metrics from one traced round and its set-up; `traced_s`
    is the round's wall time less slices."""
    run_ops = {f"op{i}" for i in range(len(records))}
    table = tracer.summary(ops=run_ops | {"setup"})
    metrics = {}
    for name, row in table.items():
        metrics[f"{name}_s"] = (row["total"], "s")
        metrics[f"{name}_self_s"] = (row["self"], "s")
        metrics[f"{name}_calls"] = (row["calls"], "count")
        per_call = row["total"] / row["calls"] * 1e6 if row["calls"] else 0.0
        metrics[f"{name}_us"] = (per_call, "us")
    sgd, steps = table["net.train_sgd"], table["net.loss_and_grad"]["calls"]
    metrics["net.step_us"] = (sgd["total"] / steps * 1e6 if steps else 0.0, "us")
    metrics["bandit.distinct_arm_ratio"] = (
        mean_of(records, "layer", "distinct_arm_ratio"),
        "ratio",
    )
    metrics["bandit.top3_retrained"] = (
        tracer.children_of("bandit.evaluate_top_arms", "net.train_sgd", run_ops),
        "count",
    )
    metrics["selection.arm_count"] = (
        sum(r["layer"].get("arm_count", 0) for r in records if "error" not in r),
        "count",
    )
    for key in (
        "top3_hit_rate",
        "true_arm_val_mae",
        "top1_val_mae",
        "diverged_pull_ratio",
        "misid_rate_Tmax",
        "relaxed_val_mae",
    ):
        unit = "ratio" if key.endswith(("rate", "ratio", "Tmax")) else "1"
        metrics[f"quality.{key}"] = (mean_of(records, "quality", key), unit)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics["trace.self_coverage"] = (
        sum(row["self"] for row in tracer.summary(ops=run_ops).values()) / traced_s,
        "ratio",
    )
    metrics["trace.span_count"] = (len(tracer.spans), "count")
    return metrics


def round_digest(records, per_round):
    """One digest of a round's outputs, or None when rounds disagree."""
    digests = [r.get("digest") for r in records]
    first = digests[:per_round]
    if None in first or any(d != first[i % per_round] for i, d in enumerate(digests)):
        return None
    return hashlib.sha256("".join(first).encode()).hexdigest()


def check_digest(key: str, digest: str) -> str | None:
    """Compare with the digest an earlier run of the same code and seed
    recorded; record it if there is none."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known and known[key] != digest:
        return f"determinism digest {digest[:16]} differs from an earlier run's {known[key][:16]}"
    known[key] = digest
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return None


def nominal(laps, clock):
    """Nominal seconds of some intervals, each scaled by the slices run in
    it; an interval too short to hold MIN_SLICES slices is scaled by the
    mean slice of the whole run."""
    run_mean = clock.slice_total_s / clock.slices
    return sum(
        lap.nominal_s(lap.slice_s / lap.slices if lap.slices >= MIN_SLICES else run_mean)
        for lap in laps
    )


def run_one(args) -> int:
    clock = refclock.Clock()
    clock.start()
    try:
        return measure_and_report(args, clock)
    finally:
        clock.stop()


def measure_and_report(args, clock) -> int:
    import_lap = import_package(clock)
    import workloads

    env = environment()
    wl = workloads.WORKLOADS[args.workload]()
    work = OUT / ("smoke" if args.smoke else "full")

    setup_laps = []
    for _ in range(SETUP_REPEATS):
        mark = clock.mark()
        inputs = wl.setup(args.seed, args.smoke, work)
        setup_laps.append(clock.lap(mark))

    records, rounds = measure(wl, inputs, args.seconds, clock)
    setup_s = nominal([import_lap], clock) + statistics.median(
        nominal([lap], clock) for lap in setup_laps
    )
    # Per round, so a faster program that fits more rounds in --seconds
    # does not read as a slower one.
    run_total_s = nominal([r["lap"] for r in records], clock)
    run_s = run_total_s / rounds
    wall_run_s = sum(r["seconds"] for r in records) / rounds
    run_problems = []
    warm, traced = [], []

    if args.trace:
        import spans

        warm, _ = measure(wl, inputs, args.seconds, clock, rounds=1)

        tracer = spans.Tracer(clock=clock.work_time)
        with tracer.installed():
            traced_inputs = wl.setup(args.seed, args.smoke, work)
            traced, _ = measure(wl, traced_inputs, args.seconds, clock, rounds=1, tracer=tracer)
        clock.stop()
        metrics = layer_metrics(
            tracer,
            traced,
            sum(r["seconds"] for r in traced),
            nominal([r["lap"] for r in traced], clock)
            / nominal([r["lap"] for r in warm], clock)
            - 1.0,
        )
        metrics["wall.run_s"] = (wall_run_s, "s")
        metrics["wall.setup_s"] = (
            import_lap.work_s + statistics.median(lap.work_s for lap in setup_laps),
            "s",
        )
        metrics["refclock.slice_ms"] = (clock.slice_total_s / clock.slices * 1e3, "ms")
        coverage = metrics["trace.self_coverage"][0]
        if not 0.98 <= coverage <= 1.0 + 1e-9:
            run_problems.append(f"span self times cover {coverage:.4f} of the traced run")
        tracer.write(OUT / "spans" / f"{args.workload}-seed{args.seed}.csv.gz")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (run_s, "s"),
            "steps_per_s": (sum(r.get("steps", 0) for r in records) / run_total_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    all_records = records + warm + traced
    digest = round_digest(all_records, len(records) // rounds)
    if digest is None:
        run_problems.append("outputs differ between rounds, or with and without tracing")
    else:
        key = (f"{args.workload} seed={args.seed} smoke={args.smoke} "
               f"src={env['source_sha256']} bench={env['bench_sha256']}")
        mismatch = check_digest(key, digest)
        if mismatch:
            run_problems.append(mismatch)

    failed = failures(all_records)
    for r in failed:
        print(f"FAILED {args.workload} {r['label']}: {r.get('error') or r['problems']}",
              file=sys.stderr)
    for problem in run_problems:
        print(f"FAILED {args.workload}: {problem}", file=sys.stderr)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "env": env,
        "import_lap": vars(import_lap),
        "setup_laps": [vars(lap) for lap in setup_laps],
        "slice_mean_s": clock.slice_total_s / clock.slices,
        "rounds": rounds,
        "digest": digest,
        "ops": [{**r, "lap": vars(r["lap"])} for r in all_records],
        "run_problems": run_problems,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(detail, sort_keys=True) + "\n")

    op_s_p50 = statistics.median(nominal([r["lap"]], clock) for r in records)
    print(f"# {args.workload} seed={args.seed} rounds={rounds} ops={len(records)} "
          f"op_s_p50={op_s_p50:.3f} digest={digest}")
    for r in records[: len(records) // rounds]:
        print(f"# quality {r['label']}: {json.dumps(r.get('quality'), sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": not failed and not run_problems,
        "attempted": len(all_records),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced and traced, each in its own process."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    ok, attempted, failed, combined = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != expected[trace]:
                missing = sorted(set(expected[trace].items()) - set(printed.items()))
                extra = sorted(set(printed.items()) - set(expected[trace].items()))
                print(f"{name} trace={trace}: metric names or units differ from "
                      f"BENCHMARK.json; missing {missing}, unexpected {extra}", file=sys.stderr)
                ok = False
            ok = ok and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for line in lines[:-1]:
                print(f"{name:<18} {line}")
            for metric, value in result["metrics"].items():
                combined[f"{name}/{metric}"] = value
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, check metric names")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
