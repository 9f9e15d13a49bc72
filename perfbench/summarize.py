"""Summarize benchmark results into one JSON document.

    python3 perfbench/summarize.py [--results .perfbench_out/results.jsonl] [--out FILE]

Reads the records that run.py appends to results.jsonl, skips smoke runs,
and reports per workload and metric the median, quartiles, spread (the
quartile distance over the median) and sample count, plus the determinism
digest of every seed.  It fails when two runs of the same code (package and
benchmark) and seed disagree on their digest.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(records):
    metrics = defaultdict(lambda: defaultdict(list))
    digests = defaultdict(lambda: defaultdict(set))
    env, problems = {}, []
    for rec in records:
        if rec["smoke"]:
            continue
        wl = rec["workload"]
        env.setdefault(rec["env"]["source_sha256"], rec["env"])
        code = (rec["env"]["source_sha256"], rec["env"].get("bench_sha256"))
        digests[wl][(str(rec["seed"]), code)].add(rec["digest"])
        if rec["run_problems"] or any("error" in op or op["problems"] for op in rec["ops"]):
            problems.append(f"{wl} seed {rec['seed']} trace {rec['trace']} failed its checks")
        for name, value in rec["metrics"].items():
            metrics[wl][name].append(value)
    out = {"environments": list(env.values()), "workloads": {}, "problems": problems}
    for wl, table in metrics.items():
        rows = {}
        for name, values in table.items():
            q1, med, q3 = quartiles(values)
            rows[name] = {
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
                "n": len(values),
            }
        by_seed = defaultdict(set)
        for (seed, _), seen in digests[wl].items():
            if len(seen) > 1:
                problems.append(f"{wl} seed {seed}: runs of the same code disagree on the digest")
            by_seed[seed] |= seen
        out["workloads"][wl] = {
            "metrics": rows,
            "digests": {seed: sorted(seen) for seed, seen in sorted(by_seed.items())},
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", type=Path, default=ROOT / ".perfbench_out" / "results.jsonl")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    with open(args.results) as fh:
        summary = summarize(json.loads(line) for line in fh if line.strip())
    text = json.dumps(summary, indent=1, sort_keys=True)
    if args.out:
        args.out.write_text(text + "\n")
    for wl, data in summary["workloads"].items():
        for name, row in data["metrics"].items():
            print(f"{wl:<18} {name:<40} median={row['median']:<12.6g} "
                  f"spread={row['spread']:.4f} n={row['n']}")
    for problem in summary["problems"]:
        print(f"PROBLEM {problem}", file=sys.stderr)
    return 1 if summary["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
