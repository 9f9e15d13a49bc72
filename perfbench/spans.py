"""In-memory span tracer that wraps the package's public functions.

`Tracer.installed()` replaces every module attribute that refers to a traced
function with a timing wrapper, in each module where the name is looked up:
`bandit` imports `train_sgd` from `net`, so `run_discovery` calls
`bandit.train_sgd`, while `train_sgd` calls `net.loss_and_grad`.  Patching
by object identity across all package modules covers both cases.  The
original attributes are restored on exit.

A span is (name, start, end, parent index, operation label).  Spans stay in
memory until `write` is called at the end of the run.
"""

from __future__ import annotations

import gzip
import importlib
import time
from contextlib import contextmanager
from pathlib import Path

# Public functions timed in a traced run, by defining module.
TRACED = {
    "cli": ("run_discover", "run_bandit_sim"),
    "bandit": (
        "run_discovery",
        "screen_coordinates",
        "evaluate_top_arms",
        "posterior_sample",
        "posterior_update",
        "simulate_linear",
        "lints_play_counts",
    ),
    "net": ("train_sgd", "loss_and_grad", "mean_loss", "train_reference_mlp", "evaluate"),
    "selection": ("enumerate_arms",),
    "tasks": ("make_splits",),
    "relaxed": ("train_relaxed", "loss_and_grad_relaxed", "evaluate_relaxed"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.modules = {name: importlib.import_module(f"symforge.{name}") for name in TRACED}
        self.spans: list = []
        self.op = "setup"
        self._stack: list[int] = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        wrappers = {}
        for mod, fns in TRACED.items():
            for fn_name in fns:
                fn = getattr(self.modules[mod], fn_name)
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{mod}.{fn_name}"))
        patched = []
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def summary(self, ops=None):
        """Per span name: total, self and call count over the given ops.

        Self time is a span's duration minus the durations of its direct
        children; spans are strictly nested because the run is one thread.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"total": 0.0, "self": 0.0, "calls": 0} for name in SPAN_NAMES}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if ops is not None and op not in ops:
                continue
            row = out[name]
            row["total"] += end - start
            row["self"] += end - start - child[i]
            row["calls"] += 1
        return out

    def children_of(self, parent_name, child_name, ops=None):
        """Number of `child_name` spans directly under a `parent_name` span."""
        count = 0
        for name, _, _, parent, op in self.spans:
            if name == child_name and parent >= 0 and self.spans[parent][0] == parent_name:
                count += ops is None or op in ops
        return count

    def write(self, path: Path):
        """Spans as gzipped CSV, times in microseconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("index,parent,op,name,start_us,end_us\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    f"{i},{parent},{op},{name},"
                    f"{(start - t0) * 1e6:.1f},{(end - t0) * 1e6:.1f}\n"
                )
