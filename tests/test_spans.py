"""The benchmark's tracer wraps package functions by name; a refactor that
drops or moves one of them must fail here, not only in a benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest
import yaml

from symforge import cli

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


@pytest.mark.parametrize(
    "module, name", [(mod, fn) for mod, fns in _spans().TRACED.items() for fn in fns]
)
def test_traced_name_is_a_function_of_its_module(module, name):
    fn = getattr(importlib.import_module(f"symforge.{module}"), name, None)
    assert inspect.isfunction(fn), f"symforge.{module}.{name}"
    assert fn.__module__ == f"symforge.{module}", fn.__module__


def test_every_span_is_reached(tmp_path):
    # A traced function that the commands no longer call would read 0 calls
    # in every benchmark run without failing it.  Tiny runs of both discover
    # modes and the simulator must call each traced name at least once.
    spans = _spans()
    path = tmp_path / "config.yaml"
    path.write_text(
        yaml.safe_dump(
            {
                "task": {"name": "S_I(4)", "sizes": [48, 16]},
                "arms": {"screen_repeats": 2},
                "bandit": {"T": 3},
                "training": {"epochs": 5},
                "sim": {"horizons": [5], "trials": 5},
                "output": {"dir": str(tmp_path / "runs")},
            }
        )
    )
    cfg = cli.load_config(path)
    tracer = spans.Tracer()
    with tracer.installed():
        cli.run_discover(cfg)
        cli.run_discover(cfg, sgd_only=True)
        cli.run_bandit_sim(cfg)
    assert [name for name, row in tracer.summary().items() if row["calls"] == 0] == []
