"""The benchmark's tracer wraps package functions by name; a refactor that
drops or moves one of them must fail here, not only in a benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


@pytest.mark.parametrize(
    "module, name", [(mod, fn) for mod, fns in _traced().items() for fn in fns]
)
def test_traced_name_is_a_function_of_its_module(module, name):
    fn = getattr(importlib.import_module(f"symforge.{module}"), name, None)
    assert inspect.isfunction(fn), f"symforge.{module}.{name}"
    assert fn.__module__ == f"symforge.{module}", fn.__module__
