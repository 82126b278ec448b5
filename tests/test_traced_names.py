"""The benchmark's traced run rebinds spkraug functions by name, so each name
it lists must still exist; a renamed one would fail that run with LookupError."""

import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH_TRACE = Path(__file__).resolve().parent.parent / "perfbench" / "bench_trace.py"


def _traced_names() -> list:
    """The `module.function` keys of bench_trace.TARGETS, read without
    instrumenting anything."""
    spec = importlib.util.spec_from_file_location("spkraug_bench_trace", BENCH_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted(module.TARGETS)


@pytest.mark.parametrize("qualified", _traced_names())
def test_traced_function_exists(qualified):
    module_name, func_name = qualified.split(".")
    module = importlib.import_module(f"spkraug.{module_name}")
    assert callable(getattr(module, func_name, None)), f"spkraug.{qualified}"
