"""The benchmark's traced run wraps gbmoments functions by name; a renamed
or deleted one would only show when that slow run fails.  This reads the
names from bench/tracing.py, which imports nothing from gbmoments, and
writes no bytecode next to it."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_boundaries_name_existing_functions(monkeypatch):
    tracing = load_tracing(monkeypatch)
    assert tracing.BOUNDARIES
    for span, (module, functions, _) in tracing.BOUNDARIES.items():
        namespace = importlib.import_module(f"gbmoments.{module}")
        for function in functions:
            assert callable(getattr(namespace, function, None)), (span, function)
    # the bench worker reads the graph cache's counters
    from gbmoments import moments

    assert callable(moments._graph_exponent.cache_info)
