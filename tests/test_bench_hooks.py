"""The benchmark's tracer (`perfbench/tracing.py`) wraps functions by name
where their callers bind them; every name it wraps must still exist, or
`perfbench/run.py --trace 1` breaks without any other test noticing."""

import importlib
import sys
from pathlib import Path

from orbiseif import engine

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_trace_hooks_exist():
    saved = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.path[:] = saved
    for owner, attr, name in tracing.SPANS:
        assert attr in vars(owner), name
    for owner, attrs, name in tracing.COUNTERS:
        for attr in attrs:
            assert attr in vars(owner), name
    assert callable(engine._derived_quantities_cached.cache_info)
    assert callable(engine._derived_quantities_cached.cache_clear)
