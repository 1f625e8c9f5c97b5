"""The benchmark's tracer patches treerisk names; each must still exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"treerisk.{layer}.{name}"
        for layer, table in tracing.CATEGORIES.items()
        for name in table
        if not hasattr(importlib.import_module(f"treerisk.{layer}"), name)
    ]
    assert missing == []
