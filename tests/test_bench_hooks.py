"""The traced benchmark run replaces the cross-module globals named in
bench/tracing.py's WRAPPED_GLOBALS with timing wrappers; each must exist
on the blrc module it names, or `bench/run.py --trace 1` fails."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_wrapped_globals_exist():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED_GLOBALS
    for module, name, _ in tracing.WRAPPED_GLOBALS:
        mod = importlib.import_module(f"blrc.{module}")
        assert callable(getattr(mod, name, None)), f"blrc.{module}.{name}"
