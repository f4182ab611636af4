"""The benchmark's tracer wraps functions of the program by name: each of
them must still exist, or ``perfbench/run.py --trace 1`` fails."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{name}"
               for module, name, _, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(
                   f"discerning_td.{module}"), name, None))]
    assert tracing.TARGETS and not missing, missing
