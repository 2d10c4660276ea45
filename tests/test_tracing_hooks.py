"""The benchmark tracer's hook table names attributes that exist.

`perfbench/tracing.py` wraps refcycle functions at the module attributes their
callers look them up by.  A rename in `src/` that leaves a stale entry there
breaks `perfbench/run.py --trace 1`; this test makes it fail here as well.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_hook_resolves():
    tracing = load_tracing()
    assert tracing.HOOKS
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, _, _ in tracing.HOOKS
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []
    # the tracer also wraps the state-graph constructor by name
    assert "build" in importlib.import_module("refcycle.oracle").StateGraph.__dict__
