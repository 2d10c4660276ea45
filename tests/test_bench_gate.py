"""The benchmark's certificate gate imports names that exist.

`perfbench/gate.py` imports refcycle functions by name to recompute every
benchmark output.  A move or rename in `src/` that leaves one of those imports
stale breaks the benchmark; loading the gate here makes it fail tier-1 first.
"""

import importlib.util
from pathlib import Path

from refcycle import core, oracle

GATE = Path(__file__).resolve().parents[1] / "perfbench" / "gate.py"


def load_gate():
    spec = importlib.util.spec_from_file_location("perfbench_gate", GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gate_loads_and_its_checks_resolve():
    gate = load_gate()
    for name in ("check_solve", "check_oracle", "check_tightness", "check_reduce",
                 "check_simulate", "check_analyze", "check_allocation", "check_fit"):
        assert callable(getattr(gate, name)), name
    # the oracle re-exports the one exact objective, which lives in core
    assert gate.exact_objective is core.exact_objective is oracle.exact_objective
