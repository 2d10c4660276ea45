"""The experiment scripts import names that exist.

`scripts/equivalence_sweep.py` and `scripts/allocation_demo.py` import refcycle
functions by name.  Loading each here (its ``main`` does not run) makes a move
or rename in `src/` that leaves one of those imports stale fail tier-1.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name", ["equivalence_sweep", "allocation_demo"])
def test_script_loads_and_its_imports_resolve(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
