"""The scripts import names that exist, and the output digest runs.

The scripts in `scripts/` import refcycle functions by name.  Loading each
here (its ``main`` does not run) makes a move or rename in `src/` that leaves
one of those imports stale fail tier-1.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["equivalence_sweep", "allocation_demo", "output_digest"])
def test_script_loads_and_its_imports_resolve(name):
    assert callable(load(name).main)


def test_output_digest_is_reproducible_at_a_tiny_size(monkeypatch, capsys):
    digest = load("output_digest")
    monkeypatch.setattr(sys, "argv", ["output_digest.py", "--tables", "3", "--seed", "1"])
    commands = []
    cli_main = digest.cli_main
    monkeypatch.setattr(digest, "cli_main", lambda argv: commands.append(argv[0]) or cli_main(argv))
    outputs = []
    for _ in range(2):
        assert digest.main() == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    # the first table also runs one simulate -> analyze -> allocate chain,
    # analyze and one allocate again without the panel's cache, and analyze
    # at the longest windows on a panel the script writes, and simulate alone
    # under a constant and a myopic policy
    assert [commands.count(name) for name in ("simulate", "analyze", "allocate")] == [6, 6, 8]
    lines = outputs[0].splitlines()
    runs = int(lines[0].removeprefix("runs "))
    assert runs >= 6 and runs == sum(int(line.split(": ")[1]) for line in lines[1:-1])
    assert re.fullmatch(r"sha256 [0-9a-f]{64}", lines[-1])
