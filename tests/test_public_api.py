"""The public surface: every exported name resolves, and the README's example runs.

A retirement that leaves a stale ``__all__`` entry, or that breaks the
documented quick start, fails here.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import refcycle

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ["refcycle", *sorted(m.name for m in pkgutil.walk_packages(refcycle.__path__, "refcycle."))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_readme_library_quick_start_runs(capsys):
    section = README.read_text().split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
