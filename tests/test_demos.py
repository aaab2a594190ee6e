"""The demos run end to end, and the names they and the README import from
termlq are the package's public surface."""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import termlq
from test_cli import checkout_env

REPO_ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


def termlq_imports(source: str) -> set[str]:
    """Names a Python source imports with `from termlq import ...`."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "termlq"
            for alias in node.names}


def readme_python_blocks() -> list[str]:
    text = (REPO_ROOT / "README.md").read_text()
    return re.findall(r"```python\n(.*?)```", text, re.S)


def test_four_demos_present():
    assert [d.name for d in DEMOS] == ["campaign.py", "learn_from_data.py",
                                       "solve_and_rollout.py", "verify_with_kkt.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=checkout_env(), cwd=REPO_ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_demo_and_readme_imports_are_public():
    sources = [d.read_text() for d in DEMOS] + readme_python_blocks()
    used = set().union(*(termlq_imports(src) for src in sources))
    assert used, "no termlq imports found"
    assert used <= set(termlq.__all__), sorted(used - set(termlq.__all__))


def test_public_names_resolve():
    assert len(termlq.__all__) == len(set(termlq.__all__))
    for name in termlq.__all__:
        assert hasattr(termlq, name), name
