"""The code imports only what pyproject.toml declares: src/, tests/ and
demos/ import the standard library, numpy, pytest, termlq and the tests/
helper modules, nothing else. A host may have other packages installed
(scipy, hypothesis, sympy, mpmath), and a test that used one would pass
there and fail on a clean install."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
DECLARED = {"numpy", "pytest", "termlq"}
HELPERS = {path.stem for path in (REPO_ROOT / "tests").glob("*.py")}


def absolute_imports(path: Path):
    """(line, top-level package) of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_imports_are_stdlib_or_declared():
    allowed = set(sys.stdlib_module_names) | DECLARED | HELPERS
    sources = [path for top in ("src", "tests", "demos")
               for path in sorted((REPO_ROOT / top).rglob("*.py"))]
    assert len(sources) > 20
    undeclared = [f"{path.relative_to(REPO_ROOT)}:{line} imports {name}"
                  for path in sources for line, name in absolute_imports(path)
                  if name not in allowed]
    assert undeclared == []


def test_guard_sees_undeclared_imports(tmp_path):
    p = tmp_path / "probe.py"
    p.write_text("import os.path\nfrom scipy import linalg\nfrom . import sibling\n"
                 "def f():\n    import hypothesis.strategies\n")
    assert list(absolute_imports(p)) == [(1, "os"), (2, "scipy"), (5, "hypothesis")]
