"""Every third-party module a test or demo imports is a declared dependency.

This parses each ``.py`` file under ``tests/`` and ``demos/`` with ``ast``.
An absolute import whose top-level name is neither in the standard library
nor a module of this repository (the package under ``src/``, a test or demo
module) must name a runtime dependency or one of the ``test`` extra in
``pyproject.toml``.  Reading that file takes ``tomllib``, so the check is
skipped below Python 3.11.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib", reason="tomllib needs Python 3.11")

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("tests", "demos") for p in (ROOT / d).glob("*.py"))
LOCAL = ({p.stem for p in FILES}
         | {p.name for p in (ROOT / "src").iterdir() if p.is_dir()})


def _declared():
    """The import names of the runtime dependencies and the test extra."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text("utf-8"))
    project = project["project"]
    reqs = project["dependencies"] + project["optional-dependencies"]["test"]
    return {re.match(r"[A-Za-z0-9._-]+", r).group().lower().replace("-", "_")
            for r in reqs}


def _third_party(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.partition(".")[0])
    return names - set(sys.stdlib_module_names) - LOCAL


def test_the_test_extra_holds_the_test_tools():
    assert {"pytest", "hypothesis", "sympy"} <= _declared()


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_third_party_imports_are_declared(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert sorted(_third_party(tree) - _declared()) == []
