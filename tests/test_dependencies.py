"""Tier-1 guards on what ``src/repro`` imports.

The hot-path packages must start without scipy (it cost ~1.1 s of every
process start and ~65 MiB of resident memory for one ``norm.ppf``), and
every third-party package imported anywhere under ``src/repro`` must be
declared in ``pyproject.toml`` -- an undeclared one works on the
authoring box and fails on a clean install.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_hot_path_imports_leave_scipy_unloaded():
    code = (
        "import sys\n"
        "import repro.core.pipeline, repro.stream, repro.fleet.workers\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _third_party_imports():
    """``{top-level package: first file importing it}`` under src/repro."""
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, str(path.relative_to(ROOT)))
    return found


def _declared_packages():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    )["project"]
    requirements = list(project["dependencies"])
    for extra in project.get("optional-dependencies", {}).values():
        requirements.extend(extra)
    return {
        re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
        for r in requirements
    }


def test_every_third_party_import_is_declared():
    declared = _declared_packages()
    undeclared = {
        package: path
        for package, path in _third_party_imports().items()
        if package.lower() not in declared
    }
    assert not undeclared, "imported but not in pyproject.toml: {}".format(
        undeclared
    )
