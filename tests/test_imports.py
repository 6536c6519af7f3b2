"""Every name a module of the package imports is used in that module.

The package ``__init__`` is exempt: its imports are the public API.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import drinfeldforms

PACKAGE = Path(drinfeldforms.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """{bound name: line} for every import statement in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_guard_sees_an_unused_import():
    tree = ast.parse("from .rings import Poly, poly_gcd\nimport os\n\ndef f():\n    return Poly\n")
    assert set(imported_names(tree)) - used_names(tree) == {"poly_gcd", "os"}


def test_the_cli_loads_no_process_pool():
    # verify imports the pool inside run_suite, only when it starts workers,
    # so a run in one process pays for no multiprocessing
    code = (
        "import sys, drinfeldforms.cli\n"
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
