"""Every name a module of the package imports is used in that module, and
every function and class a module defines is named in some module.

The package ``__init__`` is exempt from both: its imports are the public
API, and a definition that only ``__init__`` exports is reached by nothing
the package runs.
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


def defined_names(tree):
    """{name: line} for every module-level function and class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name: node.lineno for node in tree.body if isinstance(node, kinds)}


def referenced_names(tree):
    """Every name the module reads, as a Name, an Attribute or an imported name."""
    names = used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unreferenced_definitions(sources):
    """[(module, line, name)] for each definition no module of ``sources`` ({module: source}) names."""
    trees = {name: ast.parse(source, filename=name) for name, source in sources.items()}
    referenced = set().union(*map(referenced_names, trees.values()))
    return [
        (name, line, defined)
        for name, tree in trees.items()
        for defined, line in defined_names(tree).items()
        if defined not in referenced
    ]


def test_every_definition_is_named_in_the_package():
    # a function or class that only tests, demos or __init__ reach is code
    # the package does not need: it belongs in the tests or nowhere
    unused = unreferenced_definitions({p.name: p.read_text() for p in MODULES})
    assert not unused, f"definitions no module of the package names: {unused}"


def test_the_guard_sees_an_unreferenced_definition():
    sources = {
        "a.py": "from .b import used\n\ndef f():\n    return used() + B.method\n\nclass Spare:\n    pass\n",
        "b.py": "def used():\n    return f\n\ndef method():\n    pass\n\ndef spare():\n    pass\n",
    }
    assert unreferenced_definitions(sources) == [("a.py", 6, "Spare"), ("b.py", 7, "spare")]


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
