"""Every top-level import of a library module is used by that module.

`__init__.py` is exempt: it imports names only to re-export them.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "geen_garside"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom math import gcd, lcm\nprint(gcd(4, 6))\n"
    assert unused_imports(source) == ["os", "lcm"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []


def private_imports(source: str) -> list[str]:
    """Underscore names imported from a module of the package, at any depth;
    dunders such as `__version__` are public."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == SRC.name
        ):
            found += [
                a.name for a in node.names
                if a.name.startswith("_") and not a.name.endswith("__")
            ]
    return found


def test_the_check_sees_a_private_import():
    source = (
        "from . import __version__\n"
        "from os import _exit\n"
        "from .homology import _GenericDifferential, homology_group\n"
        "def f():\n    from geen_garside.interval import _bits\n"
    )
    assert private_imports(source) == ["_GenericDifferential", "_bits"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    """A library module uses only the public names of its siblings."""
    assert private_imports(path.read_text()) == []


ROOT = SRC.parent.parent
TREES = [ROOT / name for name in ("src", "tests", "demos", "perfbench")]


def definitions(tree: ast.Module) -> list[ast.AST]:
    """Top-level functions and classes, and the non-dunder methods of classes."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append(node)
        if isinstance(node, ast.ClassDef):
            found += [
                item
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (item.name.startswith("__") and item.name.endswith("__"))
            ]
    return found


def names_used(tree: ast.AST) -> list[str]:
    """Every name read or written as an ast.Name or an attribute."""
    used = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.append(node.id)
        elif isinstance(node, ast.Attribute):
            used.append(node.attr)
    return used


def transpose_reads(path: pathlib.Path) -> set[str]:
    """The names flip or _flip, the transpose permutation, where a module
    reads or writes them as an ast.Name or an attribute."""
    return {"flip", "_flip"} & set(names_used(ast.parse(path.read_text())))


def test_no_layer_above_the_interval_reads_the_transpose():
    """Only interval.py knows that the right order is the left order read
    through the transpose; the Garside and homology layers read left
    divisibility and complements alone.  The check sees interval.py's reads."""
    assert transpose_reads(SRC / "interval.py") == {"flip"}
    assert transpose_reads(SRC / "garside.py") == set()
    assert transpose_reads(SRC / "homology.py") == set()


def dead_definitions(library: dict[str, str], others: list[str]) -> list[str]:
    """Definitions of the library sources named nowhere but inside themselves.

    A name counts as used when it occurs in any source outside its own
    definition; uses are matched by name alone, so two definitions that share
    a name keep each other alive.
    """
    trees = {path: ast.parse(text) for path, text in library.items()}
    used: dict[str, int] = {}
    for tree in list(trees.values()) + [ast.parse(text) for text in others]:
        for name in names_used(tree):
            used[name] = used.get(name, 0) + 1
    dead = []
    for path, tree in trees.items():
        for node in definitions(tree):
            if used.get(node.name, 0) == names_used(node).count(node.name):
                dead.append(f"{path}:{node.name}")
    return dead


def test_the_check_sees_a_dead_definition():
    library = {
        "lib.py": (
            "def used():\n    return 1\n"
            "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
            "class Box:\n    def live(self):\n        return 1\n"
            "    def dead(self):\n        return 2\n"
            "    def __repr__(self):\n        return 'Box'\n"
        )
    }
    others = ["from lib import used, Box\nprint(used(), Box().live())\n"]
    assert dead_definitions(library, others) == ["lib.py:recursive", "lib.py:dead"]


def test_no_dead_definitions():
    """Each top-level function or class of the library, and each non-dunder
    method of its classes, is named somewhere in src, tests, demos or
    perfbench besides its own definition."""
    library = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    others = [
        path.read_text()
        for tree in TREES
        for path in sorted(tree.rglob("*.py"))
        if path.parent != SRC
    ]
    assert dead_definitions(library, others) == []


def test_import_footprint_and_version_exit():
    """Importing the package and its CLI module loads none of dataclasses,
    inspect or argparse; argparse comes in only when a parser is built.  A
    command on small integers does not load `decimal`, which reads only a
    count of over 640 digits."""
    script = (
        "import json, sys\n"
        "import geen_garside, geen_garside.cli\n"
        "loaded = [m for m in ('dataclasses', 'inspect', 'argparse') if m in sys.modules]\n"
        "code = geen_garside.cli.run(['--version'])\n"
        "element = '{\"e\":3,\"n\":2,\"perm\":[2,1],\"exps\":[1,2]}'\n"
        "code += geen_garside.cli.run(['length', '--e', '3', '--n', '2', '--element', element])\n"
        "loaded += [m for m in ('decimal',) if m in sys.modules]\n"
        "print(json.dumps({'loaded': loaded, 'code': code}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"loaded": [], "code": 0}
