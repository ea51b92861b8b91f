"""Source checks on the library modules, with the standard library's `ast`."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "lipfree"
# __init__.py imports names to re-export them, so it is left out.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names an import statement binds that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in read)


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level functions and constants (one leading underscore)
    that no module of `sources` reads, by name or as a module attribute."""
    defined, read = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{module} line {node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(f"{name} ({where})" for name, where in defined.items() if name not in read)


def test_no_unread_private_names():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unread_private_names(sources) == []


def test_unread_private_name_is_reported():
    sources = {
        "a.py": ("_USED = 1\n"
                 "_ORPHAN: int = 2\n"
                 "_READ_ELSEWHERE = 3\n"
                 "def _helper():\n"
                 "    return _USED\n"
                 "def _orphan_helper():\n"
                 "    return 0\n"
                 "def public():\n"
                 "    return _helper()\n"),
        "b.py": ("from . import a\n"
                 "print(a._READ_ELSEWHERE)\n"),
    }
    assert unread_private_names(sources) == ["_ORPHAN (a.py line 2)",
                                             "_orphan_helper (a.py line 6)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "import os.path\n"
              "from .covers import build_net_cover, order as family_order\n"
              "build_net_cover(np.zeros(1), os.sep)\n")
    assert unused_imports(source) == ["family_order (line 4)"]


# What a library module may import: the runtime dependencies pyproject.toml
# declares (numpy) and the package itself, besides the standard library.
ALLOWED_IMPORTS = set(sys.stdlib_module_names) | {"numpy", "lipfree"}


def test_lp_module_keeps_the_benchmark_contract():
    # the benchmark's tracer imports `lipfree.lp` as a layer and reads a
    # public `solve` or `solve_min_sparse` as a simplex, and its `setup_s`
    # times `import lipfree`, which module-level imports would slow
    import lipfree.lp as lp
    assert not hasattr(lp, "solve") and not hasattr(lp, "solve_min_sparse")
    tree = ast.parse((SRC / "lp.py").read_text())
    names = [alias.name for node in tree.body if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module if not node.level else "." for node in tree.body
              if isinstance(node, ast.ImportFrom)]
    assert [name for name in names
            if name.split(".")[0] not in set(sys.stdlib_module_names) | {"numpy"}] == []


def foreign_imports(source: str) -> list[str]:
    """Modules an import statement names, at any depth of the source, whose
    top-level package is not in ALLOWED_IMPORTS; relative imports are the
    package's own."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.split(".")[0] not in ALLOWED_IMPORTS]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_lipfree(path):
    assert foreign_imports(path.read_text()) == []


def test_foreign_import_is_reported():
    source = ("from __future__ import annotations\n"
              "import scipy\n"
              "import os.path, numpy.linalg as la\n"
              "from . import lp\n"
              "from .spaces import DEFAULT_TOL\n"
              "from lipfree.certs import make_certificate\n"
              "def solve():\n"
              "    from scipy.optimize import linprog\n"
              "    import networkx as nx, json\n")
    assert foreign_imports(source) == ["scipy (line 2)", "scipy.optimize (line 8)",
                                       "networkx (line 9)"]


def private_imports(source: str) -> list[str]:
    """Private names (one leading underscore) a module takes from another
    module of the package: by `from .mod import _name`, or as an attribute
    `mod._name` of a package module it imported."""
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname for alias in node.names
                        if alias.name.startswith("lipfree.") and alias.asname}
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "lipfree"):
            for alias in node.names:
                if node.module in (None, "lipfree"):
                    modules.add(alias.asname or alias.name)
                elif private(alias.name):
                    found.append((node.lineno, alias.name))
    found += [(node.lineno, node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and private(node.attr)]
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_no_private_imports_across_modules():
    found = {p.name: private_imports(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def test_private_import_is_reported():
    source = ("from . import lp as lpmod, spaces\n"
              "from .freenorm import WeightOperator, _sparse_rows, __version__\n"
              "from lipfree.gluing import _mcshane_values\n"
              "import lipfree.certs as certsmod\n"
              "from numpy import _NoValue\n"
              "lpmod._tableau, spaces.DEFAULT_TOL, spaces._hash_rows\n"
              "certsmod._canonical, other._private, self._cache\n")
    assert private_imports(source) == ["_sparse_rows (line 2)", "_mcshane_values (line 3)",
                                       "_hash_rows (line 6)", "_tableau (line 6)",
                                       "_canonical (line 7)"]


def json_dump_calls(source: str) -> list[int]:
    """Lines that call json.dump, the streaming pure-Python encoder, through
    the json module (under any alias) or a name imported from it."""
    tree = ast.parse(source)
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names if alias.name == "json"}
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            functions |= {alias.asname or alias.name for alias in node.names
                          if alias.name == "dump"}
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Attribute) and node.func.attr == "dump"
        and isinstance(node.func.value, ast.Name) and node.func.value.id in modules
        or isinstance(node.func, ast.Name) and node.func.id in functions))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_json_dump(path):
    # reports go through one-shot encodes, which run CPython's C encoder
    assert json_dump_calls(path.read_text()) == []


def test_json_dump_call_is_reported():
    source = ("import json\n"
              "import json as js\n"
              "from json import dump, dump as put, dumps\n"
              "json.dumps({})\n"
              "json.dump({}, fh)\n"
              "js.dump({}, fh)\n"
              "dump({}, fh)\n"
              "put({}, fh)\n"
              "dumps({})\n"
              "pickle.dump({}, fh)\n")
    assert json_dump_calls(source) == [5, 6, 7, 8]
