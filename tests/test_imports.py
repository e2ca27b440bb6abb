"""Package layout: every import in gammatrop sits at module level and is
used, every name a module exports in `__all__` exists, every
module-level function or class is referenced or exported, and importing
the package loads neither sympy nor scipy, which only the tests use.

An import inside a function or class usually hides an import cycle; this
keeps the tropical layer acyclic: polyhedra imports lattice, never back.
"""

import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gammatrop"


def test_no_import_below_module_level():
    nested = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope in ast.walk(tree):
            if not isinstance(
                scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
            ):
                continue
            for node in ast.walk(scope):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    nested.append(f"{path.relative_to(SRC.parent)}:{node.lineno}")
    assert not nested, f"imports below module level: {sorted(set(nested))}"


def test_every_export_resolves():
    stale = []
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = importlib.import_module(".".join(parts))
        stale += [
            f"{module.__name__}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert not stale, f"names in __all__ that do not resolve: {stale}"


def test_no_unused_import():
    # a package __init__ imports to re-export; any other module must use
    # each name it imports, or export it in __all__
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                used |= set(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.relative_to(SRC.parent)}:{node.lineno} {name}")
    assert not unused, f"unused imports: {unused}"


def test_no_unreferenced_definition():
    # every module-level function or class is used somewhere in src/
    # outside its own body, or exported in an __all__; a helper whose last
    # caller went, such as an old polygon sort, fails here
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.rglob("*.py"))}

    def references(node):
        return Counter(
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        )

    used = sum((references(tree) for tree in trees.values()), Counter())
    exported = set()
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                exported |= set(ast.literal_eval(node.value))
    unused = [
        f"{path.relative_to(SRC.parent)}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in exported
        and used[node.name] == references(node)[node.name]
    ]
    assert not unused, f"definitions nothing references: {unused}"


def loaded_by_package_import(top: str) -> list[str]:
    """The modules of package `top` that a fresh interpreter has loaded
    after importing gammatrop, gammatrop.periods and gammatrop.tropical."""
    code = (
        "import sys\n"
        "import gammatrop, gammatrop.periods, gammatrop.tropical\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {top!r}))\n"
    )
    path = [str(SRC.parent)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return ast.literal_eval(out.stdout.strip())


def test_package_import_loads_no_sympy():
    # sympy is a test-only reference; the exact layer has its own ring, and
    # importing sympy would double the start-up time of every run
    loaded = loaded_by_package_import("sympy")
    assert not loaded, f"importing gammatrop loaded {loaded}"


def test_package_import_loads_no_scipy():
    # scipy is a test-only reference too: K0 and zeta are the package's
    # own, and importing scipy.special cost more than half of every start
    loaded = loaded_by_package_import("scipy")
    assert not loaded, f"importing gammatrop loaded {loaded}"


def test_no_module_imports_scipy():
    # numpy is the only runtime dependency (pyproject.toml)
    imports = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            imports += [
                f"{path.relative_to(SRC.parent)}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] == "scipy"
            ]
    assert not imports, f"modules that import scipy: {imports}"
