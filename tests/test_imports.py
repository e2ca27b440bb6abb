"""Package layout: every import in gammatrop sits at module level, and
every name a module exports in `__all__` exists.

An import inside a function or class usually hides an import cycle; this
keeps the tropical layer acyclic: polyhedra imports lattice, never back.
"""

import ast
import importlib
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
