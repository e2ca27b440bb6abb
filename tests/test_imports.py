"""Package layout: every import in gammatrop sits at module level.

An import inside a function or class usually hides an import cycle; this
keeps the tropical layer acyclic: polyhedra imports lattice, never back.
"""

import ast
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
