"""List every ``def`` / ``class`` under ``src/repro`` that nothing references.

A definition counts as referenced when its name appears anywhere in
``src/`` or ``benchmarks/`` outside its own body — as a name, an
attribute, an import in a module, or a string constant (the ledger binds
callables by name).  A package ``__init__``'s imports and its ``__all__``
strings are re-exports, not uses, and do not count; neither do dunder
methods, which the language calls.  Names match by spelling alone, so a
listed definition has no reference at all, while one that shares its name
with a used one is never listed.

Run from the repository root::

    python tests/unreferenced_names.py

It prints one ``path:line kind name`` per unreferenced definition and
exits 0: the list is for reading (tests, oracles and public entry points
are expected on it), not a gate.
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINED_UNDER = ROOT / "src" / "repro"
SEARCHED = (ROOT / "src", ROOT / "benchmarks")


def _is_reexport(path: Path, node: ast.AST, parents: dict[ast.AST, ast.AST]) -> bool:
    """An ``__init__`` import, or a string inside its ``__all__``."""
    if path.name != "__init__.py":
        return False
    if isinstance(node, ast.alias):
        return True
    while node in parents:
        node = parents[node]
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return True
    return False


def _mentions(tree: ast.AST):
    """``(node, name)`` for every spelling of a name the tree uses."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node, node.id
        elif isinstance(node, ast.Attribute):
            yield node, node.attr
        elif isinstance(node, ast.alias):
            yield node, (node.asname or node.name).split(".")[-1]
            if node.asname:
                yield node, node.name.split(".")[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node, node.value


def main() -> int:
    definitions = []  # (path, line, end line, kind, name)
    references: dict[str, list[tuple[Path, int]]] = defaultdict(list)
    for top in SEARCHED:
        for path in sorted(top.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            parents = {
                child: parent
                for parent in ast.walk(tree)
                for child in ast.iter_child_nodes(parent)
            }
            for node, name in _mentions(tree):
                if not _is_reexport(path, node, parents):
                    references[name].append((path, getattr(node, "lineno", 0)))
            if not path.is_relative_to(DEFINED_UNDER):
                continue
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if node.name.startswith("__") and node.name.endswith("__"):
                        continue
                    kind = "class" if isinstance(node, ast.ClassDef) else "def"
                    definitions.append(
                        (path, node.lineno, node.end_lineno, kind, node.name)
                    )
    unreferenced = [
        (path, line, kind, name)
        for path, line, end, kind, name in definitions
        if not any(
            where != path or not line <= at <= end
            for where, at in references.get(name, ())
        )
    ]
    for path, line, kind, name in unreferenced:
        print(f"{path.relative_to(ROOT)}:{line} {kind} {name}")
    print(f"{len(unreferenced)} unreferenced of {len(definitions)} definitions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
