"""The shipped examples must stay runnable against the public API.

``quickstart`` and ``automotive_market_analysis`` are executed end-to-end
(they share the memoised dbpedia-like bundle, so this is cheap).  The
heavier examples — chain sampling and five-model training — are compiled
and API-checked instead of executed, to keep the suite fast; the bench
suite exercises those code paths anyway.
"""

from __future__ import annotations

import ast
import pathlib
import runpy

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
ALL_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_directory_is_populated():
    names = {path.name for path in ALL_EXAMPLES}
    assert "quickstart.py" in names
    assert len(names) >= 3


@pytest.mark.parametrize("path", ALL_EXAMPLES, ids=lambda p: p.name)
def test_example_parses_and_has_main(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = {
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    assert "main" in functions
    assert ast.get_docstring(tree), f"{path.name} needs a module docstring"


@pytest.mark.parametrize("path", ALL_EXAMPLES, ids=lambda p: p.name)
def test_example_imports_resolve(path):
    """Every `from repro...` import in an example must actually exist."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            if not node.module.startswith("repro"):
                continue
            module = __import__(node.module, fromlist=[a.name for a in node.names])
            for alias in node.names:
                assert hasattr(module, alias.name), (
                    f"{path.name}: {node.module}.{alias.name} does not exist"
                )


@pytest.mark.parametrize(
    "name",
    [
        "quickstart.py",
        "automotive_market_analysis.py",
        "interactive_analyst_session.py",
    ],
)
def test_fast_examples_run_to_completion(name, capsys):
    runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
    out = capsys.readouterr().out
    assert "error" in out.lower() or "CI" in out or "±" in out
