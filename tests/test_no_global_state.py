"""No module of ``src/dq`` has a ``global`` statement or reads the environment.

A truncation policy set by a module global or an environment variable
would make exact arithmetic silently inexact; this test keeps both out of
``src/dq``.  Module-level caches that no ``global`` rebinds, such as
``observables._star_1d`` and ``cli.build_parser``, are not checked.
"""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "dq").glob("*.py"))
ENVIRONMENT = {"environ", "getenv"}


def _offences(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            yield node.lineno, f"global {', '.join(node.names)}"
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ENVIRONMENT
        ):
            yield node.lineno, f"os.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ENVIRONMENT:
                    yield node.lineno, f"from os import {alias.name}"


def test_sources_found():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_global_statement_or_environment_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert [f"{path.name}:{line}: {what}" for line, what in _offences(tree)] == []


def test_the_guard_catches_both():
    source = (
        "import os\n"
        "def f():\n"
        "    global x\n"
        "    return os.environ.get('A') or os.getenv('B')\n"
    )
    found = sorted(what for _, what in _offences(ast.parse(source)))
    assert found == ["global x", "os.environ", "os.getenv"]
