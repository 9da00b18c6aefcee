"""The series field is the one owner of truncation.

Every zero or sign decision above ``dq.series`` goes through
``decide_zero``/``decide_sign``, which answer exactly or raise
IndeterminateAtTruncation.  A module that read ``.trunc`` or ``INF`` itself,
or raised IndeterminateAtTruncation itself, would grow its own
"undecidable" branch; this test keeps all three out of every module but
``series.py`` and the proptest suites, whose field laws are stated on
truncated elements.
"""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "dq").glob("*.py"))
OWNERS = {"series.py", "proptests.py"}


def _offences(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "trunc":
            yield node.lineno, ".trunc"
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "INF":
                    yield node.lineno, "import INF"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(raised, ast.Name) and raised.id == "IndeterminateAtTruncation":
                yield node.lineno, "raise IndeterminateAtTruncation"


def test_sources_found():
    assert len(SOURCES) > 5 and OWNERS <= {p.name for p in SOURCES}


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name not in OWNERS], ids=lambda p: p.name
)
def test_no_truncation_outside_the_field(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert [f"{path.name}:{line}: {what}" for line, what in _offences(tree)] == []


def test_the_guard_catches_all_three():
    source = (
        "from .series import INF, ONE\n"
        "def f(x):\n"
        "    if x.trunc == INF:\n"
        "        raise IndeterminateAtTruncation('open')\n"
    )
    found = sorted(what for _, what in _offences(ast.parse(source)))
    assert found == [".trunc", "import INF", "raise IndeterminateAtTruncation"]
