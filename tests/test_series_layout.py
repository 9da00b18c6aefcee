"""The integer layout of a series is private to ``dq.series``, and fixed.

``Series`` stores integer exponent numerators over one exponent
denominator and integer coefficient numerators over one content
denominator.  Every other module goes through the field operations,
``terms`` or ``literal``, so a change to the layout stays inside
``series.py``; this test keeps the layout's fields out of every other
module of ``src/dq``.

Values are immutable by convention only (a frozen class would slow every
construction), and they share their numerator lists, so one stray write
would change every value holding the same list and break hashing.  The
same holds for ``ComplexSeries``, a slotted pair whose parts are shared.
The second check rejects, in every module of ``src/dq``, any write to a
field of either class (``trunc``, ``re`` and ``im`` included) outside that
class's ``__init__``, and any in-place change of a stored list.
"""

import ast
import pathlib

import pytest

from dq.series import ComplexSeries, Series

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "dq").glob("*.py"))
#: class -> the fields only its ``__init__`` may write
OWNED = {"Series": frozenset(Series.__slots__), "ComplexSeries": frozenset(ComplexSeries.__slots__)}
FIELDS = frozenset().union(*OWNED.values())
#: the stored fields of Series, truncation aside (its owner test covers ``.trunc``)
LAYOUT = OWNED["Series"] - {"trunc"}
#: list methods that change the list in place
MUTATORS = frozenset(
    {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}
)


def _offences(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in LAYOUT:
            yield node.lineno, f".{node.attr}"


def _is_field(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in FIELDS


def _writes(tree: ast.AST):
    """Writes to a field outside its class's ``__init__``, and list mutations."""
    allowed: dict[int, frozenset] = {}  # node -> the fields it may write
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name in OWNED:
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                    allowed.update((id(n), OWNED[cls.name]) for n in ast.walk(fn))
    for node in ast.walk(tree):
        if _is_field(node) and node.attr in allowed.get(id(node), ()):
            continue
        if _is_field(node) and isinstance(node.ctx, (ast.Store, ast.Del)):
            yield node.lineno, f"write .{node.attr}"
        elif (
            isinstance(node, ast.Subscript)
            and _is_field(node.value)
            and isinstance(node.ctx, (ast.Store, ast.Del))
        ):
            yield node.lineno, f"write .{node.value.attr}[]"
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Attribute) and f.attr in MUTATORS and _is_field(f.value):
                yield node.lineno, f".{f.value.attr}.{f.attr}()"
            elif (isinstance(f, ast.Name) and f.id == "setattr") or (
                isinstance(f, ast.Attribute) and f.attr == "__setattr__"
            ):
                yield node.lineno, "setattr"


def test_layout_fields_found():
    assert len(LAYOUT) == 4 and "series.py" in {p.name for p in SOURCES}


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "series.py"], ids=lambda p: p.name
)
def test_no_layout_access_outside_the_kernel(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert [f"{path.name}:{line}: {what}" for line, what in _offences(tree)] == []


def test_the_guard_catches_every_field():
    source = "def f(x):\n" + "".join(f"    x.{name}\n" for name in sorted(LAYOUT))
    assert sorted(what for _, what in _offences(ast.parse(source))) == sorted(
        f".{name}" for name in LAYOUT
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_field_is_written_after_construction(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert [f"{path.name}:{line}: {what}" for line, what in _writes(tree)] == []


def test_the_write_guard_catches_every_kind():
    source = (
        "class Series:\n"
        "    def __init__(self, t):\n"
        "        self.trunc = t\n"
        "        self.re = t\n"
        "    def cut(self, t):\n"
        "        self.trunc = t\n"
        "class ComplexSeries:\n"
        "    def __init__(self, re, im):\n"
        "        self.re, self.im = re, im\n"
        "        self.trunc = re\n"
        "    def flip(self):\n"
        "        self.im = -self.im\n"
        "def f(x, y):\n"
        "    x.re = y\n"
        "    del x.im\n"
        "    x._cden += 1\n"
        "    del x._eden\n"
        "    x._nums[0] = 2\n"
        "    x._exps.append(3)\n"
        "    setattr(x, 'trunc', y)\n"
        "    object.__setattr__(x, 'trunc', y)\n"
        "    y.trunc, x._nums = 1, []\n"
    )
    found = sorted(what for _, what in _writes(ast.parse(source)))
    assert found == sorted(
        [
            "write .re",
            "write .trunc",
            "write .im",
            "write .re",
            "write .im",
            "write .trunc",
            "write ._cden",
            "write ._eden",
            "write ._nums[]",
            "._exps.append()",
            "setattr",
            "setattr",
            "write .trunc",
            "write ._nums",
        ]
    )


def _imports(path: pathlib.Path) -> set:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    } | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}


def test_series_imports_no_dataclasses():
    # no module of dq imports dataclasses, which pulls in inspect and ast: the
    # series classes are plain slotted classes and the result records NamedTuples
    assert [p.name for p in SOURCES if "dataclasses" in _imports(p)] == []
