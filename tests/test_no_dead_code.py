"""No function, method or class in ``src/repro`` goes unreferenced.

Every name defined with ``def`` or ``class`` in the package must be used
somewhere in the Python code of the package, the tests, the benchmarks
or the examples.  A use is read off the syntax tree, not off the text:
the name as a variable or an attribute, as part of an imported name, as
a keyword argument, or as a string constant that is an identifier or a
dotted identifier path (``__all__``, ``getattr(obj, "name")``,
``"Cls.method"``).  Docstrings, comments, f-string text and the docs do
not keep a definition alive, and neither does a package ``__init__.py``
re-exporting it: there an imported name or a string in ``__all__`` is
not a use, though every other use in the ``__init__`` body is.  A
definition that nothing uses is dead code.  Dunder names are exempt:
the interpreter calls them.

Nor may a definition be used only by the tests: code that no user
surface reaches is dead code with a test.  The seams in
:data:`TEST_SEAMS` are the exceptions, each with its reason.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "bench", "benchmarks", "examples")
#: the directories whose uses alone do not keep a definition alive
TEST_ONLY = ("tests",)

#: definitions that only the tests use, kept on purpose
TEST_SEAMS = {
    "load_strategy": "reads back the file `repro plan --save` writes; "
                     "the CLI only writes it",
    "fault_overlay": "read-only view of the overlay the fault injector "
                     "set, for asserting what a fault changed",
    "search_cost_estimate": "read-only view of the elastic policy's "
                            "replan-cost average, for pinning its updates",
    "paper_scale": "the documented paper-scale agent preset, which "
                   "ROADMAP item 14 must make runnable on the bench box",
}


def _python_files(root: Path, top: str) -> Iterator[Path]:
    for path in sorted((root / top).rglob("*.py")):
        if not any(p == "__pycache__" or p.endswith(".egg-info")
                   for p in path.parts):
            yield path


def _definitions(root: Path) -> Dict[str, List[str]]:
    """Every name a ``def`` or ``class`` in the package defines, with
    the ``file:line`` of each definition."""
    defined: Dict[str, List[str]] = {}
    for path in _python_files(root, "src/repro"):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.setdefault(node.name, []).append(
                    f"{path.relative_to(root)}:{node.lineno}")
    return defined


def _identifiers(text: str) -> list:
    """The parts of ``text`` if it is an identifier or a dotted path."""
    parts = text.split(".")
    return parts if all(part.isidentifier() for part in parts) else []


class _Uses(ast.NodeVisitor):
    """Counts every name a module's syntax tree uses."""

    def __init__(self) -> None:
        self.names: Counter = Counter()

    def visit_Name(self, node: ast.Name) -> None:
        self.names[node.id] += 1

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.names[node.attr] += 1
        self.generic_visit(node)

    def visit_alias(self, node: ast.alias) -> None:
        self.names.update(node.name.split("."))
        if node.asname:
            self.names[node.asname] += 1

    def visit_keyword(self, node: ast.keyword) -> None:
        if node.arg:
            self.names[node.arg] += 1
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str):
            self.names.update(_identifiers(node.value))

    def visit_JoinedStr(self, node: ast.JoinedStr) -> None:
        # f-string text is prose; only the interpolated expressions use
        for value in node.values:
            if isinstance(value, ast.FormattedValue):
                self.visit(value)


class _ReexportBlindUses(_Uses):
    """:class:`_Uses` for a package ``__init__.py``: a re-export (an
    imported name, a string in ``__all__``) is not a use."""

    def visit_alias(self, node: ast.alias) -> None:
        pass

    def visit_Assign(self, node: ast.Assign) -> None:
        if not any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in node.targets):
            self.generic_visit(node)


def _uses(path: Path, top: str) -> Counter:
    """Every name the module at ``path`` uses."""
    reexports = top == "src" and path.name == "__init__.py"
    uses = _ReexportBlindUses() if reexports else _Uses()
    uses.visit(ast.parse(path.read_text(), filename=str(path)))
    return uses.names


def reference_counts(root: Path = ROOT
                     ) -> Tuple[Dict[str, List[str]], Counter, Counter]:
    """The package's definitions, and every name's uses: anywhere, and
    outside :data:`TEST_ONLY`."""
    anywhere: Counter = Counter()
    live: Counter = Counter()
    for top in SEARCHED:
        for path in _python_files(root, top):
            names = _uses(path, top)
            anywhere.update(names)
            if top not in TEST_ONLY:
                live.update(names)
    return _definitions(root), anywhere, live


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreferenced(root: Path = ROOT) -> Dict[str, List[str]]:
    """Defined names that nothing uses, with where each is defined."""
    defined, anywhere, _ = reference_counts(root)
    return {name: where for name, where in defined.items()
            if not _is_dunder(name) and not anywhere[name]}


def named_only_by_tests(root: Path = ROOT) -> Dict[str, List[str]]:
    """Defined names that only the tests use, with where each is
    defined."""
    defined, anywhere, live = reference_counts(root)
    return {name: where for name, where in defined.items()
            if not _is_dunder(name) and anywhere[name] and not live[name]}


def _located(found: Dict[str, List[str]]) -> str:
    """One ``file:line name`` line per flagged definition."""
    return "\n".join(sorted(f"{where} {name}" for name, places in
                            found.items() for where in places))


def test_every_definition_is_referenced():
    found = unreferenced()
    assert not found, "unreferenced:\n" + _located(found)


def test_every_definition_is_reached_outside_tests():
    # a seam that gains a user stops needing its exemption
    found = named_only_by_tests()
    unexpected = {n: w for n, w in found.items() if n not in TEST_SEAMS}
    assert not unexpected, "used only by tests:\n" + _located(unexpected)
    assert sorted(found) == sorted(TEST_SEAMS)


def test_checker_reads_code_not_words(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text('''\
"""Module text naming in_module_docstring."""

__all__ = ["exported"]


def in_module_docstring():
    pass


def in_own_docstring():
    """Call in_own_docstring() to do nothing."""


def in_comment():  # in_comment
    pass


def in_fstring_text():
    return f"{0}in_fstring_text"


def exported():
    pass


def by_getattr():
    pass


class Cls:
    def by_dotted_path(self):
        pass


def test_only():
    pass


HOOKS = (getattr(Cls, "by_getattr", None), "Cls.by_dotted_path")


def reexported():
    pass


def called_by_init():
    pass
''')
    (package / "__init__.py").write_text('''\
"""A package that re-exports one name and calls another."""

from .mod import called_by_init, reexported

__all__ = ["reexported"]

DEFAULT = called_by_init()
''')
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text(
        "from repro.mod import test_only\n\ntest_only()\n")
    found = unreferenced(tmp_path)
    assert set(found) == {
        "in_module_docstring", "in_own_docstring", "in_comment",
        "in_fstring_text", "reexported"}
    assert found["reexported"] == ["src/repro/mod.py:42"]
    assert set(named_only_by_tests(tmp_path)) == {"test_only"}
