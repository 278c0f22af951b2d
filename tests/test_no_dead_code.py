"""No function, method or class in ``src/repro`` goes unreferenced.

Every name defined with ``def`` or ``class`` in the package must occur
as a word somewhere outside the lines that define it: in the package,
the tests, the benchmarks, the examples or the docs.  A definition that
nothing names is dead code.  Dunder names are exempt: the interpreter
calls them.  Should a definition ever be reached only through a name
built at run time, exempt it here with the reason.

Nor may a definition be named only by the tests and the docs: code that
no user surface reaches is dead code with a test.  The read-only seams
in :data:`TEST_SEAMS` are the exceptions, each with its reason.
"""

from __future__ import annotations

import ast
import re
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, Iterator, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SEARCHED = ("src", "tests", "bench", "benchmarks", "examples", "docs")
SUFFIXES = {".py", ".md", ".txt", ".json"}
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: the directories whose references alone do not keep a definition alive
TEST_ONLY = ("tests", "docs")

#: definitions that only the tests and the docs name, kept on purpose
TEST_SEAMS = {
    "load_strategy": "reads back the file `repro plan --save` writes; "
                     "the CLI only writes it",
    "fault_overlay": "read-only view of the overlay the fault injector "
                     "set, for asserting what a fault changed",
    "search_cost_estimate": "read-only view of the elastic policy's "
                            "replan-cost average, for pinning its updates",
}


def _searched_files() -> Iterator[Path]:
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*")):
            if (path.suffix in SUFFIXES and path.is_file()
                    and "__pycache__" not in path.parts
                    and not any(p.endswith(".egg-info") for p in path.parts)):
                yield path


def _definitions() -> Dict[str, Set[tuple]]:
    """Name -> the (file, line) of every ``def``/``class`` line that
    defines it in the package."""
    defined: Dict[str, Set[tuple]] = defaultdict(set)
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined[node.name].add((path, node.lineno))
    return defined


def _reference_counts() -> Tuple[Dict[str, Set[tuple]], Counter, Counter]:
    """The definitions, and per defined name its occurrences outside its
    own def lines: everywhere, and outside :data:`TEST_ONLY`."""
    defined = _definitions()
    anywhere: Counter = Counter()
    live: Counter = Counter()
    for path in _searched_files():
        test_only = path.relative_to(ROOT).parts[0] in TEST_ONLY
        lines = path.read_text(errors="replace").splitlines()
        for lineno, line in enumerate(lines, start=1):
            words = WORD.findall(line)
            for word in set(words):
                if word in defined and (path, lineno) not in defined[word]:
                    anywhere[word] += words.count(word)
                    if not test_only:
                        live[word] += words.count(word)
    return defined, anywhere, live


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreferenced() -> Set[str]:
    """Defined names that occur nowhere but on their own def lines."""
    defined, anywhere, _ = _reference_counts()
    return {name for name in defined
            if not _is_dunder(name) and not anywhere[name]}


def named_only_by_tests() -> Set[str]:
    """Defined names that only the tests and the docs name."""
    defined, anywhere, live = _reference_counts()
    return {name for name in defined
            if not _is_dunder(name) and anywhere[name] and not live[name]}


def test_every_definition_is_referenced():
    assert sorted(unreferenced()) == []


def test_every_definition_is_reached_outside_tests():
    # a seam that gains a user stops needing its exemption
    assert sorted(named_only_by_tests()) == sorted(TEST_SEAMS)
