"""No function, method or class in ``src/repro`` goes unreferenced.

Every name defined with ``def`` or ``class`` in the package must occur
as a word somewhere outside the lines that define it: in the package,
the tests, the benchmarks, the examples or the docs.  A definition that
nothing names is dead code.  Dunder names are exempt: the interpreter
calls them.  Nothing else needs an exemption today; should a definition
ever be reached only through a name built at run time, exempt it here
with the reason.
"""

from __future__ import annotations

import ast
import re
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, Iterator, Set

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SEARCHED = ("src", "tests", "bench", "benchmarks", "examples", "docs")
SUFFIXES = {".py", ".md", ".txt", ".json"}
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


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


def unreferenced() -> Set[str]:
    """Defined names that occur nowhere but on their own def lines."""
    defined = _definitions()
    total: Counter = Counter()
    on_own_lines: Counter = Counter()
    for path in _searched_files():
        lines = path.read_text(errors="replace").splitlines()
        for lineno, line in enumerate(lines, start=1):
            words = WORD.findall(line)
            total.update(words)
            for word in set(words):
                if (path, lineno) in defined.get(word, ()):
                    on_own_lines[word] += words.count(word)
    return {name for name in defined
            if not (name.startswith("__") and name.endswith("__"))
            and total[name] == on_own_lines[name]}


def test_every_definition_is_referenced():
    assert sorted(unreferenced()) == []

