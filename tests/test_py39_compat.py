"""Python 3.9 compatibility of the package source.

``requires-python`` is ``>=3.9``, but ``dataclass(slots=...)``,
``kw_only`` and ``match_args`` are 3.10+ keywords: on 3.9 the decorator
alone raises ``TypeError`` and ``import repro`` fails.  The scan is
static, so it runs on any interpreter.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
NEWER_KEYWORDS = {"slots", "kw_only", "match_args"}
DATACLASS_CALLS = {"dataclass", "field"}


def _called_name(func: ast.expr) -> str:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def test_no_dataclass_keywords_newer_than_python39():
    offenders = []
    files = sorted(SRC.rglob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and _called_name(node.func) in DATACLASS_CALLS):
                for kw in node.keywords:
                    if kw.arg in NEWER_KEYWORDS:
                        offenders.append(
                            f"{path.relative_to(SRC)}:{node.lineno} "
                            f"{_called_name(node.func)}({kw.arg}=...)")
    assert not offenders, "3.10+ dataclass keywords: " + ", ".join(offenders)
