"""No function, method or class in ``src/repro`` goes unreferenced.

Every name defined with ``def`` or ``class`` in the package must be used
somewhere in the Python code of the package, the tests, the benchmarks
or the examples.  A use is read off the syntax tree, not off the text:
the name as a variable or an attribute, as part of an imported name, as
a keyword argument, or as a string constant that is an identifier or a
dotted identifier path (``__all__``, ``getattr(obj, "name")``,
``"Cls.method"``).  A method (a ``def`` in a class body) is only ever
reached through an object, so only an attribute or an identifier string
of its name uses it: a variable, parameter or keyword of the same name
does not.  Docstrings, comments, f-string text and the docs do not keep
a definition alive, and neither does a package ``__init__.py``
re-exporting it: there an imported name or a string in ``__all__`` is
not a use, though every other use in the ``__init__`` body is.  A
definition that nothing uses is dead code.  Dunder names are exempt:
the interpreter calls them.

Nor may a definition be used only by the tests: code that no user
surface reaches is dead code with a test.  The seams in
:data:`TEST_SEAMS` are the exceptions, each with its reason.

Nor may an option go unset.  An option is a defaulted parameter of a
function or method in the package (dunder methods other than
``__init__`` are exempt: the interpreter calls them), or a dataclass
field with a plain default (``init=True``, no ``default_factory``).
Code outside the tests must set each one, or its default is a constant
spelled as a parameter.  A set is read off the syntax tree of a call to
a callee of the option's name (the class, or a subclass that inherits
its ``__init__``, for a constructor parameter or a field; any
``dataclasses.replace`` for a field; only an attribute call for a
method): a keyword, a positional argument that reaches the option's
index, or a ``*``/``**`` splat; or an attribute store from outside the
class.  A function passed around as a value, or a class passed to a
call, may be called under any name, so its options count as set.  An
argument that only forwards the enclosing function's same-named
parameter, or the enclosing object's same-named attribute, sets the
option only once that parameter or attribute's own option is set; one
that copies another object's same-named attribute, only once an option
some class keeps verbatim under that name is set.  The options in
:data:`OPTION_SEAMS` are the exceptions, each with its reason.
"""

from __future__ import annotations

import ast
from collections import Counter, defaultdict
from pathlib import Path
from typing import (DefaultDict, Dict, FrozenSet, Iterable, Iterator,
                    List, NamedTuple, Optional, Set, Tuple)

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "bench", "benchmarks", "examples")
#: the directories whose uses alone do not keep a definition alive
TEST_ONLY = ("tests",)
#: the directories whose calls set an option
SETTERS = tuple(top for top in SEARCHED if top not in TEST_ONLY)

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


#: a ``def`` or ``class``: the ``file:line`` where it is, and whether it
#: is a method (a ``def`` in a class body)
Definition = Tuple[str, bool]
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(root: Path) -> Dict[str, List[Definition]]:
    """Every name a ``def`` or ``class`` in the package defines, with
    each definition."""
    defined: Dict[str, List[Definition]] = {}
    for path in _python_files(root, "src/repro"):
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {id(stmt) for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef)
                   for stmt in node.body if isinstance(stmt, _DEFS)}
        for node in ast.walk(tree):
            if isinstance(node, _DEFS + (ast.ClassDef,)):
                defined.setdefault(node.name, []).append(
                    (f"{path.relative_to(root)}:{node.lineno}",
                     id(node) in methods))
    return defined


def _identifiers(text: str) -> list:
    """The parts of ``text`` if it is an identifier or a dotted path."""
    parts = text.split(".")
    return parts if all(part.isidentifier() for part in parts) else []


class _Uses(ast.NodeVisitor):
    """Counts every name a module's syntax tree uses (``names``), and
    apart the uses that can reach a method (``members``): attributes
    and identifier strings."""

    def __init__(self) -> None:
        self.names: Counter = Counter()
        self.members: Counter = Counter()

    def visit_Name(self, node: ast.Name) -> None:
        self.names[node.id] += 1

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.names[node.attr] += 1
        self.members[node.attr] += 1
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
            self.members.update(_identifiers(node.value))

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


def _uses(path: Path, top: str) -> _Uses:
    """Every name the module at ``path`` uses."""
    reexports = top == "src" and path.name == "__init__.py"
    uses = _ReexportBlindUses() if reexports else _Uses()
    uses.visit(ast.parse(path.read_text(), filename=str(path)))
    return uses


#: uses of each name, indexed by whether the definition is a method:
#: every use of it, or the uses that can reach a method
Counts = Tuple[Counter, Counter]


def reference_counts(root: Path = ROOT
                     ) -> Tuple[Dict[str, List[Definition]], Counts, Counts]:
    """The package's definitions, and every name's uses: anywhere, and
    outside :data:`TEST_ONLY`."""
    anywhere: Counts = (Counter(), Counter())
    live: Counts = (Counter(), Counter())
    for top in SEARCHED:
        for path in _python_files(root, top):
            uses = _uses(path, top)
            kept = [anywhere] if top in TEST_ONLY else [anywhere, live]
            for names, members in kept:
                names.update(uses.names)
                members.update(uses.members)
    return _definitions(root), anywhere, live


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _flagged(defined: Dict[str, List[Definition]],
             dead) -> Dict[str, List[str]]:
    """Where each non-dunder definition is for which ``dead(name,
    method)`` holds, by name."""
    found: Dict[str, List[str]] = {}
    for name, places in defined.items():
        for where, method in places:
            if not _is_dunder(name) and dead(name, method):
                found.setdefault(name, []).append(where)
    return found


def unreferenced(root: Path = ROOT) -> Dict[str, List[str]]:
    """Defined names that nothing uses, with where each is defined."""
    defined, anywhere, _ = reference_counts(root)
    return _flagged(defined, lambda name, method: not anywhere[method][name])


def named_only_by_tests(root: Path = ROOT) -> Dict[str, List[str]]:
    """Defined names that only the tests use, with where each is
    defined."""
    defined, anywhere, live = reference_counts(root)
    return _flagged(defined, lambda name, method: (
        anywhere[method][name] and not live[method][name]))


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


class Shadowed:
    def speed(self):
        pass

    def called(self):
        pass


def by_bare_name():
    pass


speed = 2.0
Shadowed().called()
RESULT = (speed, by_bare_name())
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
        "in_fstring_text", "reexported", "speed"}
    assert found["reexported"] == ["src/repro/mod.py:42"]
    # a local of its name does not keep a method alive
    assert found["speed"] == ["src/repro/mod.py:51"]
    assert set(named_only_by_tests(tmp_path)) == {"test_only"}




# -- options ---------------------------------------------------------------

#: the experiments whose scale the tests and the golden regenerator
#: shrink, which the benchmarks run at $REPRO_PRESET / $REPRO_EPISODES
_SHRUNK = ("communication_ablation", "grouping_ablation",
           "fig8_time_breakdown", "fig9_existing_schemes",
           "end_to_end_table", "order_scheduling_table",
           "per_iteration_table")

#: options no code outside the tests sets, kept on purpose; a value
#: forwarded from one of them counts as set
OPTION_SEAMS: Dict[str, str] = {
    **{f"{experiment}({param}=)":
       "the tests and the golden regenerator run the experiment at the "
       "tiny preset with a few episodes; the benchmarks read "
       "$REPRO_PRESET and $REPRO_EPISODES"
       for experiment in _SHRUNK for param in ("preset", "episodes")},
    "fusion_ablation(preset=)": "the golden regenerator runs the fusion "
                                "sweep at the tiny preset",
    **dict.fromkeys(
        ("FlexFlowSearch(max_groups=)", "PostSearch(max_groups=)"),
        "the baseline tests and the golden regenerator search a few "
        "groups of a small graph"),
    "HeteroG.deploy(strategy=)": "the client API's plan-then-deploy: "
                                 "build a strategy the caller holds",
    "MappingCostModel(default=)": "crafted unit-test instances price "
                                  "every op alike",
    **{f"FlightRecord.{header}":
       "set by name from the first journal event that carries it"
       for header in ("label", "graph", "fingerprint", "parent_id",
                      "priority")},
}


class Option(NamedTuple):
    """One settable value of the package."""

    #: ``func(p=)``, ``Cls.meth(p=)``, ``Cls(p=)`` or ``Cls.field``
    name: str
    #: ``file:line`` of the parameter or field
    where: str
    #: the parameter or field name, as a keyword spells it
    param: str
    #: the names a call that sets it goes by
    callees: FrozenSet[str]
    #: the positional index a call reaches it at; ``None``: keyword-only
    index: Optional[int]
    #: "function" (module level), "method", "constructor" or "field"
    kind: str
    #: the class keeps the value verbatim as a same-named attribute, so
    #: such an attribute may hold the option's default
    kept: bool


def _callee(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _spelled_callee(func: ast.expr) -> Optional[str]:
    """A call's callee name, with a leading ``.`` if an attribute."""
    if isinstance(func, ast.Attribute):
        return f".{func.attr}"
    return _callee(func)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(_callee(deco.func if isinstance(deco, ast.Call) else deco)
               == "dataclass" for deco in node.decorator_list)


class _Field(NamedTuple):
    name: str
    line: int
    #: a plain default: the field is an option
    option: bool


def _init_fields(node: ast.ClassDef) -> List[_Field]:
    """The fields a dataclass's generated ``__init__`` takes, in order."""
    fields = []
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign) \
                or not isinstance(stmt.target, ast.Name) \
                or "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        option = value is not None
        if isinstance(value, ast.Call) and _callee(value.func) == "field":
            keywords = {kw.arg: kw.value for kw in value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            option = "default" in keywords
        fields.append(_Field(stmt.target.id, stmt.lineno, option))
    return fields


class _Classes:
    """Every class of the package, by name: its bases, whether it
    defines ``__init__``, the parameters it keeps verbatim as
    same-named attributes (``self.p = p``), and its dataclass fields."""

    def __init__(self, trees: List[ast.Module]) -> None:
        self.bases: Dict[str, List[str]] = {}
        self.inits: Set[str] = set()
        self.kept: DefaultDict[str, Set[str]] = defaultdict(set)
        self.fields: Dict[str, List[_Field]] = {}
        for tree in trees:
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    self._add(node)

    def _add(self, node: ast.ClassDef) -> None:
        self.bases[node.name] = [
            name for name in map(_callee, node.bases) if name]
        if any(isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"
               for stmt in node.body):
            self.inits.add(node.name)
        self.kept[node.name].update(
            stmt.value.id for stmt in ast.walk(node)
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
            and isinstance(stmt.value, ast.Name)
            and ast.unparse(stmt.targets[0]) == f"self.{stmt.value.id}")
        if _is_dataclass(node):
            self.fields[node.name] = _init_fields(node)

    def constructors(self, name: str) -> FrozenSet[str]:
        """``name`` and every subclass that inherits its ``__init__``."""
        found = {name}
        while True:
            more = {cls for cls, bases in self.bases.items()
                    if cls not in found and cls not in self.inits
                    and found.intersection(bases)}
            if not more:
                return frozenset(found)
            found |= more

    def all_fields(self, name: str) -> List[_Field]:
        """A dataclass's ``__init__`` fields, its dataclass bases'
        first."""
        inherited = [f for base in self.bases.get(name, ())
                     if base in self.fields for f in self.all_fields(base)]
        return inherited + self.fields[name]


def _spellings(names: Iterable[str]) -> FrozenSet[str]:
    """How a call to each of ``names`` spells its callee: bare, or as an
    attribute (a method is only ever called as one)."""
    return frozenset(spelled for name in names
                     for spelled in (name, f".{name}"))


def _function_options(node: ast.FunctionDef, owner: Optional[str],
                      qualname: str, where: str,
                      classes: _Classes) -> Iterator[Option]:
    positional = node.args.posonlyargs + node.args.args
    bound = owner is not None and not any(
        _callee(deco) == "staticmethod" for deco in node.decorator_list)
    kept: Set[str] = set()
    if node.name == "__init__" and owner is not None:
        name, kind, kept = f"{owner}(", "constructor", classes.kept[owner]
        callees = _spellings(classes.constructors(owner)) | {
            f"super:{cls}" for cls, bases in classes.bases.items()
            if owner in bases}
    elif owner is not None:
        name, kind = f"{qualname}(", "method"
        callees = frozenset({f".{node.name}"})
    else:
        name, kind = f"{qualname}(", "function"
        callees = _spellings({node.name})
    first = len(positional) - len(node.args.defaults)
    defaulted = [(arg, i - bound) for i, arg in
                 enumerate(positional[first:], start=first)] + [
        (arg, None) for arg, default in
        zip(node.args.kwonlyargs, node.args.kw_defaults) if default]
    for arg, index in defaulted:
        yield Option(f"{name}{arg.arg}=)", f"{where}:{arg.lineno}",
                     arg.arg, callees, index, kind, arg.arg in kept)


def _options_in(tree: ast.Module, where: str,
                classes: _Classes) -> Iterator[Option]:
    def walk(node: ast.AST, owner: Optional[str], prefix: str
             ) -> Iterator[Option]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if child.name in classes.fields:
                    callees = _spellings(classes.constructors(
                        child.name) | {"replace"})
                    for index, field in enumerate(
                            classes.all_fields(child.name)):
                        if field.option and child.lineno <= field.line \
                                <= child.end_lineno:
                            yield Option(
                                f"{child.name}.{field.name}",
                                f"{where}:{field.line}", field.name,
                                callees, index, "field", True)
                yield from walk(child, child.name, f"{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name == "__init__" or not _is_dunder(child.name):
                    yield from _function_options(
                        child, owner, prefix + child.name, where, classes)
                yield from walk(child, None, f"{prefix}{child.name}.")
            else:
                yield from walk(child, owner, prefix)
    yield from walk(tree, None, "")


def options(root: Path = ROOT) -> List[Option]:
    """Every option of the package."""
    paths = list(_python_files(root, "src/repro"))
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in paths]
    classes = _Classes(trees)
    return [option for path, tree in zip(paths, trees)
            for option in _options_in(tree, str(path.relative_to(root)),
                                      classes)]


#: how a call to ``dataclasses.replace`` spells its callee
REPLACE = ("replace", ".replace")
#: prefixes the attribute name in the source of a value that copies
#: another object's same-named attribute
COPY = "."


class _Argument(NamedTuple):
    """One value a call passes."""

    #: the keyword, or the positional index
    key: object
    #: the name of the variable or attribute the value is, if any
    spelled: Optional[str]
    #: ``None``: the value is a set of its own; an option's name: the
    #: value forwards that option; :data:`COPY` and an attribute name:
    #: the value copies another object's attribute
    source: Optional[str]


class _Sets(ast.NodeVisitor):
    """Every value a module's calls pass, per callee name, and every
    other use that may set an option."""

    def __init__(self, names: Set[str]) -> None:
        self.arguments: DefaultDict[str, Set[_Argument]] = defaultdict(set)
        #: callee -> the lowest positional index a ``*`` splat reaches
        self.star: Dict[str, int] = {}
        self.double_star: Set[str] = set()
        #: attributes stored on anything other than ``self``
        self.stores: Set[str] = set()
        #: names loaded other than as a callee: a function passed
        #: around as a value is called under other names
        self.escaped: Set[str] = set()
        #: names passed to a call other than as a type to check or a
        #: default factory: a class passed as a value is constructed
        #: under other names
        self.passed: Set[str] = set()
        #: whether the module visited is the package's: only there is a
        #: defaulted parameter an option
        self.package = False
        self._names = names
        #: per enclosing function: each parameter, with the option it is
        #: (``None``: required, or outside the package), and the ones a
        #: parsed command line comes in by
        self._frames: List[Tuple[Dict[str, Optional[str]], Set[str]]] = [
            ({}, set())]
        #: per enclosing scope: the class a method belongs to, and the
        #: qualified-name prefix (as :func:`options` names them)
        self._scopes: List[Tuple[Optional[str], str]] = [(None, "")]
        #: per enclosing function: the class ``cls`` is, in a classmethod
        self._cls: List[Optional[str]] = [None]

    def _owner(self) -> Optional[str]:
        return next((cls for cls, _ in reversed(self._scopes) if cls), None)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scopes.append((node.name, f"{node.name}."))
        self.generic_visit(node)
        self._scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        owner, prefix = self._scopes[-1]
        name = f"{owner}(" if node.name == "__init__" and owner else \
            f"{prefix}{node.name}("
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        params = {arg.arg: f"{name}{arg.arg}=)" for arg in args}
        params = {arg: option if self.package and option in self._names
                  else None for arg, option in params.items()}
        namespaces = {arg.arg for arg in args if arg.annotation is not None
                      and ast.unparse(arg.annotation).endswith("Namespace")}
        self._frames.append((params, namespaces))
        self._scopes.append((None, f"{prefix}{node.name}."))
        self._cls.append(owner if any(
            _callee(deco) == "classmethod" for deco in node.decorator_list)
            else None)
        self.generic_visit(node)
        self._cls.pop()
        self._scopes.pop()
        self._frames.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _argument(self, key: object, value: ast.expr) -> _Argument:
        params, namespaces = self._frames[-1]
        if isinstance(value, ast.Name):
            return _Argument(key, value.id, params.get(value.id))
        if not isinstance(value, ast.Attribute):
            return _Argument(key, None, None)
        base = value.value
        if isinstance(base, ast.Name) and base.id in namespaces:
            return _Argument(key, value.attr, None)
        if isinstance(base, ast.Name) and base.id == "self":
            owner = self._owner()
            own = {f"{owner}({value.attr}=)", f"{owner}.{value.attr}"}
            return _Argument(key, value.attr,
                             next(iter(own & self._names), None))
        return _Argument(key, value.attr, COPY + value.attr)

    def visit_Call(self, node: ast.Call) -> None:
        callee = _spelled_callee(node.func)
        if callee == "cls" and self._cls[-1]:
            callee = self._cls[-1]
        elif callee == ".__init__" and isinstance(node.func.value, ast.Call) \
                and _callee(node.func.value.func) == "super":
            callee = f"super:{self._owner()}"
        for kw in node.keywords:
            if kw.arg is None:
                self.double_star.add(callee)
            else:
                self.arguments[callee].add(self._argument(kw.arg, kw.value))
        for index, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                self.star.setdefault(callee, index)
                break
            self.arguments[callee].add(self._argument(index, arg))
        # the callee is not a value: visit only what it is looked up on
        if isinstance(node.func, ast.Attribute):
            self.visit(node.func.value)
        elif not isinstance(node.func, ast.Name):
            self.visit(node.func)
        if callee not in ("isinstance", "issubclass"):
            self.passed.update(
                value.id for value in node.args + [
                    kw.value for kw in node.keywords
                    if kw.arg != "default_factory"]
                if isinstance(value, ast.Name))
        for value in node.args + [kw.value for kw in node.keywords]:
            self.visit(value)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.escaped.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Store) and not (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            self.stores.add(node.attr)
        self.generic_visit(node)

    def sources(self, option: Option) -> Iterator[Optional[str]]:
        """Where each value that may set ``option`` comes from: ``None``
        for a set of its own, else the option it forwards."""
        if option.kind == "function" and option.callees & self.escaped \
                or option.kind in ("constructor", "field") and (
                    option.param in self.stores
                    or option.callees & self.passed):
            yield None
        for callee in option.callees:
            if callee in self.double_star or option.index is not None \
                    and self.star.get(callee, option.index + 1) \
                    <= option.index:
                yield None
            for arg in self.arguments[callee]:
                if arg.key != option.param and (
                        arg.key != option.index or callee in REPLACE) \
                        or callee in REPLACE and option.kind != "field":
                    continue
                yield arg.source if arg.spelled == option.param else None


def unset_options(root: Path = ROOT) -> Dict[str, List[str]]:
    """Options no code outside the tests sets, with where each is.

    A value forwarded from another option sets this one only once that
    option is set or is in :data:`OPTION_SEAMS`; so does a copy of
    another object's attribute that keeps an option of its name: the
    search runs to a fixed point.
    """
    found = options(root)
    kept: DefaultDict[str, Set[str]] = defaultdict(set)
    for option in found:
        if option.kept:
            kept[option.param].add(option.name)

    def settled(source: Optional[str]) -> bool:
        if source is None:
            return True
        if source.startswith(COPY):
            names = kept[source[len(COPY):]]
            return not names or bool(names & done)
        return source in done or source in OPTION_SEAMS

    sets = _Sets({option.name for option in found})
    for top in SETTERS:
        for path in _python_files(root, top):
            sets.package = top == "src"
            sets.visit(ast.parse(path.read_text(), filename=str(path)))
    done: Set[str] = set()
    while True:
        newly = {option.name for option in found
                 if option.name not in done
                 and any(map(settled, sets.sources(option)))}
        if not newly:
            break
        done |= newly
    unset: Dict[str, List[str]] = {}
    for option in found:
        if option.name not in done:
            unset.setdefault(option.name, []).append(option.where)
    return unset


def test_every_option_is_set_outside_tests():
    # a seam that gains a setter stops needing its exemption
    found = unset_options()
    unexpected = {n: w for n, w in found.items() if n not in OPTION_SEAMS}
    assert not unexpected, \
        "options only their default sets:\n" + _located(unexpected)
    assert sorted(found) == sorted(OPTION_SEAMS)


def test_option_checker_reads_calls(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text('''\
from dataclasses import dataclass, field


def by_keyword(x, flag=False):
    pass


def by_position(x, size=1):
    pass


def by_star(x, size=1):
    pass


def by_double_star(x, size=1):
    pass


def passed_around(x, size=1):
    pass


def test_only(x, size=1):
    pass


def inner(size=1):
    pass


def outer(size=1):
    return inner(size=size)


def stranded(size=1):
    pass


def forwarder(size=1):
    return stranded(size=size)


class Engine:
    def __init__(self, rate=0.5, seed=0):
        self.rate = rate

    def clone(self):
        return Engine(rate=self.rate)


class Sub(Engine):
    pass


@dataclass
class Config:
    size: int = 1
    name: str = ""
    width: int = 2
    items: list = field(default_factory=list)
    state: int = field(default=0, init=False)
''')
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "use.py").write_text('''\
import dataclasses

from repro.mod import (Config, Engine, Sub, by_double_star, by_keyword,
                       by_position, by_star, forwarder, outer,
                       passed_around)

by_keyword(0, flag=True)
by_position(0, 4)
by_star(*(0, 4))
by_double_star(0, **{"size": 4})
outer(size=2)
forwarder()
sorted([], key=passed_around)
engine = Sub(seed=3)
Engine(rate=engine.rate)
config = dataclasses.replace(Config(), size=3)
config.name = "x"
''')
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text('''\
from repro.mod import Config, Engine, test_only

test_only(0, size=2)
Engine(rate=0.1)
Config(width=3)
''')
    found = unset_options(tmp_path)
    assert set(found) == {"test_only(size=)", "forwarder(size=)",
                          "stranded(size=)", "Engine(rate=)",
                          "Config.width"}
    assert found["Config.width"] == ["src/repro/mod.py:60"]
