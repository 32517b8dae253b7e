"""Nothing shipped that nothing runs: a reachability census of ``src/repro``.

The paper is reproduced by what the CLI, ``benchmarks/`` and
``examples/`` *execute*, so a definition under ``src/repro`` that only
``tests/`` or a package ``__all__`` ever touch measures nothing and is
still paid for in every refactor.  This file walks the tree with the
standard library's ``ast`` and fails on such a definition unless it is
pinned, with a reason, in :data:`ALLOW` below — as
``test_option_surface.py`` pins options (DESIGN.md, "Conventions").

The rule is by *name*.  A module-level function or class is **run**
when its name appears (``Name`` / ``Attribute`` / import alias, outside
type annotations — annotating with a class runs nothing), and a
non-dunder method when its name appears as an attribute (``x.name``) or
as the string ``getattr``/``hasattr`` looks up — a local variable or a
function of the same name does not run a method —

* in any file under ``benchmarks/`` or ``examples/``, or
* in another ``src/repro`` module — executable code in a package
  ``__init__`` counts, its import lines and ``__all__`` do not — or
* in its own module outside its own body,

and the appearance is not itself inside a definition that is not run
(iterated to a fixpoint).  ``typing.Protocol`` subclasses are
declarations and are not listed.  Names are shared across classes, so
``x.add`` keeps every ``add`` method alive: the rule errs towards
keeping.

Two more rules cover options: every field of a ``*Config`` dataclass is
passed by keyword in some call outside ``tests/`` (the field census
below), and so is every defaulted keyword of a constructor, by keyword
or by position (the keyword census).  ``make census`` prints the full
report.
"""

from __future__ import annotations

import ast
import fnmatch
import pathlib
import sys
import textwrap
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
CALLER_ROOTS = (REPO / "benchmarks", REPO / "examples")

# (module, qualname, reason).  Three kinds of row only: a test-side
# oracle that must live next to what it checks, dynamic dispatch the
# walker cannot see, and code whose caller is a named open ROADMAP item
# (the row says which item removes it).  A row that has become run fails
# the test too, so stale rows do not accumulate.
ALLOW: Tuple[Tuple[str, str, str], ...] = (
    ("obs/analysis.py", "Attribution.verify_partition",
     "test-side oracle: the partition identity tests/obs assert on every "
     "attribution, kept beside the fields it sums"),
    ("faults/plan.py", "FaultPlanRuntime._install_*",
     "dynamic dispatch: FaultPlanRuntime() calls getattr(self, f'_install_{clause.kind}')"),
    ("core/analysis.py", "confidence_interval",
     "ROADMAP item 3 (claim ledger) is its caller, or removes it"),
)
MAX_ALLOW_ROWS = 12


@dataclass(frozen=True)
class Definition:
    module: str            # path relative to the package root, e.g. "crdt/sets.py"
    qualname: str          # "function", "Class" or "Class.method"
    lines: int

    @property
    def name(self) -> str:
        return self.qualname.rpartition(".")[2]

    @property
    def owner_class(self) -> Optional[str]:
        return self.qualname.rpartition(".")[0] or None


@dataclass(frozen=True)
class Use:
    name: str
    module: str
    inside: Tuple[str, ...]   # qualnames of the listed definitions enclosing it
    attribute: bool           # ``x.name`` or a getattr/hasattr string: can run a method


def _span(node: ast.AST) -> int:
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    return node.end_lineno - first + 1


def _is_protocol(node: ast.ClassDef) -> bool:
    return any((isinstance(base, ast.Name) and base.id == "Protocol")
               or (isinstance(base, ast.Attribute) and base.attr == "Protocol")
               for base in node.bases)


def _is_listed(node: ast.AST, class_name: Optional[str]) -> bool:
    """Module level lists functions and classes, except ``typing.Protocol``
    subclasses (declarations, never run); class level lists non-dunder
    methods."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return class_name is None or not (
            node.name.startswith("__") and node.name.endswith("__"))
    return (isinstance(node, ast.ClassDef) and class_name is None
            and not _is_protocol(node))


def _annotation(node: ast.AST) -> Optional[ast.AST]:
    """The type annotation hanging off ``node``: naming a class in one
    declares a type, it does not run the class."""
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        return node.annotation
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return node.returns
    return None


def _walk_module(module: str, tree: ast.Module, is_package_init: bool
                 ) -> Tuple[List[Definition], List[Use]]:
    """Definitions listed in ``tree`` and every name it uses, each tagged
    with the listed definitions that enclose the use."""
    definitions: List[Definition] = []
    uses: List[Use] = []

    def names_in(node: ast.AST) -> Iterator[Tuple[str, bool]]:
        if isinstance(node, ast.Name):
            yield node.id, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, True
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], False
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr") and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str)):
            yield node.args[1].value, True

    def visit(node: ast.AST, inside: Tuple[str, ...], class_name: Optional[str],
              listing: bool) -> None:
        """``listing``: the children of ``node`` sit at module or class
        level, where definitions are listed."""
        annotation = _annotation(node)
        for child in ast.iter_child_nodes(node):
            if child is annotation:
                continue
            if is_package_init and isinstance(child, (ast.Import, ast.ImportFrom)):
                continue
            if listing and _is_listed(child, class_name):
                qualname = f"{class_name}.{child.name}" if class_name else child.name
                definitions.append(Definition(module, qualname, _span(child)))
                # Decorators, bases and defaults belong to the definition:
                # they stop running when it goes.
                is_class = isinstance(child, ast.ClassDef)
                visit(child, inside + (qualname,),
                      child.name if is_class else None, is_class)
                continue
            for name, attribute in names_in(child):
                uses.append(Use(name, module, inside, attribute))
            # Conditional definitions (``if TYPE_CHECKING:``, ``try:``) are
            # still module- or class-level.
            conditional = listing and isinstance(child, (ast.If, ast.Try, ast.With))
            visit(child, inside, class_name if conditional else None, conditional)

    visit(tree, (), None, True)
    return definitions, uses


def _names_used(root: pathlib.Path) -> Tuple[Set[str], Set[str]]:
    """Every name the files under ``root`` use, and those of them used
    as an attribute (the only uses that run a method)."""
    names: Set[str] = set()
    attributes: Set[str] = set()
    for path in sorted(root.rglob("*.py")):
        _, uses = _walk_module(path.name, ast.parse(path.read_text()), False)
        names.update(use.name for use in uses)
        attributes.update(use.name for use in uses if use.attribute)
    return names, attributes


@dataclass(frozen=True)
class Row:
    definition: Definition
    kept_by: Optional[str]      # who names it; None: no run does
    allow_row: Optional[int]    # index of the ALLOW row covering it, if any


def _allow_row(module: str, qualname: str,
               allow: Sequence[Tuple[str, str, str]]) -> Optional[int]:
    """The first row whose module and qualname patterns match."""
    for index, (module_pattern, pattern, _) in enumerate(allow):
        if (fnmatch.fnmatchcase(module, module_pattern)
                and fnmatch.fnmatchcase(qualname, pattern)):
            return index
    return None


def census(src: pathlib.Path = SRC,
           caller_roots: Sequence[pathlib.Path] = CALLER_ROOTS,
           allow: Sequence[Tuple[str, str, str]] = ALLOW) -> List[Row]:
    """One row per listed definition of the package at ``src``: who keeps
    it alive (``kept_by`` is ``None`` when no run executes it).  An
    allow-listed definition is treated as run, so what it names stays
    alive, but its ``kept_by`` still tells whether the row is needed."""
    definitions: List[Definition] = []
    uses_of: Dict[str, List[Use]] = {}
    for path in sorted(src.rglob("*.py")):
        module = path.relative_to(src).as_posix()
        found, uses = _walk_module(module, ast.parse(path.read_text()),
                                   path.name == "__init__.py")
        definitions.extend(found)
        for use in uses:
            uses_of.setdefault(use.name, []).append(use)
    external = [(root.name, _names_used(root)) for root in caller_roots]
    allow_rows = {(d.module, d.qualname): _allow_row(d.module, d.qualname, allow)
                  for d in definitions}

    dead: Set[Tuple[str, str]] = set()

    def keeper(d: Definition) -> Optional[str]:
        if d.owner_class and (d.module, d.owner_class) in dead:
            return None
        method = d.owner_class is not None
        for label, (names, attributes) in external:
            if d.name in (attributes if method else names):
                return label + "/"
        own: Optional[str] = None
        for use in uses_of.get(d.name, ()):
            if method and not use.attribute:
                continue
            if any((use.module, q) in dead for q in use.inside):
                continue
            if use.module != d.module:
                return use.module
            if d.qualname not in use.inside:
                own = "own module"
        return own

    while True:
        newly = {(d.module, d.qualname) for d in definitions
                 if (d.module, d.qualname) not in dead
                 and allow_rows[d.module, d.qualname] is None
                 and keeper(d) is None}
        if not newly:
            break
        dead |= newly
    return [Row(d, keeper(d), allow_rows[d.module, d.qualname]) for d in definitions]


def unrun(rows: Iterable[Row]) -> List[Definition]:
    """The definitions nothing runs and no row allows, a dead class
    standing for its methods."""
    flagged = [row.definition for row in rows
               if row.kept_by is None and row.allow_row is None]
    dead_classes = {(d.module, d.qualname) for d in flagged if d.owner_class is None}
    return [d for d in flagged
            if d.owner_class is None or (d.module, d.owner_class) not in dead_classes]


def check(rows: Sequence[Row], allow: Sequence[Tuple[str, str, str]]) -> List[str]:
    """What is wrong: un-run definitions not allow-listed, and allow-list
    rows that no longer hold anything up."""
    problems = [f"{d.module}::{d.qualname} ({d.lines} lines): no run executes it — "
                f"delete it, or give it a caller outside tests/"
                for d in unrun(rows)]
    needed = {row.allow_row for row in rows
              if row.kept_by is None and row.allow_row is not None}
    problems += [f"{module}::{pattern}: allow-listed but run (or gone) — drop the row"
                 for index, (module, pattern, _) in enumerate(allow)
                 if index not in needed]
    return problems


def test_every_definition_under_src_is_run_or_allow_listed():
    assert len(ALLOW) <= MAX_ALLOW_ROWS
    assert all(reason.strip() for _, _, reason in ALLOW)
    problems = check(census(), ALLOW)
    assert not problems, "\n".join(problems)


# ----------------------------------------------------------------------
# The walker itself, over a synthetic package
# ----------------------------------------------------------------------
_SYNTHETIC = {
    "pkg/__init__.py": """
        from pkg.a import exported_only, registered
        __all__ = ["exported_only", "registered"]
        HOOKS = [registered]
    """,
    "pkg/a.py": """
        def used_by_b():
            return helper()

        def helper():
            return 1

        def nobody():
            return only_by_nobody()

        def only_by_nobody():
            return 2

        def exported_only():
            return 3

        def registered():
            return 4

        def recursive():
            return recursive()

        class Thing:
            def reached(self):
                return 5

            def unreached(self):
                return 6

            def __len__(self):
                return 0
    """,
    "pkg/b.py": """
        from pkg.a import Thing, used_by_b

        def entry():
            used_by_b()
            return Thing().reached()
    """,
    "callers/bench.py": """
        from pkg.b import entry
        entry()
    """,
}


def _censused(root: pathlib.Path, files: Dict[str, str], allow=()):
    for name, body in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body))
    rows = census(root / "pkg", [root / "callers"], allow)
    return rows, check(rows, allow)


@pytest.fixture
def synthetic(tmp_path):
    return lambda allow=(): _censused(tmp_path, _SYNTHETIC, allow)


def _kept(rows):
    return {row.definition.qualname: row.kept_by for row in rows}


def test_walker_keeps_what_a_caller_reaches(synthetic):
    rows, _ = synthetic()
    kept = _kept(rows)
    assert kept["entry"] == "callers/"          # named by a benchmark
    assert kept["used_by_b"] == "b.py"          # named by another module
    assert kept["helper"] == "own module"       # named by live code beside it
    assert kept["Thing.reached"] == "b.py"      # a method, through obj.attr
    assert kept["registered"] == "__init__.py"  # executable __init__ code
    assert "Thing.__len__" not in kept          # dunders are not listed


def test_walker_flags_what_no_run_names(synthetic):
    rows, problems = synthetic()
    assert [d.qualname for d in unrun(rows)] == [
        "nobody",           # nobody names it
        "only_by_nobody",   # named only by a flagged function: second round
        "exported_only",    # an __init__ import line and __all__ are not callers
        "recursive",        # its own body is not a caller
        "Thing.unreached",
    ]
    assert len(problems) == 5
    assert all("no run executes it" in problem for problem in problems)


def test_flagging_iterates_to_a_fixpoint(synthetic):
    # Were `nobody` run (here: allow-listed), what it names would be too.
    rows, _ = synthetic(allow=[("a.py", "nobody", "dynamic dispatch")])
    assert _kept(rows)["only_by_nobody"] == "own module"
    assert "only_by_nobody" not in [d.qualname for d in unrun(rows)]


def test_allow_list_rows_silence_a_flag_and_go_stale(synthetic):
    allow = [("a.py", "Thing.un*", "test-side oracle"),
             ("a.py", "used_by_b", "ROADMAP item 0")]
    _, problems = synthetic(allow)
    assert not any("Thing.unreached" in problem for problem in problems)
    # used_by_b is run: its row holds nothing up and must be dropped.
    assert [p for p in problems if "drop the row" in p] == [
        "a.py::used_by_b: allow-listed but run (or gone) — drop the row"]


_ANNOTATED = {
    "pkg/a.py": """
        from typing import Protocol

        class OnlyAnnotated:
            pass

        class Transport(Protocol):
            def send(self, frame) -> None:
                ...

        def entry(x: OnlyAnnotated, transport: Transport) -> OnlyAnnotated:
            y: OnlyAnnotated = x
            transport.send(y)
            return y
    """,
    "callers/bench.py": """
        from pkg.a import entry
        entry(None, None)
    """,
}


def test_a_class_named_only_in_annotations_is_flagged(tmp_path):
    rows, problems = _censused(tmp_path, _ANNOTATED)
    assert _kept(rows)["entry"] == "callers/"
    assert [d.qualname for d in unrun(rows)] == ["OnlyAnnotated"]
    assert len(problems) == 1


def test_a_protocol_is_a_declaration_not_a_definition(tmp_path):
    rows, _ = _censused(tmp_path, _ANNOTATED)
    assert not [q for q in _kept(rows) if q.startswith("Transport")]


_METHOD_USES = {
    "pkg/a.py": """
        class Store:
            def latest(self):
                return 1

            def depth(self):
                return 2

            def looked_up(self):
                return 3

            def checked(self):
                return 4

            def called(self):
                return 5

        def points():
            return 6

        def entry(store):
            latest = store.called()
            if hasattr(store, "checked"):
                latest += getattr(store, "looked_up")()
            return latest + points()
    """,
    "callers/bench.py": """
        from pkg.a import Store, entry
        depth = entry(Store())
    """,
}


def test_a_method_is_run_only_through_an_attribute(tmp_path):
    rows, problems = _censused(tmp_path, _METHOD_USES)
    kept = _kept(rows)
    assert kept["Store.called"] == "own module"      # store.called()
    assert kept["Store.looked_up"] == "own module"   # getattr's string
    assert kept["Store.checked"] == "own module"     # hasattr's string
    assert kept["points"] == "own module"            # a function: any use
    # A local variable of the same name, here or in a caller, runs no
    # method.
    assert [d.qualname for d in unrun(rows)] == ["Store.latest", "Store.depth"]
    assert len(problems) == 2


# One use of the name ``m`` per case, placed in a module beside ``Store``,
# in a second module of the package, or in a benchmark: the keeper the
# census names for ``Store.m``, or None when that use runs no method.
_USE_CASES = {
    "attribute-call": ("pkg/a.py", "store.m()", "own module"),
    "bound-attribute": ("pkg/a.py", "run = store.m", "own module"),
    "getattr-string": ("pkg/a.py", 'getattr(store, "m")()', "own module"),
    "hasattr-string": ("pkg/a.py", 'hasattr(store, "m")', "own module"),
    "other-module-attribute": ("pkg/b.py", "store.m()", "b.py"),
    "benchmark-attribute": ("callers/bench.py", "Store().m()", "callers/"),
    "local-variable": ("pkg/a.py", "m = 1", None),
    "parameter-read": ("pkg/a.py", "return store, m", None),
    "keyword-argument": ("pkg/a.py", "print(m=1)", None),
    "nested-function": ("pkg/a.py", "def m():\n    return 1", None),
    "getattr-computed-name": ("pkg/a.py", 'getattr(store, "m" * 1)()', None),
    "benchmark-local": ("callers/bench.py", "m = entry(Store(), 1)", None),
}


_USE_HOSTS = {
    "pkg/a.py": """
        class Store:
            def m(self):
                return 1

        def entry(store, m):
            {use}
    """,
    "pkg/b.py": """
        def other(store):
            {use}
    """,
    "callers/bench.py": """
        from pkg.a import Store, entry
        from pkg.b import other
        entry(Store(), 1)
        other(Store())
        {use}
    """,
}


@pytest.mark.parametrize("where, line, keeper", list(_USE_CASES.values()),
                         ids=list(_USE_CASES))
def test_one_use_keeps_a_method_or_not(tmp_path, where, line, keeper):
    files = {}
    for name, template in _USE_HOSTS.items():
        indent = " " * (12 if name.startswith("pkg/") else 8)
        use = line if name == where else "pass"
        files[name] = template.replace(
            "{use}", textwrap.indent(use, indent).lstrip())
    rows, problems = _censused(tmp_path, files)
    assert _kept(rows)["Store.m"] == keeper
    assert len(problems) == (keeper is None)


# ----------------------------------------------------------------------
# The field census: every ``*Config`` field is one a run sets
# ----------------------------------------------------------------------
# DESIGN.md, "Conventions": an option exists only while a caller sets it;
# a value nobody sets is a module constant.  A field of a ``*Config``
# dataclass under ``src/repro`` — or of any dataclass of the run
# description (``Scenario``, ``Rollout``, the workloads) — is *set* when
# some call to that class in ``src/``, ``benchmarks/`` or ``examples/``
# — the callers the definition census counts — passes it by keyword, or
# a ``replace(...)`` call passes a keyword of its name.  Tests do not
# count: a test that needs another value patches the module constant.
FIELD_CALLER_ROOTS = (SRC,) + CALLER_ROOTS
RUN_DESCRIPTION_MODULES = ("core/scenario.py", "core/workloads.py")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if (isinstance(target, ast.Name) and target.id == "dataclass") or (
                isinstance(target, ast.Attribute) and target.attr == "dataclass"):
            return True
    return False


def config_fields(src: pathlib.Path = SRC) -> Dict[str, Tuple[str, List[str]]]:
    """Class name -> (module, field names) of every ``*Config`` dataclass
    and every dataclass of the run description."""
    found: Dict[str, Tuple[str, List[str]]] = {}
    for path in sorted(src.rglob("*.py")):
        described = path.relative_to(src).as_posix() in RUN_DESCRIPTION_MODULES
        for node in ast.parse(path.read_text()).body:
            if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)
                    and (described or node.name.endswith("Config"))):
                continue
            assert node.name not in found, f"two classes named {node.name}"
            fields = [stmt.target.id for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign)
                      and isinstance(stmt.target, ast.Name)
                      and "ClassVar" not in ast.unparse(stmt.annotation)]
            found[node.name] = (path.relative_to(src).as_posix(), fields)
    return found


def field_setters(classes: Iterable[str],
                  roots: Sequence[pathlib.Path] = FIELD_CALLER_ROOTS
                  ) -> Dict[Tuple[str, str], List[str]]:
    """(class, field) -> the files whose calls to the class pass the
    field by keyword, relative to the repository; ``replace`` stands in
    for every class."""
    classes = set(classes) | {"replace"}
    setters: Dict[Tuple[str, str], List[str]] = {}
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                if name not in classes:
                    continue
                where = path.relative_to(root.parent).as_posix()
                if root == SRC:
                    where = "src/" + where
                for keyword in node.keywords:
                    files = setters.setdefault((name, keyword.arg), [])
                    if where not in files:
                        files.append(where)
    return setters


def unset_fields(fields: Dict[str, Tuple[str, List[str]]],
                 setters: Dict[Tuple[str, str], List[str]]) -> List[str]:
    return [f"{module}::{cls}.{name}"
            for cls, (module, names) in fields.items()
            for name in names
            if (cls, name) not in setters and ("replace", name) not in setters]


def test_every_config_field_is_set_by_a_run():
    fields = config_fields()
    setters = field_setters(fields)
    # A ``**mapping`` splat would hide which fields a call sets.
    assert not [cls for cls, arg in setters if arg is None]
    problems = unset_fields(fields, setters)
    assert not problems, (
        "no call outside tests/ sets these fields — make each a module "
        "constant the reading module owns:\n" + "\n".join(problems))


_CONFIGS = {
    "pkg/conf.py": """
        from dataclasses import dataclass, field
        from typing import ClassVar

        @dataclass(frozen=True)
        class RadioConfig:
            KIND: ClassVar[str] = "radio"
            power: float = 0.0
            channel: int = 26

        @dataclass
        class Other:
            unset: int = 0
    """,
    "callers/bench.py": """
        from pkg.conf import RadioConfig
        RadioConfig(power=3.0)
    """,
}


def test_field_census_counts_keywords_of_calls_outside_tests(tmp_path):
    for name, body in _CONFIGS.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body))
    fields = config_fields(tmp_path / "pkg")
    assert fields == {"RadioConfig": ("conf.py", ["power", "channel"])}
    setters = field_setters(fields, [tmp_path / "callers"])
    assert setters == {("RadioConfig", "power"): ["callers/bench.py"]}
    assert unset_fields(fields, setters) == ["conf.py::RadioConfig.channel"]



# ----------------------------------------------------------------------
# The keyword census: every defaulted constructor keyword is one a run sets
# ----------------------------------------------------------------------
# The field census's rule, for the constructors a class writes itself: a
# defaulted parameter of the ``__init__`` of a class under ``src/repro``
# is *set* when some call to the class in ``src/``, ``benchmarks/`` or
# ``examples/`` passes it — by keyword or by position — as an expression
# whose source text differs from the default's.  Tests do not count: a
# test that needs another value patches the module constant.
#
# (module, "Class.keyword" pattern, reason).  Two kinds of row only:
# dynamic dispatch the name-based walker cannot see ("dynamic dispatch:
# ..."), and a capability of DESIGN.md's middleware inventory that only
# tests exercise ("capability: ...", naming the test file).  A row that
# holds nothing up fails the test, as reachability rows do.
KEYWORD_ALLOW: Tuple[Tuple[str, str, str], ...] = (
    ("net/mac/*.py", "*Mac.config",
     "dynamic dispatch: StackConfig.make_mac builds "
     "mac_cls(radio, config=mac_config)"),
    ("core/workloads.py", "ProbeRun.scenario",
     "dynamic dispatch: Workload.attach builds "
     "self.driver(system, self, scenario)"),
    ("middleware/coap/resource.py", "CallbackResource.on_put",
     "capability: native CoAP PUT, "
     "tests/middleware/test_coap_end_to_end.py::test_put_changes_state"),
)
MAX_KEYWORD_ALLOW_ROWS = 6


@dataclass(frozen=True)
class Constructor:
    module: str
    params: Tuple[str, ...]              # after ``self``, in order
    defaults: Dict[str, str]             # parameter -> source of its default


def constructors(src: pathlib.Path = SRC) -> Dict[str, Constructor]:
    """Class name -> its ``__init__``, for every class under ``src``
    that writes one."""
    found: Dict[str, Constructor] = {}
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            for init in node.body:
                if not (isinstance(init, ast.FunctionDef)
                        and init.name == "__init__"):
                    continue
                args = init.args
                params = [a.arg for a in args.posonlyargs + args.args][1:]
                defaults = dict(zip(params[len(params) - len(args.defaults):],
                                    map(ast.unparse, args.defaults)))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    params.append(arg.arg)
                    if default is not None:
                        defaults[arg.arg] = ast.unparse(default)
                assert node.name not in found, f"two classes named {node.name}"
                found[node.name] = Constructor(
                    path.relative_to(src).as_posix(), tuple(params), defaults)
    return found


def keyword_setters(classes: Dict[str, Constructor],
                    roots: Sequence[pathlib.Path] = FIELD_CALLER_ROOTS
                    ) -> Dict[Tuple[str, Optional[str]], List[str]]:
    """(class, keyword) -> the files whose calls to the class pass the
    keyword a value other than its default, relative to the repository;
    ``(class, None)`` lists the calls that splat ``*args`` or
    ``**mapping``, which hide what they pass."""
    setters: Dict[Tuple[str, Optional[str]], List[str]] = {}
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            where = path.relative_to(root.parent).as_posix()
            if root == SRC:
                where = "src/" + where
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                if name not in classes:
                    continue
                init = classes[name]
                passed = [(kw.arg, kw.value) for kw in node.keywords]
                for param, arg in zip(init.params, node.args):
                    passed.append((None if isinstance(arg, ast.Starred)
                                   else param, arg))
                for param, value in passed:
                    if param is None or (param in init.defaults and ast.unparse(
                            value) != init.defaults[param]):
                        files = setters.setdefault((name, param), [])
                        if where not in files:
                            files.append(where)
    return setters


def keyword_problems(classes: Dict[str, Constructor],
                     setters: Dict[Tuple[str, Optional[str]], List[str]],
                     allow: Sequence[Tuple[str, str, str]] = KEYWORD_ALLOW
                     ) -> List[str]:
    """What is wrong: a defaulted keyword no run sets and no row allows,
    a splatting call, and a row that holds nothing up."""
    problems = [f"{files[0]}: a splat in a call to {cls} hides what it passes"
                for (cls, name), files in setters.items() if name is None]
    needed = set()
    for cls, init in classes.items():
        for name in init.defaults:
            if (cls, name) in setters:
                continue
            row = _allow_row(init.module, f"{cls}.{name}", allow)
            if row is None:
                problems.append(f"{init.module}::{cls}.{name}: no call outside "
                                f"tests/ sets it — make it a module constant "
                                f"the reading module owns")
            needed.add(row)
    problems += [f"{module}::{pattern}: allow-listed but set (or gone) — "
                 f"drop the row"
                 for index, (module, pattern, _) in enumerate(allow)
                 if index not in needed]
    return problems


def test_every_constructor_keyword_is_set_by_a_run():
    assert len(KEYWORD_ALLOW) <= MAX_KEYWORD_ALLOW_ROWS
    for _, _, reason in KEYWORD_ALLOW:
        kind, _, why = reason.partition(": ")
        assert kind in ("dynamic dispatch", "capability") and why.strip()
        if kind == "capability":
            test = why.rpartition(", ")[2].partition("::")[0]
            assert (REPO / test).is_file(), f"{reason}: names no test file"
    classes = constructors()
    problems = keyword_problems(classes, keyword_setters(classes))
    assert not problems, "\n".join(problems)


_CONSTRUCTORS = {
    "pkg/timer.py": """
        TIMEOUT_S = 30.0

        class Timer:
            def __init__(self, sim, period_s, stream="timer",
                         jitter=0.0, phase=None, *, start=False):
                pass

        class Plain:
            pass
    """,
    "callers/bench.py": """
        from pkg.timer import TIMEOUT_S, Timer
        Timer(sim, 1.0, "fast")
        Timer(sim, 1.0, jitter=0.0, phase=TIMEOUT_S)
    """,
    "callers/splat.py": """
        from pkg.timer import Timer
        Timer(**options)
    """,
    "tests/test_timer.py": """
        from pkg.timer import Timer
        Timer(sim, 1.0, start=True)
    """,
}


@pytest.fixture
def keyword_census(tmp_path):
    for name, body in _CONSTRUCTORS.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body))
    classes = constructors(tmp_path / "pkg")
    return classes, keyword_setters(classes, [tmp_path / "callers"])


def test_keyword_census_reads_every_init(keyword_census):
    classes, _ = keyword_census
    assert classes == {"Timer": Constructor(
        "timer.py", ("sim", "period_s", "stream", "jitter", "phase", "start"),
        {"stream": "'timer'", "jitter": "0.0", "phase": "None",
         "start": "False"})}


def test_keyword_census_counts_keyword_and_positional_arguments(
        keyword_census):
    _, setters = keyword_census
    assert setters[("Timer", "stream")] == ["callers/bench.py"]   # positional
    assert setters[("Timer", "phase")] == ["callers/bench.py"]    # keyword


def test_a_default_valued_literal_leaves_a_keyword_unset(keyword_census):
    _, setters = keyword_census
    assert ("Timer", "jitter") not in setters


def test_a_splat_is_refused(keyword_census):
    classes, setters = keyword_census
    assert setters[("Timer", None)] == ["callers/splat.py"]
    assert keyword_problems(classes, setters, allow=())[0] == (
        "callers/splat.py: a splat in a call to Timer hides what it passes")


def test_a_call_under_tests_does_not_count(keyword_census):
    classes, setters = keyword_census
    assert ("Timer", "start") not in setters
    assert "timer.py::Timer.start: no call outside tests/ sets it" in "\n".join(
        keyword_problems(classes, setters, allow=()))


def test_keyword_allow_rows_silence_a_flag_and_go_stale(keyword_census):
    classes, setters = keyword_census
    del setters[("Timer", None)]
    allow = [("*.py", "Timer.[js]*", "dynamic dispatch: a registry"),
             ("timer.py", "Timer.stream", "dynamic dispatch: stale")]
    assert keyword_problems(classes, setters, allow) == [
        "timer.py::Timer.stream: allow-listed but set (or gone) — drop the row"]


def report(out=sys.stdout) -> None:
    """What ``make census`` prints: per definition who keeps it alive,
    then totals by kind of keeper; then per ``*Config`` field the files
    that set it; then per defaulted constructor keyword the files that
    set it, and the totals of constructors and their keywords."""
    rows = census()
    totals: Dict[str, int] = {}
    for row in rows:
        d = row.definition
        kept = kind = row.kept_by
        if kept is None:
            kept = kind = "NOTHING"
            if row.allow_row is not None:
                kind = "allow-list"
                kept = "allow-list: " + ALLOW[row.allow_row][2]
        elif kept.endswith(".py"):
            kind = "another module"
        totals[kind] = totals.get(kind, 0) + 1
        print(f"{d.module}::{d.qualname:<46} {d.lines:>4}  {kept}", file=out)
    print(f"\n{len(rows)} definitions kept by: "
          + ", ".join(f"{kind} {count}" for kind, count in sorted(totals.items())),
          file=out)
    flagged = unrun(rows)
    print(f"{len(flagged)} un-run ({sum(d.lines for d in flagged)} lines); "
          f"{len(ALLOW)} allow-list rows of at most {MAX_ALLOW_ROWS}", file=out)
    for problem in check(rows, ALLOW):
        print("FAIL", problem, file=out)
    fields = config_fields()
    setters = field_setters(fields)
    print(file=out)
    for cls, (module, names) in fields.items():
        for name in names:
            files = setters.get((cls, name)) or setters.get(("replace", name))
            print(f"{module + '::' + cls + '.' + name:<56} "
                  f"{', '.join(files) if files else 'NOTHING'}", file=out)
    unset = unset_fields(fields, setters)
    print(f"{sum(len(names) for _, names in fields.values())} fields of "
          f"{len(fields)} *Config and run-description classes, "
          f"{len(unset)} set by no run", file=out)
    for problem in unset:
        print("FAIL", problem, "is set by no run", file=out)
    classes = constructors()
    setters = keyword_setters(classes)
    print(file=out)
    for cls, init in classes.items():
        for name in init.defaults:
            row = _allow_row(init.module, f"{cls}.{name}", KEYWORD_ALLOW)
            kept = ", ".join(setters.get((cls, name), ()))
            if not kept:
                kept = ("NOTHING" if row is None
                        else "allow-list: " + KEYWORD_ALLOW[row][2])
            print(f"{init.module + '::' + cls + '.' + name:<56} {kept}",
                  file=out)
    for problem in keyword_problems(classes, setters):
        print("FAIL", problem, file=out)
    print(f"{len(classes)} classes with an __init__, "
          f"{sum(len(init.params) for init in classes.values())} keywords, "
          f"{sum(len(init.defaults) for init in classes.values())} defaulted; "
          f"{len(KEYWORD_ALLOW)} allow-list rows of at most "
          f"{MAX_KEYWORD_ALLOW_ROWS}", file=out)


if __name__ == "__main__":
    report()
