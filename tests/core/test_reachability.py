"""Nothing shipped that nothing runs: a reachability census of ``src/repro``.

The paper is reproduced by what the CLI, ``benchmarks/`` and
``examples/`` *execute*, so a definition under ``src/repro`` that only
``tests/`` or a package ``__all__`` ever touch measures nothing and is
still paid for in every refactor.  This file walks the tree with the
standard library's ``ast`` and fails on such a definition unless it is
pinned, with a reason, in :data:`ALLOW` below — as
``test_option_surface.py`` pins options (DESIGN.md, "Conventions").

The rule is by *name*.  A module-level function or class, or a non-dunder
method, is **run** when its name appears (``Name`` / ``Attribute`` /
import alias, outside type annotations — annotating with a class runs
nothing)

* in any file under ``benchmarks/`` or ``examples/``, or
* in another ``src/repro`` module — executable code in a package
  ``__init__`` counts, its import lines and ``__all__`` do not — or
* in its own module outside its own body,

and the appearance is not itself inside a definition that is not run
(iterated to a fixpoint).  ``typing.Protocol`` subclasses are
declarations and are not listed.  Names are shared across classes, so
``x.add`` keeps every ``add`` method alive: the rule errs towards
keeping.

A second rule covers options: every field of a ``*Config`` dataclass is
passed by keyword in some call outside ``tests/`` (the field census
below).  ``make census`` prints the full report.
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
     "dynamic dispatch: install() calls getattr(self, f'_install_{clause.kind}')"),
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

    def names_in(node: ast.AST) -> Iterator[str]:
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]

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
            for name in names_in(child):
                uses.append(Use(name, module, inside))
            # Conditional definitions (``if TYPE_CHECKING:``, ``try:``) are
            # still module- or class-level.
            conditional = listing and isinstance(child, (ast.If, ast.Try, ast.With))
            visit(child, inside, class_name if conditional else None, conditional)

    visit(tree, (), None, True)
    return definitions, uses


def _names_used(root: pathlib.Path) -> Set[str]:
    names: Set[str] = set()
    for path in sorted(root.rglob("*.py")):
        _, uses = _walk_module(path.name, ast.parse(path.read_text()), False)
        names.update(use.name for use in uses)
    return names


@dataclass(frozen=True)
class Row:
    definition: Definition
    kept_by: Optional[str]      # who names it; None: no run does
    allow_row: Optional[int]    # index of the ALLOW row covering it, if any


def _allow_row(d: Definition, allow: Sequence[Tuple[str, str, str]]) -> Optional[int]:
    for index, (module, pattern, _) in enumerate(allow):
        if module == d.module and fnmatch.fnmatchcase(d.qualname, pattern):
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
    allow_rows = {(d.module, d.qualname): _allow_row(d, allow) for d in definitions}

    dead: Set[Tuple[str, str]] = set()

    def keeper(d: Definition) -> Optional[str]:
        if d.owner_class and (d.module, d.owner_class) in dead:
            return None
        for label, names in external:
            if d.name in names:
                return label + "/"
        own: Optional[str] = None
        for use in uses_of.get(d.name, ()):
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


def report(out=sys.stdout) -> None:
    """What ``make census`` prints: per definition who keeps it alive,
    then totals by kind of keeper; then per ``*Config`` field the files
    that set it."""
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


if __name__ == "__main__":
    report()
