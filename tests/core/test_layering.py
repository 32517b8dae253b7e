"""Fig. 1's tiers as an import DAG: a package imports only lower tiers.

The paper layers the sensing-and-actuation stack into tiers, and the
package keeps that order as data: :data:`TIERS` lists the packages of
``src/repro`` lowest first, and a module may import its own package or a
package in a strictly lower tier — nothing beside it and nothing above
it (DESIGN.md, "Layers").  The census walks every module with the
standard library's ``ast``, in the style of ``test_fault_path.py``: a
module-level and a function-level import both count, because both load
the module when they run; an ``if TYPE_CHECKING:`` block does not,
because it loads nothing.  The root package (``repro/__init__.py``,
which holds only ``__version__``) sits below every tier and imports
nothing.

``python tests/core/test_layering.py`` prints each package's tier and
its import edges (``make census`` runs it).
"""

from __future__ import annotations

import ast
import pathlib
import sys
from typing import Dict, Iterator, List, Tuple

REPO = pathlib.Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"

#: The tiers, lowest first: the simulation substrate, then the radio and
#: the observation data model, the network stack, the device and data
#: services, the services built on those, fault injection and checking,
#: the assembled system, the applications that run it, and last the
#: command line, which dispatches into them.
TIERS: Tuple[Tuple[str, ...], ...] = (
    ("sim", "parallel"),
    ("obs", "radio"),
    ("net",),
    ("devices", "deployment", "crdt", "middleware"),
    ("aggregation", "safety", "security"),
    ("faults", "checking"),
    ("core",),
    ("app",),
    ("__main__",),
)
TIER: Dict[str, int] = {pkg: n for n, pkgs in enumerate(TIERS) for pkg in pkgs}
#: The root package: below every tier.
ROOT = "repro"
TIER[ROOT] = -1


def package_of(dotted: str) -> str:
    """The tier package of a dotted ``repro`` module name."""
    parts = dotted.split(".")
    return parts[1] if len(parts) > 1 else ROOT


def _is_type_checking(test: ast.expr) -> bool:
    return ast.unparse(test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING")


def _imports(node: ast.AST) -> Iterator[Tuple[int, str]]:
    """``(line, dotted module)`` of every ``repro`` import under
    ``node`` that runs, skipping ``if TYPE_CHECKING:`` bodies."""
    if isinstance(node, ast.If) and _is_type_checking(node.test):
        for child in node.orelse:
            yield from _imports(child)
        return
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name.split(".")[0] == ROOT:
                yield node.lineno, alias.name
    elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        if node.module.split(".")[0] == ROOT:
            if node.module == ROOT:
                # ``from repro import parallel`` names a module;
                # ``from repro import __version__`` the root itself.
                for alias in node.names:
                    name = f"{ROOT}.{alias.name}"
                    known = (SRC / f"{alias.name}.py").exists() or (
                        SRC / alias.name).is_dir()
                    yield node.lineno, name if known else ROOT
            else:
                yield node.lineno, node.module
    for child in ast.iter_child_nodes(node):
        yield from _imports(child)


def _module_package(path: pathlib.Path) -> str:
    rel = path.relative_to(SRC.parent).with_suffix("")
    parts = rel.parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return package_of(".".join(parts))


def edges() -> Dict[str, Dict[str, List[str]]]:
    """``{package: {imported package: ["path:line", ...]}}`` over every
    module under ``src/repro``, the package's own imports left out."""
    found: Dict[str, Dict[str, List[str]]] = {}
    for path in sorted(SRC.rglob("*.py")):
        here = _module_package(path)
        rel = path.relative_to(REPO).as_posix()
        out = found.setdefault(here, {})
        for line, dotted in _imports(ast.parse(path.read_text())):
            there = package_of(dotted)
            if there != here:
                out.setdefault(there, []).append(f"{rel}:{line}")
    return found


def violations(graph: Dict[str, Dict[str, List[str]]]) -> List[str]:
    """Every edge the tiers do not allow, as ``path:line: a -> b``."""
    bad = []
    for here, targets in graph.items():
        for there, sites in targets.items():
            if here == ROOT or here not in TIER or there not in TIER \
                    or TIER[there] >= TIER[here]:
                bad.extend(f"{site}: {here} -> {there}" for site in sites)
    return sorted(bad)


def test_every_package_has_a_tier():
    packages = {_module_package(path) for path in SRC.rglob("*.py")}
    assert packages - set(TIER) == set()
    assert set(TIER) - packages == set()


def test_imports_only_go_down_the_tiers():
    assert violations(edges()) == [], (
        "move the importing code up a tier, or the imported code down")


def test_the_census_sees_every_kind_of_import():
    source = """
import repro.sim.kernel
from repro.radio import medium
from repro import parallel, __version__
from repro.core.system import IIoTSystem
from typing import TYPE_CHECKING
if TYPE_CHECKING:
    from repro.app.report import report_main
else:
    from repro.net.stack import NetworkStack
def late():
    from repro.checking.base import CheckerSuite
"""
    assert sorted(d for _, d in _imports(ast.parse(source))) == sorted([
        "repro.sim.kernel", "repro.radio", "repro.parallel", "repro",
        "repro.core.system", "repro.net.stack", "repro.checking.base"])


def test_an_upward_or_sideways_edge_is_a_violation():
    graph = {"obs": {"core": ["src/repro/obs/x.py:3"]},
             "crdt": {"devices": ["src/repro/crdt/y.py:4"]},
             "core": {"sim": ["src/repro/core/z.py:5"], ROOT: ["z:6"]},
             ROOT: {"sim": ["src/repro/__init__.py:1"]}}
    assert violations(graph) == [
        "src/repro/__init__.py:1: repro -> sim",
        "src/repro/crdt/y.py:4: crdt -> devices",
        "src/repro/obs/x.py:3: obs -> core",
    ]


def report(out=sys.stdout) -> None:
    """What ``make census`` prints: per package its tier and the packages
    it imports, each with its tier and number of import sites; then every
    edge the tiers forbid."""
    graph = edges()
    for pkg in sorted(graph, key=lambda p: (TIER.get(p, 99), p)):
        targets = graph[pkg]
        listed = ", ".join(
            f"{there} ({TIER.get(there, '?')}) x{len(targets[there])}"
            for there in sorted(targets, key=lambda p: (TIER.get(p, 99), p)))
        print(f"{TIER.get(pkg, '?'):>2}  {pkg:<12} -> {listed or '-'}",
              file=out)
    bad = violations(graph)
    print(f"\n{len(graph)} packages, "
          f"{sum(len(t) for t in graph.values())} package edges, "
          f"{len(bad)} forbidden import site(s)", file=out)
    for problem in bad:
        print("FAIL", problem, file=out)


if __name__ == "__main__":
    report()
