"""One fault path: only the fault-schedule runtime injects a fault.

A fault injected by hand reaches no ``fault.*`` span, no checker fault
window and no scenario JSON, so outside ``faults/plan.py`` nothing
under ``src/``, ``benchmarks/`` or ``examples/`` may use
``DeviceNode.fail``/``recover``, ``Sensor.inject_fault``/``clear_fault``
or ``Medium.set_link_filter`` — called or handed over as a callback —
or construct a ``WifiInterferer``; an experiment puts its clauses in
``Scenario.faults`` or hands them to ``install(system, clauses)``
(:func:`repro.faults.plan.install`) instead.  ``tests/`` may drive the
primitives directly.  The walk is by attribute name, in the style of
``test_reachability.py``: ``self.stack.fail()`` inside
``devices/node.py`` — the network stack ``DeviceNode.fail`` delegates
to — is the one intended exception.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterator, List, Tuple

REPO = pathlib.Path(__file__).resolve().parents[2]
ROOTS = (REPO / "src", REPO / "benchmarks", REPO / "examples")
RUNTIME = "src/repro/faults/plan.py"

#: Attribute names of the fault primitives.
PRIMITIVES = {"fail", "recover", "inject_fault", "clear_fault",
              "set_link_filter"}
#: (file, expression) uses that are not fault injection.
ALLOWED = {
    ("src/repro/devices/node.py", "self.stack.fail"),
    ("src/repro/devices/node.py", "self.stack.recover"),
}


def _uses(tree: ast.AST) -> Iterator[Tuple[int, str]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in PRIMITIVES:
            yield node.lineno, ast.unparse(node)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None)
            if name == "WifiInterferer":
                yield node.lineno, ast.unparse(func)


def hand_faults() -> List[str]:
    """Every use of a fault primitive outside the runtime, as
    ``path:line: expression``."""
    found = []
    for root in ROOTS:
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(REPO).as_posix()
            if rel == RUNTIME:
                continue
            for line, expr in _uses(ast.parse(path.read_text())):
                if (rel, expr) not in ALLOWED:
                    found.append(f"{rel}:{line}: {expr}")
    return found


def test_only_the_fault_plan_runtime_injects_faults():
    assert hand_faults() == [], (
        "inject these through Scenario.faults or "
        "install(system, clauses) instead")


def test_the_census_sees_every_primitive():
    source = """
node.fail(); node.recover(); sim.schedule(1.0, nodes[2].fail)
sensor.inject_fault(mode); sensor.clear_fault()
medium.set_link_filter(None)
WifiInterferer(medium, clause); interference.WifiInterferer(medium, clause)
"""
    assert sorted(expr for _, expr in _uses(ast.parse(source))) == sorted([
        "node.fail", "node.recover", "nodes[2].fail", "sensor.inject_fault",
        "sensor.clear_fault", "medium.set_link_filter", "WifiInterferer",
        "interference.WifiInterferer"])
