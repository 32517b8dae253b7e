"""Runtime invariant checking.

The dependability taxonomy the paper builds (reliability, safety,
availability) demands that protocol correctness hold *under faults*, not
just on the happy path.  This package provides the checkers:

- :mod:`repro.checking.base` — the ``InvariantChecker`` contract
  (subscribe to trace categories and/or sample system state on a
  schedule) and the ``CheckerSuite`` that manages a set of them;
- concrete checkers spanning the stack's layers:
  :mod:`~repro.checking.rpl` (DODAG acyclicity, rank monotonicity,
  delivered-path loop bounds), :mod:`~repro.checking.macradio` (radio
  state machine and collision accounting),
  :mod:`~repro.checking.coap` (at-most-once responses, retransmission
  bounds), :mod:`~repro.checking.crdt` (lattice
  laws on live states, convergence after quiescence),
  :mod:`~repro.checking.safety` (comfort envelope outside declared
  fault windows) and :mod:`~repro.checking.availability` (service
  availability under partitions);
- :func:`default_suite`, the cross-layer set a system with
  ``SystemConfig(invariant_checking=True)`` installs.

The seed-sweep harness and the built-in fault scenarios that run these
checkers sit a tier up, in :mod:`repro.app.sweep` and
:mod:`repro.app.scenarios`.

Checkers are read-only observers: they never mutate protocol state,
never draw from the simulation's RNG, and never emit into the shared
:class:`~repro.sim.trace.TraceLog` — so a run with checkers enabled
produces exactly the trace the same seed produces without them.
"""

from repro.checking.base import CheckerSuite
from repro.checking.coap import CoapExchangeChecker
from repro.checking.macradio import CollisionAccountingChecker, RadioStateChecker
from repro.checking.rpl import DeliveredPathChecker, DodagStructureChecker


def default_suite(system) -> CheckerSuite:
    """The standard cross-layer checker set for an ``IIoTSystem``.

    Application-level checkers (CRDT, safety) observe objects the
    application wires up, so scenarios add those to the returned suite
    themselves via :meth:`CheckerSuite.add`.
    """
    suite = CheckerSuite(system.sim, system.trace)
    routers = {nid: node.stack.rpl for nid, node in system.nodes.items()}
    nodes = system.nodes
    suite.add(DodagStructureChecker(routers,
                                    alive=lambda nid: nodes[nid].alive))
    suite.add(DeliveredPathChecker(node_count=len(system.nodes)))
    suite.add(RadioStateChecker(system.medium))
    suite.add(CollisionAccountingChecker(system.medium))
    suite.add(CoapExchangeChecker())
    return suite
