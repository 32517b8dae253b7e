"""The clock and the log belong to the run (DESIGN.md, "Conventions").

``IIoTSystem.build`` makes the one ``Simulator`` and the one
``TraceLog``; the ``Medium`` holds both, and every component reads
``sim`` and ``trace`` from the collaborator it is built on.  A
component holding another log counts into nothing the registry, the
span tracer or the checkers read.  Two checks pin that:

- a census: a system carrying one of every component, for every MAC,
  walked from its roots, where each ``sim``/``trace`` met must be the
  run's;
- a source rule: ``TraceLog(`` is called only where the run makes it
  (``core/system.py``); a bare ``Medium`` is handed its log.
"""

import ast
import pathlib
import types

import pytest

from repro.aggregation.pull import KoalaPullService
from repro.aggregation.service import AggregationService, RawCollectionService
from repro.core.system import IIoTSystem, SystemConfig
from repro.crdt.counters import GCounter
from repro.crdt.replication import CrdtReplica, NetworkReplicator
from repro.deployment.topology import grid_topology
from repro.faults.plan import InterferenceClause
from repro.middleware.coap.client import CoapClient
from repro.middleware.coap.server import CoapServer
from repro.middleware.coap.transport import CoapTransport
from repro.net.mac.syncflood import SyncFloodService
from repro.net.stack import _MAC_REGISTRY, StackConfig
from repro.radio.interference import WifiInterferer
from repro.safety.hvac import RemoteHvacController
from repro.security.attacks import CommandInjector
from repro.security.auth import FrameAuthenticator
from repro.security.keys import KeyStore
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog

_PACKAGE = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def _every_component(mac):
    """A 2x2 system with RNFD and one of each component on top; returns
    it and the components built here (the walk's extra roots)."""
    system = IIoTSystem.build(
        grid_topology(2),
        SystemConfig(stack=StackConfig(mac=mac, rnfd_enabled=True),
                     observability=True, invariant_checking=True),
        seed=3)
    root, leaf = system.root, system.nodes[3]
    transport = CoapTransport(leaf.stack)
    built = [
        system.gateway, transport, CoapServer(transport),
        CoapClient(transport), RemoteHvacController(root),
        SyncFloodService(system.medium),
        CommandInjector(system.medium, 666, (30.0, 30.0)),
        WifiInterferer(system.medium, InterferenceClause(
            0.0, 10.0, (10.0, 10.0), node_id=777)),
    ]
    for node in system.nodes.values():
        keys = KeyStore(node.node_id)
        keys.provision_network_key(0xFEED)
        built += [
            AggregationService(node),
            RawCollectionService(node, root.node_id),
            KoalaPullService(node, root.node_id),
            NetworkReplicator(node.stack,
                              CrdtReplica(node.node_id, GCounter(node.node_id))),
            FrameAuthenticator(node.stack.mac, keys),
        ]
    return system, built


def _walk(roots):
    """Every ``repro`` object reachable from ``roots`` through instance
    attributes, containers and bound methods — stopping at the run
    context itself (the kernel and the log)."""
    seen, stack, found = set(), list(roots), []
    while stack:
        obj = stack.pop()
        if isinstance(obj, types.MethodType):
            obj = obj.__self__
        if id(obj) in seen or isinstance(obj, (Simulator, TraceLog)):
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
            continue
        if isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
            continue
        if not type(obj).__module__.startswith("repro."):
            continue
        found.append(obj)
        stack.extend(vars(obj).values() if hasattr(obj, "__dict__") else ())
    return found


@pytest.mark.parametrize("mac", sorted(_MAC_REGISTRY))
def test_every_component_reads_the_run_clock_and_log(mac):
    system, built = _every_component(mac)
    components = _walk([system, *built])
    holders = [c for c in components
               if hasattr(c, "sim") or hasattr(c, "trace")]
    strays = [
        f"{type(c).__name__}.{attr}"
        for c in holders for attr, run in (("sim", system.sim),
                                           ("trace", system.trace))
        if hasattr(c, attr) and getattr(c, attr) is not run]
    assert strays == []
    # The walk reached every layer the run-context rule covers.
    names = {type(c).__name__ for c in holders}
    assert {"Medium", _MAC_REGISTRY[mac][0].__name__, "FragmentationAdapter",
            "RplRouter", "RnfdAgent", "TrickleTimer", "NetworkStack",
            "DeviceNode", "CoapTransport", "CoapServer", "CoapClient",
            "Gateway", "AggregationService", "RawCollectionService",
            "KoalaPullService", "NetworkReplicator", "FrameAuthenticator",
            "RemoteHvacController", "SyncFloodService",
            "CommandInjector", "WifiInterferer"} <= names


def _trace_log_calls():
    sites = []
    for path in sorted(_PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "TraceLog"):
                sites.append(path.relative_to(_PACKAGE).as_posix())
    return sites


def test_trace_log_is_made_only_by_the_run():
    assert sorted(set(_trace_log_calls())) == ["core/system.py"]
