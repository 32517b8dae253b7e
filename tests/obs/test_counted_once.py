"""Counted once: no counter an owner keeps is also pushed.

A protocol object that already tallies an occurrence in an attribute
registers a reader with the run's trace log, and the metrics registry
reads it at every snapshot and scrape (DESIGN.md, "Observability").  A
``registry.inc`` call that pushed the same series as well would count
every occurrence twice.

The census builds one owner of every kind, collects the series names
their readers yield, and scans every ``registry.inc`` call under
``src/repro`` for a pushed literal name among them.
"""

import ast
import pathlib
from typing import Dict, List, Set

from repro.aggregation.service import AggregationService
from repro.core.system import IIoTSystem, SystemConfig
from repro.crdt.counters import GCounter
from repro.crdt.replication import CrdtReplica, NetworkReplicator
from repro.deployment.topology import grid_topology
from repro.middleware.coap.client import CoapClient
from repro.middleware.coap.transport import CoapTransport
from repro.net.stack import StackConfig

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: Every series some owner keeps, and so the registry reads.
READ = {
    "mac.tx", "mac.queue_drop", "mac.tsch.tx",
    "net.sent", "net.delivered", "net.forwarded", "net.dropped",
    "frag.fragments",
    "rpl.dio", "rpl.dao", "rpl.parent_change",
    "rpl.trickle.reset", "rpl.trickle.tx", "rpl.trickle.suppressed",
    "coap.retransmit", "coap.con_failed", "coap.timeout",
    "crdt.gossip", "crdt.gossip_bytes",
    "agg.partial",
}


def read_series() -> Set[str]:
    """The names the readers of a built system can yield: a TSCH grid (MAC,
    fragmentation, stack, RPL) plus a CoAP transport and client, a CRDT
    replicator and an aggregation service."""
    system = IIoTSystem.build(grid_topology(2),
                              config=SystemConfig(stack=StackConfig(mac="tsch")),
                              seed=1)
    node = system.nodes[1]
    CoapClient(CoapTransport(system.root.stack))
    NetworkReplicator(node.stack, CrdtReplica(1, GCounter(1)))
    AggregationService(node)
    return {name for reader in system.trace.readers.values()
            for name, _, _ in reader.table}


def pushed_series() -> Dict[str, List[str]]:
    """Literal series name -> ``path:line`` of every ``registry.inc``
    call under ``src/repro`` that pushes it."""
    sites: Dict[str, List[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "inc"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                continue
            receiver = node.func.value
            if (isinstance(receiver, ast.Name) and receiver.id == "registry") or (
                    isinstance(receiver, ast.Attribute) and receiver.attr == "registry"):
                sites.setdefault(node.args[0].value, []).append(
                    f"{path.relative_to(SRC.parent)}:{node.lineno}")
    return sites


def test_every_owner_registers_its_reader():
    assert read_series() == READ


def test_the_scan_sees_the_pushes_that_remain():
    pushed = pushed_series()
    # Counts no owner keeps, or keeps without the label split.
    assert {"coap.sent", "coap.request", "mac.tsch.sixp", "crdt.merge",
            "fault.injected", "rpl.joined", "agg.fold"} <= set(pushed)


def test_no_series_a_reader_yields_is_also_pushed():
    pushed = pushed_series()
    twice = {name: pushed[name] for name in sorted(read_series() & set(pushed))}
    assert twice == {}, (
        "counted twice: an owner keeps these and the registry reads them; "
        "delete the push")
