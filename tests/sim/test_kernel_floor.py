"""``benchmarks/kernel_floor.py``'s census, outcome digest, observation
loops and bytes-by-layer ledger, at a scale tier-1 affords: the counts
add up, the digest is the workload's outcome without its event count,
each loop reports a time per operation and the ledger's layers
partition tracemalloc's total."""

import re

import pytest

from benchmarks.kernel_floor import (
    OUTCOMES,
    campus_link_bytes,
    census,
    delivery_census,
    emit_loop,
    layer_bytes,
    ledger_table,
    outcome_digest,
    span_loop,
)
from benchmarks.layers import workloads
from benchmarks.layers.trace import LAYERS


def test_census_adds_up_and_cleans_up():
    original = workloads.sim_digest
    totals, rows, digest = census("gateway_services", seed=2018, scale=0.05)
    assert totals["pushes"] == sum(row[1] for row in rows)
    assert totals["queued at set-up"] == sum(row[2] for row in rows)
    # Every event of the section was pushed in it or queued before it.
    assert totals["events"] == sum(row[3] for row in rows)
    assert totals["cancelled before fire"] == sum(row[4] for row in rows)
    assert all(fired + cancelled <= pushed + queued
               for _, pushed, queued, fired, cancelled in rows)
    assert [row[1] + row[2] for row in rows] == sorted(
        (row[1] + row[2] for row in rows), reverse=True)
    names = {row[0] for row in rows}
    assert {"MacLayer._kick", "FragmentationAdapter._expire_due"} <= names
    assert re.fullmatch(r"[0-9a-f]{64}", digest)
    assert workloads.sim_digest is original


def test_census_counts_what_set_up_queued():
    """campus_medium queues every send during set-up: the census sees
    them, and they and their frames' ends are every event."""
    totals, rows, _ = census("campus_medium", seed=2018, scale=0.05)
    by_name = {row[0]: row[1:] for row in rows}
    sends = by_name["CampusMedium._send.<locals>.send"]
    ends = by_name["Medium.transmit.<locals>.finish"]
    assert sends[0] == 0 and sends[1] == sends[2] > 0
    assert ends[0] == ends[2] == sends[2]
    assert totals["events"] == sends[2] + ends[2]


def test_observation_loops_report_a_time_per_operation():
    assert 0.0 < emit_loop(200)
    assert 0.0 < span_loop(200)


def test_neighbourhood_census_reports_bytes_per_link():
    per_link, links = campus_link_bytes(2018, buildings=4, senders=40)
    # Every sender hears someone, and a link keeps at least its list
    # slots, its RSSI float and its map entry.
    assert links >= 40
    assert 40.0 < per_link < 1000.0


def test_outcome_digest_ignores_events_only():
    class Finished:
        def __init__(self, **parts):
            self.parts = parts

        def finish(self):
            return {"digest": workloads.sim_digest(self.parts)}

    digest = outcome_digest(Finished(events=1, delivered=[3, 4]))
    assert outcome_digest(Finished(events=2, delivered=[3, 4])) == digest
    assert outcome_digest(Finished(events=1, delivered=[3, 5])) != digest
    assert digest == workloads.sim_digest({"delivered": [3, 4]})


@pytest.mark.parametrize("name, sizes", [
    ("campus_medium", {"buildings": 4, "senders": 40}),
    ("gateway_services", {}),
])
def test_delivery_census_adds_up(name, sizes):
    totals = delivery_census(name, seed=2018, scale=0.05, **sizes)
    assert totals["frames"] > 0
    judged = sum(totals[category] for category in OUTCOMES)
    # Every walked receiver is skipped (disabled, off-channel) or judged.
    assert 0 < judged <= totals["walked"]
    assert totals["listeners"] == judged - totals["radio.miss"]
    # A listener that is not collided draws once: a drop or a reception.
    assert totals["draws"] == totals["radio.drop"] + totals["radio.rx"]
    assert totals["probes"] <= totals["listeners"] * totals["interferers"]


def test_the_ledger_partitions_tracemallocs_total():
    ledger = layer_bytes("gateway_services", seed=2018, scale=0.05)
    assert ledger["nodes"] == 16
    for phase in ("setup", "growth"):
        rows, total = ledger[phase], ledger[phase + "_total"]
        assert set(rows) <= set(LAYERS)
        assert abs(sum(rows.values()) - total) <= 0.01 * abs(total)
    setup = ledger["setup"]
    # Each node's MAC, routing and stack state is charged to its owner;
    # the kernel allocates for its callers and keeps no row of its own.
    assert min(setup.get(layer, 0) for layer in
               ("net.mac", "net.rpl", "net.stack", "crdt")) > 0
    assert setup.get("sim", 0) == 0
    assert ledger["setup_total"] > 0 and ledger["growth_total"] > 0
    table = ledger_table(ledger)
    assert [row[0] for row in table[-2:]] == ["rows", "tracemalloc"]
    assert table[-1][1::2] == (ledger["setup_total"], ledger["growth_total"])
    for name, setup, setup_node, growth, growth_node in table:
        assert setup_node == setup / 16 and growth_node == growth / 16
