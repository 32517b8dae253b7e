"""``benchmarks/kernel_floor.py``'s census and outcome digest, at a scale
tier-1 affords: the counts add up, and the digest is the workload's
outcome without its event count."""

import re

import pytest

from benchmarks.kernel_floor import (
    OUTCOMES,
    census,
    delivery_census,
    outcome_digest,
)
from benchmarks.layers import workloads


def test_census_adds_up_and_cleans_up():
    original = workloads.sim_digest
    totals, rows, digest = census("gateway_services", seed=2018, scale=0.05)
    assert totals["pushes"] == sum(pushed for _, pushed, _, _ in rows)
    assert totals["cancelled before fire"] == sum(
        cancelled for _, _, _, cancelled in rows)
    assert all(fired + cancelled <= pushed
               for _, pushed, fired, cancelled in rows)
    assert [pushed for _, pushed, _, _ in rows] == sorted(
        (pushed for _, pushed, _, _ in rows), reverse=True)
    names = {name for name, _, _, _ in rows}
    assert {"MacLayer._kick", "FragmentationAdapter._expire_due"} <= names
    assert re.fullmatch(r"[0-9a-f]{64}", digest)
    assert workloads.sim_digest is original


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
