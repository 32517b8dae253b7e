"""Property tests of the telemetry plane's jobs determinism.

The claim, fuzzed rather than spot-checked (mirroring
``test_parallel_properties``): a fleet of telemetry trials mapped by
:meth:`TrialExecutor.map` is **byte-identical** for every (task count,
jobs) shape — each trial returns its windows' JSON and its end-of-run
metrics, and the executor yields them in submission order.

The ``multicore`` fixture keeps the claim honest on single-core CI.
Module-level trial functions: process pools move work through pickle.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.obs.registry import Registry  # noqa: E402
from repro.obs.timeseries import TelemetryEngine  # noqa: E402
from repro.parallel import TrialExecutor  # noqa: E402
from repro.sim.kernel import Simulator  # noqa: E402

FEW = settings(max_examples=12, deadline=None,
               suppress_health_check=[HealthCheck.too_slow])

pytestmark = pytest.mark.usefixtures("multicore")


def _telemetry_trial(value, seed):
    """A pure trial: windows and metrics depend only on (value, seed)."""
    sim = Simulator(seed=seed)
    registry = Registry()
    engine = TelemetryEngine(sim, registry, interval_s=5.0)
    engine.start()
    rng = sim.substream("telemetry-prop")

    def tick():
        registry.inc("pkts", node=value % 4)
        registry.observe("lat", rng.uniform(1e-4, 2.0), node=value % 4)
        registry.set("depth", float(value + seed), node=value % 4)

    for i in range(1 + value):
        sim.schedule_at(1.0 + 2.0 * i, tick)
    sim.run(until=5.0 * (1 + value % 4) + 2.0)
    windows = [json.dumps(w.to_jsonable(), sort_keys=True)
               for w in engine.windows]
    return windows, registry.snapshot()


def _canonical(results):
    """(windows, metrics) pairs as canonical JSON strings, in order."""
    return [(lines, json.dumps(metrics.to_jsonable(), sort_keys=True))
            for lines, metrics in results]


class TestMapByteIdentity:
    @FEW
    @given(
        values=st.lists(st.integers(min_value=0, max_value=7),
                        min_size=2, max_size=9),
        seed=st.integers(min_value=0, max_value=99),
        jobs=st.integers(min_value=2, max_value=4),
    )
    def test_jobs_never_change_per_trial_output(self, values, seed, jobs):
        argses = [(v, seed + i) for i, v in enumerate(values)]
        serial = _canonical(
            TrialExecutor(jobs=1).map(_telemetry_trial, argses))
        parallel = _canonical(
            TrialExecutor(jobs=jobs).map(_telemetry_trial, argses))
        assert serial == parallel

    @FEW
    @given(
        values=st.lists(st.integers(min_value=0, max_value=7),
                        min_size=1, max_size=4),
        seed=st.integers(min_value=0, max_value=99),
        data=st.data(),
    )
    def test_index_order_recovers_serial_windows(
            self, values, seed, data):
        """Results may *arrive* in any order; ordering them by trial
        index — the order every executor yields — reproduces the serial
        results."""
        argses = [(v, seed + i) for i, v in enumerate(values)]
        results = [_telemetry_trial(*args) for args in argses]
        arrival = data.draw(st.permutations(list(enumerate(results))))
        by_index = [pair for _, pair in sorted(arrival, key=lambda p: p[0])]
        assert _canonical(by_index) == _canonical(results)
