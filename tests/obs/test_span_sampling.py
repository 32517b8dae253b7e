"""Span sampling and the ring buffer: cheap storage, exact metrics.

The overhead-reduction knobs (``sample_rate``, ``max_spans``) must be
pure *storage* policy:

- sampling decisions are seed-derived and deterministic — never
  wall-clock, never global RNG state;
- counters, gauges, and histograms stay exact at every rate;
- the simulation itself is never perturbed: event counts are identical
  with observability off, sampled, or full;
- pinned (gate-graded) categories survive both knobs.
"""

import pytest

from repro.core.system import IIoTSystem, SystemConfig
from repro.deployment.topology import grid_topology
from repro.devices.phenomena import DiurnalField
from repro.net.stack import StackConfig
from repro.obs import GATED_SPAN_CATEGORIES, Observability
from repro.obs.spans import SpanTracer


def _kept_traces(rate, seed, traces=400):
    tracer = SpanTracer(sample_rate=rate, sample_seed=seed)
    for i in range(traces):
        tracer.start(None, "coap.request", node=1, t=float(i))
    return set(tracer.trace_ids())


class TestDeterministicSampling:
    def test_rate_bounds_are_validated(self):
        with pytest.raises(ValueError):
            SpanTracer(sample_rate=1.5)
        with pytest.raises(ValueError):
            SpanTracer(max_spans=0)

    def test_same_seed_same_traces_every_run(self):
        assert _kept_traces(0.2, seed=42) == _kept_traces(0.2, seed=42)

    def test_different_seed_samples_differently(self):
        assert _kept_traces(0.2, seed=1) != _kept_traces(0.2, seed=2)

    def test_kept_fraction_tracks_the_rate(self):
        kept = _kept_traces(0.25, seed=7, traces=2000)
        assert 0.18 <= len(kept) / 2000 <= 0.32

    def test_rate_one_keeps_everything_rate_zero_nothing(self):
        assert len(_kept_traces(1.0, seed=3)) == 400
        assert not _kept_traces(0.0, seed=3)

    def test_unsampled_root_returns_none_and_downstream_tolerates_it(self):
        tracer = SpanTracer(sample_rate=0.0, sample_seed=5)
        ctx = tracer.start(None, "coap.request", node=1, t=0.0)
        assert ctx is None
        assert tracer.sampled_out == 1
        # The None handle threads through without re-checking anywhere.
        tracer.finish(ctx, 1.0, ok=True)
        assert tracer.event(ctx, "net.hop", node=2, t=0.5) is None
        assert len(tracer) == 0

    def test_trace_ids_advance_identically_regardless_of_rate(self):
        sampled = SpanTracer(sample_rate=0.3, sample_seed=9)
        full = SpanTracer(sample_rate=1.0)
        for i in range(50):
            sampled.start(None, "coap.request", node=1, t=float(i))
            full.start(None, "coap.request", node=1, t=float(i))
        assert sampled._next_trace == full._next_trace

    def test_pinned_category_bypasses_sampling(self):
        tracer = SpanTracer(sample_rate=0.0, sample_seed=5,
                            pinned_categories=GATED_SPAN_CATEGORIES)
        assert tracer.start(None, "fault.crash", node=2, t=1.0) is not None
        assert tracer.start(None, "rnfd.verdict", node=2, t=2.0) is not None
        assert tracer.start(None, "coap.request", node=2, t=3.0) is None


class TestRingBuffer:
    def test_oldest_spans_evict_first(self):
        tracer = SpanTracer(max_spans=10)
        for i in range(25):
            tracer.start(None, "coap.request", node=1, t=float(i))
        assert len(tracer) == 10
        assert tracer.evicted == 15
        # The survivors are exactly the newest ten.
        assert tracer.trace_ids() == list(range(16, 26))

    def test_pinned_categories_are_never_evicted(self):
        tracer = SpanTracer(max_spans=6, pinned_categories=("fault",))
        for i in range(30):
            category = "fault.crash" if i % 3 == 0 else "coap.request"
            tracer.start(None, category, node=1, t=float(i))
        stored = [span.category for span in tracer.spans.values()]
        assert stored.count("fault.crash") == 10  # every one, dotted match
        assert len(tracer) >= 10  # the cap may be overrun by pinned spans

    def test_finishing_an_evicted_span_keeps_it_evicted(self):
        tracer = SpanTracer(max_spans=4)
        first = tracer.start(None, "coap.request", node=1, t=0.0)
        child = tracer.start(first, "net.send", node=1, t=0.5)
        for i in range(12):
            tracer.start(None, "coap.request", node=1, t=1.0 + i)
        stored = dict(tracer.spans)
        tracer.annotate(child, service_start=0.7)
        tracer.finish(child, 0.9, ok=True)
        tracer.finish(first, 1.0)
        assert len(tracer) == len(stored) == 4
        assert tracer.spans == stored
        assert first not in tracer.spans
        assert child not in tracer.spans
        assert tracer.spans_for(tracer.trace_of(first)) == []
        assert tracer.trace_of(first) not in tracer.trace_ids()

    def test_evicted_traces_vanish_from_reconstruction(self):
        tracer = SpanTracer(max_spans=4)
        first = tracer.start(None, "coap.request", node=1, t=0.0)
        for i in range(12):
            tracer.start(None, "coap.request", node=1, t=1.0 + i)
        assert tracer.trace_of(first) not in tracer.trace_ids()
        assert tracer.spans_for(tracer.trace_of(first)) == []
        assert tracer.tree(tracer.trace_of(first)) is None


def _instrumented_system(rate, max_spans=None, seed=17):
    config = SystemConfig(
        stack=StackConfig(mac="csma"),
        observability=True, span_sample_rate=rate,
        span_max_stored=max_spans,
    )
    system = IIoTSystem.build(grid_topology(3), config=config, seed=seed)
    system.add_field_sensors("temp", DiurnalField(mean=20.0))
    system.start()
    system.run(900.0)
    return system


class TestOverheadKnobsAreStorageOnly:
    def test_metrics_exact_and_simulation_unperturbed_at_any_rate(self):
        full = _instrumented_system(rate=1.0)
        sampled = _instrumented_system(rate=0.1, max_spans=200)
        # Same events, same metric totals: sampling thins stored spans,
        # never counters and never the event schedule.
        assert sampled.sim.events_processed == full.sim.events_processed
        full_snap = full.obs.registry.snapshot()
        sampled_snap = sampled.obs.registry.snapshot()
        assert sampled_snap.counters == full_snap.counters
        assert sampled_snap.gauges == full_snap.gauges
        assert sampled_snap.histograms == full_snap.histograms
        # Exemplars are span-linked *annotations*, not metrics: only a
        # trace that survived the sampling decision can be linked.  The
        # sampled run's arrivals per bucket are a subsequence of the
        # full run's, so with a first-K reservoir each bucket holds at
        # most as many entries (the *identities* may differ — a late
        # trace can claim a slot the full run's cap already closed).
        def bucket_counts(snap):
            return {
                key: {idx: len(entries) for idx, entries in buckets}
                for key, (_cap, buckets) in snap.exemplars.items()
            }
        full_counts = bucket_counts(full_snap)
        for key, counts in bucket_counts(sampled_snap).items():
            for idx, n in counts.items():
                assert n <= full_counts[key].get(idx, 0)
        assert len(sampled.obs.spans) < len(full.obs.spans)

    def test_observability_off_runs_the_same_simulation(self):
        off = IIoTSystem.build(
            grid_topology(3),
            config=SystemConfig(stack=StackConfig(mac="csma")),
            seed=17)
        off.add_field_sensors("temp", DiurnalField(mean=20.0))
        off.start()
        off.run(900.0)
        assert off.sim.events_processed \
            == _instrumented_system(rate=0.05).sim.events_processed

    def test_sampling_off_is_full_fidelity_run_over_run(self):
        first = _instrumented_system(rate=1.0)
        second = _instrumented_system(rate=1.0)
        assert first.obs.spans.sampled_out == 0
        assert len(first.obs.spans) == len(second.obs.spans)
        assert first.obs.spans.trace_ids() == second.obs.spans.trace_ids()

    def test_sampled_run_is_deterministic_run_over_run(self):
        first = _instrumented_system(rate=0.1, max_spans=200)
        second = _instrumented_system(rate=0.1, max_spans=200)
        assert first.obs.spans.trace_ids() == second.obs.spans.trace_ids()
        assert first.obs.spans.sampled_out == second.obs.spans.sampled_out
        assert first.obs.spans.evicted == second.obs.spans.evicted


class TestPureConstructor:
    def test_knobs_apply_whatever_the_environment(self, monkeypatch):
        # No side channel: the retired override names do not move what
        # the constructor was given.
        monkeypatch.setenv("REPRO_SPAN_SAMPLE_RATE", "0.25")
        monkeypatch.setenv("REPRO_SPAN_MAX_STORED", "77")
        obs = Observability(span_sample_rate=0.05, span_seed=3, span_max=100)
        assert obs.spans.sample_rate == 0.05
        assert obs.spans.max_spans == 100
        assert obs.spans._pinned == GATED_SPAN_CATEGORIES
