"""repro.obs — the unified observability layer.

The parts (DESIGN.md, "Observability"):

- :mod:`repro.obs.registry` — labeled counters/gauges/exact histograms,
  kept as the plain dicts a deterministic, picklable snapshot has;
- :mod:`repro.obs.spans` — packet-lifecycle span tracing with
  parent/child links, threaded through the stack as ``trace_ctx``;
- :mod:`repro.obs.analysis` — causal latency attribution over span
  trees (what ``python -m repro explain`` prints);
- :mod:`repro.obs.health` — the per-node ``NodeHealthSampler`` gauge
  set (duty cycle, MAC queue, neighbors, rank, CRDT staleness);
- :mod:`repro.obs.timeseries` — the windowed telemetry plane: every
  closed window is a ``MetricsSnapshot`` of that interval, and
  :mod:`repro.obs.tail` renders a stream of them;
- :mod:`repro.obs.diff` — snapshot diffing behind
  ``python -m repro diff`` (regression gates);
- :mod:`repro.obs.export` — JSONL/CSV/JSON exporters.  The
  ``python -m repro report`` dashboard that drives them is
  :mod:`repro.app.report`, a tier up.

One metrics data model serves them all: the live registry keeps the
dicts a ``MetricsSnapshot`` has, and an end-of-run snapshot, a
telemetry window and a diff operand are ``MetricsSnapshot`` values,
written and read by its one JSON codec.

The :class:`Observability` bundle rides on the run's shared
:class:`~repro.sim.trace.TraceLog` (``trace.obs``), which every layer
already holds — so instrumentation needs no new constructor plumbing
and costs one attribute check when disabled.  A count a protocol object
keeps is read through that trace log's readers; only others are pushed.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.registry import Registry
from repro.obs.spans import SpanTracer
from repro.obs.timeseries import TelemetryEngine
from repro.sim.trace import TraceLog

#: Span categories sampling must never skip: the control-plane records
#: dependability gates grade (``rpl.parent_switch``, ``rnfd.verdict``)
#: and every fault-plan clause span (``fault.*`` — pinned by its first
#: dotted segment).  Repro bundles and the ``dependability`` gate read
#: these after the fact, so a sampler that skipped them would silently
#: weaken the gates.
GATED_SPAN_CATEGORIES = frozenset({
    "fault",
    "rnfd.verdict",
    "rpl.parent_switch",
})


class Observability:
    """One run's observability state: a metrics registry plus spans.

    Attach to the run's trace log with :meth:`attach`; every layer then
    finds it as ``self.trace.obs`` and instruments itself.  The bundle
    always carries a :class:`~repro.obs.spans.SpanTracer`: there is no
    metrics-only mode, because metrics never depend on spans.

    ``span_sample_rate`` thins what the tracer *stores* (see
    :class:`~repro.obs.spans.SpanTracer`); metrics are never sampled —
    counter, gauge, and histogram totals stay exact at every rate — and
    roots of the :data:`GATED_SPAN_CATEGORIES` are stored at any rate.
    ``span_seed`` should come from the run's master seed: the sampling
    decision is derived from it and never from wall-clock.

    The bundle is a pure function of these arguments: nothing is read
    from the environment, so a run is configured by its
    :class:`~repro.core.system.SystemConfig` alone.
    """

    def __init__(self, span_sample_rate: float = 1.0,
                 span_seed: int = 0) -> None:
        self.registry = Registry()
        #: set by the system wiring when SystemConfig(telemetry_interval_s=)
        #: is given — layers and exporters find it via ``trace.obs``.
        self.telemetry: Optional[TelemetryEngine] = None
        self.spans = SpanTracer(
            sample_rate=span_sample_rate,
            sample_seed=span_seed,
            pinned_categories=GATED_SPAN_CATEGORIES,
        )

    def attach(self, trace: TraceLog) -> "Observability":
        """Make this bundle visible to every layer sharing ``trace``, and
        its registry read what the trace's readers report."""
        trace.obs = self
        self.registry.readers = trace.readers
        return self
