"""Property tests of the latency attributor and exemplar determinism.

Fuzzed claims (mirroring ``test_telemetry_properties``):

1. For *arbitrary* span forests — random nesting, overlapping siblings,
   children spilling past their parent, zero-duration events — the
   segments :func:`attribute_trace` produces exactly partition the
   anchor's interval: structurally contiguous and, in ``Fraction``
   arithmetic, summing to the anchor's duration with zero error.
2. :func:`critical_path` always returns a root→leaf chain of the
   reconstructed tree: consecutive spans are parent/child and the walk
   never stops early.
3. Exemplar reservoirs ride the executor's order contract: a fleet of
   exemplar-recording trials mapped by :meth:`TrialExecutor.map` is
   **byte-identical**, trial by trial, for every (task count, jobs)
   shape.  The ``multicore`` fixture keeps the claim
   honest on single-core CI; module-level trial functions because
   process pools move work through pickle.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.obs.analysis import attribute_trace, critical_path  # noqa: E402
from repro.obs.registry import Registry  # noqa: E402
from repro.obs.spans import SpanTracer  # noqa: E402
from repro.parallel import TrialExecutor  # noqa: E402
from repro.sim.kernel import Simulator  # noqa: E402

FEW = settings(max_examples=25, deadline=None,
               suppress_health_check=[HealthCheck.too_slow])

_CATEGORIES = ("coap.request", "net.datagram", "net.hop", "net.fragment",
               "mac.job", "radio.airtime", "weird.kind")

_time = st.floats(min_value=0.0, max_value=64.0,
                  allow_nan=False, allow_infinity=False)


@st.composite
def _tree_specs(draw, depth=0):
    """A random span spec: (category, start, end, waypoint?, children).

    Children are drawn *unconstrained* relative to the parent window on
    purpose — the attributor's clamping, overlap, and zero-duration
    rules must hold for hostile shapes, not just well-formed traces.
    """
    start = draw(_time)
    end = start + draw(st.floats(min_value=0.0, max_value=32.0,
                                 allow_nan=False, allow_infinity=False))
    category = draw(st.sampled_from(_CATEGORIES))
    waypoint = None
    if category == "mac.job" and draw(st.booleans()):
        waypoint = draw(_time)
    children = []
    if depth < 3:
        children = draw(st.lists(_tree_specs(depth=depth + 1),
                                 min_size=0, max_size=3))
    return (category, start, end, waypoint, children)


def _record(tracer, parent, spec):
    category, start, end, waypoint, children = spec
    ctx = tracer.start(parent, category, node=1, t=start)
    if waypoint is not None:
        tracer.annotate(ctx, service_start=waypoint)
    for child in children:
        _record(tracer, ctx, child)
    tracer.finish(ctx, end)
    return ctx


class TestPartitionInvariant:
    @FEW
    @given(spec=_tree_specs())
    def test_segments_partition_any_forest_exactly(self, spec):
        tracer = SpanTracer()
        ctx = _record(tracer, None, spec)
        attribution = attribute_trace(tracer, tracer.trace_of(ctx))
        # attribute_trace itself raises AttributionError on a structural
        # tiling failure; verify_partition re-proves the telescoped sum
        # in exact Fraction arithmetic.
        assert attribution.verify_partition()
        segments = attribution.segments
        if segments:
            anchor = attribution.anchor
            assert segments[0].start == anchor.start
            assert segments[-1].end == anchor.end
            for prev, nxt in zip(segments, segments[1:]):
                assert prev.end == nxt.start
            assert all(seg.end > seg.start for seg in segments)

    @FEW
    @given(spec=_tree_specs())
    def test_layers_fsum_tracks_total_closely(self, spec):
        tracer = SpanTracer()
        ctx = _record(tracer, None, spec)
        attribution = attribute_trace(tracer, tracer.trace_of(ctx))
        total = sum(attribution.by_layer().values())
        assert total == pytest.approx(attribution.total_s, abs=1e-9)


class TestCriticalPathChain:
    @FEW
    @given(spec=_tree_specs())
    def test_path_is_root_to_leaf(self, spec):
        tracer = SpanTracer()
        ctx = _record(tracer, None, spec)
        path = critical_path(tracer, tracer.trace_of(ctx))
        tree = tracer.tree(tracer.trace_of(ctx))
        assert path[0] == tree.span
        for parent, child in zip(path, path[1:]):
            assert child.parent_id == parent.span_id
        # The walk only stops at a leaf of the reconstructed tree.
        assert path[-1].span_id not in {
            node.span.parent_id for node in tree.walk()
            if node.span.parent_id is not None}


# ----------------------------------------------------------------------
# exemplar byte-identity across executor shapes
# ----------------------------------------------------------------------
def _exemplar_trial(value, seed):
    """A pure trial: exemplar-annotated observations from (value, seed)."""
    sim = Simulator(seed=seed)
    registry = Registry()
    rng = sim.substream("exemplar-prop")
    for i in range(3 + value):
        registry.observe("lat", rng.uniform(1e-4, 2.0),
                         exemplar=1000 * seed + i, node=value % 3)
    return registry.snapshot()


def _to_json(results):
    return [json.dumps(snapshot.to_jsonable(), sort_keys=True)
            for snapshot in results]


@pytest.mark.usefixtures("multicore")
class TestExemplarParallelIdentity:
    @FEW
    @given(
        values=st.lists(st.integers(min_value=0, max_value=6),
                        min_size=2, max_size=9),
        seed=st.integers(min_value=0, max_value=99),
        jobs=st.integers(min_value=2, max_value=4),
    )
    def test_jobs_never_change_per_trial_exemplars(self, values, seed, jobs):
        argses = [(v, seed + i) for i, v in enumerate(values)]
        serial = _to_json(
            TrialExecutor(jobs=1).map(_exemplar_trial, argses))
        parallel = _to_json(
            TrialExecutor(jobs=jobs).map(_exemplar_trial, argses))
        assert serial == parallel
        # The claim is about real links.
        assert all('"exemplars"' in trial for trial in serial)
