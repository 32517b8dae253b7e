"""Property-based checks on fragmentation plans, reassembly and kernel
metrics."""

import math

from hypothesis import example, given, settings, strategies as st

from repro.net.fragmentation import (
    FRAGN_HEADER_BYTES,
    FRAME_MTU_BYTES,
    REASSEMBLY_TIMEOUT_S,
    Fragment,
    FragmentationAdapter,
)
from repro.net.mac.csma import CsmaMac
from repro.obs.registry import percentile
from repro.radio.medium import Medium, Radio
from repro.radio.propagation import UnitDiskModel
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog
from tests.conftest import TimerPerBufferAdapter


def make_adapter():
    sim = Simulator(seed=1)
    medium = Medium(sim, UnitDiskModel(), TraceLog())
    mac = CsmaMac(Radio(medium, 1, (0, 0)))
    return FragmentationAdapter(mac, deliver=lambda *a: None)


@given(total=st.integers(min_value=1, max_value=5000))
@settings(max_examples=200, deadline=None)
def test_plan_partitions_exactly(total):
    adapter = make_adapter()
    sizes = adapter.plan(total)
    assert sum(sizes) == total
    assert all(size >= 1 for size in sizes)
    # Every fragment (chunk + worst-case header) fits one frame.
    assert all(size + FRAGN_HEADER_BYTES <= FRAME_MTU_BYTES for size in sizes)
    # Minimality: one fewer fragment could not carry the payload.
    chunk = FRAME_MTU_BYTES - FRAGN_HEADER_BYTES
    assert len(sizes) == math.ceil(total / chunk)


@given(
    values=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50),
    fraction=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_percentile_bounded_and_monotone(values, fraction):
    result = percentile(values, fraction)
    assert min(values) <= result <= max(values)
    # Monotone in the fraction.
    lower = percentile(values, max(0.0, fraction - 0.1))
    assert lower <= result + 1e-9


# ----------------------------------------------------------------------
# reassembly fuzz: arbitrary arrival histories never crash or
# mis-reassemble
# ----------------------------------------------------------------------
def make_receiver():
    sim = Simulator(seed=1)
    medium = Medium(sim, UnitDiskModel(), TraceLog())
    mac = CsmaMac(Radio(medium, 1, (0, 0)))
    received = []
    adapter = FragmentationAdapter(
        mac,
        deliver=lambda src, payload, total: received.append(
            (src, payload, total)),
    )
    return sim, adapter, received


def _fragments(adapter, total, tag=7, payload="payload"):
    sizes = adapter.plan(total)
    return [
        Fragment(tag=tag, index=index, count=len(sizes), total_bytes=total,
                 chunk_bytes=chunk,
                 payload=payload if index == 0 else None)
        for index, chunk in enumerate(sizes)
    ]


@given(data=st.data(),
       total=st.integers(min_value=FRAME_MTU_BYTES + 1, max_value=4000))
@settings(max_examples=200, deadline=None)
def test_reassembly_fuzz_arbitrary_arrival(data, total):
    """Truncated / duplicated / reordered fragment streams: exactly one
    delivery iff every index arrived, and never a corrupted one."""
    sim, adapter, received = make_receiver()
    fragments = _fragments(adapter, total)
    arrivals = data.draw(st.lists(
        st.integers(min_value=0, max_value=len(fragments) - 1),
        max_size=3 * len(fragments)))
    for index in arrivals:
        fragment = fragments[index]
        assert adapter.on_frame(src=4, payload=fragment,
                                payload_bytes=fragment.size_bytes)
    complete = set(arrivals) == set(range(len(fragments)))
    if complete:
        assert received == [(4, "payload", total)]
        assert adapter.reassemblies == 1
        assert len(adapter._buffers) == 0
    else:
        assert received == []
        assert adapter.reassemblies == 0
        assert len(adapter._buffers) == (1 if arrivals else 0)
    # Expiry reclaims any incomplete buffer; completed tags don't expire.
    sim.run(until=sim.now + 2 * REASSEMBLY_TIMEOUT_S)
    assert len(adapter._buffers) == 0
    assert adapter.reassembly_failures == (
        1 if arrivals and not complete else 0)
    assert len(received) == (1 if complete else 0)


@given(data=st.data(),
       totals=st.lists(st.integers(min_value=FRAME_MTU_BYTES + 1,
                                   max_value=1500),
                       min_size=2, max_size=4))
@settings(max_examples=100, deadline=None)
def test_reassembly_fuzz_interleaved_tags(data, totals):
    """Concurrent reassemblies (distinct src/tag) never cross-pollute."""
    sim, adapter, received = make_receiver()
    streams = [
        (src, _fragments(adapter, total, tag=100 + src,
                         payload=f"payload-{src}"))
        for src, total in enumerate(totals)
    ]
    arrivals = [
        (src, index)
        for src, fragments in streams
        for index in range(len(fragments))
    ]
    order = data.draw(st.permutations(arrivals))
    for src, index in order:
        fragment = streams[src][1][index]
        adapter.on_frame(src=src, payload=fragment,
                         payload_bytes=fragment.size_bytes)
    assert adapter.reassemblies == len(streams)
    assert len(adapter._buffers) == 0
    assert sorted(received) == sorted(
        (src, f"payload-{src}", total)
        for src, total in enumerate(totals)
    )


def test_non_fragment_payloads_pass_through():
    _, adapter, received = make_receiver()
    assert adapter.on_frame(src=2, payload="plain", payload_bytes=8) is False
    assert received == []
    assert len(adapter._buffers) == 0


# ----------------------------------------------------------------------
# reassembly deadlines against a timer per buffer
# ----------------------------------------------------------------------
#: Gaps between arrivals: several at one instant, and sums that land on
#: a deadline or an ``until`` exactly (multiples of 2.5 s add exactly).
GAPS = st.sampled_from([0.0, 0.0, 2.5, 5.0, 10.0, 12.5, REASSEMBLY_TIMEOUT_S])
#: ``(gap, src, tag, index)``; tags are distinct across sources (as
#: ``frag.tag`` ids are in a run), so a timeout's tag names its buffer.
ARRIVALS = st.lists(st.tuples(
    GAPS, st.sampled_from([1, 2]), st.sampled_from([1, 2]),
    st.integers(min_value=0, max_value=2)), max_size=30)


def _count(src, tag):
    return 2 + (src + tag) % 2


def drive(adapter_cls, arrivals):
    """Feed ``arrivals`` to a fresh ``adapter_cls``, each one scheduled
    by the one before it, after that one's ``on_frame`` — as a frame's
    reception is pushed when it starts, never before the buffer it
    joins was created.  Returns the ``(time, category, src, tag)`` of
    every ``frag.reassembled``/``frag.timeout``, the deliveries, the
    counters and the adapter."""
    sim, adapter, _ = make_receiver()
    adapter = adapter_cls(adapter.mac, deliver=adapter.deliver)
    delivered = []
    adapter.deliver = lambda src, payload, total: delivered.append(
        (sim.now, src, payload))
    records = []
    adapter.trace.subscribe_stream(records.append)

    def arrive(k):
        _, src, tag, index = arrivals[k]
        tag += 10 * src
        count = _count(src, tag)
        fragment = Fragment(tag=tag, index=index % count, count=count,
                            total_bytes=400, chunk_bytes=97,
                            payload=(src, tag) if index % count == 0 else None)
        adapter.on_frame(src, fragment, fragment.size_bytes)
        if k + 1 < len(arrivals):
            sim.schedule(arrivals[k + 1][0], lambda: arrive(k + 1))

    if arrivals:
        sim.schedule(arrivals[0][0], lambda: arrive(0))
    sim.run(until=sum(a[0] for a in arrivals) + 3 * REASSEMBLY_TIMEOUT_S)
    frag = [(r.time, r.category, r.data.get("src"), r.data["tag"])
            for r in records if r.category.startswith("frag.")]
    counters = (adapter.reassemblies, adapter.reassembly_failures,
                adapter.duplicate_fragments)
    return frag, delivered, counters, adapter


@given(arrivals=ARRIVALS)
@example(arrivals=[  # a fragment at exactly its buffer's deadline
    (0.0, 1, 1, 0), (REASSEMBLY_TIMEOUT_S, 1, 1, 1), (0.0, 1, 1, 2)])
@example(arrivals=[  # stragglers before and at exactly the key's until
    (0.0, 1, 1, 0), (0.0, 1, 1, 1), (0.0, 1, 1, 2), (12.5, 1, 1, 0),
    (2.5, 1, 1, 1)])
@example(arrivals=[  # several buffers created at one instant
    (0.0, 1, 1, 0), (0.0, 2, 2, 0), (0.0, 1, 2, 1), (0.0, 2, 1, 1),
    (REASSEMBLY_TIMEOUT_S, 2, 2, 1), (0.0, 1, 2, 0)])
@example(arrivals=[  # a deadline reached after the one timer re-armed
    (0.0, 1, 1, 0), (5.0, 2, 1, 0), (2.5, 1, 1, 1), (0.0, 1, 1, 2),
    (12.5, 2, 1, 1)])
@settings(max_examples=300, deadline=None, derandomize=True)
def test_reassembly_deadlines_match_a_timer_per_buffer(arrivals):
    """The one-timer reassembler times out, completes and discards as
    the timer-per-buffer one does: same instants, same order."""
    frag, delivered, counters, _ = drive(FragmentationAdapter, arrivals)
    assert (frag, delivered, counters) == drive(
        TimerPerBufferAdapter, arrivals)[:3]


def test_completed_keys_age_out():
    """After a quiet ``2 * REASSEMBLY_TIMEOUT_S`` one more completion
    leaves only itself in ``_completed``: the memory stays bounded."""
    quiet = 2 * REASSEMBLY_TIMEOUT_S
    _, delivered, _, adapter = drive(FragmentationAdapter, [
        (0.0, 1, 1, 0), (0.0, 1, 1, 1), (0.0, 1, 1, 2),
        (0.0, 2, 2, 0), (0.0, 2, 2, 1), (0.0, 2, 2, 2),
        (quiet, 1, 2, 0), (0.0, 1, 2, 1), (0.0, 1, 2, 2)])
    assert [src for _, src, _ in delivered] == [1, 2, 1]
    assert list(adapter._completed) == [(1, 12)]
