"""Property-based checks on fragmentation plans and kernel metrics."""

import math

from hypothesis import given, settings, strategies as st

from repro.core.metrics import percentile
from repro.net.fragmentation import (
    FRAGN_HEADER_BYTES,
    FRAME_MTU_BYTES,
    REASSEMBLY_TIMEOUT_S,
    Fragment,
    FragmentationAdapter,
)
from repro.radio.medium import Medium, Radio
from repro.radio.propagation import UnitDiskModel
from repro.net.mac.csma import CsmaMac
from repro.sim.kernel import Simulator


def make_adapter():
    sim = Simulator(seed=1)
    medium = Medium(sim, UnitDiskModel())
    mac = CsmaMac(sim, Radio(medium, 1, (0, 0)))
    return FragmentationAdapter(sim, mac, deliver=lambda *a: None)


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
    medium = Medium(sim, UnitDiskModel())
    mac = CsmaMac(sim, Radio(medium, 1, (0, 0)))
    received = []
    adapter = FragmentationAdapter(
        sim, mac,
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
