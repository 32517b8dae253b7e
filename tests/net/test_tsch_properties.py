"""Property-based verification of the TSCH schedule and 6P negotiation.

The :class:`SixpPeer` state machine is pure (no timers, no radio), so
these tests drive two peers directly with randomized operation
sequences — initiations, out-of-order delivery, message loss, and
timeouts — and check the documented invariants after every step:

- a slotframe never double-books a slot (schedule structural safety);
- candidate slots stay reserved only while a transaction is in flight
  (*negotiation never orphans a reserved cell*);
- every committed TX cell has a matching RX cell at the peer;
- candidate generation is a pure function of the RNG stream
  (seed-deterministic schedules).
"""

import random
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro.net.mac import sixp
from repro.net.mac.tsch import (
    Cell,
    SixpPeer,
    SlotConflictError,
    TschSchedule,
)
from tests.conftest import reserved_slots

SLOTS = 23


#: The negotiation properties run under a shorter timeout and a higher
#: per-neighbor cap than a run's: more expiries, more cells.  A decorator
#: below ``@given``, so every example patches and restores them.
sixp_limits = mock.patch.multiple(sixp, SIXP_TIMEOUT_S=5.0,
                                  MAX_CELLS_PER_NEIGHBOR=4)


def make_peer(node_id, seed):
    schedule = TschSchedule(SLOTS)
    return SixpPeer(node_id, schedule, random.Random(seed))


# ---------------------------------------------------------------------------
# schedule structural safety
# ---------------------------------------------------------------------------

@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["add", "remove", "reserve", "release"]),
            st.integers(min_value=0, max_value=SLOTS - 1),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=60,
    ),
)
@settings(max_examples=60, deadline=None)
def test_schedule_never_double_books(ops):
    """Whatever mutation sequence runs, at most one cell per slot and
    reservations never overlap scheduled cells."""
    schedule = TschSchedule(SLOTS)
    for op, slot, txn in ops:
        try:
            if op == "add":
                schedule.add(Cell(slot, 0, neighbor=9, tx=True))
            elif op == "remove":
                schedule.remove(slot)
            elif op == "reserve":
                schedule.reserve(slot, txn)
            else:
                schedule.release(slot, txn)
        except SlotConflictError:
            pass
        scheduled = [c.slot for c in schedule.cells()]
        assert len(scheduled) == len(set(scheduled))
        assert not set(scheduled) & set(reserved_slots(schedule))
        assert (set(schedule.free_slots()) | set(scheduled)
                | set(reserved_slots(schedule))) == set(range(SLOTS))


# ---------------------------------------------------------------------------
# 6P negotiation under loss, reorder, and timeouts
# ---------------------------------------------------------------------------

def check_invariants(a, b):
    for initiator, responder in ((a, b), (b, a)):
        # Reservations exist only while a transaction is in flight.
        if initiator.inflight_count() == 0:
            assert reserved_slots(initiator.schedule) == []
        assert (len(reserved_slots(initiator.schedule))
                <= initiator.inflight_count() * sixp.SIXP_CANDIDATES)
        # A TX cell nobody listens to can never exist: responders
        # install RX before the confirmation travels back.
        for cell in initiator.schedule.tx_cells_to(responder.node_id):
            assert any(
                r.slot == cell.slot
                and r.channel_offset == cell.channel_offset
                for r in responder.schedule.rx_cells_from(initiator.node_id)
            ), f"TX cell {cell} has no RX counterpart"


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    ops=st.lists(
        st.tuples(
            st.sampled_from(
                ["add_ab", "add_ba", "del_ab", "del_ba",
                 "deliver", "drop", "timeout"]),
            st.integers(min_value=0, max_value=7),
        ),
        max_size=40,
    ),
)
@example(seed=0, ops=[
    # A stale ADD request handled after its timeout, behind its
    # successor: reconciling against its empty ``active`` list would
    # reclaim the RX cell just granted to the newer transaction.
    ("add_ab", 0), ("add_ba", 0), ("timeout", 0), ("add_ba", 0),
    ("deliver", 2), ("deliver", 1), ("deliver", 1)])
@settings(max_examples=120, deadline=None)
@sixp_limits
def test_negotiation_never_orphans_cells(seed, ops):
    """Random interleavings of initiations, arbitrary-order delivery,
    loss, and timeouts keep every invariant, and full quiescence leaves
    zero reservations."""
    a = make_peer(1, seed)
    b = make_peer(2, seed + 1)
    peers = {1: a, 2: b}
    now = 0.0
    pending = []        # (dst_id, src_id, message)

    def post(dst, src, msg):
        if msg is not None:
            pending.append((dst, src, msg))

    for op, pick in ops:
        now += 1.0
        if op == "add_ab":
            post(2, 1, a.initiate_add(2, now))
        elif op == "add_ba":
            post(1, 2, b.initiate_add(1, now))
        elif op in ("del_ab", "del_ba"):
            src = a if op == "del_ab" else b
            dst = b if op == "del_ab" else a
            victims = src.schedule.tx_cells_to(dst.node_id)[-1:]
            post(dst.node_id, src.node_id,
                 src.initiate_delete(dst.node_id, victims, now))
        elif op == "deliver" and pending:
            dst, src, msg = pending.pop(pick % len(pending))
            post(src, dst, peers[dst].handle(src, msg, now))
        elif op == "drop" and pending:
            pending.pop(pick % len(pending))
        elif op == "timeout":
            now += sixp.SIXP_TIMEOUT_S
            a.expire(now)
            b.expire(now)
        check_invariants(a, b)

    # Quiesce: expire whatever is still in flight and drop the mail.
    now += 2 * sixp.SIXP_TIMEOUT_S
    a.expire(now)
    b.expire(now)
    assert a.inflight_count() == 0 and b.inflight_count() == 0
    assert reserved_slots(a.schedule) == []
    assert reserved_slots(b.schedule) == []
    check_invariants(a, b)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    rounds=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=60, deadline=None)
@sixp_limits
def test_lossless_in_order_negotiation_converges(seed, rounds):
    """With reliable in-order transport, every completed ADD yields a
    TX/RX pair on the same (slot, channel offset)."""
    a = make_peer(1, seed)
    b = make_peer(2, seed + 1)
    now = 0.0
    for _ in range(rounds):
        now += 1.0
        request = a.initiate_add(2, now)
        if request is None:
            break
        response = b.handle(1, request, now)
        assert response is not None
        a.handle(2, response, now)
        check_invariants(a, b)
    tx = a.schedule.tx_cells_to(2)
    rx = b.schedule.rx_cells_from(1)
    assert {(c.slot, c.channel_offset) for c in tx} \
        <= {(c.slot, c.channel_offset) for c in rx}
    assert reserved_slots(a.schedule) == []


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_candidate_generation_is_seed_deterministic(seed):
    """Two peers built from the same seed propose identical candidate
    cells: the schedule is a pure function of the RNG stream."""
    first = make_peer(1, seed).initiate_add(2, now=0.0)
    second = make_peer(1, seed).initiate_add(2, now=0.0)
    assert first == second
    different = make_peer(1, seed + 1).initiate_add(2, now=0.0)
    # Same op against a different stream; candidate cells come from the
    # RNG, so at least the (slot, offset) tuple stream should differ for
    # *some* seed — assert only the structure here, not inequality,
    # to keep the property seed-independent.
    assert different is not None
    assert len(different.cells) == len(first.cells)
