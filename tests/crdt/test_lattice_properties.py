"""Property-based verification of the CRDT lattice laws.

For every state-based type we check, over randomized operation
histories, that merge is commutative, associative, and idempotent in its
*effect on the resolved value* — the properties that guarantee replica
convergence regardless of gossip order, duplication, or delay.
"""

from hypothesis import given, settings, strategies as st

from repro.crdt.counters import GCounter
from repro.crdt.maps import LWWMap
from repro.crdt.registers import LWWRegister
from repro.crdt.replication import CrdtReplica
from repro.crdt.sets import ORSet


# ----------------------------------------------------------------------
# operation-history strategies
# ----------------------------------------------------------------------
def build_gcounter(replica_id, amounts):
    counter = GCounter(replica_id)
    for amount in amounts:
        counter.increment(amount)
    return counter


def build_orset(replica_id, ops):
    s = ORSet(replica_id)
    for add, item in ops:
        if add:
            s.add(item)
        else:
            s.remove(item)
    return s


def build_lww(replica_id, writes):
    register = LWWRegister(replica_id)
    for value, stamp in writes:
        register.set(value, stamp)
    return register


def build_map(replica_id, writes):
    m = LWWMap(replica_id)
    for key, value, stamp in writes:
        m.set(key, value, stamp)
    return m


amounts = st.lists(st.integers(min_value=0, max_value=20), max_size=6)
orops = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=0, max_value=3)),
    max_size=8,
)
writes = st.lists(
    st.tuples(st.integers(min_value=0, max_value=9),
              st.floats(min_value=0, max_value=100, allow_nan=False)),
    max_size=5,
)
map_writes = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]),
              st.integers(min_value=0, max_value=9),
              st.floats(min_value=0, max_value=100, allow_nan=False)),
    max_size=6,
)

CASES = [
    ("gcounter", amounts, lambda rid, ops: build_gcounter(rid, ops)),
    ("orset", orops, lambda rid, ops: build_orset(rid, ops)),
    ("lww", writes, lambda rid, ops: build_lww(rid, ops)),
    ("lwwmap", map_writes, lambda rid, ops: build_map(rid, ops)),
]


def _check_commutative(build, ops_a, ops_b):
    left = build(1, ops_a)
    left.merge(build(2, ops_b))
    right = build(2, ops_b)
    right.merge(build(1, ops_a))
    assert left.value() == right.value()


def _check_associative(build, ops_a, ops_b, ops_c):
    left = build(1, ops_a)
    bc = build(2, ops_b)
    bc.merge(build(3, ops_c))
    left.merge(bc)

    right = build(1, ops_a)
    right.merge(build(2, ops_b))
    right.merge(build(3, ops_c))
    assert left.value() == right.value()


def _check_idempotent(build, ops_a, ops_b):
    replica = build(1, ops_a)
    other = build(2, ops_b)
    replica.merge(other)
    value = replica.value()
    replica.merge(other)
    replica.merge(other.copy())
    assert replica.value() == value


def _check_convergence(build, ops_a, ops_b):
    """Full state exchange in both directions converges both replicas."""
    a = build(1, ops_a)
    b = build(2, ops_b)
    a_snapshot = a.copy()
    a.merge(b)
    b.merge(a_snapshot)
    b.merge(a)  # second round settles asymmetric first-round views
    a.merge(b)
    assert a.value() == b.value()


def _bind_case(strategy, build):
    """Build the four law tests for one CRDT type (closure, not default
    args — hypothesis rejects @given on functions with defaults)."""

    @given(ops_a=strategy, ops_b=strategy)
    @settings(max_examples=60, deadline=None)
    def commutative(ops_a, ops_b):
        _check_commutative(build, ops_a, ops_b)

    @given(ops_a=strategy, ops_b=strategy, ops_c=strategy)
    @settings(max_examples=60, deadline=None)
    def associative(ops_a, ops_b, ops_c):
        _check_associative(build, ops_a, ops_b, ops_c)

    @given(ops_a=strategy, ops_b=strategy)
    @settings(max_examples=60, deadline=None)
    def idempotent(ops_a, ops_b):
        _check_idempotent(build, ops_a, ops_b)

    @given(ops_a=strategy, ops_b=strategy)
    @settings(max_examples=60, deadline=None)
    def convergent(ops_a, ops_b):
        _check_convergence(build, ops_a, ops_b)

    return commutative, associative, idempotent, convergent


def _make_tests():
    tests = {}
    for name, strategy, build in CASES:
        commutative, associative, idempotent, convergent = _bind_case(
            strategy, build
        )
        tests[f"test_{name}_merge_commutative"] = commutative
        tests[f"test_{name}_merge_associative"] = associative
        tests[f"test_{name}_merge_idempotent"] = idempotent
        tests[f"test_{name}_replicas_converge"] = convergent
    return tests


globals().update(_make_tests())


# ----------------------------------------------------------------------
# randomized gossip histories over CrdtReplica: arbitrary interleavings
# of local operations and pairwise merges stay monotone (no delivered
# write is ever lost) and converge once every pair has exchanged state.
# ----------------------------------------------------------------------
_REPLICA_IDS = (1, 2, 3)

map_ops = st.tuples(st.sampled_from(["a", "b", "c"]),
                    st.integers(min_value=0, max_value=9),
                    st.floats(min_value=0, max_value=100, allow_nan=False))
counter_ops = st.integers(min_value=0, max_value=20)


def _gossip_events(op_strategy):
    return st.lists(
        st.one_of(
            st.tuples(st.just("op"),
                      st.integers(min_value=0, max_value=2), op_strategy),
            st.tuples(st.just("merge"),
                      st.integers(min_value=0, max_value=2),
                      st.integers(min_value=0, max_value=2)),
        ),
        max_size=24,
    )


def _full_exchange(replicas):
    for _ in range(2):
        for source in replicas:
            for sink in replicas:
                if source is not sink:
                    sink.absorb(source.state.copy())


@given(events=_gossip_events(map_ops))
@settings(max_examples=60, deadline=None)
def test_replica_lwwmap_monotone_convergence(events):
    replicas = [CrdtReplica(rid, LWWMap(rid)) for rid in _REPLICA_IDS]
    for event in events:
        if event[0] == "op":
            _, index, (key, value, stamp) = event
            replicas[index].mutate(
                lambda s, k=key, v=value, t=stamp: s.set(k, v, t))
        else:
            _, source, sink = event
            keys_before = set(replicas[sink].state.value())
            replicas[sink].absorb(replicas[source].state.copy())
            # Monotone: a merge only ever adds keys.
            assert keys_before <= set(replicas[sink].state.value())
    _full_exchange(replicas)
    values = [replica.state.value() for replica in replicas]
    assert values[0] == values[1] == values[2]
    # Converged state is a fixed point: further absorbs report no change.
    for source in replicas:
        for sink in replicas:
            if source is not sink:
                assert sink.absorb(source.state.copy()) is False


@given(events=_gossip_events(counter_ops))
@settings(max_examples=60, deadline=None)
def test_replica_gcounter_monotone_convergence(events):
    replicas = [CrdtReplica(rid, GCounter(rid)) for rid in _REPLICA_IDS]
    observed = [0, 0, 0]
    total_increments = 0
    for event in events:
        if event[0] == "op":
            _, index, amount = event
            replicas[index].mutate(lambda s, a=amount: s.increment(a))
            total_increments += amount
        else:
            _, source, sink = event
            replicas[sink].absorb(replicas[source].state.copy())
        for index, replica in enumerate(replicas):
            # Monotone: a counter value never moves backwards.
            assert replica.state.value() >= observed[index]
            observed[index] = replica.state.value()
    _full_exchange(replicas)
    # Convergence is exact: every increment counted once, everywhere.
    assert [r.state.value() for r in replicas] == [total_increments] * 3
