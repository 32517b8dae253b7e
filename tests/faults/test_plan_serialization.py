"""FaultPlan JSON serialization — the injection script rides the bundle."""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.plan import (BORDER_ROUTER, CrashClause, FaultPlan,
                               InterferenceClause, LinkFlapClause,
                               PartitionClause, RandomCrashesClause,
                               SensorClause, _clause_from_jsonable,
                               _clause_to_jsonable)
from repro.devices.sensors import SensorFault


def full_plan():
    return (FaultPlan()
            .crash(at_s=30.0, node=5, recover_after_s=60.0)
            .kill_border_router(at_s=40.0)
            .partition(at_s=100.0, cut_x=45.0, heal_after_s=300.0)
            .flap_link(at_s=200.0, a=1, b=2, down_s=5.0, cycles=3, up_s=2.0)
            .sensor_fault(at_s=300.0, node=7, sensor="temperature",
                          mode=SensorFault.DRIFT, clear_after_s=120.0)
            .interference(at_s=400.0, duration_s=60.0, position=(12.0, 8.0),
                          wifi_channel=11, duty_cycle=0.5)
            .random_crashes(at_s=500.0, duration_s=600.0, mtbf_s=120.0,
                            mttr_s=30.0, spare_root=False))


class TestClauseRoundtrip:
    def test_every_kind_roundtrips(self):
        for clause in full_plan().clauses:
            payload = _clause_to_jsonable(clause)
            assert payload["kind"] == clause.kind
            assert _clause_from_jsonable(payload) == clause

    def test_payloads_are_json_safe(self):
        for clause in full_plan().clauses:
            restored = json.loads(json.dumps(_clause_to_jsonable(clause)))
            assert _clause_from_jsonable(restored) == clause

    def test_enum_and_tuple_fields_lowered(self):
        plan = full_plan()
        sensor = _clause_to_jsonable(plan.clauses[4])
        assert sensor["mode"] == "drift"  # string, not SensorFault
        interference = _clause_to_jsonable(plan.clauses[5])
        assert interference["position"] == [12.0, 8.0]
        restored = _clause_from_jsonable(interference)
        assert restored.position == (12.0, 8.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault clause"):
            _clause_from_jsonable({"kind": "meteor_strike", "at_s": 1.0})


class TestPlanRoundtrip:
    def test_plan_roundtrips_in_order(self):
        plan = full_plan()
        payload = plan.to_jsonable()
        assert payload["format"] == "repro.faultplan/1"
        assert [c["kind"] for c in payload["clauses"]] == [
            "crash", "crash", "partition", "link_flap", "sensor",
            "interference", "random_crashes"]
        restored = FaultPlan.from_jsonable(json.loads(json.dumps(payload)))
        assert restored.clauses == plan.clauses

    def test_border_router_sentinel_survives(self):
        plan = FaultPlan().kill_border_router(at_s=10.0)
        restored = FaultPlan.from_jsonable(plan.to_jsonable())
        assert restored.clauses[0].node == BORDER_ROUTER

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.from_jsonable({"format": "repro.faultplan/999",
                                     "clauses": []})


def _payload(*clauses):
    return {"format": "repro.faultplan/1", "clauses": list(clauses)}


class TestMalformedPayloads:
    """Every malformed payload is a ValueError naming the clause index."""

    @pytest.mark.parametrize("clause", [
        {"kind": "crash", "node": 3},                        # missing at_s
        [1, 2],                                              # not an object
        {"kind": "crash", "at_s": 1.0, "node": 3, "nod": 4},  # unknown field
        {"kind": "crash", "at_s": "soon", "node": 3},        # mistyped
        {"kind": "crash", "at_s": 1.0, "node": 3.5},         # not an int
        {"kind": "crash", "at_s": 10 ** 400, "node": 3},     # overflows
        {"kind": "sensor", "at_s": 1.0, "node": 3, "sensor": "t",
         "mode": "melted"},
        {"kind": "interference", "at_s": 1.0, "duration_s": 5.0,
         "position": 7},
        {"kind": ["crash"], "at_s": 1.0},                    # unhashable kind
    ])
    def test_malformed_clause_names_its_index(self, clause):
        good = {"kind": "crash", "at_s": 1.0, "node": 3}
        with pytest.raises(ValueError, match="clause 1"):
            FaultPlan.from_jsonable(_payload(good, clause))

    @pytest.mark.parametrize("payload", [
        None, [], "repro.faultplan/1",
        {"format": "repro.faultplan/1", "clauses": {}},
        {"format": "repro.faultplan/1", "clauses": [], "extra": 1},
    ])
    def test_malformed_plan_rejected(self, payload):
        with pytest.raises(ValueError):
            FaultPlan.from_jsonable(payload)

    @pytest.mark.parametrize("at_s", [math.nan, math.inf, -1.0])
    def test_validate_rejects_non_finite_and_negative_starts(self, at_s):
        with pytest.raises(ValueError, match="clause 0"):
            FaultPlan().crash(at_s, node=2).validate()
        with pytest.raises(ValueError, match="clause 0"):
            FaultPlan.from_jsonable(_payload(
                {"kind": "crash", "at_s": at_s, "node": 2}))

    def test_validate_rejects_nan_windows_and_zero_mtbf(self):
        with pytest.raises(ValueError, match="ends before it starts"):
            FaultPlan().crash(1.0, node=2, recover_after_s=math.nan).validate()
        with pytest.raises(ValueError, match="mtbf_s"):
            FaultPlan().random_crashes(1.0, 60.0, mtbf_s=0.0).validate()


# ----------------------------------------------------------------------
# fuzzed: round trip is identity, decoding raises nothing but ValueError
# ----------------------------------------------------------------------
_times = st.floats(min_value=0.0, max_value=1e6)
_spans = st.floats(min_value=1e-3, max_value=1e4)
_maybe = st.none() | _spans
_finite = st.floats(allow_nan=False, allow_infinity=False)
_nodes = st.integers(min_value=BORDER_ROUTER, max_value=500)

_clauses = st.one_of(
    st.builds(CrashClause, _times, _nodes, _maybe),
    st.builds(PartitionClause, _times, _finite, _maybe),
    st.builds(LinkFlapClause, _times, _nodes, _nodes, _spans,
              st.integers(min_value=1, max_value=5),
              st.floats(min_value=0.0, max_value=1e4)),
    st.builds(SensorClause, _times, _nodes, st.text(max_size=8),
              st.sampled_from(SensorFault), _maybe),
    st.builds(InterferenceClause, _times, _spans,
              st.tuples(_finite, _finite), st.integers(1, 13),
              st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                        exclude_max=True), _finite,
              st.integers(0, 2000)),
    st.builds(RandomCrashesClause, _times, _spans, _spans, _spans,
              st.booleans()),
)
_plans = st.lists(_clauses, max_size=6).map(FaultPlan)

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)
_FIELD_NAMES = sorted({f.name for cls in (CrashClause, PartitionClause,
                                          LinkFlapClause, SensorClause,
                                          InterferenceClause,
                                          RandomCrashesClause)
                       for f in dataclasses.fields(cls)})
_clause_like = st.builds(
    lambda kind, fields: {**fields, "kind": kind},
    st.sampled_from(["crash", "partition", "link_flap", "sensor",
                     "interference", "random_crashes"]) | _json,
    st.dictionaries(st.sampled_from(_FIELD_NAMES), _json, max_size=7))


@st.composite
def _corrupted_payloads(draw):
    """A valid plan's payload with one clause field replaced or dropped."""
    payload = json.loads(json.dumps(draw(_plans).to_jsonable()))
    if payload["clauses"]:
        clause = draw(st.sampled_from(payload["clauses"]))
        key = draw(st.sampled_from(sorted(clause)))
        if draw(st.booleans()):
            del clause[key]
        else:
            clause[key] = draw(_json)
    return payload


class TestFuzzedCodec:
    @settings(max_examples=150, deadline=None)
    @given(_plans)
    def test_round_trip_is_identity(self, plan):
        payload = json.loads(json.dumps(plan.to_jsonable()))
        assert FaultPlan.from_jsonable(payload).clauses == plan.clauses

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        _json,
        st.lists(_clause_like, max_size=3).map(_payload),
        _corrupted_payloads(),
    ))
    def test_any_json_decodes_or_raises_value_error(self, payload):
        try:
            plan = FaultPlan.from_jsonable(payload)
        except ValueError:
            return
        assert isinstance(plan, FaultPlan)
