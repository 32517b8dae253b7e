"""A run is one value: the ``Scenario`` codec, hash, validation,
lifecycle and CLI.

The codec — fault clauses included — keeps one contract: a round trip
is the identity, and a malformed payload raises ``ValueError`` naming
its path and nothing else.  A scenario that cannot run is refused when
it is made, and the hash is a pure function of the canonical JSON, so a
bundle's scenario names the same run in every process.
"""

import dataclasses
import functools
import json
import math
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.app.report import DEMO, explain_main, report_main
from repro.app.scenarios import BUILTIN_SCENARIOS
from repro.app.sweep import SeedSweepRunner, replay
from repro.core.scenario import Rollout, Scenario
from repro.core.system import SystemConfig
from repro.core.workloads import (AvailabilityProbe, Demo, HvacSafety,
                                  PartitionCrdt, Probe)
from repro.deployment.topology import grid_topology, line_topology
from repro.devices.phenomena import DiurnalField, RandomWalkField
from repro.faults.plan import (BORDER_ROUTER, CLAUSES, CrashClause,
                               InterferenceClause, LinkFlapClause,
                               PartitionClause, RandomCrashesClause,
                               SensorClause)
from repro.net.mac.lpl import PROBE_DURATION_S, LplConfig
from repro.net.mac.rimac import RiMacConfig
from repro.net.mac.tsch import TschConfig
from repro.net.rpl.dodag import RplConfig
from repro.net.stack import StackConfig
from repro.radio.propagation import LogDistanceModel, UnitDiskModel

_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
_times = st.floats(min_value=0.0, max_value=1e5)
_spans = st.floats(min_value=1e-3, max_value=1e4)
_finite = st.floats(allow_nan=False, allow_infinity=False)
#: Stacks a node can run: positive RPL periods, an LPL wake interval
#: longer than its probe, at least two TSCH slots.
_stacks = st.one_of(
    st.builds(StackConfig, mac=st.just("csma"),
              rpl=st.builds(RplConfig, dao_period_s=_spans,
                            staleness_timeout_s=st.none() | _spans)),
    st.builds(StackConfig, mac=st.just("lpl"),
              mac_config=st.builds(
                  LplConfig, wake_interval_s=st.floats(
                      PROBE_DURATION_S, 1e5, exclude_min=True),
                  phase_lock=st.booleans())),
    st.builds(StackConfig, mac=st.just("rimac"),
              mac_config=st.none() | st.builds(RiMacConfig)),
    st.builds(StackConfig, mac=st.just("tsch"),
              mac_config=st.none() | st.builds(
                  TschConfig, slotframe_slots=st.integers(2, 200)),
              channel=st.integers(11, 26)),
)
_configs = st.builds(SystemConfig, stack=_stacks,
                     trace_enabled=st.booleans())
_sensors = st.tuples(st.text(max_size=6), st.one_of(
    st.builds(DiurnalField, mean=_times, phase_s=_times),
    st.builds(RandomWalkField, step_sigma=st.floats(0.0, 10.0),
              seed=st.integers(0, 2**32))))
_TOPOLOGIES = (grid_topology(3), line_topology(4))


def _clauses(nodes, start, sensed):
    """Valid clauses naming only ``nodes``, and only the ``(node,
    sensor)`` pairs of ``sensed``, and starting at ``start`` or later."""
    times = st.floats(min_value=start, max_value=start + 1e5)
    node = st.sampled_from(nodes)
    maybe = st.none() | _spans
    sensor_clauses = st.nothing() if not sensed else st.sampled_from(
        sensed).flatmap(lambda pair: st.builds(
            SensorClause, times, st.just(pair[0]), st.just(pair[1]), maybe))
    return st.one_of(
        st.builds(CrashClause, times, node | st.just(BORDER_ROUTER), maybe),
        st.builds(PartitionClause, times, _finite, maybe),
        st.builds(LinkFlapClause, times, node, node, _spans,
                  st.integers(min_value=1, max_value=5),
                  st.floats(min_value=0.0, max_value=1e4)),
        sensor_clauses,
        st.builds(InterferenceClause, times, _spans,
                  st.tuples(_finite, _finite), st.integers(1, 13),
                  st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                            exclude_max=True), _finite,
                  st.integers(0, 2000)),
        st.builds(RandomCrashesClause, times, _spans, _spans, _spans),
    )


def _workloads(nodes):
    """Workloads whose fixed nodes ``nodes`` has (the scenario turns on
    the switches they need)."""
    return st.one_of(
        st.builds(Probe, sources=st.tuples(st.sampled_from(nodes)),
                  count=st.integers(0, 20), period_s=_times,
                  stagger_s=_times, copies=st.integers(1, 3),
                  size=st.integers(1, 64)),
        st.sampled_from([w for w in (PartitionCrdt(), HvacSafety(),
                                     AvailabilityProbe(), Demo())
                         if set(w.nodes) <= set(nodes)]),
    )


@st.composite
def _scenarios(draw):
    """A valid scenario: its clauses and probes name the topology's
    nodes, its clauses start no earlier than their install instant, its
    sensor names are distinct and include every one its workloads read,
    its sensor clauses name a sensor their node has, no two of its
    workloads bind one port and its config has every switch its
    workloads need."""
    topology = draw(st.sampled_from(_TOPOLOGIES))
    nodes = topology.node_ids()
    formation = draw(_times)
    faults_at = draw(st.none() | st.floats(formation, 2e5))
    start = formation if faults_at is None else faults_at
    workloads, owned = [], set()
    for workload in draw(st.lists(_workloads(nodes), max_size=3)):
        if owned.isdisjoint(workload.ports):
            workloads.append(workload)
            owned.update(workload.ports)
    sensors = draw(st.lists(_sensors, max_size=2,
                            unique_by=lambda sensor: sensor[0]))
    for workload in workloads:
        sensors += [(name, DiurnalField()) for name in workload.sensors
                    if name not in [known for known, _ in sensors]]
    sensed = [(node, name) for node in nodes if node != topology.root_id
              for name, _ in sensors]
    sensed += [pair for workload in workloads for pair in workload.adds]
    return Scenario(
        topology=topology,
        config=dataclasses.replace(draw(_configs), **{
            switch: True for w in workloads for switch in w.switches}),
        link_model=draw(st.none() | st.builds(UnitDiskModel, radius_m=_times)
                        | st.builds(LogDistanceModel, seed=st.integers(0, 99))),
        sensors=sensors,
        rollout=draw(st.none() | st.builds(
            Rollout, pilot_size=st.integers(1, 5),
            growth_factor=st.integers(1, 4), stage_interval_s=_times)),
        faults=draw(st.lists(_clauses(nodes, start, sensed), max_size=3)),
        faults_at_s=faults_at,
        grace_s=draw(st.none() | _times),
        workloads=workloads,
        formation_s=formation,
        run_s=draw(_times),
    )


@st.composite
def _refused(draw):
    """A refused change to a valid scenario, as a thunk, and the pattern
    its refusal must match: one of the scenario's tuple fields with a
    refused item inserted (the refusal names its path), or its config
    with a value no run can use (the refusal names the field)."""
    scenario = draw(_scenarios())
    nodes = scenario.topology.node_ids()
    start = scenario.formation_s if scenario.faults_at_s is None \
        else scenario.faults_at_s
    unknown = draw(st.integers(0, 10_000).filter(lambda n: n not in nodes))
    variants = [
        ("faults", CrashClause(start, unknown), r"\.node: unknown node"),
        ("faults", LinkFlapClause(start, nodes[0], unknown, 1.0),
         r"\.b: unknown node"),
        ("faults", SensorClause(start, BORDER_ROUTER, "temp"),
         r"\.node: unknown node -1"),
        ("workloads", Probe(sources=(unknown,)), r"\.sources: unknown node"),
        ("sensors", (scenario.sensors or (("temp", DiurnalField()),))[0],
         ": sensor name .* is taken"),
    ]
    names = [name for name, _ in scenario.sensors]
    sensing = [node for node in nodes if node != scenario.topology.root_id]
    variants.append(("faults", SensorClause(
        start, draw(st.sampled_from(sensing)), "?" + "".join(names)),
        r"\.sensor: node .* has no sensor"))
    bound = [w for w in scenario.workloads if w.ports]
    if bound:
        variants.append(("workloads", draw(st.sampled_from(bound)),
                         r": .* binds port"))
    if start > 0:
        variants.append(("faults", CrashClause(
            draw(st.floats(0.0, start, exclude_max=True)), nodes[0]),
            r"\.at_s=.* is before the install instant"))
    refused_configs = [
        ({"span_sample_rate": draw(st.floats().filter(
            lambda rate: not 0.0 <= rate <= 1.0))}, "span_sample_rate"),
        ({"observability": True, "telemetry_interval_s": draw(st.floats(
            ).filter(lambda s: not 0.0 < s < math.inf))},
         "telemetry_interval_s must be finite"),
        ({"observability": False, "telemetry_interval_s": draw(_spans)},
         "telemetry_interval_s requires observability"),
    ]
    if draw(st.booleans()):
        changes, reason = draw(st.sampled_from(refused_configs))
        return (functools.partial(dataclasses.replace, scenario.config,
                                  **changes), fr"^SystemConfig\.{reason}")
    field, item, reason = draw(st.sampled_from(variants))
    items = list(getattr(scenario, field))
    if field == "sensors" and not items:
        items.append(item)
    items.insert(draw(st.integers(0, len(items))), item)
    return (functools.partial(dataclasses.replace, scenario,
                              **{field: tuple(items)}),
            fr"^Scenario\.{field}\[\d+\]{reason}")


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)
_FIELD_NAMES = sorted({f.name for cls in CLAUSES.values()
                       for f in dataclasses.fields(cls)})
_clause_like = st.builds(
    lambda kind, fields: {**fields, "kind": kind},
    st.sampled_from(sorted(CLAUSES)) | _json,
    st.dictionaries(st.sampled_from(_FIELD_NAMES), _json, max_size=7))


def _corrupt(draw, payload):
    """Replace or drop one key somewhere inside ``payload``."""
    node = payload
    while True:
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        if not keys:
            return
        key = draw(st.sampled_from(list(keys)))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(_json)
        return


@st.composite
def _corrupted(draw):
    """A valid payload with one key replaced or dropped, or with its
    ``faults`` replaced by clause-like objects."""
    base = draw(st.sampled_from(
        [DEMO, *BUILTIN_SCENARIOS.values()]) | _scenarios())
    payload = json.loads(json.dumps(base.to_jsonable()))
    if draw(st.booleans()):
        _corrupt(draw, payload)
    else:
        payload["faults"] = draw(st.lists(_clause_like, max_size=3))
    return payload


#: One clause of every kind, on grid(3).
_EVERY_KIND = (
    CrashClause(at_s=30.0, node=5, recover_after_s=60.0),
    CrashClause(at_s=40.0, node=BORDER_ROUTER),
    PartitionClause(at_s=100.0, cut_x=45.0, heal_after_s=300.0),
    LinkFlapClause(at_s=200.0, a=1, b=2, down_s=5.0, cycles=3, up_s=2.0),
    SensorClause(at_s=300.0, node=7, sensor="temperature",
                 clear_after_s=120.0),
    InterferenceClause(at_s=400.0, duration_s=60.0, position=(12.0, 8.0),
                       wifi_channel=11, duty_cycle=0.5),
    RandomCrashesClause(at_s=500.0, duration_s=600.0, mtbf_s=120.0,
                        mttr_s=30.0),
)
_FAULTED = Scenario(topology=grid_topology(3),
                    sensors=(("temperature", DiurnalField()),),
                    faults=_EVERY_KIND)


# ----------------------------------------------------------------------
# codec and hash
# ----------------------------------------------------------------------
class TestCodec:
    @settings(max_examples=150, deadline=None)
    @given(_scenarios())
    def test_round_trip_is_identity(self, scenario):
        payload = json.loads(json.dumps(scenario.to_jsonable()))
        decoded = Scenario.from_jsonable(payload)
        assert decoded == scenario
        assert decoded.content_hash == scenario.content_hash
        assert hash(decoded) == hash(scenario)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_json, _corrupted()))
    def test_any_json_decodes_or_raises_value_error(self, payload):
        try:
            scenario = Scenario.from_jsonable(payload)
        except ValueError:
            return
        assert isinstance(scenario, Scenario)

    def test_every_clause_kind_round_trips_in_order(self):
        payload = json.loads(json.dumps(_FAULTED.to_jsonable()))
        assert payload["format"] == "repro.scenario/2"
        assert [c["kind"] for c in payload["faults"]] == [
            "crash", "crash", "partition", "link_flap", "sensor",
            "interference", "random_crashes"]
        assert Scenario.from_jsonable(payload).faults == _EVERY_KIND

    def test_pair_fields_are_plain_json(self):
        faults = _FAULTED.to_jsonable()["faults"]
        assert faults[5]["position"] == [12.0, 8.0]
        decoded = Scenario.from_jsonable(_FAULTED.to_jsonable()).faults
        assert decoded[5].position == (12.0, 8.0)

    def test_the_border_router_sentinel_survives(self):
        decoded = Scenario.from_jsonable(_FAULTED.to_jsonable())
        assert decoded.faults[1].node == BORDER_ROUTER

    @pytest.mark.parametrize("clause, where", [
        ({"kind": "meteor_strike", "at_s": 1.0}, r": unexpected kind"),
        ({"kind": ["crash"], "at_s": 1.0}, r": unexpected kind"),
        ({"kind": "crash", "node": 3}, r": CrashClause: missing field"),
        ([1, 2], r": expected an object"),
        ({"kind": "crash", "at_s": 1.0, "node": 3, "nod": 4},
         r": CrashClause: unknown field"),
        ({"kind": "crash", "at_s": "soon", "node": 3}, r"\.at_s: "),
        ({"kind": "crash", "at_s": 1.0, "node": 3.5}, r"\.node: "),
        ({"kind": "crash", "at_s": 10 ** 400, "node": 3}, r"\.at_s: "),
        ({"kind": "crash", "at_s": -1.0, "node": 3},
         r": CrashClause\.at_s must be"),
        ({"kind": "crash", "at_s": 1.0, "node": 42}, r"\.node: unknown node"),
        ({"kind": "interference", "at_s": 1.0, "duration_s": 5.0,
          "position": 7}, r"\.position: "),
        ({"kind": "interference", "at_s": 1.0, "duration_s": 5.0,
          "position": [0.0, 0.0], "wifi_channel": 99},
         r": InterferenceClause\.wifi_channel must be"),
    ], ids=["unknown-kind", "unhashable-kind", "missing-field", "not-object",
            "unknown-field", "mistyped", "not-int", "overflow",
            "negative-start", "unknown-node", "bad-pair",
            "bad-channel"])
    def test_a_malformed_clause_is_named_by_its_path(self, clause, where):
        payload = _FAULTED.to_jsonable()
        payload["faults"].insert(1, clause)
        with pytest.raises(ValueError, match=r"^Scenario\.faults\[1\]" + where):
            Scenario.from_jsonable(payload)

    _REMOVED_FIELDS = [
        # Span storage has one bound, sampling.
        (None, ("config",), "span_max_stored", 100),
        # One-value knobs that became module constants.
        (None, ("topology",), "root_id", 0),
        (None, ("faults", 6), "spare_root", True),
        (None, ("faults", 4), "mode", "stuck"),
        (None, ("sensors", 0, 1), "start", 50.0),
        (None, ("sensors", 0, 1), "step_s", 10.0),
        (LogDistanceModel(), ("link_model",), "reference_loss_db", 40.0),
        (UnitDiskModel(), ("link_model",), "tx_power_dbm", 0.0),
        (None, ("config", "stack", "mac_config"), "wake_interval_s", 0.5),
        (None, ("config", "stack", "rpl"), "staleness_check_period_s", 30.0),
    ]

    @pytest.mark.parametrize("link_model, path, key, value", _REMOVED_FIELDS,
                             ids=[case[2] for case in _REMOVED_FIELDS])
    def test_a_document_with_a_removed_config_field_is_refused(
            self, link_model, path, key, value):
        # A document that still carries a removed field is refused, not
        # silently run without it.
        payload = dataclasses.replace(
            _FAULTED, link_model=link_model,
            sensors=(("temperature", RandomWalkField()),),
            config=SystemConfig(stack=StackConfig(
                mac="rimac", mac_config=RiMacConfig()))).to_jsonable()
        holder = payload
        for step in path:
            holder = holder[step]
        holder[key] = value
        with pytest.raises(ValueError, match=rf"unknown field.*{key}"):
            Scenario.from_jsonable(payload)

    def test_builtins_and_demo_are_scenarios(self):
        for scenario in (DEMO, *BUILTIN_SCENARIOS.values()):
            assert isinstance(scenario, Scenario)
            assert Scenario.from_jsonable(scenario.to_jsonable()) == scenario
        assert len({s.content_hash for s in BUILTIN_SCENARIOS.values()}) == 6

    def test_equal_values_hash_equal(self):
        a = Scenario(topology=grid_topology(2), formation_s=60)
        b = Scenario(topology=grid_topology(2), formation_s=60.0)
        assert a == b and hash(a) == hash(b)
        assert a.content_hash == b.content_hash
        assert dataclasses.replace(a, run_s=1.0).content_hash != a.content_hash

    def test_hash_is_the_same_in_every_process(self):
        code = ("import json\n"
                "from repro.app.scenarios import BUILTIN_SCENARIOS\n"
                "from repro.app.report import DEMO\n"
                "print(json.dumps([DEMO.content_hash] + [BUILTIN_SCENARIOS[n]"
                ".content_hash for n in sorted(BUILTIN_SCENARIOS)]))\n")
        hashes = []
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=_SRC)
            child = subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True, timeout=120)
            assert child.returncode == 0, child.stderr
            hashes.append(json.loads(child.stdout))
        assert hashes[0] == hashes[1]
        assert hashes[0][0] == DEMO.content_hash


class TestValidation:
    @pytest.mark.parametrize("field", ["formation_s", "run_s", "grace_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_times_must_be_finite_and_non_negative(self, field, value):
        with pytest.raises(ValueError, match=field):
            Scenario(topology=grid_topology(2), **{field: value})

    def test_faults_install_no_earlier_than_formation(self):
        with pytest.raises(ValueError, match="faults_at_s"):
            Scenario(topology=grid_topology(2), formation_s=60.0,
                     faults_at_s=30.0)

    @pytest.mark.parametrize("faults_at_s", [None, 90.0])
    def test_a_clause_starts_no_earlier_than_its_install(self, faults_at_s):
        with pytest.raises(ValueError,
                           match=r"Scenario\.faults\[1\]\.at_s=30.0 is before"):
            Scenario(topology=grid_topology(2), formation_s=60.0,
                     faults_at_s=faults_at_s,
                     faults=(CrashClause(90.0, 1), CrashClause(30.0, 1)))

    @pytest.mark.parametrize("clause, field", [
        (CrashClause(60.0, 4), "node"),
        (SensorClause(60.0, 4, "temp"), "node"),
        (SensorClause(60.0, BORDER_ROUTER, "temp"), "node"),
        (LinkFlapClause(60.0, 0, 4, 5.0), "b"),
    ])
    def test_a_clause_names_a_node_of_the_topology(self, clause, field):
        Scenario(topology=grid_topology(2), formation_s=60.0,
                 faults=(CrashClause(60.0, BORDER_ROUTER),))
        with pytest.raises(ValueError,
                           match=fr"Scenario\.faults\[0\]\.{field}: unknown"):
            Scenario(topology=grid_topology(2), formation_s=60.0,
                     faults=(clause,))

    def test_a_probe_source_is_a_node_of_the_topology(self):
        with pytest.raises(ValueError, match=r"Scenario\.workloads\[1\]"
                                             r"\.sources: unknown node 9"):
            Scenario(topology=grid_topology(2),
                     config=SystemConfig(observability=True),
                     sensors=(("temp", DiurnalField()),),
                     workloads=(Demo(), Probe(sources=(1, 9))))

    @pytest.mark.parametrize("workload, node", [
        (HvacSafety(), 4), (AvailabilityProbe(), 8)])
    def test_a_workload_needs_its_nodes(self, workload, node):
        config = SystemConfig(invariant_checking=True)
        Scenario(topology=grid_topology(3), config=config,
                 workloads=(workload,))
        with pytest.raises(ValueError, match=(
                fr"^Scenario\.workloads\[1\]: {workload.kind} needs node "
                fr"{node}, which the topology lacks")):
            Scenario(topology=grid_topology(2), config=config,
                     workloads=(Probe(sources=(1,)), workload))

    @pytest.mark.parametrize("workload, switch", [
        (HvacSafety(), "invariant_checking"),
        (AvailabilityProbe(), "invariant_checking"),
        (PartitionCrdt(), "invariant_checking"),
        (Demo(), "observability"),
    ])
    def test_a_workload_needs_its_switches(self, workload, switch):
        sensors = (("temp", DiurnalField()),)
        Scenario(topology=grid_topology(3),
                 config=SystemConfig(**{switch: True}), sensors=sensors,
                 workloads=(workload,))
        with pytest.raises(ValueError, match=(
                fr"^Scenario\.workloads\[0\]: {workload.kind} needs "
                fr"SystemConfig\.{switch}=True")):
            Scenario(topology=grid_topology(3), sensors=sensors,
                     workloads=(workload,))

    @pytest.mark.parametrize("stack, field", [
        (lambda: StackConfig(mac="lpl", mac_config=LplConfig(
            wake_interval_s=PROBE_DURATION_S)), "LplConfig.wake_interval_s"),
        (lambda: StackConfig(mac="lpl", mac_config=LplConfig(
            wake_interval_s=PROBE_DURATION_S / 2)),
         "LplConfig.wake_interval_s"),
        (lambda: StackConfig(rpl=RplConfig(dao_period_s=0.0)),
         "RplConfig.dao_period_s"),
    ])
    def test_a_stack_it_cannot_run_is_refused_when_made(self, stack, field):
        with pytest.raises(ValueError, match=fr"^{field}"):
            Scenario(topology=grid_topology(2),
                     config=SystemConfig(stack=stack()))

    @pytest.mark.parametrize("changes, field", [
        ({"observability": True, "span_sample_rate": 1.5},
         "span_sample_rate"),
        ({"observability": True, "span_sample_rate": -0.1},
         "span_sample_rate"),
        ({"observability": True, "span_sample_rate": math.nan},
         "span_sample_rate"),
        ({"observability": True, "telemetry_interval_s": math.nan},
         "telemetry_interval_s"),
        ({"observability": True, "telemetry_interval_s": 0.0},
         "telemetry_interval_s"),
        ({"telemetry_interval_s": 10.0}, "telemetry_interval_s"),
    ], ids=["rate-1.5", "rate-negative", "rate-nan", "interval-nan",
            "interval-zero", "unobserved"])
    def test_a_config_it_cannot_run_is_refused_when_made(self, changes,
                                                         field):
        # A config that constructs must run; each of these would fail
        # only in run().
        with pytest.raises(ValueError, match=fr"^SystemConfig\.{field} "):
            SystemConfig(**changes)

    @pytest.mark.parametrize("path, value, field", [
        (("mac_config", "wake_interval_s"), PROBE_DURATION_S,
         "LplConfig.wake_interval_s"),
        (("rpl", "dao_period_s"), 0.0, "RplConfig.dao_period_s"),
    ])
    def test_a_decoded_stack_is_refused_by_its_path(self, path, value, field):
        # A MAC config refuses itself when made, one step below the stack;
        # the stack runs its routing config's refusal.
        where = r"\.mac_config" if path[0] == "mac_config" else ""
        payload = Scenario(topology=grid_topology(2), config=SystemConfig(
            stack=StackConfig(mac="lpl"))).to_jsonable()
        stack = payload["config"]["stack"]
        if stack[path[0]] is None:
            stack[path[0]] = {"type": "LplConfig"}
        stack[path[0]][path[1]] = value
        with pytest.raises(ValueError, match=(
                fr"^Scenario\.config\.stack{where}: {field}")):
            Scenario.from_jsonable(json.loads(json.dumps(payload)))

    def test_two_sensors_may_not_share_a_name(self):
        with pytest.raises(ValueError, match=r"Scenario\.sensors\[1\]: "
                                             r"sensor name 'temp' is taken"):
            Scenario(topology=grid_topology(2),
                     sensors=(("temp", DiurnalField()),
                              ("temp", DiurnalField(mean=3.0))))

    @pytest.mark.parametrize("first, second, port", [
        (Probe(sources=(1,), count=5), Probe(sources=(2,), count=5), 7),
        (PartitionCrdt(), Demo(), 9901),
    ], ids=["two-probes", "gossip"])
    def test_two_workloads_may_not_bind_one_port(self, first, second, port):
        config = SystemConfig(observability=True, invariant_checking=True)
        sensors = (("temp", DiurnalField()),)
        for alone in (first, second):
            Scenario(topology=grid_topology(3), config=config,
                     sensors=sensors, workloads=(alone,))
        with pytest.raises(ValueError, match=(
                fr"^Scenario\.workloads\[1\]: {second.kind} binds port "
                fr"{port}, which Scenario\.workloads\[0\] binds")):
            Scenario(topology=grid_topology(3), config=config,
                     sensors=sensors, workloads=(first, second))

    def test_a_demo_needs_a_temp_sensor(self):
        with pytest.raises(ValueError, match=(
                r"^Scenario\.workloads\[0\]: demo reads sensor 'temp', "
                r"which Scenario\.sensors lacks")):
            Scenario(topology=grid_topology(3),
                     config=SystemConfig(observability=True),
                     sensors=(("humidity", DiurnalField()),),
                     workloads=(Demo(),))

    @pytest.mark.parametrize("clause", [
        SensorClause(60.0, 4, "humidity"),
        SensorClause(60.0, 0, "temp"),  # the root senses nothing
        SensorClause(60.0, 5, "zone_temp"),
    ], ids=["unknown-sensor", "root", "not-a-zone"])
    def test_a_sensor_clause_names_a_sensor_its_node_has(self, clause):
        base = Scenario(topology=grid_topology(3), formation_s=60.0,
                        config=SystemConfig(invariant_checking=True),
                        sensors=(("temp", DiurnalField()),),
                        workloads=(HvacSafety(),))
        dataclasses.replace(base, faults=(SensorClause(60.0, 4, "temp"),
                                          SensorClause(60.0, 8, "zone_temp")))
        with pytest.raises(ValueError, match=(
                fr"^Scenario\.faults\[1\]\.sensor: node {clause.node} has "
                fr"no sensor '{clause.sensor}'")):
            dataclasses.replace(base, faults=(CrashClause(60.0, 1), clause))

    @settings(max_examples=100, deadline=None)
    @given(_refused())
    def test_a_refused_value_raises_at_construction(self, case):
        make, pattern = case
        with pytest.raises(ValueError, match=pattern):
            make()


# ----------------------------------------------------------------------
# sweeps, bundles, replay
# ----------------------------------------------------------------------
class TestSweeps:
    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_every_builtin_run_seed_pickles(self, name):
        runner = SeedSweepRunner(name, BUILTIN_SCENARIOS[name])
        clone = pickle.loads(pickle.dumps(runner.run_seed))
        assert clone.__self__.scenario == runner.scenario

    def test_a_bundle_replays_its_planted_violation(self):
        # The cut never heals, so the CRDT replicas cannot converge.
        planted = dataclasses.replace(
            BUILTIN_SCENARIOS["partition-crdt"],
            faults=(PartitionClause(240.0, 30.0),))
        bundle = SeedSweepRunner("planted", planted).run_seed(1).bundle
        assert bundle is not None and bundle.violations
        replayed = Scenario.from_jsonable(bundle.scenario).run(bundle.seed)
        assert replayed.checkers.finish() == bundle.violations
        # Fully observed, with a whole-stream subscriber: the same run.
        assert replay(bundle).violations == bundle.violations
        summary = bundle.summary()
        assert f"scenario sha256={planted.content_hash}" in summary
        assert "partition @ t=240s  cut_x=30.0, heal_after_s=None" in summary
        assert summary.splitlines()[-1] == \
            "  repro: repro.app.sweep.replay(bundle)"


# ----------------------------------------------------------------------
# the demo's CLI flags: one parser, one set of checks
# ----------------------------------------------------------------------
class TestDemoFlags:
    @pytest.mark.parametrize("main, argv", [
        (explain_main, ["--side", "0"]),
        (report_main, ["--side", "1"]),
        (report_main, ["--duration", "-1"]),
        (explain_main, ["--duration", "nan"]),
        (report_main, ["--duration", "inf"]),
    ])
    def test_bad_demo_flags_are_usage_errors(self, main, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert argv[0] in capsys.readouterr().err
