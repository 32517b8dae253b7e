"""A run is one value: the ``Scenario`` codec, hash, lifecycle and CLI.

The codec keeps the fault plan codec's contract — a round trip is the
identity, and a malformed payload raises ``ValueError`` and nothing
else — and the hash is a pure function of the canonical JSON, so a
bundle's scenario names the same run in every process.
"""

import dataclasses
import json
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
from repro.faults.plan import PartitionClause
from repro.net.mac.lpl import LplConfig
from repro.net.mac.tsch import TschConfig
from repro.net.rpl.dodag import RplConfig
from repro.net.stack import StackConfig
from repro.radio.propagation import LogDistanceModel, UnitDiskModel
from tests.faults.test_plan_serialization import _clauses, _json

_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
_times = st.floats(min_value=0.0, max_value=1e5)
_stacks = st.one_of(
    st.builds(StackConfig, mac=st.just("csma"),
              rpl=st.builds(RplConfig, dao_period_s=_times,
                            staleness_timeout_s=st.none() | _times)),
    st.builds(StackConfig, mac=st.just("lpl"),
              mac_config=st.builds(LplConfig, wake_interval_s=_times,
                                   phase_lock=st.booleans())),
    st.builds(StackConfig, mac=st.just("tsch"),
              mac_config=st.none() | st.builds(
                  TschConfig, slotframe_slots=st.integers(1, 200)),
              channel=st.integers(11, 26)),
)
_configs = st.builds(SystemConfig, stack=_stacks,
                     trace_enabled=st.booleans(),
                     span_max_stored=st.none() | st.integers(0, 10_000))
_workloads = st.one_of(
    st.builds(Probe, sources=st.tuples(st.integers(0, 8)),
              count=st.integers(0, 20), period_s=_times,
              stagger_s=_times, copies=st.integers(1, 3),
              size=st.integers(1, 64)),
    st.sampled_from([PartitionCrdt(), HvacSafety(), AvailabilityProbe(),
                     Demo()]),
)
_sensors = st.tuples(st.text(max_size=6), st.one_of(
    st.builds(DiurnalField, mean=_times, phase_s=_times),
    st.builds(RandomWalkField, step_s=st.floats(1e-3, 100.0),
              seed=st.integers(0, 2**32))))


@st.composite
def _scenarios(draw):
    formation = draw(_times)
    return Scenario(
        topology=draw(st.sampled_from([grid_topology(3), line_topology(4)])),
        config=draw(_configs),
        link_model=draw(st.none() | st.builds(UnitDiskModel, radius_m=_times)
                        | st.builds(LogDistanceModel, seed=st.integers(0, 99))),
        sensors=draw(st.lists(_sensors, max_size=2)),
        rollout=draw(st.none() | st.builds(
            Rollout, pilot_size=st.integers(1, 5),
            growth_factor=st.integers(1, 4), stage_interval_s=_times)),
        faults=draw(st.lists(_clauses, max_size=3)),
        faults_at_s=draw(st.none() | st.floats(formation, 2e5)),
        grace_s=draw(st.none() | _times),
        workloads=draw(st.lists(_workloads, max_size=3)),
        formation_s=formation,
        run_s=draw(_times),
    )


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
    base = draw(st.sampled_from(
        [DEMO, *BUILTIN_SCENARIOS.values()]) | _scenarios())
    payload = json.loads(json.dumps(base.to_jsonable()))
    _corrupt(draw, payload)
    return payload


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

    def test_an_invalid_plan_is_rejected(self):
        with pytest.raises(ValueError, match="fault plan"):
            Scenario(topology=grid_topology(2),
                     faults=(PartitionClause(float("nan"), 10.0),))


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
