"""The flight recorder: triggers, bounds, and repro-bundle integration."""

import pytest

from repro.obs import Observability, recorder as recorder_module
from repro.obs.recorder import FlightDump, FlightRecorder
from repro.obs.registry import Registry
from repro.obs.spans import SpanTracer
from repro.obs.timeseries import TelemetryEngine
from repro.sim.kernel import Simulator


def make_recorder():
    sim = Simulator(seed=5)
    registry = Registry()
    engine = TelemetryEngine(sim, registry, interval_s=10.0)
    engine.start()
    recorder = FlightRecorder(engine, SpanTracer())
    return sim, registry, engine, recorder


class FakeViolation:
    def __init__(self, time=42.0):
        self.time = time
        self.checker = "TestChecker"
        self.invariant = "thing-holds"
        self.node = 7


class TestTriggers:
    def test_violation_trigger_freezes_windows(self, monkeypatch):
        monkeypatch.setattr(recorder_module, "LAST_K", 2)
        sim, registry, engine, recorder = make_recorder()
        sim.schedule_at(1.0, lambda: registry.inc("pkts", node=1))
        sim.run(until=45.0)
        dump = recorder.on_violation(FakeViolation(time=42.0))
        assert dump is not None
        assert dump.trigger == {"kind": "violation", "checker": "TestChecker",
                                "invariant": "thing-holds", "node": 7}
        assert dump.at_s == 42.0
        assert [w.index for w in dump.windows] == [2, 3]  # LAST_K bound
        assert registry.snapshot().counters[
            ("recorder.dumps", (("trigger", "violation"),))] == 1.0

    def test_fault_window_trigger(self):
        sim, registry, engine, recorder = make_recorder()
        sim.run(until=25.0)
        dump = recorder.on_fault_window("partition", sim.now, clause=0)
        assert dump.trigger == {"kind": "fault", "fault": "partition",
                                "clause": 0}
        assert len(dump.windows) == 2

    def test_max_dumps_bounds_memory(self, monkeypatch):
        monkeypatch.setattr(recorder_module, "MAX_DUMPS", 2)
        sim, registry, engine, recorder = make_recorder()
        sim.run(until=15.0)
        assert recorder.on_fault_window("crash", sim.now) is not None
        assert recorder.on_fault_window("crash", sim.now) is not None
        assert recorder.on_fault_window("crash", sim.now) is None
        assert len(recorder.dumps) == 2
        assert recorder.suppressed == 1
        assert any("suppressed" in block for block in recorder.render_all())

    def test_pinned_spans_captured_within_lookback(self, monkeypatch):
        monkeypatch.setattr(recorder_module, "SPAN_LOOKBACK_S", 30.0)
        obs = Observability()
        sim = Simulator(seed=5)
        engine = TelemetryEngine(sim, obs.registry, interval_s=10.0)
        engine.start()
        recorder = FlightRecorder(engine, obs.spans)
        # one pinned span inside the lookback, one unpinned, one stale
        sim.run(until=50.0)
        stale = obs.spans.start(None, "fault.crash", node=1, t=2.0)
        obs.spans.finish(stale, t=3.0)
        recent = obs.spans.start(None, "fault.partition", node=2, t=35.0)
        obs.spans.finish(recent, t=40.0)
        unpinned = obs.spans.start(None, "net.datagram", node=3, t=36.0)
        obs.spans.finish(unpinned, t=37.0)
        dump = recorder.on_fault_window("crash", 50.0)
        categories = [s["category"] for s in dump.spans]
        assert categories == ["fault.partition"]

    def test_dump_jsonable_and_render(self):
        sim, registry, engine, recorder = make_recorder()
        sim.run(until=15.0)
        dump = recorder.on_violation(FakeViolation())
        payload = dump.to_jsonable()
        assert payload["format"] == "repro.flightdump/1"
        assert payload["trigger"]["checker"] == "TestChecker"
        assert [w["format"] for w in payload["windows"]] == ["repro.window/2"]
        # Additive-key contract: no exemplars recorded, no key — a
        # pre-exemplar dump's JSON shape is preserved exactly.
        assert "exemplars" not in payload
        text = dump.render()
        assert "flight dump" in text and "checker=TestChecker" in text

    def test_dump_carries_worst_exemplar_traces(self):
        sim, registry, engine, recorder = make_recorder()
        for i, value in enumerate((0.5, 0.9, 0.7)):
            registry.observe("net.latency_s", value, exemplar=200 + i,
                             port=7)
        sim.run(until=15.0)
        dump = recorder.on_violation(FakeViolation())
        assert dump.exemplars == {"net.latency_s": [201, 202, 200]}
        payload = dump.to_jsonable()
        assert payload["exemplars"] == {"net.latency_s": [201, 202, 200]}
        assert "exemplars net.latency_s: 201, 202, 200" in dump.render()


class TestCheckerIntegration:
    def _system(self, telemetry=True):
        from repro.core.system import IIoTSystem, SystemConfig
        from repro.deployment.topology import grid_topology

        config = SystemConfig(observability=True,
                              invariant_checking=True,
                              telemetry_interval_s=20.0)
        return IIoTSystem.build(grid_topology(2), config=config, seed=3)

    def test_checker_violation_triggers_dump(self):
        system = self._system()
        system.start()
        system.run(50.0)
        checker = system.checkers.checkers[0]
        checker.record("synthetic-breach", node=1, detail="test")
        assert len(system.recorder.dumps) == 1
        dump = system.recorder.dumps[0]
        assert dump.trigger["invariant"] == "synthetic-breach"
        assert dump.windows  # telemetry weather was captured

    def test_fault_plan_window_triggers_dump(self):
        from repro.faults.plan import FaultPlan

        system = self._system()
        system.start()
        system.run(30.0)
        plan = FaultPlan().crash(at_s=40.0, node=1, recover_after_s=10.0)
        plan.install(system)
        system.run(30.0)
        dumps = system.recorder.dumps
        assert len(dumps) == 1
        assert dumps[0].trigger == {"kind": "fault", "fault": "crash",
                                    "clause": 0}

    def test_no_recorder_no_dump_path_still_records_violation(self):
        from repro.core.system import IIoTSystem, SystemConfig
        from repro.deployment.topology import grid_topology

        system = IIoTSystem.build(
            grid_topology(2),
            config=SystemConfig(observability=True, invariant_checking=True),
            seed=3)
        system.start()
        system.run(10.0)
        checker = system.checkers.checkers[0]
        violation = checker.record("synthetic-breach", node=1)
        assert violation in checker.violations
        assert system.recorder is None


class TestBundleIntegration:
    def test_bundle_carries_flight_dumps_and_fault_plan(self):
        """A violating scenario with telemetry + a fault plan produces a
        bundle whose summary ships the dumps and the injection script —
        the acceptance-criteria path."""
        from repro.checking.base import CheckerSuite, InvariantChecker
        from repro.checking.sweep import SeedSweepRunner
        from repro.core.system import IIoTSystem, SystemConfig
        from repro.deployment.topology import grid_topology
        from repro.faults.plan import FaultPlan

        class AlwaysFires(InvariantChecker):
            name = "AlwaysFires"

            def _setup(self):
                self.sim.schedule_at(55.0, lambda: self.record(
                    "synthetic-breach", node=0))

        def scenario(seed):
            config = SystemConfig(observability=True,
                                  telemetry_interval_s=10.0)
            system = IIoTSystem.build(grid_topology(2), config=config,
                                      seed=seed)
            suite = CheckerSuite(system.sim, system.trace)
            suite.add(AlwaysFires())
            system.start()
            FaultPlan().crash(at_s=30.0, node=1,
                              recover_after_s=20.0).install(system)
            system.run(80.0)
            return suite

        runner = SeedSweepRunner("flight-demo", scenario)
        outcome = runner.run_seed(9)
        bundle = outcome.bundle
        assert bundle is not None
        # dumps: one for the fault window at t=30, one for the breach
        assert len(bundle.flight_dumps) == 2
        assert bundle.fault_plan["format"] == "repro.faultplan/1"
        assert bundle.fault_plan["clauses"][0]["kind"] == "crash"
        summary = bundle.summary()
        assert "flight recorder" in summary
        assert "fault plan (1 clause(s))" in summary
        assert "crash @ t=30s" in summary
