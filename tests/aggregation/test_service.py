"""In-network aggregation over running networks, plus the raw baseline
and the Koala pull service."""

import pytest

from repro.aggregation import pull
from repro.aggregation.pull import KoalaPullService
from repro.aggregation.query import AggregationQuery
from repro.aggregation.service import AggregationService, RawCollectionService
from repro.devices.node import DeviceNode
from repro.devices.phenomena import DiurnalField
from repro.net.stack import StackConfig
from repro.radio.medium import Medium
from repro.radio.propagation import UnitDiskModel
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog
from tests.conftest import constant_field


def device_grid(side=3, seed=80, field_value=20.0):
    sim = Simulator(seed=seed)
    trace = TraceLog()
    medium = Medium(sim, UnitDiskModel(radius_m=25.0), trace)
    config = StackConfig(mac="csma")
    phenomenon = constant_field(field_value)
    nodes = []
    node_id = 0
    for y in range(side):
        for x in range(side):
            node = DeviceNode(medium, node_id, (x * 20.0, y * 20.0),
                              config, is_root=(node_id == 0))
            node.add_sensor("temp", phenomenon)
            node.start()
            nodes.append(node)
            node_id += 1
    sim.run(until=120.0)
    return sim, trace, nodes


class TestQuery:
    def test_epoch_arithmetic(self):
        query = AggregationQuery(1, "t", "avg", epoch_s=30.0, start_time=100.0)
        assert query.epoch_index(100.0) == 0
        assert query.epoch_index(159.9) == 1
        assert query.epoch_start(2) == 160.0

    def test_invalid_operator_rejected(self):
        with pytest.raises(ValueError):
            AggregationQuery(1, "t", "median", 30.0, 0.0)

    def test_invalid_epoch_rejected(self):
        with pytest.raises(ValueError):
            AggregationQuery(1, "t", "avg", 0.0, 0.0)


class TestAggregationService:
    def test_all_nodes_contribute_each_epoch(self):
        sim, trace, nodes = device_grid()
        services = [AggregationService(n) for n in nodes]
        results = []
        services[0].run_query("temp", "count", epoch_s=30.0,
                              lifetime_epochs=4, on_result=results.append)
        sim.run(until=sim.now + 200.0)
        # First epoch is partial (dissemination), later ones complete.
        assert results[-1].node_count == 9
        assert results[-1].value == 9.0

    def test_avg_matches_field(self):
        sim, trace, nodes = device_grid(field_value=23.0)
        services = [AggregationService(n) for n in nodes]
        results = []
        services[0].run_query("temp", "avg", epoch_s=30.0,
                              lifetime_epochs=4, on_result=results.append)
        sim.run(until=sim.now + 200.0)
        assert results[-1].value == pytest.approx(23.0, abs=0.5)

    def test_one_record_per_node_per_epoch(self):
        sim, trace, nodes = device_grid()
        services = [AggregationService(n) for n in nodes]
        services[0].run_query("temp", "avg", epoch_s=30.0, lifetime_epochs=5)
        sim.run(until=sim.now + 220.0)
        for service in services[1:]:
            # <= lifetime epochs records regardless of subtree size.
            assert 1 <= service.records_sent <= 6

    def test_only_root_can_issue_queries(self):
        sim, trace, nodes = device_grid()
        service = AggregationService(nodes[3])
        with pytest.raises(RuntimeError):
            service.run_query("temp", "avg", 30.0)

    def test_dead_node_drops_out_of_count(self):
        sim, trace, nodes = device_grid()
        services = [AggregationService(n) for n in nodes]
        results = []
        services[0].run_query("temp", "count", epoch_s=30.0,
                              lifetime_epochs=8, on_result=results.append)
        sim.run(until=sim.now + 100.0)
        nodes[8].fail()  # corner node: no forwarding role
        sim.run(until=sim.now + 160.0)
        assert results[-1].value == 8.0

    def test_min_operator_end_to_end(self):
        sim, trace, nodes = device_grid()
        # Give one node a colder sensor.
        nodes[5].sensors["temp"].phenomenon = constant_field(5.0)
        services = [AggregationService(n) for n in nodes]
        results = []
        services[0].run_query("temp", "min", epoch_s=30.0,
                              lifetime_epochs=4, on_result=results.append)
        sim.run(until=sim.now + 200.0)
        assert results[-1].value == pytest.approx(5.0, abs=0.5)


class TestRawBaseline:
    def test_every_node_reports_each_epoch(self):
        sim, trace, nodes = device_grid()
        collectors = [RawCollectionService(n, root_id=0) for n in nodes]
        for collector in collectors:
            collector.start("temp", 30.0)
        sim.run(until=sim.now + 200.0)
        complete_epochs = [
            epoch for epoch, values in collectors[0].received.items()
            if len(values) == 8
        ]
        assert complete_epochs

    def test_funnel_forwarding_asymmetry(self):
        sim, trace, nodes = device_grid()
        collectors = [RawCollectionService(n, root_id=0) for n in nodes]
        for collector in collectors:
            collector.start("temp", 30.0)
        sim.run(until=sim.now + 400.0)
        near_root = nodes[1].stack.stats.datagrams_forwarded
        corner = nodes[8].stack.stats.datagrams_forwarded
        assert near_root > corner

    def test_stop_ceases_reporting(self):
        sim, trace, nodes = device_grid()
        collector = RawCollectionService(nodes[8], root_id=0)
        sink = RawCollectionService(nodes[0], root_id=0)
        collector.start("temp", 30.0)
        sink.start("temp", 30.0)
        sim.run(until=sim.now + 100.0)
        collector.stop()
        sent = collector.readings_sent
        sim.run(until=sim.now + 100.0)
        assert collector.readings_sent == sent


class TestKoalaPull:
    def test_pull_retrieves_buffered_samples(self):
        sim, trace, nodes = device_grid()
        services = [KoalaPullService(n, root_id=0) for n in nodes]
        for service in services:
            service.start_sampling("temp", 10.0)
        sim.run(until=sim.now + 100.0)
        results = []
        services[0].pull("temp", max_samples=5, response_window_s=30.0,
                         on_complete=results.append)
        sim.run(until=sim.now + 60.0)
        assert results[0].node_count == 8
        assert results[0].sample_count == 40

    def test_sampling_is_radio_silent(self):
        sim, trace, nodes = device_grid()
        services = [KoalaPullService(n, root_id=0) for n in nodes]
        baseline_tx = nodes[8].stack.radio.frames_sent
        for service in services:
            service.start_sampling("temp", 5.0)
        sim.run(until=sim.now + 300.0)
        # Routing keeps its own (slow) beaconing; sampling itself must
        # add nothing. Allow only Trickle-paced control frames.
        assert services[8].buffer
        assert services[8].batches_sent == 0

    def test_buffer_bounded(self, monkeypatch):
        monkeypatch.setattr(pull, "BUFFER_SIZE", 16)
        sim, trace, nodes = device_grid()
        service = KoalaPullService(nodes[8], root_id=0)
        service.start_sampling("temp", 1.0)
        sim.run(until=sim.now + 300.0)
        assert len(service.buffer) == 16

    def test_only_root_pulls(self):
        sim, trace, nodes = device_grid()
        service = KoalaPullService(nodes[3], root_id=0)
        with pytest.raises(RuntimeError):
            service.pull("temp")
