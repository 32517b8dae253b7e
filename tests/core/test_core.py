"""Core tier: IIoTSystem, metrics, experiment runner, reporting, taxonomy."""

import math

import pytest

from repro.core.experiment import Sweep, seeds_for
from repro.core.metrics import collect_energy, mean
from repro.core.report import ascii_table, format_value, write_csv
from repro.core.system import IIoTSystem, SystemConfig, TimeSeriesStore
from repro.core.taxonomy import (
    assess_dependability,
    assess_scalability,
    taxonomy_table,
)
from repro.deployment.topology import grid_topology, line_topology
from repro.obs.registry import percentile


class TestIIoTSystem:
    def test_build_and_converge(self):
        system = IIoTSystem.build(grid_topology(3), seed=1)
        system.start()
        system.run(180.0)
        assert system.joined_fraction() == 1.0
        assert system.converged()

    def test_staged_activation(self):
        system = IIoTSystem.build(line_topology(5), seed=2)
        system.start([1, 2])
        system.run(120.0)
        assert system.joined_fraction() == 1.0
        assert len(system.active_nodes()) == 3  # root + 2
        system.start([3, 4])
        system.run(240.0)
        assert system.joined_fraction() == 1.0
        assert len(system.active_nodes()) == 5

    def test_root_platform_is_gateway_class(self):
        system = IIoTSystem.build(grid_topology(2), seed=3)
        assert system.root.platform.mains_powered
        assert not system.nodes[3].platform.mains_powered

    def test_gateway_lazily_created(self):
        system = IIoTSystem.build(grid_topology(2), seed=3)
        system.start()
        assert system.gateway is system.gateway

    def test_field_sensors_attach_everywhere(self):
        from tests.conftest import constant_field

        system = IIoTSystem.build(grid_topology(3), seed=4)
        system.add_field_sensors("temp", constant_field(20.0))
        assert "temp" not in system.root.sensors
        assert all(
            "temp" in node.sensors
            for node in system.nodes.values() if not node.is_root
        )


class TestTimeSeriesStore:
    def test_append_query_latest(self):
        store = TimeSeriesStore()
        store.append("t", 1.0, 10.0)
        store.append("t", 2.0, 20.0)
        store.append("u", 1.5, 99.0)
        assert store.query("t") == [(1.0, 10.0), (2.0, 20.0)]
        assert store.query("t", since=1.5) == [(2.0, 20.0)]
        assert store.latest("t") == (2.0, 20.0)
        assert store.latest("missing") is None
        assert len(store) == 2


class TestMetrics:
    def test_percentile(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0
        assert percentile(values, 0.5) == pytest.approx(2.5)
        assert math.isnan(percentile([], 0.5))
        with pytest.raises(ValueError):
            percentile(values, 1.5)

    def test_mean(self):
        assert mean([1.0, 3.0]) == 2.0
        assert math.isnan(mean([]))

    def test_collect_energy_skips_root(self):
        system = IIoTSystem.build(line_topology(3), seed=6)
        system.start()
        system.run(120.0)
        summaries = collect_energy(system.nodes.values(), system.sim.now)
        assert len(summaries) == 2
        assert all(s.average_current_ma > 0 for s in summaries)


class TestSweep:
    def test_rows_average_over_repetitions(self):
        def scenario(value, seed):
            return {"metric": value * 10 + (seed % 3)}

        sweep = Sweep("n").run([1, 2], scenario, repetitions=3, base_seed=1)
        rows = sweep.rows()
        assert [row["n"] for row in rows] == [1, 2]
        assert rows[0]["metric"] == pytest.approx(10.0, abs=2.0)
        assert len(sweep.trials) == 6

    def test_seeds_deterministic_and_distinct(self):
        assert seeds_for(1, 3) == seeds_for(1, 3)
        assert len(set(seeds_for(1, 5))) == 5
        assert seeds_for(1, 3) != seeds_for(2, 3)
        with pytest.raises(ValueError):
            seeds_for(1, 0)


class TestReport:
    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(float("nan")) == "-"
        assert format_value(float("inf")) == "inf"
        assert format_value(12345.6) == "12,346"
        assert format_value(0.5) == "0.500"
        assert format_value(1e-6) == "1.00e-06"
        assert format_value("text") == "text"

    def test_ascii_table_renders(self):
        rows = [{"n": 1, "ratio": 0.995}, {"n": 10, "ratio": 0.97}]
        table = ascii_table(rows, title="Table X")
        assert "Table X" in table
        assert "0.995" in table
        assert table.count("\n") >= 3

    def test_empty_table(self):
        assert "(no rows)" in ascii_table([], title="empty")

    def test_write_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(str(path), [{"a": 1, "b": 2.5}, {"a": 2, "b": 3.5}])
        content = path.read_text()
        assert content.startswith("a,b")
        assert "2,3.5" in content


class TestTaxonomy:
    def test_scalability_assessment(self):
        report = assess_scalability(
            small_delivery=0.99, large_delivery=0.97, scale_factor=100.0,
            latency_per_hop_s=0.25,
            coexistence_prr_alone=0.99, coexistence_prr_shared=0.7,
        )
        assert report.size.score > 0.9
        assert 0.0 <= report.geographic.score <= 1.0
        assert report.administrative.score < 1.0
        assert len(report.axes()) == 3

    def test_dependability_assessment(self):
        report = assess_dependability(
            delivery_ratio=0.995,
            worst_comfort_violation_c=1.0, sla_breach_c=3.0,
            service_availability=0.98,
            recovery_time_s=60.0, recovery_target_s=600.0,
            injected_commands_applied=0, injected_commands_total=10,
        )
        assert report.security.score == 1.0
        assert report.reliability.score > 0.9
        assert report.maintainability.score > 0.8
        assert len(report.axes()) == 5

    def test_no_recovery_scores_zero(self):
        report = assess_dependability(
            delivery_ratio=1.0, worst_comfort_violation_c=0.0,
            sla_breach_c=3.0, service_availability=1.0,
            recovery_time_s=None, recovery_target_s=600.0,
            injected_commands_applied=5, injected_commands_total=10,
        )
        assert report.maintainability.score == 0.0
        assert report.security.score == pytest.approx(0.5)

    def test_taxonomy_table_rows(self):
        report = assess_scalability(0.99, 0.97, 10.0, 0.25, 0.99, 0.9)
        rows = taxonomy_table(report.axes())
        assert {row["axis"] for row in rows} == {
            "size", "geographic", "administrative"}
