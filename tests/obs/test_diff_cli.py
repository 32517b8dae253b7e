"""``python -m repro diff``: alignment, thresholds, and exit codes."""

import json
import math

import pytest

from repro.obs.diff import diff_main, diff_snapshots, load_snapshot
from repro.obs.export import write_metrics_json
from repro.obs.registry import MetricsSnapshot, Registry


def sample_registry(delivery=100.0, latency_scale=1.0) -> Registry:
    registry = Registry()
    registry.inc("net.sent", 200, node=1)
    registry.inc("net.delivered", delivery, node=1)
    registry.set("rpl.rank", 512, node=1)
    for value in (0.5, 1.0, 2.0, 4.0):
        registry.observe("net.latency_s", value * latency_scale, node=1)
    return registry


def write_snapshot(path, registry) -> str:
    write_metrics_json(registry.snapshot(), str(path))
    return str(path)


class TestDiffSnapshots:
    def test_identical_snapshots_have_zero_relative_change(self):
        a, b = sample_registry().snapshot(), sample_registry().snapshot()
        deltas = diff_snapshots(a, b)
        assert deltas and all(d.rel == 0.0 for d in deltas)

    def test_counter_delta_is_relative(self):
        a = sample_registry(delivery=100.0).snapshot()
        b = sample_registry(delivery=90.0).snapshot()
        moved = {d.key: d for d in diff_snapshots(a, b) if d.rel > 0}
        assert moved["net.delivered{node=1}"].rel == pytest.approx(0.10)
        # Everything else held still.
        assert len(moved) == 1

    def test_histograms_compare_as_derived_series(self):
        a = sample_registry().snapshot()
        b = sample_registry(latency_scale=2.0).snapshot()
        moved = {d.key for d in diff_snapshots(a, b) if d.rel > 0}
        assert "net.latency_s.sum{node=1}" in moved
        assert "net.latency_s.p50{node=1}" in moved
        assert "net.latency_s.p95{node=1}" in moved
        assert "net.latency_s.count{node=1}" not in moved

    def test_one_sided_series_sort_first_with_infinite_change(self):
        a = sample_registry().snapshot()
        extra = sample_registry()
        extra.inc("rnfd.globally_down", 1, node=2)
        deltas = diff_snapshots(a, extra.snapshot())
        assert deltas[0].rel == math.inf
        assert deltas[0].key == "rnfd.globally_down{node=2}"
        assert deltas[0].a is None and deltas[0].b == 1.0

    def test_number_to_nan_is_a_difference_both_ways(self):
        # What matrix_trial emits for a cell that delivered no probe,
        # round-tripped through the JSON codec like a committed baseline.
        from benchmarks._common import rows_to_snapshot

        def cell(latency_ms):
            snapshot = rows_to_snapshot(
                "m", [{"mac": "csma", "latency_ms": latency_ms}])
            return MetricsSnapshot.from_jsonable(
                json.loads(json.dumps(snapshot.to_jsonable())))

        number, nan = cell(12.5), cell(float("nan"))
        for a, b in ((number, nan), (nan, number)):
            (delta,) = diff_snapshots(a, b)
            assert delta.rel == math.inf and delta.rel > 0.0
            assert not delta.one_sided
            assert delta.rel_text == "nan"
        (delta,) = diff_snapshots(nan, cell(float("nan")))
        assert delta.rel == 0.0

    def test_nan_sorts_with_the_unbounded_moves(self):
        a, b = sample_registry(), sample_registry(delivery=90.0)
        a.set("m.latency_ms", 12.5, mac="csma")
        b.set("m.latency_ms", float("nan"), mac="csma")
        deltas = diff_snapshots(a.snapshot(), b.snapshot())
        assert [d.key for d in deltas[:2]] == [
            "m.latency_ms{mac=csma}", "net.delivered{node=1}"]
        assert deltas == diff_snapshots(a.snapshot(), b.snapshot())

    def test_move_away_from_zero_is_not_called_new(self):
        a, b = Registry(), Registry()
        a.set("queue.depth", 0.0, node=1)
        b.set("queue.depth", 0.4, node=1)
        (delta,) = diff_snapshots(a.snapshot(), b.snapshot())
        assert delta.rel == math.inf
        assert not delta.one_sided
        assert delta.rel_text == "from 0"

    def test_ordering_is_deterministic(self):
        a = sample_registry(delivery=100.0).snapshot()
        b = sample_registry(delivery=50.0, latency_scale=1.5).snapshot()
        keys = [d.key for d in diff_snapshots(a, b)]
        assert keys == [d.key for d in diff_snapshots(a, b)]
        assert keys[0] == "net.delivered{node=1}"  # biggest mover first


class TestJsonRoundTrip:
    def test_snapshot_survives_the_interchange_format(self, tmp_path):
        snapshot = sample_registry().snapshot()
        path = write_snapshot(tmp_path / "a.json", sample_registry())
        loaded = load_snapshot(path)
        assert loaded.counters == snapshot.counters
        assert loaded.gauges == snapshot.gauges
        assert loaded.histograms == snapshot.histograms
        assert all(d.rel == 0.0 for d in diff_snapshots(snapshot, loaded))

    def test_load_snapshot_rejects_wrong_format(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "something-else/9"}))
        with pytest.raises(ValueError):
            load_snapshot(str(bad))

    def test_from_jsonable_round_trips_via_plain_json(self):
        snapshot = sample_registry().snapshot()
        clone = MetricsSnapshot.from_jsonable(
            json.loads(json.dumps(snapshot.to_jsonable())))
        assert clone.counters == snapshot.counters


class TestCliExitCodes:
    def test_identical_snapshots_exit_zero(self, tmp_path, capsys):
        a = write_snapshot(tmp_path / "a.json", sample_registry())
        b = write_snapshot(tmp_path / "b.json", sample_registry())
        assert diff_main([a, b, "--fail-on", "0.05"]) == 0
        assert "no differences" in capsys.readouterr().out

    def test_ten_percent_delivery_delta_fails_five_percent_gate(
            self, tmp_path, capsys):
        a = write_snapshot(tmp_path / "a.json", sample_registry(100.0))
        b = write_snapshot(tmp_path / "b.json", sample_registry(90.0))
        assert diff_main([a, b, "--fail-on", "0.05"]) == 1
        out = capsys.readouterr().out
        assert "net.delivered{node=1}" in out
        assert "-10.0%" in out or "10.0%" in out

    def test_loose_gate_tolerates_the_same_delta(self, tmp_path):
        a = write_snapshot(tmp_path / "a.json", sample_registry(100.0))
        b = write_snapshot(tmp_path / "b.json", sample_registry(90.0))
        assert diff_main([a, b, "--fail-on", "0.5"]) == 0

    def test_without_fail_on_reporting_never_fails(self, tmp_path):
        a = write_snapshot(tmp_path / "a.json", sample_registry(100.0))
        b = write_snapshot(tmp_path / "b.json", sample_registry(50.0))
        assert diff_main([a, b]) == 0

    def test_missing_file_exits_two(self, tmp_path, capsys):
        a = write_snapshot(tmp_path / "a.json", sample_registry())
        assert diff_main([a, str(tmp_path / "absent.json")]) == 2
        assert "error:" in capsys.readouterr().out

    def test_garbage_json_exits_two(self, tmp_path):
        a = write_snapshot(tmp_path / "a.json", sample_registry())
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert diff_main([a, str(bad)]) == 2

    def test_nan_and_from_zero_fail_any_gate_and_are_labelled(
            self, tmp_path, capsys):
        before, after = sample_registry(), sample_registry()
        before.set("m.latency_ms", 12.5, mac="csma")
        after.set("m.latency_ms", float("nan"), mac="csma")
        before.set("queue.depth", 0.0, node=1)
        after.set("queue.depth", 0.4, node=1)
        a = write_snapshot(tmp_path / "a.json", before)
        b = write_snapshot(tmp_path / "b.json", after)
        assert diff_main([a, b, "--fail-on", "0.5"]) == 1
        out = capsys.readouterr().out
        assert "2 over threshold" in out
        assert "12.5 -> nan  (nan)" in out
        assert "0 -> 0.4  (from 0)" in out
        assert "new/gone" not in out
        assert diff_main([a, b, "--fail-on", "0.5", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        over = {d["key"]: d for d in doc["deltas"] if d["over_threshold"]}
        assert set(over) == {"m.latency_ms{mac=csma}", "queue.depth{node=1}"}
        assert all(d["rel"] is None and not d["one_sided"]
                   for d in over.values())

    def test_filter_narrows_the_report(self, tmp_path, capsys):
        a = write_snapshot(tmp_path / "a.json", sample_registry(100.0))
        b = write_snapshot(tmp_path / "b.json",
                           sample_registry(90.0, latency_scale=2.0))
        assert diff_main([a, b, "--fail-on", "0.05",
                          "--filter", "rpl."]) == 0
        out = capsys.readouterr().out
        assert "net.delivered" not in out

    def test_module_dispatch_reaches_diff(self, tmp_path):
        from repro.__main__ import main
        a = write_snapshot(tmp_path / "a.json", sample_registry())
        b = write_snapshot(tmp_path / "b.json", sample_registry())
        assert main(["diff", a, b, "--fail-on", "0.05"]) == 0


class TestJsonOutput:
    """``--json``: the machine-readable report (format repro.diff/1)."""

    def _run(self, capsys, argv):
        code = diff_main(argv)
        return code, json.loads(capsys.readouterr().out)

    def test_schema_and_exit_zero_on_identical(self, tmp_path, capsys):
        a = write_snapshot(tmp_path / "a.json", sample_registry())
        b = write_snapshot(tmp_path / "b.json", sample_registry())
        code, doc = self._run(capsys, [a, b, "--json", "--fail-on", "0.05"])
        assert code == 0
        assert doc["format"] == "repro.diff/1"
        assert doc["exit"] == 0
        assert doc["changed"] == 0
        assert doc["fail_on"] == 0.05
        assert doc["series"] == len(doc["deltas"])
        required = {"key", "kind", "name", "labels", "a", "b", "rel",
                    "one_sided", "over_threshold"}
        for delta in doc["deltas"]:
            assert required <= set(delta)
            assert delta["rel"] == 0.0
            assert delta["over_threshold"] is False

    def test_regression_reports_exit_one_in_payload_and_return(
            self, tmp_path, capsys):
        a = write_snapshot(tmp_path / "a.json", sample_registry(100.0))
        b = write_snapshot(tmp_path / "b.json", sample_registry(90.0))
        code, doc = self._run(capsys, [a, b, "--json", "--fail-on", "0.05"])
        assert code == 1
        assert doc["exit"] == 1
        assert doc["changed"] == 1
        over = [d for d in doc["deltas"] if d["over_threshold"]]
        assert [d["key"] for d in over] == ["net.delivered{node=1}"]
        assert over[0]["kind"] == "counter"
        assert over[0]["labels"] == {"node": 1}
        assert over[0]["a"] == 100.0 and over[0]["b"] == 90.0
        assert over[0]["rel"] == pytest.approx(0.10)

    def test_one_sided_series_has_null_rel(self, tmp_path, capsys):
        a = write_snapshot(tmp_path / "a.json", sample_registry())
        extra = sample_registry()
        extra.inc("rnfd.globally_down", 1, node=2)
        b = write_snapshot(tmp_path / "b.json", extra)
        code, doc = self._run(capsys, [a, b, "--json"])
        assert code == 0  # no --fail-on: report-only
        first = doc["deltas"][0]  # one-sided sorts first
        assert first["key"] == "rnfd.globally_down{node=2}"
        assert first["one_sided"] is True
        assert first["rel"] is None
        assert first["a"] is None and first["b"] == 1.0

    def test_load_failure_is_json_with_exit_two(self, tmp_path, capsys):
        a = write_snapshot(tmp_path / "a.json", sample_registry())
        code, doc = self._run(
            capsys, [a, str(tmp_path / "absent.json"), "--json"])
        assert code == 2
        assert doc["format"] == "repro.diff/1"
        assert doc["exit"] == 2
        assert "error" in doc

    def test_json_output_is_stable_across_runs(self, tmp_path, capsys):
        a = write_snapshot(tmp_path / "a.json", sample_registry(100.0))
        b = write_snapshot(tmp_path / "b.json",
                           sample_registry(90.0, latency_scale=1.5))
        _, first = self._run(capsys, [a, b, "--json", "--fail-on", "0.01"])
        _, second = self._run(capsys, [a, b, "--json", "--fail-on", "0.01"])
        assert first == second


class TestBenchmarkExport:
    def test_rows_become_labeled_gauges(self):
        from benchmarks._common import rows_to_snapshot
        rows = [
            {"mac": "csma", "delivery": 0.97, "passed": True, "n": 9},
            {"mac": "lpl", "delivery": 0.91, "passed": False, "n": 9},
        ]
        snapshot = rows_to_snapshot("e1", rows)
        # Strings AND bools label the series; numbers become gauges.
        key = ("e1.delivery", (("mac", "csma"), ("passed", True)))
        assert snapshot.gauges[key] == 0.97
        assert ("e1.n", (("mac", "lpl"), ("passed", False))) in snapshot.gauges
        assert not snapshot.counters and not snapshot.histograms

    def test_unlabeled_rows_stay_distinct_and_diffable(self, tmp_path):
        from benchmarks._common import rows_to_snapshot
        a = rows_to_snapshot("b", [{"x": 1.0}, {"x": 2.0}])
        b = rows_to_snapshot("b", [{"x": 1.0}, {"x": 2.2}])
        assert len(a.gauges) == 2
        moved = [d for d in diff_snapshots(a, b) if d.rel > 0]
        assert len(moved) == 1 and moved[0].rel == pytest.approx(0.10)
