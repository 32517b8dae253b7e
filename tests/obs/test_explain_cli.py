"""``python -m repro explain`` end to end over a real instrumented run.

One shared demo run (the expensive part) feeds every test: the
aggregated waterfall, the export/round-trip contract (the exported
payload is byte-identical run over run — the ``explain`` gate's
foundation), the single-trace drilldown, and the exit codes of
``repro diff`` over exported payloads.  The demo is the gated
configuration shrunk to test budget.
"""

import json

import pytest

from repro.app.report import explain_main
from repro.obs.analysis import EXPLAIN_FORMAT, analyze_run
from repro.obs.diff import diff_main
from tests.conftest import dashboard_run


@pytest.fixture(scope="module")
def demo_run():
    return dashboard_run(side=3, converge_s=180.0, traffic_s=60.0, seed=2018)


def _analyze(demo_run, **kwargs):
    system = demo_run.system
    return analyze_run(system.obs.spans, system.obs.registry.snapshot(),
                       **kwargs)


class TestAnalyzeRun:
    def test_payload_shape_and_format_tag(self, demo_run):
        payload = _analyze(demo_run)
        assert payload["format"] == EXPLAIN_FORMAT
        assert payload["metric"] == "net.latency_s"
        assert payload["count"] > 0
        assert payload["traces"]
        assert payload["layers"]

    def test_per_trace_totals_equal_the_measured_latency(self, demo_run):
        # The anchor span *is* the measured observation: each exemplar's
        # attributed total equals its histogram value exactly — the
        # "waterfall sums to the measured latency" acceptance claim.
        payload = _analyze(demo_run)
        for entry in payload["traces"]:
            assert entry["total_s"] == entry["value_s"]

    def test_shares_sum_to_one(self, demo_run):
        payload = _analyze(demo_run)
        total_share = sum(info["share"]
                          for info in payload["layers"].values())
        assert total_share == pytest.approx(1.0, abs=1e-9)

    def test_metric_name_shorthand_resolves(self, demo_run):
        assert _analyze(demo_run, metric="net.latency")["metric"] \
            == "net.latency_s"

    def test_unknown_metric_returns_none(self, demo_run):
        assert _analyze(demo_run, metric="no.such.metric") is None

    def test_critical_path_traverses_the_delivery(self, demo_run):
        # Exemplar traces may be application requests *or* control-plane
        # traffic (a DAO after a parent switch is a legitimate tail
        # latency) — but every one anchors on a delivered datagram, so
        # the longest-pole chain always passes through it.
        payload = _analyze(demo_run)
        for entry in payload["traces"]:
            assert entry["critical_path"]
            assert "net.datagram" in entry["critical_path"]

    def test_deterministic_across_identical_runs(self, demo_run):
        other = dashboard_run(side=3, converge_s=180.0, traffic_s=60.0,
                         seed=2018)
        a = json.dumps(_analyze(demo_run), sort_keys=True)
        b = json.dumps(_analyze(other), sort_keys=True)
        assert a == b


class TestExplainCli:
    def test_waterfall_run_and_export_round_trip(self, tmp_path, capsys):
        out = tmp_path / "explain.json"
        code = explain_main(["--metric", "net.latency", "--p", "95",
                             "--duration", "60", "--export", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "latency attribution" in text
        assert "aggregate waterfall" in text
        payload = json.loads(out.read_text())
        assert payload["format"] == EXPLAIN_FORMAT
        # Round trip: the exported payload diffs clean against itself
        # under the exact gate — the `explain` gate's contract.
        assert diff_main([str(out), str(out), "--fail-on", "0.0"]) == 0

    def test_diff_flags_a_moved_layer(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        code = explain_main(["--duration", "60", "--export", str(a)])
        assert code == 0
        payload = json.loads(a.read_text())
        layer = next(iter(payload["layers"]))
        payload["layers"][layer]["seconds"] *= 2.0
        payload["layers"][layer]["share"] = min(
            1.0, payload["layers"][layer]["share"] * 2.0)
        b = tmp_path / "b.json"
        b.write_text(json.dumps(payload))
        capsys.readouterr()
        assert diff_main([str(a), str(b), "--fail-on", "0.0"]) == 1
        out = capsys.readouterr().out
        assert f"! explain.seconds{{layer={layer}}}" in out
        assert "largest share shift" in out

    def test_trace_drilldown(self, tmp_path, capsys):
        out = tmp_path / "explain.json"
        explain_main(["--duration", "60", "--export", str(out)])
        trace_id = json.loads(out.read_text())["traces"][0]["trace"]
        capsys.readouterr()
        code = explain_main(["--duration", "60", "--trace", str(trace_id)])
        assert code == 0
        text = capsys.readouterr().out
        assert f"trace {trace_id}" in text
        assert "critical path:" in text
        assert "radio.airtime" in text  # the span tree rendering

    def test_diff_load_error_exits_two(self, tmp_path, capsys):
        # Comparing is `repro diff`'s job: `explain --diff` is a usage
        # error, and an unreadable payload is exit 2, not a traceback.
        missing = tmp_path / "missing.json"
        with pytest.raises(SystemExit) as usage:
            explain_main(["--diff", str(missing), str(missing)])
        assert usage.value.code == 2
        capsys.readouterr()
        assert diff_main([str(missing), str(missing)]) == 2
        assert "error:" in capsys.readouterr().out

    def test_unknown_trace_fails(self, capsys):
        code = explain_main(["--duration", "60", "--trace", "999999"])
        assert code == 1
        assert "not found" in capsys.readouterr().out

    def test_unknown_metric_fails(self, capsys):
        code = explain_main(["--duration", "60",
                             "--metric", "no.such.metric"])
        assert code == 1
        assert "no exemplars" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["--p", "150"], ["--p", "nan"], ["--p", "-1"], ["--max-traces", "0"],
    ])
    def test_bad_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            explain_main(["--duration", "20"] + argv)
        assert exit_.value.code == 2
        assert argv[0] in capsys.readouterr().err
