"""The ``python -m repro report`` dashboard, end to end (small grid)."""

import csv
import json

import pytest

from repro.app.report import render_report, report_main
from tests.conftest import dashboard_run


@pytest.fixture(scope="module")
def demo_run():
    """One shared small instrumented run (the expensive part)."""
    return dashboard_run(side=2, converge_s=180.0, traffic_s=60.0, seed=5)


@pytest.fixture(scope="module")
def fault_run():
    """The same demo with the scripted fault plan driven through it."""
    return dashboard_run(side=3, converge_s=180.0, traffic_s=120.0, seed=9,
                    faults=True)


class TestRunDemo:
    def test_traffic_flows_and_is_answered(self, demo_run):
        assert demo_run.requests_sent == 3  # every non-root node polled
        assert demo_run.responses >= 1
        assert demo_run.answered_traces  # span trees captured per answer

    def test_observability_is_attached_everywhere(self, demo_run):
        system = demo_run.system
        assert system.obs is system.trace.obs
        assert system.obs.registry.snapshot().counter_total("net.delivered") >= 1
        assert len(system.obs.spans) > 0

    def test_duty_cycle_gauges_frozen_per_node(self, demo_run):
        registry = demo_run.system.obs.registry
        gauges = [registry.gauge("radio.duty_cycle", node=nid).value
                  for nid in demo_run.system.nodes]
        assert len(gauges) == 4
        assert all(0.0 <= value <= 1.0 for value in gauges)


class TestRender:
    def test_report_contains_every_section(self, demo_run):
        text = render_report(demo_run)
        for heading in ("delivery", "end-to-end latency", "radio duty cycle",
                        "top trace categories", "sample packet lifecycle"):
            assert heading in text
        assert "coap.request" in text  # the rendered span tree

    def test_top_limits_ranked_tables(self, demo_run):
        assert len(render_report(demo_run, top=2).splitlines()) < \
            len(render_report(demo_run, top=20).splitlines())


class TestFaultTimeline:
    """Acceptance: every injected fault kind surfaces as a ``fault.*``
    span in the rendered report."""

    KINDS = ("crash", "sensor", "partition", "link_flap", "interference")

    def test_every_plan_clause_produced_a_span(self, fault_run):
        spans = fault_run.system.obs.spans
        categories = {s.category for s in spans.spans.values()
                      if s.category.startswith("fault.")}
        assert categories == {f"fault.{kind}" for kind in self.KINDS}

    def test_every_fault_span_closed_inside_the_run(self, fault_run):
        spans = fault_run.system.obs.spans
        for span in spans.spans.values():
            if not span.category.startswith("fault."):
                continue
            assert span.end is not None and span.end > span.start

    def test_rendered_report_lists_the_fault_timeline(self, fault_run):
        text = render_report(fault_run)
        assert "fault timeline" in text
        for kind in self.KINDS:
            assert f"fault.{kind}" in text
        snapshot = fault_run.system.obs.registry.snapshot()
        injected = snapshot.counter_total("fault.injected")
        assert f"injected: {injected:.0f} fault events across 5 spans" in text

    def test_faultless_run_has_no_fault_section(self, demo_run):
        assert "fault timeline" not in render_report(demo_run)

    def test_cli_faults_flag_reaches_the_report(self, capsys):
        assert report_main(["--side", "2", "--duration", "60",
                            "--seed", "11", "--faults"]) == 0
        text = capsys.readouterr().out
        assert "fault timeline" in text
        assert "fault.crash" in text
        assert "fault.partition" in text


class TestCli:
    def test_cli_prints_dashboard_and_exports(self, tmp_path, capsys):
        out_dir = tmp_path / "export"
        assert report_main(["--side", "2", "--duration", "40",
                            "--seed", "6", "--export", str(out_dir)]) == 0
        text = capsys.readouterr().out
        assert "observability report" in text
        assert "exported" in text
        with open(out_dir / "metrics.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert any(row["name"] == "net.sent" for row in rows)
        with open(out_dir / "spans.jsonl") as handle:
            spans = [json.loads(line) for line in handle]
        assert any(span["category"] == "coap.request" for span in spans)

    def test_export_writes_no_trace_records(self, demo_run, tmp_path):
        # Counters, spans and metrics are the exported record of a run;
        # the trace log stores no stream to dump.
        from repro.obs.export import export_run

        written = export_run(demo_run.system.trace, str(tmp_path))
        assert "trace.jsonl" not in written
        assert not (tmp_path / "trace.jsonl").exists()
        assert {"spans.jsonl", "metrics.csv", "metrics.json"} <= set(written)

    def test_export_round_trips_exemplars_and_writes_explain(
            self, tmp_path, capsys):
        from repro.obs.diff import load_snapshot

        out_dir = tmp_path / "export"
        assert report_main(["--side", "2", "--duration", "40",
                            "--seed", "6", "--export", str(out_dir)]) == 0
        capsys.readouterr()
        snapshot = load_snapshot(str(out_dir / "metrics.json"))
        # The exported metrics carry the exemplar reservoirs, and they
        # survive the JSON round trip with trace links intact.
        exemplars = snapshot.exemplars_for("net.latency_s")
        assert exemplars
        assert all(isinstance(trace, int) for _value, trace in exemplars)
        values = [value for value, _trace in exemplars]
        assert values == sorted(values, reverse=True)
        # Exemplars present + spans present => the attribution waterfall
        # is part of the export bundle.
        explain = (out_dir / "explain.txt").read_text()
        assert "latency attribution" in explain
        assert "aggregate waterfall" in explain

    def test_report_links_worst_exemplar_traces(self, capsys):
        assert report_main(["--side", "2", "--duration", "40",
                            "--seed", "6"]) == 0
        text = capsys.readouterr().out
        assert "worst exemplar traces:" in text
        assert "python -m repro explain --trace" in text

    def test_cli_rejects_degenerate_grids(self, capsys):
        with pytest.raises(SystemExit):
            report_main(["--side", "1"])
        capsys.readouterr()

    @pytest.mark.parametrize("argv, flag", [
        (["--span-max-stored", "0"], "--span-max-stored"),
        (["--span-max-stored", "-5"], "--span-max-stored"),
        (["--telemetry-interval", "nan"], "--telemetry-interval"),
        (["--telemetry-interval", "inf"], "--telemetry-interval"),
        (["--live", "{missing}/live.jsonl"], "--live"),
    ])
    def test_bad_flags_are_usage_errors(self, argv, flag, tmp_path, capsys):
        argv = [arg.format(missing=tmp_path / "no-such-dir") for arg in argv]
        with pytest.raises(SystemExit) as exit_:
            report_main(["--side", "2", "--duration", "20"] + argv)
        assert exit_.value.code == 2
        assert flag in capsys.readouterr().err
