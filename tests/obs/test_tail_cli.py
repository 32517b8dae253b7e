"""``python -m repro tail`` and ``report --live``: the streaming path."""

import io
import json

import pytest

from repro.obs.tail import render_window_line, tail_main
from repro.obs.timeseries import TelemetryWindow
from tests.conftest import read_windows_jsonl


def window_line(index=0, start=0.0, end=10.0, counters=()):
    window = TelemetryWindow(index=index, start=start, end=end)
    for name, labels, value in counters:
        window.counters[(name, labels)] = value
    return json.dumps(window.to_jsonable(), sort_keys=True)


class TestRender:
    def test_line_shows_top_movers(self):
        line = window_line(index=4, start=40.0, end=50.0,
                           counters=[("pkts", (("domain", "b0"),), 12.0),
                                     ("drops", (), 1.0)])
        rendered = render_window_line(
            TelemetryWindow.from_jsonable(json.loads(line)))
        assert rendered == ("window    4  t=40.0..50.0s  series=2c/0g/0h  "
                            "pkts{domain=b0}=12  drops=1")


class TestTailMain:
    def test_reads_file_and_exits(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(window_line(0) + "\n" + window_line(1, 10.0, 20.0) + "\n")
        out = io.StringIO()
        assert tail_main([str(path)], out=out) == 0
        lines = out.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("window    0")

    def test_raw_mode_echoes_jsonl(self, tmp_path):
        path = tmp_path / "run.jsonl"
        raw = window_line(0)
        path.write_text(raw + "\n")
        out = io.StringIO()
        assert tail_main([str(path), "--raw"], out=out) == 0
        assert out.getvalue().strip() == raw

    def test_follow_picks_up_appended_windows(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(window_line(0) + "\n")

        def fake_sleep(_interval):
            # the "writer": append one window per poll
            with open(path, "a") as handle:
                handle.write(window_line(1, 10.0, 20.0) + "\n")

        out = io.StringIO()
        rc = tail_main([str(path), "--follow", "--limit", "2"],
                       out=out, sleep=fake_sleep)
        assert rc == 0
        assert len(out.getvalue().splitlines()) == 2

    def test_missing_file_exit_code(self, tmp_path):
        assert tail_main([str(tmp_path / "nope.jsonl")],
                         out=io.StringIO()) == 2

    def test_malformed_window_exit_code(self, tmp_path):
        path = tmp_path / "run.jsonl"
        bad = json.loads(window_line(0))
        bad["index"] = "zero"
        path.write_text(window_line(0) + "\n" + json.dumps(bad) + "\n")
        out = io.StringIO()
        assert tail_main([str(path)], out=out) == 2
        assert len(out.getvalue().splitlines()) == 1

    def test_lines_of_other_formats_are_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"format": "repro.window/1"}\n[1]\n'
                        + window_line(0) + "\n")
        out = io.StringIO()
        assert tail_main([str(path)], out=out) == 0
        assert len(out.getvalue().splitlines()) == 1

    def test_bad_flags_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            tail_main([str(tmp_path), "--interval", "0"])
        with pytest.raises(SystemExit):
            tail_main([str(tmp_path), "--limit", "0"])

    def test_main_dispatch(self, tmp_path):
        from repro.__main__ import main

        path = tmp_path / "run.jsonl"
        path.write_text(window_line(0) + "\n")
        assert main(["tail", str(path)]) == 0


class TestReportLive:
    def test_run_demo_streams_windows(self):
        from tests.conftest import dashboard_run

        sink = io.StringIO()
        run = dashboard_run(side=2, converge_s=60.0, traffic_s=30.0, seed=5,
                       telemetry_interval_s=15.0, sink=sink)
        windows = read_windows_jsonl(sink.getvalue().splitlines())
        assert len(windows) == run.system.telemetry.windows_closed
        assert len(windows) == 6  # 90 s at 15 s intervals
        # the stream is exactly what the engine retained (ring unhit)
        assert windows == run.system.telemetry.windows

    def test_report_cli_live_flag(self, tmp_path, capsys):
        from repro.app.report import report_main

        path = tmp_path / "live.jsonl"
        rc = report_main(["--side", "2", "--duration", "30",
                          "--live", str(path),
                          "--telemetry-interval", "20"])
        assert rc == 0
        assert read_windows_jsonl(path.read_text().splitlines())
        assert "telemetry windows" in capsys.readouterr().out

    def test_export_includes_telemetry_and_windows_roundtrip(self, tmp_path):
        from repro.obs.export import export_run
        from tests.conftest import dashboard_run

        run = dashboard_run(side=2, converge_s=60.0, traffic_s=30.0, seed=5,
                       telemetry_interval_s=15.0)
        written = export_run(run.system.trace, str(tmp_path))
        assert written["telemetry.jsonl"] == 6
        windows = read_windows_jsonl(
            (tmp_path / "telemetry.jsonl").read_text().splitlines())
        assert windows == run.system.telemetry.windows
