"""``repro report --span-sample-rate`` / ``--span-max-stored`` threading.

The flags travel ``report_main`` → ``run_demo`` → ``SystemConfig`` →
:class:`~repro.obs.Observability` as plain arguments; no other CLI
carries them and nothing is read from the environment.
"""

import pytest

from repro.obs.report import report_main, run_demo


class TestReportThreading:
    def test_run_demo_applies_rate(self):
        run = run_demo(side=2, converge_s=60.0, traffic_s=30.0, seed=5,
                       span_sample_rate=0.2, span_max_stored=40)
        spans = run.system.obs.spans
        assert spans.sample_rate == 0.2
        assert spans.max_spans == 40

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(SystemExit):
            report_main(["--span-sample-rate", "1.5"])
