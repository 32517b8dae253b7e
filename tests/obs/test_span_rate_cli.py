"""``repro report --span-sample-rate`` threading.

The flag travels ``report_main`` → the ``DEMO`` scenario's ``SystemConfig`` →
:class:`~repro.obs.Observability` as plain arguments; no other CLI
carries them and nothing is read from the environment.
"""

import pytest

from repro.app.report import report_main
from tests.conftest import dashboard_run


class TestReportThreading:
    def test_run_demo_applies_rate(self):
        run = dashboard_run(side=2, converge_s=60.0, traffic_s=30.0, seed=5,
                       span_sample_rate=0.2)
        assert run.system.obs.spans.sample_rate == 0.2

    def test_answered_traces_are_the_requests_own_under_sampling(self):
        """A sampled-out request records no trace: its answer must not
        be shown as whatever trace happened to start after it."""
        run = dashboard_run(seed=2018, span_sample_rate=0.5)
        spans = run.system.obs.spans
        assert 0 < len(run.answered_traces) < run.responses
        assert all(spans.tree(trace).span.category == "coap.request"
                   for trace in run.answered_traces)

    @pytest.mark.parametrize("rate", [0.3, 0.7])
    def test_answered_traces_at_other_partial_rates(self, rate):
        run = dashboard_run(seed=2018, span_sample_rate=rate)
        spans = run.system.obs.spans
        assert 0 < len(run.answered_traces) < run.responses
        assert len(set(run.answered_traces)) == len(run.answered_traces)
        assert all(spans.tree(trace).span.category == "coap.request"
                   for trace in run.answered_traces)

    def test_every_answered_request_has_its_trace_at_full_rate(self):
        run = dashboard_run(seed=2018)
        spans = run.system.obs.spans
        assert len(set(run.answered_traces)) == run.responses > 0
        assert all(spans.tree(trace).span.category == "coap.request"
                   for trace in run.answered_traces)

    def test_rate_zero_answers_without_recording_a_trace(self):
        run = dashboard_run(seed=2018, span_sample_rate=0.0)
        assert run.responses > 0
        assert run.answered_traces == []

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(SystemExit):
            report_main(["--span-sample-rate", "1.5"])
