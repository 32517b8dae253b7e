"""``python -m repro dependability`` gate semantics.

The scenarios themselves are exercised by the ``dependability`` gate
(``make gates``);
here ``_run_scenario`` is stubbed so the CLI contract — which outcomes
pass the gate and which fail it — is testable in milliseconds.
"""

import repro.app.dependability as dep
from repro.checking.availability import AvailabilityChecker


def _stub_scenario_runner(monkeypatch, availability=0.9995):
    """Replace ``_run_scenario`` with a clean, availability-measuring stub."""
    checker = AvailabilityChecker.__new__(AvailabilityChecker)
    checker.samples = [(0.0, availability)]
    checker.reachable_samples = [(0.0, 1.0)]

    class StubSuite:
        checkers = [checker]

    def fake_run(name, seed, registry):
        return [], StubSuite()

    monkeypatch.setattr(dep, "_run_scenario", fake_run)


class TestGateSemantics:
    def test_clean_run_passes_gate(self, monkeypatch, capsys):
        _stub_scenario_runner(monkeypatch)
        assert dep.dependability_main([]) == 0
        assert "availability axis score" in capsys.readouterr().out

    def test_low_availability_fails_gate(self, monkeypatch, capsys):
        _stub_scenario_runner(monkeypatch, availability=0.5)
        assert dep.dependability_main([]) == 1
        assert "grades to zero" in capsys.readouterr().out

    def test_unmeasured_availability_fails_gate(self, monkeypatch, capsys):
        class EmptySuite:
            checkers = []

        monkeypatch.setattr(dep, "_run_scenario",
                            lambda *a, **k: ([], EmptySuite()))
        assert dep.dependability_main([]) == 1
        assert "NOT MEASURED" in capsys.readouterr().out
