"""``benchmarks/gates.py``: the runner every byte-identity gate goes through.

Driven over a ``tmp_path`` copy of the committed baselines and the two
gates that share one 0.6 s demo run (``core``, ``explain``); the three
slower producers go through the same :func:`benchmarks.gates.run` and
are exercised by ``make gates`` itself.
"""

import json
import os
import re
import shutil

import pytest

from benchmarks import gates

FAST = ["core", "explain"]


@pytest.fixture
def baselines(tmp_path, monkeypatch):
    """name -> path of a scratch copy the runner reads and writes."""
    committed = gates.RESULTS_DIR
    monkeypatch.setattr(gates, "RESULTS_DIR", str(tmp_path))
    copies = {}
    for name in FAST:
        baseline_file = gates.GATES[name][0]
        shutil.copy(os.path.join(committed, baseline_file), tmp_path)
        copies[name] = tmp_path / baseline_file
    return copies


def _edit(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    return path.read_text()


def test_check_is_green_on_the_committed_baselines(baselines, capsys):
    assert gates.main(["check"] + FAST) == 0
    out = capsys.readouterr().out
    assert re.fullmatch(r"core: \d+ series, no differences\n"
                        r"explain: \d+ series, no differences\n", out)


def test_check_names_the_gate_and_series_and_writes_nothing(baselines, capsys):
    def lose_a_tenth(payload):
        counter = next(entry for entry in payload["counters"]
                       if entry["name"] == "net.delivered")
        counter["value"] *= 0.9

    before = _edit(baselines["core"], lose_a_tenth)
    assert gates.main(["check"] + FAST) == 1
    out = capsys.readouterr().out
    assert "core: differs from" in out
    assert "! net.delivered{node=0}" in out
    assert "python benchmarks/gates.py update core" in out
    assert "\nexplain: " in out and "series, no differences" in out
    assert out.rstrip().endswith("FAILED: core")
    assert baselines["core"].read_text() == before


def test_renamed_layer_is_one_sided_and_update_re_records(baselines, capsys):
    def rename(payload):
        payload["layers"]["mac.backoff"] = payload["layers"].pop("mac.access")

    committed = baselines["explain"].read_text()
    _edit(baselines["explain"], rename)
    assert gates.main(["check", "explain"]) == 1
    out = capsys.readouterr().out
    assert "explain.seconds{layer=mac.access}" in out
    assert "explain.seconds{layer=mac.backoff}" in out
    assert out.count("(new/gone)") == 4  # seconds and share, each side

    assert gates.main(["update"] + FAST) == 0
    out = capsys.readouterr().out
    assert out.count("(new/gone)") == 4  # the same table, then the write
    assert baselines["explain"].read_text() == committed
    assert gates.main(["check"] + FAST) == 0


def test_unknown_gate_exits_two_listing_the_five(capsys):
    assert gates.main(["check", "core", "latency"]) == 2
    assert ("unknown gate(s) latency; the gates are core, explain, "
            "taxonomy, taxonomy-matrix, dependability"
            ) in capsys.readouterr().out


def test_unreadable_baseline_exits_two(baselines, capsys):
    baselines["core"].unlink()
    assert gates.main(["check", "core"]) == 2
    assert "core: cannot read baseline" in capsys.readouterr().out


@pytest.mark.parametrize("name, corrupt", [
    pytest.param("core", lambda payload: payload.update(counters=5),
                 id="core-counters-not-a-list"),
    pytest.param("core",
                 lambda payload: payload["gauges"][0]["labels"].update(node=[0]),
                 id="core-list-valued-label"),
    pytest.param("explain", lambda payload: payload.update(layers=[]),
                 id="explain-layers-a-list"),
])
def test_corrupted_baseline_exits_two(baselines, capsys, name, corrupt):
    _edit(baselines[name], corrupt)
    assert gates.main(["check", name]) == 2
    assert f"{name}: cannot read baseline" in capsys.readouterr().out


def test_shared_demo_run_is_a_cache_not_a_dependency():
    gates._demo.cache_clear()
    alone = gates.explain()
    gates._demo.cache_clear()
    gates.core()
    assert gates.explain() == alone
