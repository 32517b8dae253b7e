"""Tests of the layered benchmark itself, at tiny in-process sizes.

Run with ``python -m pytest benchmarks/layers/tests -q`` from the repo
root (``PYTHONPATH=src`` is not needed: the path set-up below mirrors
``run.py``).
"""

from __future__ import annotations

import copy
import importlib
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.layers import cli, compare  # noqa: E402
from benchmarks.layers.metrics import (  # noqa: E402
    END_TO_END, HOST_END_TO_END, PER_LAYER)
from benchmarks.layers.rep import run_rep  # noqa: E402
from benchmarks.layers.trace import LAYERS, LayerTracer, _boundaries, _HOOKS  # noqa: E402
from benchmarks.layers.workloads import WORKLOADS  # noqa: E402

SEED = 5
#: Node counts shrink only here: the real sizes are the workloads' own.
TINY = {
    "campus_medium": dict(buildings=4, senders=40),
    "grid_csma_collect": dict(side=3),
    "grid_tsch_collect": dict(side=3),
    "gateway_services": dict(side=3),
    "grid_csma_observed": dict(side=3),
}
TINY_SCALE = 0.1


def tiny_spawn(name, seed, scale, traced=False, trace_out=None):
    """In-process stand-in for ``cli.spawn_rep`` at tiny sizes."""
    return run_rep(name, seed, TINY_SCALE, traced=traced,
                   trace_out=trace_out, **TINY[name])


@pytest.fixture(scope="module")
def traced_set():
    """One untraced + one traced repetition of every workload."""
    return cli.run_set(list(WORKLOADS), SEED, TINY_SCALE, repeats=1,
                       seconds=None, trace=True, spawn=tiny_spawn)


def test_every_workload_and_metric_is_emitted(traced_set):
    assert list(traced_set["workloads"]) == list(WORKLOADS)
    text = cli.render(traced_set)
    for name, w in traced_set["workloads"].items():
        assert w["correct"], (name, w["checks"])
        assert list(w["end_to_end"]) == [m.name for m in END_TO_END]
        assert set(w["per_layer"]) == {m.name for m in PER_LAYER}
        assert name in text
        line = json.loads(cli.contract_line(w, trace=True))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == {m.name for m in PER_LAYER}
        assert all(isinstance(v["value"], (int, float))
                   for v in line["metrics"].values())
        line = json.loads(cli.contract_line(w, trace=False))
        assert set(line["metrics"]) == {m.name for m in HOST_END_TO_END}
        assert all(v["value"] > 0 for v in line["metrics"].values())
    for metric in END_TO_END + PER_LAYER:
        assert metric.name in text
    for key in ("git_sha", "python", "numpy", "nproc", "loadavg_1m_at_start",
                "seed", "repeats", "duration_scale"):
        assert key in traced_set["provenance"]


def test_layers_run_only_where_predicted(traced_set):
    """middleware + crdt + aggregation are non-zero on gateway_services
    only; no MAC or net layer runs under campus_medium."""
    for name, w in traced_set["workloads"].items():
        services = sum(w["per_layer"][f"{layer}.self_s"]
                       for layer in ("middleware", "crdt", "aggregation"))
        assert (services > 0) == (name == "gateway_services")
        observers = (w["per_layer"]["obs.self_s"]
                     + w["per_layer"]["checking.self_s"])
        assert (observers > 0) == (name == "grid_csma_observed")
    campus = traced_set["workloads"]["campus_medium"]["per_layer"]
    assert campus["net.mac.calls"] == campus["net.stack.calls"] == 0
    assert campus["radio.self_pct"] > 50


def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        doc = json.load(handle)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/layers"]
    assert doc["workloads"] == [{"name": n, "why": c.why}
                                for n, c in WORKLOADS.items()]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in HOST_END_TO_END]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER]
    assert len(doc["per_layer"]) <= 128


def test_an_unmet_check_fails_the_command(monkeypatch, capsys):
    monkeypatch.setattr(cli, "spawn_rep", tiny_spawn)
    argv = ["--workload", "grid_csma_collect", "--repeats", "1"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["failed"] == 0
    # A ceiling no run can meet: the op_fail_ceiling check must trip.
    monkeypatch.setattr(WORKLOADS["grid_csma_collect"], "fail_ceiling", -1.0)
    assert cli.main(argv) == 1
    out = capsys.readouterr().out
    assert "FAIL op_fail_ceiling" in out
    line = json.loads(out.splitlines()[-1])
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] > 0


def test_an_exception_fails_every_op(monkeypatch):
    def broken(name, seed, scale, traced=False, trace_out=None):
        return run_rep(name, seed, TINY_SCALE, side=0)  # grid_topology(0)

    w = cli.run_set(["grid_csma_collect"], SEED, TINY_SCALE, repeats=1,
                    seconds=None, trace=False, spawn=broken
                    )["workloads"]["grid_csma_collect"]
    assert not w["correct"]
    assert not w["checks"]["ran_to_completion"]["ok"]
    assert w["failed"] >= 1


def test_traced_partition_closes_within_one_percent(traced_set):
    for name, w in traced_set["workloads"].items():
        layer = w["per_layer"]
        assert layer["trace.partition_error_pct"] < 1.0, name
        assert w["checks"]["trace_partition_closes"]["ok"]
        assert sum(layer[f"{row}.self_pct"] for row in LAYERS) == \
            pytest.approx(100.0, abs=1e-6)


def test_tracing_keeps_the_digest_and_restores_every_attribute(tmp_path):
    def patched():
        found = {}
        for module, cls_name, methods, _ in _boundaries(observed=True):
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                found[(cls_name, method)] = cls.__dict__[method]
        for module, cls_name, attr in _HOOKS:
            cls = getattr(importlib.import_module(module), cls_name)
            found[(cls_name, attr)] = cls.__dict__.get(attr)
        return found

    before = patched()
    spans = tmp_path / "spans.jsonl"
    name = "grid_csma_observed"  # wraps the observability plane too
    plain = run_rep(name, SEED, TINY_SCALE, **TINY[name])
    traced = run_rep(name, SEED, TINY_SCALE, traced=True,
                     trace_out=str(spans), **TINY[name])
    assert traced["error"] is None
    assert traced["digest"] == plain["digest"]
    assert traced["sim"] == plain["sim"]
    assert patched() == before
    rows = [json.loads(line) for line in spans.read_text().splitlines()]
    assert 0 < len(rows) <= 10_000
    assert set(rows[0]) == {"id", "parent", "trace", "layer", "name",
                            "start", "end"}
    assert {row["layer"] for row in rows} <= set(LAYERS)
    # A failing run must not leave the wrappers behind either.
    tracer = LayerTracer().install()
    tracer.uninstall()
    assert patched() == before


def test_duplicate_deliveries_are_not_scored():
    workload = WORKLOADS["grid_csma_collect"](SEED, TINY_SCALE, side=3)
    workload.setup(tick=lambda: None)

    class Twice:
        payload = (1, 1, workload.sim.now)

    workload._on_report(Twice)
    workload._on_report(Twice)
    assert workload.completed == 1
    assert workload.extra_counts()["net.stack.duplicate_deliveries"] == 1


def _with_ops_per_s(results, factor):
    changed = copy.deepcopy(results)
    for w in changed["workloads"].values():
        row = w["end_to_end"]["ops_per_s"]
        for key in ("median", "q1", "q3"):
            row[key] *= factor
        row["values"] = [v * factor for v in row["values"]]
    return changed


def test_compare_flags_a_slowdown_beyond_the_bound(traced_set, tmp_path):
    """The issue's 15 % / 3 % pair assumed a 0.10 bound; with the 0.25
    this host's noise forces, 30 % is ``worse`` and 3 % is ``same``."""
    def verdicts(factor):
        return {(v.workload, v.metric): v.verdict for v in
                compare.compare_sets(traced_set,
                                     _with_ops_per_s(traced_set, factor))}

    slow, slight, fast = verdicts(0.70), verdicts(0.97), verdicts(1.40)
    for name in WORKLOADS:
        assert slow[(name, "ops_per_s")] == "worse"
        assert slight[(name, "ops_per_s")] == "same"
        assert fast[(name, "ops_per_s")] == "better"
        assert slow[(name, "setup_s")] == "same"
        assert slow[(name, "sim_digest")] == "same"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(traced_set))
    b.write_text(json.dumps(_with_ops_per_s(traced_set, 0.70)))
    assert cli.main(["--compare", str(a), str(a)]) == 0
    assert cli.main(["--compare", str(a), str(b)]) == 1


def test_compare_is_exact_on_sim_metrics_and_honest_about_spread(traced_set):
    changed = copy.deepcopy(traced_set)
    collect = changed["workloads"]["grid_csma_collect"]
    collect["end_to_end"]["sim_latency_p50_ms"]["value"] += 1e-9
    collect["sim_digest"] = "0" * 64
    row = changed["workloads"]["campus_medium"]["end_to_end"]["ops_per_s"]
    row["q1"], row["q3"] = row["median"] * 0.8, row["median"] * 1.2
    verdicts = {(v.workload, v.metric): v.verdict
                for v in compare.compare_sets(traced_set, changed)}
    assert verdicts[("grid_csma_collect", "sim_latency_p50_ms")] == "differs"
    assert verdicts[("grid_csma_collect", "sim_digest")] == "differs"
    assert verdicts[("grid_csma_collect", "op_fail_ratio")] == "same"
    assert verdicts[("campus_medium", "ops_per_s")] == "unresolved"
