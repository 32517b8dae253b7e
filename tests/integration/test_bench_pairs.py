"""``benchmarks/pairs.py``: alternating parent/change pairs, judged.

One real pair at a tiny scale (this checkout against itself, through
``benchmarks/layers/run.py --rep`` children), then the ordering, the
verdict and the mismatch exit on repetitions copied from a real one.
"""

import copy
import os

import pytest

from benchmarks import pairs

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
WORKLOAD = "grid_csma_collect"


def test_one_real_pair_at_tiny_scale(capsys):
    code = pairs.main(["--parent", ROOT, "--workload", WORKLOAD,
                       "--pairs", "1", "--seed", "5", "--scale", "0.02"])
    out = capsys.readouterr().out
    assert code == 0, out
    for metric in ("ops_per_s", "setup_s", "rss_peak_mb"):
        assert metric in out
    assert "sim_digest and simulated metrics equal" in out


def test_a_child_reads_no_bytecode_its_tree_holds(monkeypatch):
    """Each repetition compiles from source under a fresh, empty cache
    prefix, so stale or missing ``__pycache__`` on either side cannot
    move set-up time or memory."""
    seen = []

    def run(cmd, **kwargs):
        prefix = kwargs["env"]["PYTHONPYCACHEPREFIX"]
        seen.append((prefix, os.path.isdir(prefix), os.listdir(prefix)))
        raise pairs.subprocess.TimeoutExpired(cmd, 1)

    monkeypatch.setattr(pairs.subprocess, "run", run)
    for _ in range(2):
        assert "timed out" in pairs.spawn_rep(ROOT, WORKLOAD, 5, 0.02)["error"]
    (first, existed, listed), (second, _, _) = seen
    assert existed and listed == [] and first != second
    assert not os.path.exists(first)


@pytest.fixture(scope="module")
def real_rep():
    rep = pairs.spawn_rep(ROOT, WORKLOAD, 5, 0.02)
    assert not rep.get("error"), rep["error"]
    return rep


@pytest.fixture
def fake_spawn(real_rep):
    """``fake_spawn(values, digests, **series)`` hands out copies of one
    real repetition with ``values[side][i]`` as ops_per_s,
    ``series[metric][side][i]`` as any other metric (setup_s 1.0 and
    rss_peak_mb 50.0 when not given) and the side's digest, recording
    the order the sides ran in."""

    def make(values, digests=None, **series):
        calls = []

        def spawn(tree, workload, seed, scale):
            side = "parent" if tree == "P" else "change"
            i = sum(1 for c in calls if c == side)
            calls.append(side)
            rep = copy.deepcopy(real_rep)
            rep.update(ops_per_s=values[side][i], setup_s=1.0,
                       rss_peak_mb=50.0)
            rep.update({metric: by_side[side][i]
                        for metric, by_side in series.items()})
            rep["digest"] = (digests or {}).get(side, rep["digest"])
            return rep

        return spawn, calls

    return make


def test_pairs_alternate_and_a_clear_gain_is_claimable(fake_spawn):
    spawn, calls = fake_spawn({"parent": [100, 101, 99, 100],
                               "change": [150, 149, 151, 98]})
    result = pairs.run_pairs("P", "C", WORKLOAD, 4, 1, None, spawn=spawn,
                             log=lambda line: None)
    assert calls == ["parent", "change", "change", "parent"] * 2
    judged = pairs.verdict(result)["ops_per_s"]
    assert judged["wins"] == 3
    assert not judged["claimable"]       # 3/4 < nine tenths
    assert pairs.verdict(result)["setup_s"]["wins"] == 0   # ties: nobody's

    spawn, _ = fake_spawn({"parent": [100, 101, 99, 100],
                           "change": [150, 149, 151, 152]})
    result = pairs.run_pairs("P", "C", WORKLOAD, 4, 1, None, spawn=spawn,
                             log=lambda line: None)
    assert pairs.verdict(result)["ops_per_s"]["claimable"]
    assert pairs.problems(result) == []


def test_a_digest_mismatch_fails_the_run(fake_spawn, tmp_path, capsys):
    os.makedirs(tmp_path / "P" / "benchmarks" / "layers")
    (tmp_path / "P" / "benchmarks" / "layers" / "run.py").write_text("")
    spawn, _ = fake_spawn({"parent": [100, 100], "change": [100, 100]},
                          digests={"parent": "a", "change": "b"})

    def by_name(tree, *args):
        return spawn(os.path.basename(tree), *args)

    code = pairs.main(["--parent", str(tmp_path / "P"),
                       "--workload", WORKLOAD, "--pairs", "2"], spawn=by_name)
    assert code == 1
    assert "MISMATCH sim_digest_equal: 4 runs: 2 distinct" in (
        capsys.readouterr().out)


def judged_lines(spawn, pairs_run=4):
    result = pairs.run_pairs("P", "C", WORKLOAD, pairs_run, 1, None,
                             spawn=spawn, log=lambda line: None)
    judged = pairs.verdict(result)
    text = pairs.render(result, judged, [])
    return judged, {line.split()[0]: line for line in text.splitlines()
                    if " gain " in line}


def test_every_metric_is_judged_against_its_bound(fake_spawn):
    spawn, _ = fake_spawn(
        {"parent": [100, 101, 99, 100], "change": [100, 100, 101, 99]},
        # Wide parent spread: 1.0 .. 2.0 s around 1.5 s.
        setup_s={"parent": [1.0, 2.0, 1.0, 2.0],
                 "change": [1.1, 1.9, 1.2, 1.8]},
        rss_peak_mb={"parent": [56.8, 56.7, 56.9, 56.8],
                     "change": [52.5, 52.4, 52.6, 52.5]})
    judged, lines = judged_lines(spawn)
    assert set(judged) == {"setup_s", "ops_per_s", "rss_peak_mb"}
    assert {name: row["standing"] for name, row in judged.items()} == {
        "ops_per_s": "within", "setup_s": "unresolved",
        "rss_peak_mb": "claimable"}
    assert lines["rss_peak_mb"].endswith("4/4 wins: claimable")
    assert "not claimable; within the 25% bound" in lines["ops_per_s"]
    assert ("not claimable; unresolved: the parent's quartile spread is "
            "66.7% of its median, wider than the 25% bound"
            ) in lines["setup_s"]
    # The bounds are the benchmark's own.
    assert {name: row["bound"] for name, row in judged.items()} == {
        metric["name"]: metric["bound"] for metric in pairs.end_to_end()}


def test_a_move_past_the_bound_is_worse_and_every_run_better_is_better(
        fake_spawn):
    spawn, _ = fake_spawn(
        {"parent": [100, 101, 99, 100], "change": [70, 71, 69, 70]},
        # Every change run lower than every parent run, 4/4 wins, but a
        # median gain inside the parent's own quartile spread: not
        # claimable, and not unresolved either.
        setup_s={"parent": [1.0, 2.0, 1.0, 2.0],
                 "change": [0.9, 0.95, 0.9, 0.95]})
    judged, lines = judged_lines(spawn)
    assert judged["ops_per_s"]["standing"] == "worse"
    assert "worse: the median is off the parent's by more than the 25% " \
        "bound" in lines["ops_per_s"]
    assert judged["setup_s"]["standing"] == "better"
    assert not judged["setup_s"]["claimable"]
    assert "every run of the change better" in lines["setup_s"]
