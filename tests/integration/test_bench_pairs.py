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


@pytest.fixture(scope="module")
def real_rep():
    rep = pairs.spawn_rep(ROOT, WORKLOAD, 5, 0.02)
    assert not rep.get("error"), rep["error"]
    return rep


@pytest.fixture
def fake_spawn(real_rep):
    """``fake_spawn(values, digests)`` hands out copies of one real
    repetition with ``values[side][i]`` as ops_per_s and the side's
    digest, recording the order the sides ran in."""

    def make(values, digests=None):
        calls = []

        def spawn(tree, workload, seed, scale):
            side = "parent" if tree == "P" else "change"
            i = sum(1 for c in calls if c == side)
            calls.append(side)
            rep = copy.deepcopy(real_rep)
            rep.update(ops_per_s=values[side][i], setup_s=1.0,
                       rss_peak_mb=50.0)
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
