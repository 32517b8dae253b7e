"""The layered benchmark still runs: tier-1 smoke at tiny sizes.

``benchmarks/layers/tests`` is outside ``testpaths``, and the benchmark
is what the driver runs after every PR: a change under ``src/`` that
breaks a workload, a check, the traced pass's method patching or the
traced/untraced digest identity has to fail here first.  Sizes are
``benchmarks/layers/tests/test_layers.py``'s.
"""

import pytest

from benchmarks.layers.rep import run_rep

SEED = 5
TINY_SCALE = 0.1


@pytest.mark.parametrize("name", ["grid_tsch_collect", "grid_csma_collect"])
def test_workload_runs_traced_and_untraced_to_the_same_digest(name):
    plain = run_rep(name, SEED, TINY_SCALE, side=3)
    traced = run_rep(name, SEED, TINY_SCALE, traced=True, side=3)
    for result in (plain, traced):
        assert result["error"] is None, result["error"]
        assert result["completed"] > 0
        failed = {check: detail for check, (ok, detail)
                  in result["checks"].items() if not ok}
        assert not failed
    assert traced["digest"] == plain["digest"]
    assert traced["sim"] == plain["sim"]
    ledger = traced["trace"]
    assert abs(ledger["partition_sum_s"] - traced["wall_s"]) \
        < 0.01 * traced["wall_s"]
