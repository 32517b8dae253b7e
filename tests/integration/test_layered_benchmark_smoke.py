"""The layered benchmark still runs: tier-1 smoke at tiny sizes.

``benchmarks/layers/tests`` is outside ``testpaths``, and the benchmark
is what the driver runs after every PR: a change under ``src/`` that
breaks a workload, a check, the traced pass's method patching or the
traced/untraced digest identity has to fail here first.  Sizes are
``benchmarks/layers/tests/test_layers.py``'s.
"""

import importlib

import pytest

from benchmarks.layers.rep import run_rep
from benchmarks.layers.trace import _HOOKS, LayerTracer, _boundaries
from repro.net.mac.csma import CsmaMac
from repro.radio.medium import Radio
from repro.sim.kernel import Simulator
from tests.conftest import build_medium

SEED = 5
TINY_SCALE = 0.1
TINY = {
    "campus_medium": dict(buildings=4, senders=40),
    "grid_csma_collect": dict(side=3),
    "grid_tsch_collect": dict(side=3),
    "gateway_services": dict(side=3),
    "grid_csma_observed": dict(side=3),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_traced_and_untraced_to_the_same_digest(name):
    plain = run_rep(name, SEED, TINY_SCALE, **TINY[name])
    traced = run_rep(name, SEED, TINY_SCALE, traced=True, **TINY[name])
    for result in (plain, traced):
        assert result["error"] is None, result["error"]
        assert result["completed"] > 0
        failed = {check: detail for check, (ok, detail)
                  in result["checks"].items() if not ok}
        assert not failed
    assert traced["digest"] == plain["digest"]
    assert traced["sim"] == plain["sim"]
    ledger = traced["trace"]
    # 1 % of the wall, with a floor: the tiny campus run is ~10 ms, and
    # one scheduler hiccup between the two clock reads is 0.2 ms.
    assert abs(ledger["partition_sum_s"] - traced["wall_s"]) \
        < max(0.01 * traced["wall_s"], 0.0005)


def test_every_name_the_traced_pass_patches_still_resolves():
    """The tracer wraps ``cls.__dict__[method]`` and plants descriptors
    that write instance ``__dict__``s: a method moved to a base class or
    another module, or ``__slots__`` on ``Radio``/``MacLayer``, kills
    the traced pass of every workload (``run_failed``)."""
    patched = [
        (getattr(importlib.import_module(module), cls_name), method)
        for module, cls_name, methods, _ in _boundaries(observed=True)
        for method in methods]
    before = [cls.__dict__[method] for cls, method in patched]
    tracer = LayerTracer(observed=True).install()
    try:
        assert all(cls.__dict__[method] is not original
                   for (cls, method), original in zip(patched, before))
    finally:
        tracer.uninstall()
    assert [cls.__dict__[method] for cls, method in patched] == before
    radio = Radio(build_medium(Simulator(seed=SEED)), 0, (0.0, 0.0))
    mac = CsmaMac(radio)
    for module, cls_name, attr in _HOOKS:
        cls = getattr(importlib.import_module(module), cls_name)
        (owner,) = [obj for obj in (radio, mac) if isinstance(obj, cls)]
        assert attr in owner.__dict__
