"""The import graph, pinned by counts rather than by a clock.

What a process pays before its first simulated event is paid by every
run of every sweep, so a module under ``src/repro`` imports third-party
code at module level only if a simulation executes it (DESIGN.md, "Cold
start").  Each case asks one fresh interpreter what it loaded; nothing
here reads a wall clock.
"""

import json
import pathlib
import subprocess
import sys

import pytest

import repro

_SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])


def _fresh_interpreter(body: str):
    """Run ``body`` in a new interpreter that can import this checkout's
    ``repro``; ``preloaded`` in it names the modules ``site`` and its
    ``.pth`` files had loaded before ``body`` ran.  Returns the value
    ``body`` leaves in ``result``."""
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {_SRC!r})\n"
        "preloaded = set(sys.modules)\n"
        f"{body}\n"
        "print(json.dumps(result))\n"
    )
    child = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


@pytest.mark.skipif(sys.version_info < (3, 10),
                    reason="sys.stdlib_module_names is 3.10+")
def test_no_module_imports_undeclared_third_party_code():
    # '__mp_main__' is the alias multiprocessing gives '__main__'.
    foreign = _fresh_interpreter(
        "import importlib, pkgutil, repro\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    importlib.import_module(info.name)\n"
        "tops = {name.partition('.')[0]\n"
        "        for name in set(sys.modules) - preloaded}\n"
        "result = sorted(tops - set(sys.stdlib_module_names)\n"
        "                - {'repro', 'numpy', '__mp_main__'})\n"
    )
    assert foreign == []


def test_a_simulation_never_loads_the_process_pool_machinery():
    # repro.parallel imports multiprocessing and concurrent.futures only
    # when it dispatches to workers; a plain run never does.
    loaded = _fresh_interpreter(
        "import repro\n"
        "from repro.core.system import IIoTSystem\n"
        "from repro.deployment.topology import grid_topology\n"
        "system = IIoTSystem.build(grid_topology(3), seed=1)\n"
        "system.start()\n"
        "system.run(60.0)\n"
        "result = sorted(name for name in sys.modules\n"
        "                if name.startswith(('multiprocessing', 'concurrent')))\n"
    )
    assert loaded == []


def test_import_repro_does_not_load_the_run_description():
    # A Scenario is for callers that describe a run; the simulation
    # itself (and the layered harness, which imports repro.core.system)
    # never pays for its codec and workload drivers.
    loaded = _fresh_interpreter(
        "import repro\n"
        "import repro.core.system\n"
        "result = sorted(name for name in sys.modules\n"
        "                if name in ('repro.core.scenario', 'repro.core.workloads'))\n"
    )
    assert loaded == []


def test_import_repro_loads_a_bounded_number_of_modules():
    # About 300 with numpy as the only third-party import; scipy.stats
    # alone would add some 900.
    loaded = _fresh_interpreter("import repro\nresult = len(sys.modules)\n")
    assert loaded <= 450


def _repro_modules_after(statement: str):
    """The ``repro`` modules a fresh interpreter holds after ``statement``."""
    return _fresh_interpreter(
        f"{statement}\n"
        "result = sorted(name for name in sys.modules\n"
        "                if name == 'repro' or name.startswith('repro.'))\n"
    )


def test_import_repro_loads_no_submodule():
    # The packages re-export nothing (DESIGN.md, "Layers"): a name is
    # imported from the module that defines it.
    assert _repro_modules_after("import repro") == ["repro"]


@pytest.mark.parametrize("module, tiers", [
    ("repro.radio.medium", ("sim", "radio")),
    ("repro.obs.registry", ("sim", "obs")),
])
def test_a_low_tier_module_loads_only_its_own_and_lower_tiers(module, tiers):
    loaded = _repro_modules_after(f"import {module}")
    assert module in loaded
    allowed = tuple(f"repro.{tier}" for tier in tiers)
    assert [name for name in loaded if name != "repro" and not any(
        name == prefix or name.startswith(prefix + ".")
        for prefix in allowed)] == []
