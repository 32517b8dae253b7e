"""The import graph, pinned by counts rather than by a clock.

What a process pays before its first simulated event is paid by every
run of every sweep, so a module under ``src/repro`` imports third-party
code only where a simulation executes it (DESIGN.md, "Cold start"):
importing every ``repro`` module loads none, and numpy arrives with the
first link a ``LogDistanceModel`` evaluates.  Each case asks one fresh
interpreter what it loaded; nothing here reads a wall clock.
"""

import ast
import hashlib
import json
import pathlib
import random
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
        "                - {'repro', '__mp_main__'})\n"
    )
    assert foreign == []


def test_a_unit_disk_run_never_loads_numpy():
    # The default link model is plain Python, and so is the medium's
    # index: only a LogDistanceModel's evaluation imports numpy.
    loaded = _fresh_interpreter(
        "from repro.core.system import IIoTSystem\n"
        "from repro.deployment.topology import grid_topology\n"
        "system = IIoTSystem.build(grid_topology(3), seed=1)\n"
        "system.start()\n"
        "system.run(60.0)\n"
        "assert system.medium.grid_info()['rssi_cache'] > 0\n"
        "result = sorted(name for name in sys.modules\n"
        "                if name.partition('.')[0] == 'numpy')\n"
    )
    assert loaded == []


def test_a_unit_disk_run_never_loads_openssl():
    # Substream seeds come from the builtin MD5 and a scenario's sha256
    # is taken only where it is asked for, so no run loads hashlib's
    # OpenSSL backend (≈3.6 MB of resident libcrypto).
    loaded, draws = _fresh_interpreter(
        "from repro.core.system import IIoTSystem\n"
        "from repro.deployment.topology import grid_topology\n"
        "from repro.sim.kernel import Simulator\n"
        "system = IIoTSystem.build(grid_topology(3), seed=1)\n"
        "system.start()\n"
        "system.run(60.0)\n"
        "assert len(system.sim._substreams) > 0\n"
        "draws = [Simulator(seed=7).substream(n).random()\n"
        "         for n in ('x', 'mac.3', 'radio.medium')]\n"
        "result = [sorted(name for name in sys.modules\n"
        "                 if name in ('_hashlib', 'hashlib')), draws]\n"
    )
    assert loaded == []
    # The builtin MD5 seeds every stream as hashlib's does.
    expected = []
    for name in ("x", "mac.3", "radio.medium"):
        digest = hashlib.md5(f"7:{name}".encode()).digest()
        expected.append(
            random.Random(int.from_bytes(digest[:8], "little")).random())
    assert draws == expected


def test_a_log_distance_medium_loads_numpy_at_its_first_link():
    loaded = _fresh_interpreter(
        "from repro.radio.medium import Medium, Radio\n"
        "from repro.radio.propagation import LogDistanceModel\n"
        "from repro.sim.kernel import Simulator\n"
        "from repro.sim.trace import TraceLog\n"
        "medium = Medium(Simulator(seed=1), LogDistanceModel(seed=1),\n"
        "                TraceLog())\n"
        "a = Radio(medium, 1, (0.0, 0.0))\n"
        "Radio(medium, 2, (10.0, 0.0))\n"
        "before = 'numpy' in sys.modules\n"
        "heard = [r.node_id for r, _ in medium.audible_from(a)]\n"
        "result = [before, 'numpy' in sys.modules, heard]\n"
    )
    assert loaded == [False, True, [2]]


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
    # About 100, the interpreter's own; numpy would add some 100 and
    # scipy.stats some 900.
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


def _unused_imports(source: str):
    """Names a module imports at module level and never mentions again —
    in code, or in a string annotation."""
    tree = ast.parse(source)
    imported = {}
    for statement in tree.body:
        if isinstance(statement, ast.ImportFrom) \
                and statement.module == "__future__":
            continue
        if isinstance(statement, (ast.Import, ast.ImportFrom)):
            for alias in statement.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = statement.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(name.id for name in ast.walk(quoted)
                        if isinstance(name, ast.Name))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_module_level_import_goes_unused():
    # No linter runs here, so this is the check: an import nothing uses
    # is a dependency the layering and cold-start censuses count for
    # nothing.
    root = pathlib.Path(repro.__file__).parent
    unused = [f"{path.relative_to(root)}:{line}: {name}"
              for path in sorted(root.rglob("*.py"))
              for line, name in _unused_imports(path.read_text())]
    assert unused == []


def test_the_unused_import_check_sees_names_code_and_annotations_use():
    assert _unused_imports(
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "from typing import Dict, List, Optional\n"
        "from a import b as c\n"
        "def f(x: 'Optional[int]') -> List[int]:\n"
        "    return os.sep\n") == [(3, "Dict"), (4, "c")]
