"""A run's bytes belong to the run, not to the interpreter.

Two things could make a seeded run differ between two hosts that both
have the code: a value derived with the builtin ``hash`` (tuple hashing
is CPython's to change; ``str`` hashing is salted per process), and
iteration over a hash-ordered container.  The first is ruled out by
reading the source — nothing under ``src/repro`` calls ``hash``, and
the one integer mix that replaced it exists once — the second by running
the lossy-medium golden scenario and the ``core`` gate's demo in child
interpreters whose hash salt differs.
"""

import ast
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import repro
from tests.radio.test_medium_golden import GOLDEN

_PACKAGE = pathlib.Path(repro.__file__).resolve().parent
_ROOT = _PACKAGE.parents[1]

_CHILD = """
import hashlib, json, sys
sys.path[:0] = [{src!r}, {root!r}]
from benchmarks import gates
from tests.radio.test_medium_golden import run_scenario, summary_of
core = json.dumps(gates.core(), sort_keys=True).encode()
print(json.dumps({{"medium": summary_of(*run_scenario()[:5])["digest"],
                  "core": hashlib.sha256(core).hexdigest()}}))
"""


def _run_under(interpreter: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    child = subprocess.run(
        [interpreter, "-c",
         _CHILD.format(src=str(_PACKAGE.parent), root=str(_ROOT))],
        capture_output=True, text=True, timeout=300, env=env)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def _sources():
    for path in sorted(_PACKAGE.rglob("*.py")):
        yield path, path.read_text(encoding="utf-8")


def test_nothing_under_src_calls_the_builtin_hash():
    """``grep -rn "hash((" src/`` is empty, and stays so."""
    calls = [
        f"{path.relative_to(_ROOT)}:{node.lineno}"
        for path, text in _sources()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "hash"]
    assert calls == []


def test_the_integer_mix_exists_once():
    multiplier = "0xBF58476D1CE4E5B9"  # splitmix64's first, in any spelling
    holders = [str(path.relative_to(_PACKAGE)) for path, text in _sources()
               if multiplier.lower() in text.lower()
               or str(int(multiplier, 16)) in text]
    assert holders == ["sim/mix.py"]


def test_the_array_mix_is_the_integer_mix_word_by_word():
    """``mix64_inplace`` writes ``mix64`` of every word over a numpy
    ``uint64`` array — a contiguous one or a strided column — whatever
    the words' high bits."""
    import numpy as np

    from repro.sim.mix import GOLDEN as STEP, mix64, mix64_inplace

    words = [0, 1, 2**63, 2**64 - 1, STEP, 0x0123456789ABCDEF] \
        + [(k * STEP) % 2**64 for k in range(1, 200)]
    flat = np.array(words, dtype=np.uint64)
    assert mix64_inplace(flat) is flat
    assert flat.tolist() == [mix64(w) for w in words]
    pairs = np.array([words, words[::-1]], dtype=np.uint64).T.copy()
    mix64_inplace(pairs[:, 0])
    assert pairs[:, 0].tolist() == [mix64(w) for w in words]
    assert pairs[:, 1].tolist() == words[::-1]


def test_runs_are_byte_equal_whatever_the_hash_salt():
    runs = [_run_under(sys.executable, salt) for salt in ("0", "4242", "random")]
    assert runs[0] == runs[1] == runs[2]
    assert runs[0]["medium"] == GOLDEN["digest"]
    baseline = json.loads(
        (_ROOT / "benchmarks/results/core_metrics.baseline.json").read_text())
    assert runs[0]["core"] == hashlib.sha256(
        json.dumps(baseline, sort_keys=True).encode()).hexdigest()


def test_runs_are_byte_equal_under_another_interpreter_version():
    """Skips where this is the only Python with numpy (as on the host
    the goldens were recorded on)."""
    here = "python%d.%d" % sys.version_info[:2]
    others = [name for name in ("python3.%d" % minor for minor in range(9, 15))
              if name != here and shutil.which(name)
              and subprocess.run([name, "-c", "import numpy"],
                                 capture_output=True).returncode == 0]
    if not others:
        pytest.skip("no second Python minor version with numpy on PATH")
    assert _run_under(others[0], "0") == _run_under(sys.executable, "0")
