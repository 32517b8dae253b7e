"""Never-run census — the lines of ``src/repro`` that no command,
example or benchmark executes.

Each entry point of :data:`ENTRY_POINTS` runs in its own fresh child
process under a ``sys.settrace`` line tracer (also set for threads)
that records the lines it executes of files under ``src/repro``: the
``python -m repro`` commands (the exports of ``report``, ``explain`` and
``report --live`` go to one temporary directory, and ``tail`` and
``diff`` read them back from there), the four examples,
``benchmarks/gates.py check``, ``kernel_floor.py``, ``cold_fill.py``,
the five layered workloads at ``--scale 0.2`` with ``--trace 0`` and
``--trace 1``, and each ``bench_*`` experiment function called directly
with a stand-in for the pytest-benchmark fixture (its ``pedantic(fn)``
calls ``fn()`` once; ``REPRO_BENCH_JOBS=1``; the tables go to the
temporary directory, not ``benchmarks/results/``), so the tree is left
as it was.  At most :data:`JOBS` children run at once, the longest
first, by the traced seconds :data:`ENTRY_POINTS` records for each (on
a two-core host, where the whole run takes about 4.5 min: a tracer
that reports every line makes a run 5-7 times slower, this one 3-4
times, see :func:`child`).

A line is *executable* when a code object compiled from its file lists
it in ``co_lines()``; *never run* means executable and traced in no
child.  The report prints the never-run lines per contiguous block (no
executed line between them, one enclosing ``def``): a block the AST
shows to be a refusal or error path — it raises, calls ``parser.error``,
exits 2 (``sys.exit(2)``, or ``return 2`` in a ``*main`` function) or
sits in an ``except`` handler — is marked ``refusal``; every block
names its enclosing ``def``, so each other block can be classified by
hand.  Then the totals per class and per file.

It is a measurement, not a gate: exit 0 whatever it finds, 1 when an
entry point failed or its tracer was switched off (its trace would be
short).  Relocation (:func:`only_lines`) writes CPython 3.11's
location-table format; an older Python skips it and is only slower.

    make never-run      # python3 benchmarks/never_run.py
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from types import FunctionType
from typing import Dict, Iterator, List, NamedTuple, Sequence, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")
#: Children running at once.
JOBS = 2


class Entry(NamedTuple):
    """One entry point: ``kind`` is ``module`` (``python -m target``),
    ``script`` (a file, relative to the root or absolute) or ``bench``
    (``module:function``, called with the fixture stand-in).  ``{tmp}``
    in an argument is the shared temporary directory; ``after`` names
    the entries whose exports it reads."""

    name: str
    kind: str
    target: str
    args: Tuple[str, ...] = ()
    seconds: float = 1.0
    after: Tuple[str, ...] = ()


def _repro(name: str, seconds: float, *args: str,
           after: Tuple[str, ...] = ()) -> Entry:
    return Entry(name, "module", "repro", args, seconds, after)


def _layered(workload: str, trace: int, seconds: float) -> Entry:
    return Entry(f"layers {workload} --trace {trace}", "script",
                 "benchmarks/layers/run.py",
                 ("--rep", "--workload", workload, "--scale", "0.2",
                  "--trace", str(trace)), seconds)


def _bench(module: str, seconds: float, function: str = "") -> Entry:
    function = function or module
    return Entry(function, "bench", f"benchmarks.{module}:{function}",
                 (), seconds)


ENTRY_POINTS: Tuple[Entry, ...] = (
    _repro("demo", 1),
    _repro("report", 1, "report"),
    _repro("report --faults", 2, "report", "--faults", "--export",
           "{tmp}/faults", "--span-sample-rate", "0.5"),
    _repro("report --live", 1, "report", "--live", "{tmp}/live.jsonl",
           "--telemetry-interval", "20", "--export", "{tmp}/live"),
    _repro("tail", 1, "tail", "{tmp}/live.jsonl", after=("report --live",)),
    _repro("explain", 1, "explain"),
    _repro("explain --export", 1, "explain", "--export",
           "{tmp}/explain.json"),
    _repro("diff metrics", 1, "diff", "{tmp}/faults/metrics.json",
           "{tmp}/live/metrics.json",
           after=("report --faults", "report --live")),
    _repro("diff explain", 1, "diff", "{tmp}/explain.json",
           "{tmp}/explain.json", after=("explain --export",)),
    _repro("sweep", 11, "sweep", "--seeds", "2"),
    _repro("replay", 1, "replay", "--scenario", "partition-crdt",
           "--seed", "1"),
    _repro("dependability", 4, "dependability"),
    Entry("quickstart", "script", "examples/quickstart.py", (), 1),
    Entry("factory_retrofit", "script", "examples/factory_retrofit.py",
          (), 1),
    Entry("smart_building_hvac", "script",
          "examples/smart_building_hvac.py", (), 121),
    Entry("construction_site", "script", "examples/construction_site.py",
          (), 25),
    Entry("gates", "script", "benchmarks/gates.py", ("check",), 13),
    Entry("kernel_floor", "script", "benchmarks/kernel_floor.py", (),
          139),
    Entry("cold_fill", "script", "benchmarks/cold_fill.py", (), 1),
    _layered("campus_medium", 0, 2),
    _layered("campus_medium", 1, 4),
    _layered("grid_csma_collect", 0, 6),
    _layered("grid_csma_collect", 1, 13),
    _layered("grid_tsch_collect", 0, 2),
    _layered("grid_tsch_collect", 1, 3),
    _layered("gateway_services", 0, 7),
    _layered("gateway_services", 1, 14),
    _layered("grid_csma_observed", 0, 4),
    _layered("grid_csma_observed", 1, 7),
    _bench("bench_a1_mac_ablations", 1),
    _bench("bench_a2_objective_functions", 131),
    _bench("bench_e10_self_healing", 2),
    _bench("bench_e10_self_healing", 1, "bench_e10_sensor_diagnosis"),
    _bench("bench_e11_security_overhead", 1),
    _bench("bench_e12_interoperability", 1),
    _bench("bench_e13_rollout", 12),
    _bench("bench_e14_edge_inference", 1),
    _bench("bench_e2_size_scalability", 2),
    _bench("bench_e2_size_scalability", 2, "bench_e2_epoch_ablation"),
    _bench("bench_e3_latency_hops", 14),
    _bench("bench_e4_border_router_load", 40),
    _bench("bench_e5_rnfd", 7),
    _bench("bench_e6_coexistence", 10),
    _bench("bench_e7_redundancy", 2),
    _bench("bench_e8_hvac_safety", 8),
    _bench("bench_e9_partitions", 3),
    _bench("bench_e9_partitions", 2, "bench_e9_anti_entropy_ablation"),
    _bench("bench_f1_layering", 1),
    _bench("bench_taxonomy_matrix", 9),
    _bench("bench_taxonomy_report", 2),
)


# ----------------------------------------------------------------------
# the child: run one entry point traced, write the lines it executed
# ----------------------------------------------------------------------
class _OnceFixture:
    """What the experiments use of pytest-benchmark's fixture."""

    def pedantic(self, func, **_):
        return func()


def _exit_code(code) -> int:
    if code is None:
        return 0
    return code if isinstance(code, int) else 1


def _run(spec: dict) -> None:
    import runpy

    if spec["kind"] == "module":
        sys.argv = [spec["target"], *spec["args"]]
        runpy.run_module(spec["target"], run_name="__main__",
                         alter_sys=True)
    elif spec["kind"] == "script":
        path = os.path.join(spec["root"], spec["target"])
        sys.argv = [path, *spec["args"]]
        runpy.run_path(path, run_name="__main__")
    else:
        import importlib

        import benchmarks._common
        benchmarks._common.RESULTS_DIR = spec["tmp"]
        module, function = spec["target"].split(":")
        getattr(importlib.import_module(module), function)(_OnceFixture())


def _line_sets(path: str) -> Dict[int, Set[int]]:
    """Per first line of the code objects compiled from ``path``, the
    lines a frame of theirs reports (shared by code objects that start on
    one line).  A function's first line is left out: its frame never
    reports it, and the frame that made the function ran it."""
    module = _compile(path)
    sets: Dict[int, Set[int]] = {}
    for code in _code_objects(module):
        lines = _lines(code)
        if code is not module:
            lines.discard(code.co_firstlineno)
        sets.setdefault(code.co_firstlineno, set()).update(lines)
    return sets


def _varint(out: bytearray, value: int) -> None:
    while value >= 64:
        out.append(64 | (value & 63))
        value >>= 6
    out.append(value)


def only_lines(code, unseen: Dict[int, Set[int]]):
    """``code`` with a location table that names only the lines
    ``unseen[code.co_firstlineno]`` holds (CPython 3.11's format,
    Objects/locations.md), and so do the code objects it makes: every
    other instruction has no location, so it reports no line event.  The
    instructions are the same, so is what the code does."""
    keep = unseen.get(code.co_firstlineno, ())
    table = bytearray()
    line = code.co_firstlineno
    units = [position[0] if position[0] in keep else None
             for position in code.co_positions()]
    start = 0
    while start < len(units):
        current, length = units[start], 1
        while (start + length < len(units) and length < 8
               and units[start + length] == current):
            length += 1
        if current is None:
            table.append(0x80 | 15 << 3 | length - 1)   # no location
        else:
            table.append(0x80 | 13 << 3 | length - 1)   # line, no columns
            delta = current - line
            _varint(table, -delta << 1 | 1 if delta < 0 else delta << 1)
            line = current
        start += length
    consts = tuple(only_lines(const, unseen) if hasattr(const, "co_lines")
                   else const for const in code.co_consts)
    return code.replace(co_linetable=bytes(table), co_consts=consts)


def _functions(namespace: dict, classes: Set[type]) -> Iterator:
    """The functions of a module's or class's namespace, those of its
    classes (methods, properties, static and class methods) included."""
    for value in list(namespace.values()):
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        if isinstance(value, property):
            yield from (f for f in (value.fget, value.fset, value.fdel)
                        if isinstance(f, FunctionType))
        elif isinstance(value, FunctionType):
            yield value
        elif isinstance(value, type) and value not in classes:
            classes.add(value)
            yield from _functions(vars(value), classes)


def child(spec: dict) -> int:
    """Run ``spec``'s entry point under the line tracer and write the
    lines executed under ``spec["package"]`` to ``spec["out"]``.

    A line tracer makes every line of every frame a Python call; this one
    asks for as few as it can without missing a line.  The lines still
    unseen are kept per code object (per file and first line): once none
    is left, its frames are traced no more.  And every time the line
    events double, each function of the package's modules and classes
    whose code (or a code object it makes: a closure, a comprehension)
    still has unseen lines gets that code with a location table naming
    only those (:func:`only_lines`), so a hot function reports a line
    event only where it runs a line for the first time.  A frame that
    is running keeps its code, so a long loop of one frame is traced
    whole.
    """
    import threading
    import traceback

    for path in reversed(spec["path"]):
        sys.path.insert(0, path)
    prefix = spec["package"] + os.sep
    #: file -> first line -> (lines, those not seen yet)
    unseen: Dict[str, Dict[int, Tuple[Set[int], Set[int]]]] = {}
    #: file -> first line -> the local tracer, while lines are unseen
    tracers: Dict[str, Dict[int, object]] = {}
    #: id(code this made) -> (original code, unseen lines it names, code)
    made: Dict[int, Tuple[object, int, object]] = {}
    #: id(original code) -> (code, first lines of it and the code it makes)
    firsts: Dict[int, Tuple[object, Set[int]]] = {}

    # Python < 3.11 has no co_positions: it never relocates.
    events, relocate_at = 0, 1 << 16 if sys.version_info >= (3, 11) else -1

    def line_tracer(remaining: Set[int], live: Dict[int, object],
                    first: int):
        discard = remaining.discard

        def local(frame, event, arg):
            nonlocal events, relocate_at
            if event == "line":
                discard(frame.f_lineno)
                if not remaining:
                    live.pop(first, None)
                    return None
                events += 1
                if events == relocate_at:
                    relocate_at *= 2
                    relocate()
            return local
        return local

    def load(filename: str) -> Dict[int, object]:
        live: Dict[int, object] = {}
        if filename.startswith(prefix):
            unseen[filename] = {first: (lines, set(lines)) for first, lines
                                in _line_sets(filename).items()}
            for first, (_, remaining) in unseen[filename].items():
                if remaining:
                    live[first] = line_tracer(remaining, live, first)
        tracers[filename] = live
        return live

    def relocate() -> None:
        classes: Set[type] = set()
        for module in list(sys.modules.values()):
            if not (getattr(module, "__file__", None) or "").startswith(
                    prefix):
                continue
            for function in _functions(vars(module), classes):
                original, named, _ = made.get(id(function.__code__),
                                              (function.__code__, -1, None))
                sets = unseen.get(original.co_filename)
                if sets is None:
                    continue
                if id(original) not in firsts:
                    firsts[id(original)] = (original, {
                        code.co_firstlineno
                        for code in _code_objects(original)})
                left = sum(len(sets[first][1])
                           for first in firsts[id(original)][1])
                if left and left != named:
                    code = only_lines(original, {
                        first: lines for first, (_, lines) in sets.items()})
                    made[id(code)] = (original, left, code)
                    function.__code__ = code

    def tracer(frame, event, arg):
        code = frame.f_code
        try:
            return tracers[code.co_filename].get(code.co_firstlineno)
        except KeyError:
            return load(code.co_filename).get(code.co_firstlineno)

    status = 0
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        _run(spec)
    except SystemExit as exc:
        status = _exit_code(exc.code)
    except Exception:
        traceback.print_exc()
        status = 1
    finally:
        if sys.gettrace() is not tracer:
            print("the line tracer was switched off: the trace is short",
                  file=sys.stderr)
            status = status or 1
        sys.settrace(None)
        threading.settrace(None)
        with open(spec["out"], "w") as handle:
            json.dump({os.path.relpath(name, spec["package"]): sorted(
                set().union(*(lines - remaining
                              for lines, remaining in sets.values())))
                for name, sets in unseen.items()}, handle)
    return status


# ----------------------------------------------------------------------
# the parent: schedule the children, union their lines
# ----------------------------------------------------------------------
class Outcome(NamedTuple):
    entry: Entry
    code: int
    seconds: float
    stderr: str


def trace(entries: Sequence[Entry], package: str, path: Sequence[str],
          workdir: str,
          progress=None) -> Tuple[Dict[str, Set[int]], List[Outcome]]:
    """Run every entry in a fresh child, at most :data:`JOBS` at once and
    the longest ready one first; return the lines each file under
    ``package`` (relative path) executed in any child, and the
    outcomes in the order the children finished."""
    waiting = sorted(entries, key=lambda e: -e.seconds)
    finished: Set[str] = set()
    running: Dict[subprocess.Popen, Tuple[Entry, float, str, object]] = {}
    traced: Dict[str, Set[int]] = {}
    outcomes: List[Outcome] = []
    env = dict(os.environ, REPRO_BENCH_JOBS="1")
    while waiting or running:
        ready = [e for e in waiting if set(e.after) <= finished]
        while ready and len(running) < JOBS:
            entry = ready.pop(0)
            waiting.remove(entry)
            index = len(outcomes) + len(running)
            out = os.path.join(workdir, f"lines.{index}.json")
            spec = {"kind": entry.kind, "target": entry.target,
                    "args": [a.format(tmp=workdir) for a in entry.args],
                    "root": ROOT, "path": list(path), "package": package,
                    "tmp": workdir, "out": out}
            stderr = tempfile.TemporaryFile(mode="w+", dir=workdir)
            proc = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--child",
                 json.dumps(spec)],
                cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                stderr=stderr)
            running[proc] = (entry, time.perf_counter(), out, stderr)
        if not running:
            raise ValueError("entries wait on names that never run: "
                             + ", ".join(e.name for e in waiting))
        time.sleep(0.05)
        for proc in [p for p in running if p.poll() is not None]:
            entry, started, out, stderr = running.pop(proc)
            stderr.seek(0)
            outcome = Outcome(entry, proc.returncode,
                              time.perf_counter() - started, stderr.read())
            stderr.close()
            if os.path.exists(out):
                with open(out) as handle:
                    for name, lines in json.load(handle).items():
                        traced.setdefault(name, set()).update(lines)
            finished.add(entry.name)
            outcomes.append(outcome)
            if progress is not None:
                progress(outcome, len(outcomes), len(entries))
    return traced, outcomes


# ----------------------------------------------------------------------
# executable lines and never-run blocks
# ----------------------------------------------------------------------
def _compile(path: str):
    with open(path) as handle:
        return compile(handle.read(), path, "exec")


def _code_objects(code) -> Iterator:
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def _lines(code) -> Set[int]:
    return {line for _, _, line in code.co_lines()
            if line is not None and line > 0}


def executable_lines(package: str) -> Dict[str, Set[int]]:
    """Per ``.py`` file under ``package`` (relative path), the union of
    ``co_lines()`` over every code object compiled from it."""
    lines: Dict[str, Set[int]] = {}
    for folder, _, files in os.walk(package):
        for file in sorted(files):
            if not file.endswith(".py"):
                continue
            path = os.path.join(folder, file)
            lines[os.path.relpath(path, package)] = set().union(
                *map(_lines, _code_objects(_compile(path))))
    return lines


class Block(NamedTuple):
    first: int
    last: int
    lines: int       # never-run executable lines in it
    where: str       # qualified name of the enclosing def or class
    refusal: bool


def _scopes(tree: ast.AST) -> List[Tuple[int, int, str, ast.AST]]:
    scopes: List[Tuple[int, int, str, ast.AST]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child_node in ast.iter_child_nodes(node):
            if isinstance(child_node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef)):
                name = prefix + child_node.name
                first = min([child_node.lineno] + [
                    d.lineno for d in child_node.decorator_list])
                scopes.append((first, child_node.end_lineno, name,
                               child_node))
                visit(child_node, name + ".")
            else:
                visit(child_node, prefix)

    visit(tree, "")
    return scopes


def _where(scopes, line: int) -> Tuple[str, ast.AST]:
    inner = ("<module>", None)
    for first, last, name, node in scopes:  # outer scopes come first
        if first <= line <= last:
            inner = (name, node)
    return inner


def _is_two(node) -> bool:
    return isinstance(node, ast.Constant) and node.value == 2


def _is_refusal(tree: ast.AST, scope, first: int, last: int) -> bool:
    in_main = (isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
               and scope.name.endswith("main"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            if node.lineno <= first <= node.end_lineno:
                return True
            continue
        if not first <= getattr(node, "lineno", 0) <= last:
            continue
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Return) and in_main and _is_two(node.value):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func,
                                                     ast.Attribute):
            func = node.func
            if (func.attr == "error" and isinstance(func.value, ast.Name)
                    and func.value.id == "parser"):
                return True
            if (func.attr == "exit" and len(node.args) == 1
                    and _is_two(node.args[0])):
                return True
    return False


def find_blocks(source: str, executable: Set[int],
                traced: Set[int]) -> List[Block]:
    """The never-run lines of one file as contiguous blocks."""
    tree = ast.parse(source)
    scopes = _scopes(tree)
    spans: List[Tuple[int, int, int, str, ast.AST]] = []
    previous_ran = True
    for line in sorted(executable):
        if line in traced:
            previous_ran = True
            continue
        where, scope = _where(scopes, line)
        if not previous_ran and spans[-1][3] == where:
            first, _, count, _, _ = spans[-1]
            spans[-1] = (first, line, count + 1, where, scope)
        else:
            spans.append((line, line, 1, where, scope))
        previous_ran = False
    return [Block(first, last, count, where,
                  _is_refusal(tree, scope, first, last))
            for first, last, count, where, scope in spans]


# ----------------------------------------------------------------------
def report(package: str, traced: Dict[str, Set[int]]) -> List[str]:
    """The never-run lines of ``package`` per block, per class, per
    file."""
    out: List[str] = []
    per_file: List[Tuple[str, int, int, int]] = []
    totals = {"refusal": [0, 0], "other": [0, 0]}
    executable = executable_lines(package)
    for name in sorted(executable):
        with open(os.path.join(package, name)) as handle:
            blocks = find_blocks(handle.read(), executable[name],
                                 traced.get(name, set()))
        never = sum(b.lines for b in blocks)
        refused = sum(b.lines for b in blocks if b.refusal)
        per_file.append((name, len(executable[name]), never, refused))
        for block in blocks:
            kind = "refusal" if block.refusal else "other"
            totals[kind][0] += 1
            totals[kind][1] += block.lines
            span = (f"{block.first}" if block.first == block.last
                    else f"{block.first}-{block.last}")
            out.append(f"  {kind:8s}{block.lines:5d}  {name}:{span}  "
                       f"{block.where}")
    executable_total = sum(n for _, n, _, _ in per_file)
    never_total = sum(n for _, _, n, _ in per_file)
    out = ["never-run blocks (class, lines, file:lines, enclosing def):"
           ] + out
    out.append("")
    out.append(f"{executable_total} executable lines, {never_total} never "
               f"run, in {totals['refusal'][0] + totals['other'][0]} "
               f"blocks:")
    for kind, (blocks_n, lines_n) in totals.items():
        out.append(f"  {kind:8s}{lines_n:6d} lines in {blocks_n} blocks")
    out.append("")
    out.append("per file (executable / never run / of which refusal):")
    for name, n_exec, n_never, n_refused in per_file:
        if n_never:
            out.append(f"  {name:44s}{n_exec:6d}{n_never:6d}{n_refused:6d}")
    return out


def main() -> int:
    started = time.perf_counter()

    def progress(outcome: Outcome, done: int, total: int) -> None:
        status = "" if outcome.code == 0 else f"  EXIT {outcome.code}"
        print(f"[{done:2d}/{total}] {outcome.seconds:6.1f} s  "
              f"{outcome.entry.name}{status}", flush=True)

    with tempfile.TemporaryDirectory(prefix="never-run-") as workdir:
        traced, outcomes = trace(
            ENTRY_POINTS, PACKAGE, [os.path.join(ROOT, "src"), ROOT],
            workdir, progress=progress)
    failed = [o for o in outcomes if o.code != 0]
    for outcome in failed:
        print(f"\n{outcome.entry.name} exited {outcome.code}:\n"
              f"{outcome.stderr[-2000:]}")
    print(f"\n{len(outcomes)} entry points in "
          f"{time.perf_counter() - started:.0f} s ({JOBS} at a time)\n")
    print("\n".join(report(PACKAGE, traced)))
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.exit(child(json.loads(sys.argv[2])))
    sys.exit(main())
