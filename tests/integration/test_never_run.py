"""``benchmarks/never_run.py`` on a package small enough to read.

A toy package with a called function (whose refusal branch never runs)
and a function nothing calls is traced through one child process of the
tool, and the executable lines, the traced lines, the never-run blocks
and their classes are checked line by line.  A hot toy whose rare
branches run only after the tracer has relocated its code (see
``child``) checks that those lines are still seen.
"""

import os
import sys
import textwrap

from benchmarks.never_run import (
    Block,
    Entry,
    executable_lines,
    find_blocks,
    only_lines,
    trace,
)

TOY = textwrap.dedent('''\
    def called(x):
        if x < 0:
            raise ValueError("negative")
        return x + 1


    def uncalled():
        return 2


    def main(argv):
        try:
            return called(int(argv[0]))
        except ValueError:
            print("not a number")
            return 2
    ''')
SCRIPT = "import sys\nfrom toy.mod import main\nmain(['1'])\n"


def test_traces_a_toy_package(tmp_path):
    package = tmp_path / "src" / "toy"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(TOY)
    script = tmp_path / "run.py"
    script.write_text(SCRIPT)
    workdir = tmp_path / "work"
    workdir.mkdir()

    executable = executable_lines(str(package))
    assert executable == {"__init__.py": set(),
                          "mod.py": {1, 2, 3, 4, 7, 8, 11, 12, 13, 14, 15,
                                     16}}

    traced, outcomes = trace(
        [Entry("toy", "script", str(script))], str(package),
        [str(tmp_path / "src")], str(workdir))
    assert [(o.entry.name, o.code) for o in outcomes] == [("toy", 0)]
    assert traced["mod.py"] == {1, 2, 4, 7, 11, 12, 13}
    assert not traced.get("__init__.py")
    assert os.listdir(workdir) == ["lines.0.json"]

    blocks = find_blocks(TOY, executable["mod.py"], traced["mod.py"])
    assert blocks == [
        Block(3, 3, 1, "called", refusal=True),
        Block(8, 8, 1, "uncalled", refusal=False),
        Block(14, 16, 3, "main", refusal=True),
    ]


def test_refusal_classes():
    source = textwrap.dedent('''\
        import sys


        def cli_main(parser, args):
            if args.bad:
                parser.error("bad")
            if args.worse:
                sys.exit(2)
            if args.done:
                return 2
            return 0


        def value():
            return 2
        ''')
    lines = {1, 4, 5, 6, 7, 8, 9, 10, 11, 14, 15}
    ran = {1, 4, 5, 7, 9, 11, 14}
    assert find_blocks(source, lines, ran) == [
        Block(6, 6, 1, "cli_main", refusal=True),
        Block(8, 8, 1, "cli_main", refusal=True),
        Block(10, 10, 1, "cli_main", refusal=True),
        Block(15, 15, 1, "value", refusal=False),
    ]


HOT = textwrap.dedent('''\
    def step(i):
        if i == 150_000:
            return -1
        return i


    def make():
        def inner(i):
            if i == 150_001:
                return -2
            return i
        return inner


    def main():
        return sum(step(i) + make()(i) for i in range(200_000))
    ''')


def test_lines_first_run_after_relocation_are_seen(tmp_path):
    package = tmp_path / "src" / "toy"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "hot.py").write_text(HOT)
    script = tmp_path / "run.py"
    script.write_text("from toy.hot import main\nassert main() == "
                      f"{2 * sum(range(200_000)) - 150_001 - 150_003}\n")
    traced, outcomes = trace(
        [Entry("hot", "script", str(script))], str(package),
        [str(tmp_path / "src")], str(tmp_path))
    assert [o.code for o in outcomes] == [0], outcomes[0].stderr
    assert executable_lines(str(package))["hot.py"] - traced["hot.py"] == set()


def test_only_lines_reports_just_the_lines_kept():
    def sample(n):
        total = 0
        for i in range(n):
            if i == 3:
                total += 100
            total += i
        return total

    first = sample.__code__.co_firstlineno
    code = only_lines(sample.__code__, {first: {first + 4, first + 6}})
    events = []

    def local(frame, event, arg):
        if event == "line":
            events.append(frame.f_lineno - first)
        return local

    sample.__code__ = code
    sys.settrace(lambda frame, event, arg: local
                 if frame.f_code is code else None)
    try:
        assert sample(5) == 110
    finally:
        sys.settrace(None)
    assert events == [4, 6]
