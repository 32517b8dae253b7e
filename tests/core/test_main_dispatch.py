"""``python -m repro``'s dispatch: one table, and no argument runs the
demo by accident.

A first argument names a subcommand of ``repro.__main__.SUBCOMMANDS``;
``-h``/``--help`` lists them and exits 0; anything else is a usage error
(exit 2) — it never falls through to the seconds-long demo.
"""

import pytest

import repro.__main__ as cli


def _exit_code(argv, capsys):
    with pytest.raises(SystemExit) as exited:
        cli.main(argv)
    return exited.value.code, capsys.readouterr()


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_every_subcommand(flag, capsys):
    code, out = _exit_code([flag], capsys)
    assert code == 0
    assert "usage: python -m repro" in out.out
    for name, (_, summary) in cli.SUBCOMMANDS.items():
        assert f"  {name:<15} {summary}" in out.out


@pytest.mark.parametrize("argv, error", [
    (["swep"], "invalid choice: 'swep'"),
    (["--seeds", "3"], "unrecognized arguments: --seeds"),
    (["-x"], "unrecognized arguments: -x"),
])
def test_an_unknown_first_argument_is_a_usage_error(argv, error, capsys,
                                                    monkeypatch):
    monkeypatch.setattr(cli, "demo_main", lambda: pytest.fail("demo ran"))
    code, out = _exit_code(argv, capsys)
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("usage: python -m repro")
    assert error in out.err


def test_a_subcommand_gets_the_rest_of_the_arguments(monkeypatch):
    seen = []
    monkeypatch.setitem(cli.SUBCOMMANDS, "tail",
                        (lambda argv: seen.append(argv) or 7, "stub"))
    assert cli.main(["tail", "run.jsonl", "--help"]) == 7
    assert seen == [["run.jsonl", "--help"]]


def test_no_argument_runs_the_demo(monkeypatch):
    monkeypatch.setattr(cli, "demo_main", lambda: 3)
    assert cli.main([]) == 3
