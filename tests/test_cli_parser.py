"""The command line's argument surface and the one-subcommand parser.

``cli_surface.json`` holds the stdout, stderr and exit code of help and
usage-error requests, recorded with ``COLUMNS=80`` from the parser that
built every subcommand's arguments; ``main`` must reproduce them byte
for byte.
"""

import argparse
import json
from importlib import resources
from pathlib import Path

import pytest

from dslice import cli
from dslice.cli import _build_parser, main

SURFACE = json.loads(
    (Path(__file__).resolve().parent / "cli_surface.json").read_text()
)
COMMANDS = ("analyze", "certify", "satellite", "oracle")
DATA = resources.files("dslice") / "data"


@pytest.mark.parametrize("case", sorted(SURFACE))
def test_help_and_usage_errors_keep_their_bytes(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    want = SURFACE[case]
    try:
        code = main(list(want["argv"]))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        want["exit"], want["stdout"], want["stderr"]
    )


def test_main_without_arguments_reads_sys_argv(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("DSLICE_CACHE_DIR", str(tmp_path))
    argv = ["certify", str(DATA / "trefoil.json"), "--no-cache"]
    want = main(list(argv)), capsys.readouterr()
    monkeypatch.setattr("sys.argv", ["dslice", *argv])
    assert (main(), capsys.readouterr()) == want
    assert want[0] == 1 and "conclusion: NotApplicable" in want[1].out


def _subparsers(parser):
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _arguments(subparser):
    return [a.dest for a in subparser._actions
            if not isinstance(a, argparse._HelpAction)]


@pytest.mark.parametrize("command", COMMANDS)
def test_only_the_named_subparser_gets_arguments(command):
    subs = _subparsers(_build_parser(command))
    assert list(subs) == list(COMMANDS)
    for name, sub in subs.items():
        if name == command:
            assert "format" in _arguments(sub) and sub.add_help
        else:
            assert _arguments(sub) == [] and not sub.add_help


@pytest.mark.parametrize("command", [None, "frobnicate"])
def test_no_or_unknown_command_builds_every_subparser(command):
    for sub in _subparsers(_build_parser(command)).values():
        assert "format" in _arguments(sub) and sub.add_help


def _benchmark_argvs(workloads):
    data = Path(str(DATA))
    argvs = [list(a) for _, a in workloads.cli_requests(data)]
    argvs += [list(a) + ["--no-cache"] for _, a in workloads.oracle_requests(data)]
    argvs.append(["certify", str(data / "946.json"), "--format", "json",
                  "--no-cache"])
    return argvs


def test_named_parser_parses_like_the_full_one(workloads):
    argvs = _benchmark_argvs(workloads)
    assert len(argvs) == 18
    for argv in argvs:
        full = _build_parser().parse_args(argv)
        lazy = _build_parser(argv[0]).parse_args(argv)
        assert vars(lazy) == vars(full)


def test_main_builds_the_parser_of_the_first_positional(monkeypatch, capsys):
    seen = []

    def spy(command=None):
        seen.append(command)
        return _build_parser(command)

    monkeypatch.setattr(cli, "_build_parser", spy)
    for argv in (["--bogus", "oracle"], ["-h", "certify"], ["--help"], []):
        with pytest.raises(SystemExit):
            main(argv)
    capsys.readouterr()
    assert seen == ["oracle", "certify", None, None]
