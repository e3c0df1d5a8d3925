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


@pytest.fixture()
def built(monkeypatch):
    """Every ``ArgumentParser`` constructed, in order."""
    parsers = []
    init = argparse.ArgumentParser.__init__

    def recording(self, *args, **kwargs):
        parsers.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording)
    return parsers


FULL_TREE = ["dslice", *(f"dslice {c}" for c in COMMANDS)]
VALID = {
    "analyze": ["analyze", "a.json"],
    "certify": ["certify", "a.json", "b.json", "--format", "json"],
    "satellite": ["satellite", "--pattern", "p.json", "--infection", "eta1"],
    "oracle": ["oracle", "--knot", "k.json", "--n", "3", "--m", "7"],
}


def _subparsers(parser):
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _shape(parser):
    """What a parser parses and prints: its settings and its actions."""
    settings = {k: v for k, v in vars(parser).items() if not k.startswith("_")}
    actions = [(type(a), {k: v for k, v in vars(a).items() if k != "container"})
               for a in parser._actions]
    return settings, actions


@pytest.mark.parametrize("command", COMMANDS)
def test_only_the_named_subparser_gets_arguments(command, built):
    # a valid request builds one parser: the one ``add_parser`` makes
    args = cli._parse_args(VALID[command])
    (parser,) = built
    built.clear()
    assert args.command == command
    assert _shape(parser) == _shape(_subparsers(_build_parser())[command])


@pytest.mark.parametrize("command", [None, "frobnicate"])
def test_no_or_unknown_command_builds_every_subparser(command, built, capsys):
    with pytest.raises(SystemExit) as exc:
        cli._parse_args([] if command is None else [command])
    assert exc.value.code == 2 and capsys.readouterr().out == ""
    assert [p.prog for p in built] == FULL_TREE


def _benchmark_argvs(workloads):
    data = Path(str(DATA))
    argvs = [list(a) for _, a in workloads.cli_requests(data)]
    argvs += [list(a) + ["--no-cache"] for _, a in workloads.oracle_requests(data)]
    argvs.append(["certify", str(data / "946.json"), "--format", "json",
                  "--no-cache"])
    return argvs


# requests at argparse's edges: attached values, abbreviations, ``--``,
# help after a path, bad values, missing and leftover arguments
EDGE_ARGVS = [
    ["certify", "a.json", "--format=json"],
    ["certify", "a.json", "--form", "json", "--no-c"],
    ["certify", "--", "a.json"],
    ["certify", "a.json", "-h"],
    ["certify", "a.json", "--h"],
    ["certify", "a.json", "--format", "yaml"],
    ["certify"],
    ["analyze", "a.json", "--bogus"],
    ["analyze", "a.json", "--quotient-bound", "3"],
    ["analyze", "a.json", "b.json", "--verify-cache", "--quotient-bound", "3", "7"],
    ["satellite", "--pattern", "p.json"],
    ["satellite", "--pattern", "p.json", "--infection", "eta1", "extra"],
    ["oracle", "--knot", "k.json", "--n", "x", "--m", "7"],
    ["oracle", "--knot", "k.json", "--n", "3", "--m", "7", "-h", "--bogus"],
]


def _outcome(parse, argv, capsys):
    """The namespace, or the exit code, with what was printed."""
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


def test_named_parser_parses_like_the_full_one(workloads, built, capsys,
                                               monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argvs = _benchmark_argvs(workloads)
    assert len(argvs) == 18
    for argv in argvs + EDGE_ARGVS:
        full = _outcome(lambda a: _build_parser().parse_args(a), argv, capsys)
        built.clear()
        assert _outcome(cli._parse_args, argv, capsys) == full
        if argv in argvs:
            # each valid benchmark request constructs exactly one parser
            assert [p.prog for p in built] == [f"dslice {argv[0]}"]


def test_main_builds_the_parser_of_the_first_positional(
    built, capsys, monkeypatch, tmp_path,
):
    monkeypatch.setenv("DSLICE_CACHE_DIR", str(tmp_path))
    assert main(["certify", str(DATA / "trefoil.json"), "--no-cache"]) == 1
    assert [p.prog for p in built] == ["dslice certify"]
    # help, no command and leftover tokens go through the full tree, the
    # last after the named parser has found them
    for argv, first in ((["--help"], []), ([], []),
                        (["certify", "x", "--bogus"], ["dslice certify"])):
        built.clear()
        with pytest.raises(SystemExit):
            main(argv)
        assert [p.prog for p in built] == first + FULL_TREE
    capsys.readouterr()
