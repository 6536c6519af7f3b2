"""The option table reads every command line as the former argparse parser did.

``cli.parse_args`` reads ``cli.COMMANDS``; ``oracles.build_parser`` is the
argparse parser it replaced.  On a valid argv both must give the same value
for every attribute a handler reads; on an invalid one the oracle exits 2
and ``parse_args`` raises UsageError.  The argvs are every command line in
README, the CI workflow, the benchmark's workloads and ``test_cli.py``, and
hypothesis draws over the four commands.
"""

import ast
import contextlib
import importlib.util
import io
import random
import re
import shlex
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeldforms.cli import COMMANDS, parse_args
from drinfeldforms.errors import UsageError
from oracles import build_parser

ROOT = Path(__file__).resolve().parent.parent
ATTRS = "q n k depth max_orbits out op format certify suite nmax kmax imax seed jobs func".split()
UNSET = object()


def _read(ns):
    return {attr: getattr(ns, attr, UNSET) for attr in ATTRS}


def _oracle(argv):
    """The oracle's attributes for ``argv``, or its exit code."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return _read(build_parser().parse_args(argv))
    except SystemExit as exc:
        return exc.code


def _table(argv):
    """parse_args's attributes for ``argv``; 2 when it raises UsageError, the help's exit code for --help."""
    try:
        ns = parse_args(argv)
    except UsageError:
        return 2
    if vars(ns).keys() == {"func"}:
        with contextlib.redirect_stdout(io.StringIO()):
            return ns.func(ns)
    return _read(ns)


def _same_reading(argvs):
    """Assert both parsers read each argv alike; the number of valid argvs."""
    valid = 0
    for argv in argvs:
        expected = _oracle(argv)
        assert _table(argv) == expected, argv
        valid += isinstance(expected, dict)
    return valid


def _shell_lines(path):
    """Every drinfeldforms argv in a shell text, each shell expansion read as 7."""
    text = re.sub(r"\$\{?\w+(\[\d+\])?\}?", "7", path.read_text().replace("\\\n", " "))
    for match in re.finditer(r"drinfeldforms ((?:dims|hecke|verify|graph)\b[^\n]*)", text):
        yield shlex.split(re.split(r"\s(?:\|\||\d?>|;)", match.group(1))[0])


def _perfbench_lines():
    """The benchmark's workload and self-test argvs at a few seeds."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    for make, _ in run.WORKLOADS.values():
        for seed in range(3):
            yield make(random.Random(seed))[0] + ["--out", "out.json"]
    for argv, _ in run.SELF_TEST:
        yield argv + ["--out", "out.json"]


def _test_cli_lines():
    """Every literal argv in test_cli.py: a tuple or list of strings led by a command, or run_cli's arguments."""
    for node in ast.walk(ast.parse((ROOT / "tests" / "test_cli.py").read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run_cli":
            elts = node.args[1:]
        elif isinstance(node, (ast.Tuple, ast.List)):
            elts = node.elts
        else:
            continue
        if elts and all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in elts):
            if elts[0].value in COMMANDS:
                yield [e.value for e in elts]


SOURCES = {
    "README.md": lambda: _shell_lines(ROOT / "README.md"),
    "tests.yml": lambda: _shell_lines(ROOT / ".github" / "workflows" / "tests.yml"),
    "perfbench": _perfbench_lines,
    "test_cli.py": _test_cli_lines,
}


@pytest.mark.parametrize("source,at_least", [("README.md", 6), ("tests.yml", 25), ("perfbench", 8), ("test_cli.py", 40)])
def test_every_command_line_in_the_repository_reads_as_argparse_read_it(source, at_least):
    assert _same_reading(list(SOURCES[source]())) >= at_least


def test_the_table_holds_the_oracles_flags():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command").choices
    assert list(subparsers) == list(COMMANDS)
    for name, sub in subparsers.items():
        assert set(sub._option_string_actions) - {"-h", "--help"} == set(COMMANDS[name][3]), name


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["nonsense"],
        ["--q", "2", "dims"],
        ["dims", "--n", "1"],
        ["dims", "--q", "x", "--n", "1"],
        ["dims", "--q", "2", "--n", "1.5"],
        ["dims", "--q", "2", "--n", "1", "extra"],
        ["dims", "--q", "2", "--n", "1", "--out"],
        ["dims", "--q", "2", "--n", "1", "--out", "--k", "3"],
        ["dims", "--q", "2", "--n", "1", "--depth", "-x"],
        ["dims", "-q", "2", "--n", "1"],
        ["dims", "--q", "2", "--n", "1", "--format", "json"],
        ["hecke", "--q", "2", "--n", "1", "--format", "xml"],
        ["hecke", "--q", "2", "--n", "1", "--format=xml"],
        ["hecke", "--q", "2", "--n", "1", "--certify=1"],
        ["hecke", "--q", "2", "--n", "1", "--op"],
        ["verify", "--suite", "nope"],
        ["verify", "--q"],
        ["verify", "--q", "2", "--q", "x"],
        ["verify", "--depth", "2"],
        ["graph", "--q", "2", "--n", "1", "--format", "csv"],
        ["graph", "--q", "2", "--n", "1", "--k", "2"],
    ],
)
def test_an_argv_argparse_rejected_is_a_usage_error(argv):
    assert _oracle(argv) == 2
    assert _table(argv) == 2


@pytest.mark.parametrize("argv", [["-h"], ["--help", "dims"], ["hecke", "--q", "2", "-h"], ["verify", "--help", "--q", "x"]])
def test_help_exits_0_in_both(argv):
    assert _oracle(argv) == 0
    assert _table(argv) == 0


def test_abbreviations_are_not_read():
    # argparse read --dep as --depth; the table reads only whole flags
    argv = ["dims", "--q", "2", "--n", "1", "--dep", "3"]
    assert _oracle(argv)["depth"] == 3
    assert _table(argv) == 2


TEXT = st.from_regex(r"[A-Za-z0-9:^+*/._][A-Za-z0-9:^+*/._=-]{0,8}", fullmatch=True)


@st.composite
def _argvs(draw):
    """A valid argv: the required flags and some others, in any order and either form."""
    name = draw(st.sampled_from(list(COMMANDS)))
    _, _, required, options = COMMANDS[name]
    flags = draw(st.permutations(list(required) + draw(st.lists(st.sampled_from(list(options)), max_size=6))))
    argv = [name]
    for flag in flags:
        spec = options[flag]
        kind = (options[spec] if isinstance(spec, str) else spec)[0]
        if kind is bool:
            argv.append(flag)
            continue
        if isinstance(kind, tuple):
            value = draw(st.sampled_from(kind))
        else:
            value = draw(st.integers(-20, 10**6).map(str) if kind in (int, [int]) else TEXT)
        argv += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=_argvs())
def test_drawn_argvs_read_as_argparse_read_them(argv):
    assert _same_reading([argv]) == 1


@settings(max_examples=200, deadline=None)
@given(argv=_argvs(), how=st.sampled_from(["command", "option", "trailing", "q", "format", "flag"]))
def test_drawn_malformed_argvs_exit_2_in_both(argv, how):
    if how == "command":
        argv = ["nonsense"] + argv[1:]
    elif how == "option":
        argv = argv + ["--bogus", "1"]
    elif how == "trailing":
        argv = argv + ["--out"]
    elif how == "q":
        argv = argv + ["--q", "x"]
    elif how == "format":
        argv = argv + ["--format", "xml"]
    else:
        argv = argv + ["--certify=1"]
    assert _oracle(argv) == 2
    assert _table(argv) == 2
