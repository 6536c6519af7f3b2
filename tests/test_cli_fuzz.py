"""Property test: every CLI input ends in a documented exit code.

Inputs range over valid and invalid field sizes, levels, weights, depths
(an unset depth included),
orbit-bound environment values and, for ``hecke``, operator arguments
with small and huge exponents, and over malformed command lines: an
unknown command or option, a trailing option with no value, a
non-integer ``--q`` and a ``--format`` outside its choices.  ``main``
must return 0, 1, 2 or 3, never let an exception escape (an escaped
exception is a traceback for the user), and end every non-zero exit in
one line on stderr.  ``--jobs`` is always 1, so no worker process starts.
"""

import contextlib
import io
import os
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeldforms.cli import main


def _argv(command, q, n, k, depth, op):
    at_depth = [] if depth is None else ["--depth", depth]
    if command == "graph":
        return ["graph", "--q", q, "--n", n] + at_depth
    if command == "dims":
        return [command, "--q", q, "--n", n, "--k", k] + at_depth
    if command == "hecke":
        kind, exp = op
        return [command, "--q", q, "--n", n, "--k", k] + at_depth + ["--op", f"{kind}:t^{exp}+1"]
    suite = "goss" if command == "verify-goss" else "congruences"
    imax = [] if depth is None else ["--imax", depth]
    return ["verify", "--suite", suite, "--q", q, "--nmax", n, "--kmax", k, "--jobs", "1"] + imax


MALFORMED = {
    "command": lambda argv: ["nonsense"] + argv[1:],
    "option": lambda argv: argv + ["--bogus", "1"],
    "trailing": lambda argv: argv + ["--out"],
    "format": lambda argv: argv + ["--format", "xml"],
}


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["dims", "hecke", "graph", "verify-goss", "verify-congruences"]),
    q=st.sampled_from([2, 3, 4, 6, "x"]),
    n=st.integers(-1, 2),
    k=st.integers(0, 3),
    depth=st.one_of(st.none(), st.integers(-3, 6)),
    max_orbits=st.sampled_from(["", "abc", "1.5", "0", "-3", "40", "200000"]),
    op=st.tuples(
        st.sampled_from(["Tm", "Diamond"]),
        st.one_of(st.integers(0, 3), st.integers(10**10, 10**12)),
    ),
    malformed=st.one_of(st.none(), st.sampled_from(list(MALFORMED))),
)
def test_cli_inputs_end_in_a_documented_exit_code(command, q, n, k, depth, max_orbits, op, malformed):
    argv = [str(a) for a in _argv(command, q, n, k, depth, op)]
    if malformed:
        argv = MALFORMED[malformed](argv)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"DRINFELDFORMS_MAX_ORBITS": max_orbits}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert err.getvalue().count("\n") == 1, err.getvalue()
