"""Byte-for-byte golden outputs of the CLI.

Each case runs ``drinfeldforms.cli.main`` with ``--out`` and compares the
written file (JSON, CSV or LaTeX) with the checked-in copy under
``tests/golden/``.  The files were recorded once and are never
regenerated by the test suite: a change to any of them is a deliberate
change of output and is explained where it is made.
"""

from pathlib import Path

import pytest

from drinfeldforms.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _hecke_case(q, n, k):
    ops = ["--op", "Ut", "--op", "Tm:t+1"]
    if n == 2:
        ops += ["--op", "Diamond:t+1"]
    argv = ["hecke", "--q", str(q), "--n", str(n), "--k", str(k), *ops, "--certify", "--format", "json"]
    return f"hecke_q{q}n{n}k{k}.json", argv


HECKE_CONFIGS = (
    [(2, 1, k) for k in (2, 3, 4)]
    + [(2, 2, k) for k in (2, 3, 4)]
    + [(3, 1, k) for k in (2, 3)]
    + [(3, 2, 2), (4, 1, 2)]
)

CASES = [_hecke_case(*cfg) for cfg in HECKE_CONFIGS] + [
    ("graph_q2n2d5.json", ["graph", "--q", "2", "--n", "2", "--depth", "5", "--format", "json"]),
    # q = 3 and q = 4 reach classes with a != 1, which F_2^x = {1} never does
    ("graph_q3n2d5.json", ["graph", "--q", "3", "--n", "2", "--depth", "5", "--format", "json"]),
    ("graph_q4n1d5.json", ["graph", "--q", "4", "--n", "1", "--depth", "5", "--format", "json"]),
    # q = 5 reaches stabilizer classes (1, t^s b'; 0, 1) with many b'; q3n3
    # reaches rows with v_t(c) > 0 under a degree cap m < n - 1
    ("graph_q5n2d4.json", ["graph", "--q", "5", "--n", "2", "--depth", "4", "--format", "json"]),
    ("graph_q3n3d3.json", ["graph", "--q", "3", "--n", "3", "--depth", "3", "--format", "json"]),
    # weight 3 reads the witnesses, and q = 3 gives them a != 1
    (
        "hecke_q3n2k3.json",
        ["hecke", "--q", "3", "--n", "2", "--k", "3", "--op", "Ut", "--op", "Tm:t+1",
         "--op", "Diamond:t+1", "--certify", "--format", "json"],
    ),
    ("verify_goss_q2q3.json", ["verify", "--suite", "goss", "--q", "2", "--q", "3"]),
    # the goss items over F_4, F_8 and F_9: extension-field tables, and a
    # scaling series inverted to 66 terms at q = 8 and 83 at q = 9
    ("verify_goss_q4q8q9.json", ["verify", "--suite", "goss", "--q", "4", "--q", "8", "--q", "9"]),
    # a d = 16 weight-2 space over F_4, in JSON and in CSV
    ("hecke_q4n2k2.json", _hecke_case(4, 2, 2)[1]),
    ("hecke_q4n2k2.csv", [*_hecke_case(4, 2, 2)[1][:-1], "csv"]),
    # the weight-3 operators over K, in CSV: the dense rows of dict columns
    ("hecke_q3n1k3.csv", [*_hecke_case(3, 1, 3)[1][:-1], "csv"]),
    # the weight-3 operators over K, in LaTeX
    ("hecke_q2n2k3.tex", [*_hecke_case(2, 2, 3)[1][:-1], "latex"]),
    # the d = 16 weight-2 space of the ops-k2 benchmark workload
    _hecke_case(2, 3, 2),
    # vertices reached at depth 6 take longer Euclid chains to reduce
    ("graph_q2n4d6.json", ["graph", "--q", "2", "--n", "4", "--depth", "6", "--format", "json"]),
    # the star of v_0, entered through (x, -1; 1, 0), over non-prime fields
    # at n = 2: F_4 codes, and F_9 codes where -1 != 1
    ("graph_q4n2d5.json", ["graph", "--q", "4", "--n", "2", "--depth", "5", "--format", "json"]),
    ("graph_q9n2d3.json", ["graph", "--q", "9", "--n", "2", "--depth", "3", "--format", "json"]),
    # weight-3 gcds over K at p = 7, where an int product is exact only
    # while the shorter factor has at most 7 coefficients
    _hecke_case(7, 1, 3),
    # the odd-characteristic certificate above q = 3, with a diamond
    _hecke_case(5, 2, 2),
    # lift_sl2, h_bar and eta_diamond over F_4 at n = 2, read through the
    # weight-3 witnesses
    _hecke_case(4, 2, 3),
    # the one weight-4 golden over an odd field with a diamond: V_4 blocks
    # read through witness chains over F_3
    (
        "hecke_q3n2k4.json",
        ["hecke", "--q", "3", "--n", "2", "--k", "4", "--op", "Ut", "--op", "Tm:t+1",
         "--op", "Diamond:t+2", "--certify", "--format", "json"],
    ),
    # every paper-suite record kind at weights 2 and 3
    (
        "verify_paper_q2q3n2k3.json",
        ["verify", "--suite", "paper", "--q", "2", "--q", "3", "--nmax", "2", "--kmax", "3"],
    ),
    # the literal tree checks at p = 5 and p = 7 on packed ints; at p = 7 the
    # fused multiply-add x + f y is exact only while the shorter of f, y has
    # at most 6 coefficients, one below the 7 of the int product alone
    (
        "verify_paper_q5q7.json",
        ["verify", "--suite", "paper", "--q", "5", "--q", "7", "--nmax", "2", "--kmax", "2", "--jobs", "1"],
    ),
]


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_golden_output(tmp_path, name, argv):
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
