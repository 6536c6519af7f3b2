import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from drinfeldforms import cli
from drinfeldforms.cli import COMMANDS, main
from drinfeldforms.errors import DimensionMismatchError
from drinfeldforms.fq import field
from drinfeldforms.rings import Poly
from oracles import parse_poly


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_poly():
    fq = field(3)
    t, one = Poly.t(fq), Poly.one(fq)
    assert parse_poly(fq, "t^2+t+1") == t * t + t + one
    assert parse_poly(fq, "2*t+1") == t.scale(2) + one
    assert parse_poly(fq, "t^2-1") == t * t + one.scale(2)
    assert parse_poly(fq, "1") == one
    assert parse_poly(fq, "3") == Poly.zero(fq)
    from drinfeldforms.errors import UsageError

    with pytest.raises(UsageError):
        parse_poly(fq, "x+1")
    with pytest.raises(UsageError):
        parse_poly(fq, "")


@pytest.mark.parametrize("q,minus_one", [(4, 1), (9, 2)])
def test_negative_coefficients_at_non_prime_q(capsys, q, minus_one):
    # -c is the negative of c in F_q, not the code of the integer -c mod q
    fq = field(q)
    t, one = Poly.t(fq), Poly.one(fq)
    assert parse_poly(fq, "t-1") == t + one.scale(minus_one)
    assert parse_poly(fq, "-t^2+t") == t * t * Poly.constant(fq, minus_one) + t
    code, out = run_cli(capsys, "hecke", "--q", str(q), "--n", "1", "--op", "Tm:t-1")
    assert code == 0
    assert json.loads(out)["operators"][0]["name"] == f"Tm(t+{minus_one})"


def test_empty_polynomial_terms_are_usage_errors(capsys):
    for spec in ("Tm:t+1+", "Tm:t++1", "Tm:t+-1", "Diamond:--t"):
        _one_line_error(capsys, ("hecke", "--q", "2", "--n", "1", "--op", spec), 2, "usage error:")


def test_dims_command(capsys):
    code, out = run_cli(capsys, "dims", "--q", "2", "--n", "2", "--k", "2")
    assert code == 0
    data = json.loads(out)
    assert data == {"computed_dim": 4, "dim": 4, "g": 0, "h": 5, "k": 2, "n": 2, "q": 2, "r": 2}


def test_dims_more_examples(capsys):
    code, out = run_cli(capsys, "dims", "--q", "2", "--n", "1", "--k", "5")
    data = json.loads(out)
    assert code == 0 and data["dim"] == 4 and data["r"] == 1
    code, out = run_cli(capsys, "dims", "--q", "3", "--n", "1", "--k", "2")
    data = json.loads(out)
    assert code == 0 and data["dim"] == 1 and data["r"] == 1


def test_usage_errors(capsys):
    code, _ = run_cli(capsys, "dims", "--q", "6", "--n", "1")
    assert code == 2
    code, _ = run_cli(capsys, "hecke", "--q", "2", "--n", "1", "--op", "Tm:t")
    assert code == 2
    code, _ = run_cli(capsys, "nonsense")
    assert code == 2


def test_negative_depth_is_a_usage_error(capsys):
    for argv in (
        ("graph", "--q", "2", "--n", "2", "--depth", "-3"),
        ("hecke", "--q", "2", "--n", "1", "--depth", "-1"),
    ):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("usage error:") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


def _one_line_error(capsys, argv, code, prefix):
    assert main(list(argv)) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1


def test_numeric_inputs_are_validated(capsys, monkeypatch):
    for argv in (
        ("dims", "--q", "2", "--n", "0"),
        ("dims", "--q", "2", "--n", "1", "--k", "1"),
        ("graph", "--q", "2", "--n", "-1", "--depth", "2"),
        ("verify", "--suite", "goss", "--q", "2", "--imax", "0"),
        ("verify", "--suite", "congruences", "--q", "2", "--nmax", "0"),
        ("verify", "--q", "2", "--kmax", "1"),
        # rejected before any suite item runs, so no worker process starts
        ("verify", "--suite", "goss", "--q", "2", "--jobs", "0"),
        ("verify", "--suite", "goss", "--q", "2", "--jobs", "-4"),
    ):
        _one_line_error(capsys, argv, 2, "usage error:")
    monkeypatch.setenv("DRINFELDFORMS_MAX_ORBITS", "abc")
    _one_line_error(capsys, ("graph", "--q", "2", "--n", "1", "--depth", "2"), 2, "usage error:")
    # an explicit --max-orbits never reads the environment
    assert main(["graph", "--q", "2", "--n", "1", "--depth", "2", "--max-orbits", "100"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("DRINFELDFORMS_MAX_ORBITS", "2")
    _one_line_error(capsys, ("graph", "--q", "2", "--n", "2", "--depth", "3"), 3, "resource bound")


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.json"
    for argv in (
        ("dims", "--q", "2", "--n", "1"),
        ("graph", "--q", "2", "--n", "1", "--depth", "2"),
        ("verify", "--suite", "goss", "--q", "2", "--imax", "1"),
    ):
        _one_line_error(capsys, (*argv, "--out", str(missing)), 2, "usage error:")
    # a path the check lets through but open() refuses: a directory
    _one_line_error(capsys, ("dims", "--q", "2", "--n", "1", "--out", str(tmp_path)), 2, "usage error:")
    assert not missing.parent.exists()


def test_orbit_bound_below_one_is_a_usage_error(capsys, monkeypatch):
    for bound in ("0", "-3"):
        _one_line_error(
            capsys, ("graph", "--q", "2", "--n", "1", "--max-orbits", bound), 2, "usage error:"
        )
    for bound in ("0", "-3"):
        monkeypatch.setenv("DRINFELDFORMS_MAX_ORBITS", bound)
        for argv in (("dims", "--q", "2", "--n", "1"), ("verify", "--suite", "goss", "--q", "2")):
            _one_line_error(capsys, argv, 2, "usage error:")


def test_verify_reads_the_orbit_bound_from_the_environment(capsys, monkeypatch):
    argv = ("verify", "--suite", "paper", "--q", "2", "--nmax", "2", "--kmax", "2", "--jobs", "1")
    # q2n2's depth-(D+1) stability table has 44 edge orbits
    monkeypatch.setenv("DRINFELDFORMS_MAX_ORBITS", "40")
    _one_line_error(capsys, argv, 3, "resource bound exceeded:")
    monkeypatch.delenv("DRINFELDFORMS_MAX_ORBITS")
    assert main(list(argv)) == 0
    capsys.readouterr()


def test_solver_errors_exit_with_one_line(capsys, monkeypatch):
    # a depth too small for the support gate
    _one_line_error(capsys, ("dims", "--q", "2", "--n", "2", "--depth", "2"), 3, "truncation unstable:")

    def wrong_dimension(*args, **kwargs):
        raise DimensionMismatchError("got 3, expected 4")

    monkeypatch.setattr(cli, "CocycleSpace", wrong_dimension)
    _one_line_error(capsys, ("dims", "--q", "2", "--n", "2"), 1, "dimension mismatch:")


@pytest.mark.parametrize(
    "argv",
    [
        ("graph", "--q", "2", "--n", "10", "--depth", "0"),
        ("dims", "--q", "2", "--n", "30"),
        ("hecke", "--q", "3", "--n", "1000000"),
        ("graph", "--q", "2", "--n", "3", "--depth", "0", "--max-orbits", "15"),
    ],
)
def test_an_oversized_level_exits_before_the_group_context(capsys, monkeypatch, argv):
    # the q^(2(n-1)) stable orbits alone exceed the orbit bound
    def unreachable(*args):
        pytest.fail("the group context was built")

    monkeypatch.setattr(cli, "group_context", unreachable)
    _one_line_error(capsys, argv, 3, "resource bound exceeded:")


@pytest.mark.parametrize(
    "spec,code,prefix",
    [
        ("Tm:t^99999999999", 3, "resource bound exceeded:"),
        ("Tm:t^99999999999+t+1", 3, "resource bound exceeded:"),
        ("Diamond:t^99999999999", 2, "usage error:"),
        ("Tm:t^" + "9" * 5000, 2, "usage error:"),
    ],
)
def test_a_huge_operator_exponent_exits_before_the_group_context(capsys, monkeypatch, spec, code, prefix):
    # a T_m of degree d has q^d transports per orbit, beyond the orbit
    # bound here, and a diamond argument is read mod t^n, here 0
    def unreachable(*args):
        pytest.fail("the group context was built")

    monkeypatch.setattr(cli, "group_context", unreachable)
    _one_line_error(capsys, ("hecke", "--q", "2", "--n", "1", "--op", spec), code, prefix)


def test_operator_arguments_are_read_mod_t_n_and_bounded_by_degree(capsys):
    # t^99999999999 + 1 is 1 mod t^2, and 2 t^99999999999 vanishes over F_2
    code, out = run_cli(capsys, "hecke", "--q", "2", "--n", "2", "--op", "Diamond:t^99999999999+1")
    assert code == 0 and json.loads(out)["operators"][0]["name"] == "Diamond(1)"
    code, out = run_cli(capsys, "hecke", "--q", "2", "--n", "1", "--op", "Tm:2*t^99999999999+t+1")
    assert code == 0 and json.loads(out)["operators"][0]["name"] == "Tm(t+1)"
    # 2^2 transports per orbit are over a bound of 3 but not of 4, where
    # t^2 fails as reducible
    argv = ("hecke", "--q", "2", "--n", "1", "--op", "Tm:t^2", "--max-orbits")
    _one_line_error(capsys, argv + ("3",), 3, "resource bound exceeded:")
    _one_line_error(capsys, argv + ("4",), 2, "usage error: Tm needs")


def test_a_level_at_the_orbit_bound_still_runs(capsys):
    # q2n3 has exactly 2^4 = 16 stable orbits, and a depth-0 graph no others
    code, _ = run_cli(capsys, "graph", "--q", "2", "--n", "3", "--depth", "0", "--max-orbits", "16")
    assert code == 0


def test_an_oversized_paper_grid_exits_before_any_item(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        pytest.fail("a suite item ran")

    monkeypatch.setattr(cli, "run_suite", unreachable)
    argv = ("verify", "--suite", "paper", "--q", "2", "--q", "3", "--nmax", "30")
    _one_line_error(capsys, argv, 3, "resource bound exceeded:")
    # the default grid reaches n = 2 at q = 3, whose 3^2 stable orbits exceed 8
    monkeypatch.setenv("DRINFELDFORMS_MAX_ORBITS", "8")
    _one_line_error(capsys, ("verify", "--suite", "paper", "--q", "3"), 3, "resource bound exceeded:")


def test_an_oversized_congruence_level_exits_before_any_item(capsys, monkeypatch):
    # the coset checks walk the q^(2(n-1)) label pairs, 2^58 at n = 30
    def unreachable(*args, **kwargs):
        pytest.fail("a suite item ran")

    monkeypatch.setattr(cli, "run_suite", unreachable)
    argv = ("verify", "--suite", "congruences", "--q", "2", "--nmax", "30")
    _one_line_error(capsys, argv, 3, "resource bound exceeded:")


def test_resource_bound_exit(capsys):
    code, _ = run_cli(capsys, "graph", "--q", "2", "--n", "2", "--depth", "3", "--max-orbits", "2")
    assert code == 3


def test_a_pivot_that_is_not_a_unit_of_a_exits_3(capsys, monkeypatch):
    # every harmonicity row times t leads with a non-unit of A: the solve
    # ends in one line naming the column, not in a traceback
    from drinfeldforms import cocycles

    kernel, t = cocycles.sparse_kernel, Poly.t(field(2))

    def scaled(rows, ncols, ring, col_order=None):
        return kernel([{c: t * x for c, x in r.items()} for r in rows], ncols, ring, col_order=col_order)

    monkeypatch.setattr(cocycles, "sparse_kernel", scaled)
    argv = ("dims", "--q", "2", "--n", "1", "--k", "3")
    _one_line_error(capsys, argv, 3, "truncation unstable: the kernel's pivot at column")


def test_hecke_json_and_certificate(capsys):
    code, out = run_cli(
        capsys,
        "hecke",
        "--q",
        "2",
        "--n",
        "2",
        "--k",
        "2",
        "--op",
        "Ut",
        "--op",
        "Tm:t+1",
        "--op",
        "Diamond:1+t",
        "--certify",
    )
    assert code == 0
    data = json.loads(out)
    names = [op["name"] for op in data["operators"]]
    assert names == ["Ut", "Tm(t+1)", "Diamond(t+1)"]
    assert all(op["size"] == 4 for op in data["operators"])
    cert = data["certificate"]
    assert cert["flags"] == {
        "divisibility": True,
        "positive_slope": True,
        "unipotence_kill": True,
    }
    assert cert["hecke"] == {"Tm(t+1)": True}
    # the diamond matrix is a permutation matrix
    dia = data["operators"][2]["entries"]
    ones = sum(1 for row in dia for e in row if e["num"] == [1] and e["den"] == [1])
    zeros = sum(1 for row in dia for e in row if e["num"] == [])
    assert ones == 4 and zeros == 12


def test_hecke_formats(capsys):
    code, out = run_cli(
        capsys, "hecke", "--q", "2", "--n", "1", "--k", "2", "--op", "Ut", "--format", "csv"
    )
    assert code == 0 and out.startswith("# Ut")
    code, out = run_cli(
        capsys, "hecke", "--q", "2", "--n", "1", "--k", "3", "--op", "Ut", "--format", "latex"
    )
    assert code == 0 and "pmatrix" in out


def test_determinism_byte_identical(capsys):
    args = ("hecke", "--q", "2", "--n", "2", "--k", "2", "--op", "Ut", "--certify")
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2
    args = ("verify", "--suite", "goss", "--q", "2", "--seed", "3")
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


def test_graph_dot_and_json_roundtrip(capsys):
    code, out = run_cli(capsys, "graph", "--q", "2", "--n", "1", "--depth", "3", "--format", "dot")
    assert code == 0
    assert out.count("color=red") == 1  # one stable orbit at n = 1
    code, out = run_cli(capsys, "graph", "--q", "2", "--n", "2", "--depth", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert sum(1 for e in data["edge_orbits"] if e["stable"]) == 4
    # round-trip: re-serializing the parsed table is the identity
    from drinfeldforms.serialize import canonical_json_dumps

    assert canonical_json_dumps(data) == out


@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_graph_depth_defaults_to_the_weight_2_depth(capsys, fmt):
    # without --depth, graph builds to depth_default(n, 2), 7 at n = 2
    code, out = run_cli(capsys, "graph", "--q", "2", "--n", "2", "--format", fmt)
    assert code == 0
    code7, out7 = run_cli(capsys, "graph", "--q", "2", "--n", "2", "--depth", "7", "--format", fmt)
    assert code7 == 0 and out == out7
    assert out != run_cli(capsys, "graph", "--q", "2", "--n", "2", "--depth", "6", "--format", fmt)[1]


def test_verify_goss_cli(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "goss", "--q", "3", "--imax", "9")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True


def test_verify_goss_cli_at_q8(capsys):
    # deg(m) = 2 needs 8^2 + 2 = 66 terms of precision, above the default 64
    code, out = run_cli(capsys, "verify", "--suite", "goss", "--q", "8")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert any(r["id"] == "goss/q8/m(t^2+t+1)" and r["status"] is True for r in data["items"])


def test_verify_congruences_cli(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "congruences", "--q", "2", "--nmax", "2")
    assert code == 0 and json.loads(out)["passed"] is True


def test_out_file(tmp_path, capsys):
    target = tmp_path / "dims.json"
    code, out = run_cli(capsys, "dims", "--q", "2", "--n", "1", "--k", "2", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["dim"] == 1


def test_json_schema_roundtrip():
    from drinfeldforms.serialize import entry_json

    fq = field(3)
    p = parse_poly(fq, "2*t^3+t+1")
    data = entry_json(p)
    assert data == {"num": list(p.coeffs), "den": [1]}
    assert Poly(fq, data["num"]) == p
    # an entry x of F_q or of A is written as the rational function x/1
    for c in fq.elements():
        assert entry_json(fq.elem(c)) == entry_json(Poly.constant(fq, c))
    assert entry_json(fq.elem(0)) == {"num": [], "den": [1]}


def test_verify_n_alias(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "congruences", "--q", "2", "--n", "2")
    assert code == 0 and json.loads(out)["passed"] is True


def test_help_lists_the_commands(capsys):
    for flag in ("-h", "--help"):
        assert main([flag]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.startswith("usage: drinfeldforms")
        assert all(f"  {name} " in captured.out for name in COMMANDS)


@pytest.mark.parametrize("name", list(COMMANDS))
def test_command_help_lists_every_option_of_its_row(capsys, name):
    assert main([name, "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.startswith(f"usage: drinfeldforms {name}")
    listed = {line.split()[0] for line in captured.out.splitlines()[1:]}
    assert listed == set(COMMANDS[name][3])


def test_main_imports_neither_argparse_nor_gettext():
    # a fresh interpreter, because pytest itself imports argparse
    code = (
        "import os, sys; from drinfeldforms.cli import main; "
        "rc = main(['dims', '--q', '2', '--n', '1', '--out', os.devnull]); "
        "print(rc, 'argparse' in sys.modules, 'gettext' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.stdout.split() == ["0", "False", "False"], proc.stderr
