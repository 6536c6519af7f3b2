"""The streamed operator writer and the sliced operator products.

``hecke.operator_chunks`` reads each operator's rows off its columns and
writes them chunk by chunk; it must give the bytes of the dense payload
(``oracles.operator_json``) written by one ``canonical_json_dumps``.
``OperatorMatrix.apply_all`` works on coordinate slices; it must give the
per-vector products of the dense matrix.  The depth-(D+1) solve reuses
the harmonicity rows of the depth-D solve, so the star of each interior
vertex orbit is read once per space.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeldforms.cli import main
from drinfeldforms.cocycles import CocycleSpace
from drinfeldforms.fq import FqElem, field
from drinfeldforms.groups import group_context
from drinfeldforms.hecke import operator_chunks, ordinary_certificate
from drinfeldforms.linalg import DictRing, FqRing, Matrix
from drinfeldforms.rings import Poly, RatFunc
from drinfeldforms.serialize import canonical_json_dumps, entry_tex
from drinfeldforms.tree import QuotientGraph
from oracles import dense_rows, k_ring, operator, operator_json

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).parent / "golden"

# small spaces over F_q (k = 2) and over A (k = 3, 4), prime and non-prime q
WRITER_GRID = [(2, 2, 2), (3, 2, 2), (4, 1, 2), (5, 1, 2), (9, 1, 2)] + [
    (2, 2, 3), (3, 1, 3), (4, 1, 3), (9, 1, 3), (2, 1, 4), (3, 1, 4)
]


def _ops(eng):
    """U_t, T_(t+1), U_t again and, for n >= 2, a diamond: a repeated operator is written twice."""
    ctx = eng.ctx
    ops = [eng.u_t(), eng.t_m(Poly.t(ctx.fq) + Poly.one(ctx.fq)), eng.u_t()]
    if ctx.n >= 2:
        ops.append(eng.diamond(ctx.theta[-1]))
    return ops


@pytest.mark.parametrize("q,n,k", WRITER_GRID)
def test_the_json_writer_equals_the_dense_payload(q, n, k, cache):
    ops = _ops(cache.engine(q, n, k))
    cert = ordinary_certificate(ops[0], ops[1:2])
    payload = {"operators": [operator_json(op) for op in ops]}
    assert "".join(operator_chunks("json", ops)) == canonical_json_dumps(payload)
    payload["certificate"] = cert.to_json_dict()
    assert "".join(operator_chunks("json", ops, cert)) == canonical_json_dumps(payload)


def _dense_text(fmt, ops):
    """CSV or LaTeX of the operators, each dense row written out whole."""
    out = []
    for op in ops:
        rows = dense_rows(op)
        if fmt == "csv":
            out.append(f"# {op.name}\n" + "\n".join(",".join(f'"{x}"' for x in row) for row in rows) + "\n")
        else:
            body = " \\\\\n".join(" & ".join(entry_tex(x) for x in row) for row in rows)
            out.append(f"% {op.name}\n\\begin{{pmatrix}}\n{body}\n\\end{{pmatrix}}\n")
    return "".join(out)


@pytest.mark.parametrize("q,n,k", [(2, 2, 2), (3, 1, 3), (2, 1, 4)])
@pytest.mark.parametrize("fmt", ["csv", "latex"])
def test_csv_and_latex_go_through_the_same_rows(q, n, k, fmt, cache):
    ops = _ops(cache.engine(q, n, k))
    assert "".join(operator_chunks(fmt, ops)) == _dense_text(fmt, ops)


def test_out_equals_stdout_with_a_repeated_op(tmp_path, capsys):
    argv = ["hecke", "--q", "3", "--n", "2", "--k", "2", "--op", "Ut", "--op", "Tm:t+1", "--op", "Ut", "--certify"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    target = tmp_path / "ops.json"
    assert main([*argv, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == out
    assert out.count('"name":"Ut"') == 2


def test_hecke_json_at_q2_n5_has_the_recorded_hash(tmp_path):
    # the hashes in hecke_sha256.txt were recorded from the dense writer;
    # the larger sizes are checked in CI
    want = dict(line.split()[::-1] for line in (GOLDEN / "hecke_sha256.txt").read_text().splitlines())
    target = tmp_path / "q2n5k2.json"
    argv = ["hecke", "--q", "2", "--n", "5", "--k", "2", "--op", "Ut", "--op", "Tm:t+1", "--certify", "--format", "json"]
    assert main([*argv, "--out", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == want["q2n5k2"]


def test_a_closed_stdout_is_a_one_line_usage_error():
    # about 90 KB of JSON, more than a pipe buffer holds, so the writer
    # meets the reader's closed end whenever the reader closes it
    argv = ["hecke", "--q", "2", "--n", "4", "--k", "2", "--op", "Ut", "--format", "json"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "drinfeldforms", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2, err
    assert err.startswith("usage error: cannot write to stdout") and err.count("\n") == 1
    assert "Traceback" not in err and "Exception ignored" not in err


# -- the sliced product --------------------------------------------------------

RINGS = [("F", q) for q in (2, 3, 4, 5, 9)] + [("A", q) for q in (2, 3)] + [("K", q) for q in (2, 3)]


def _entry(data, kind, fq):
    if kind == "F":
        return FqElem(fq, data.draw(st.integers(0, fq.q - 1)))
    num = Poly(fq, data.draw(st.lists(st.integers(0, fq.q - 1), max_size=3)))
    if kind == "A":
        return num
    den = Poly(fq, data.draw(st.lists(st.integers(0, fq.q - 1), max_size=2)) + [1])
    return RatFunc(num, den)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_apply_all_equals_the_per_vector_products(data):
    kind, q = data.draw(st.sampled_from(RINGS))
    fq = field(q)
    ring = {"F": FqRing(fq), "A": DictRing(Poly.zero(fq), Poly.one(fq)), "K": k_ring(fq)}[kind]
    d = data.draw(st.integers(1, 6))
    sparse = data.draw(st.booleans())

    def draw_entry():
        return ring.zero if sparse and data.draw(st.booleans()) else _entry(data, kind, fq)

    m = Matrix(ring, [[draw_entry() for _ in range(d)] for _ in range(d)])
    vecs = [[draw_entry() for _ in range(d)] for _ in range(data.draw(st.integers(0, 5)))]
    vecs += [[ring.zero] * d] * data.draw(st.integers(0, 2))  # zero vectors
    op = operator("M", group_context(q, 1), 2 if kind == "F" else 3, m)
    got = op.apply_all([ring.vector(v) for v in vecs])
    assert got == [ring.vector(m.apply(v)) for v in vecs]
    assert [op.apply_all([ring.vector(v)])[0] for v in vecs] == got
    assert op.apply_all([]) == []


# -- harmonicity rows once per space ------------------------------------------


@pytest.mark.parametrize("q,n,k", [(2, 3, 2), (3, 2, 3)])
def test_each_interior_star_is_read_once_per_space(q, n, k, monkeypatch):
    # the depth-(D+1) solve reuses the depth-D rows: one star per interior
    # vertex orbit of the depth-(D+1) table, none read twice
    star = QuotientGraph.star
    seen = []

    def counted(self, vorbit):
        seen.append(vorbit.key)
        return star(self, vorbit)

    monkeypatch.setattr(QuotientGraph, "star", counted)
    ctx = group_context(q, n)
    space = CocycleSpace(ctx, k)
    monkeypatch.setattr(QuotientGraph, "star", star)
    interior = QuotientGraph(ctx, space.depth + 1).interior_vertex_orbits()
    assert len(seen) == len(set(seen))
    assert sorted(seen) == sorted(v.key for v in interior)
