import pytest

from drinfeldforms import hecke
from drinfeldforms.errors import ReachError, UsageError
from drinfeldforms.fq import FqElem, field
from drinfeldforms.groups import group_context
from drinfeldforms.hecke import (
    HeckeEngine,
    OperatorMatrix,
    diamond_label_map,
    diamond_permutation_matrix,
    nilpotency_diagnostics,
    ordinary_certificate,
    verify_freeness,
)
from drinfeldforms.linalg import FqRing, KRing, Matrix, UPoly
from drinfeldforms.rings import Poly, RatFunc
from drinfeldforms.tree import apply_edge


def t_plus_one(q):
    fq = field(q)
    return Poly.t(fq) + Poly.one(fq)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_u_t_is_identity_at_level_t(q, cache):
    ut = cache.engine(q, 1, 2).u_t()
    assert ut.size == 1 and ut.matrix.rows[0][0] == ut.matrix.ring.one


@pytest.mark.parametrize("q", [2, 3])
def test_t_m_is_identity_at_level_t(q, cache):
    tm = cache.engine(q, 1, 2).t_m(t_plus_one(q))
    assert tm.size == 1 and tm.matrix.rows[0][0] == tm.matrix.ring.one


def test_u_t_charpoly_q2_n2(cache):
    eng = cache.engine(2, 2, 2)
    ut = eng.u_t()
    chi = ut.charpoly()
    ring = ut.matrix.ring
    x = UPoly.x(ring)
    one = UPoly.one(ring)
    assert chi == (x ** 2) * (x - one) ** 2


def test_u_t_linear(cache):
    # U_t of the zero cocycle is zero: columns of a linear map
    eng = cache.engine(2, 2, 2)
    ut = eng.u_t()
    zero_vec = [ut.matrix.ring.zero] * ut.size
    assert ut.matrix.apply(zero_vec) == zero_vec


def test_t_m_rejects_bad_m(cache):
    eng = cache.engine(2, 1, 2)
    fq = field(2)
    with pytest.raises(UsageError):
        eng.t_m(Poly.t(fq))  # divides the level
    with pytest.raises(UsageError):
        eng.t_m(Poly.t(fq) * Poly.t(fq) + Poly.one(fq))  # (t+1)^2 reducible


def test_diamond_identity_and_example(cache):
    eng = cache.engine(2, 2, 2)
    ctx = eng.ctx
    ident = eng.diamond(ctx.one)
    assert all(
        (ident.matrix.rows[i][j] == ident.matrix.ring.one) == (i == j)
        for i in range(4)
        for j in range(4)
    )
    # alpha = 1+t sends [0,0] to [0,1] (indices in A_1 = F_2)
    lm = diamond_label_map(ctx, ctx.one)
    assert lm[((), ())] == ((), (1,))
    with pytest.raises(UsageError):
        eng.diamond(ctx.t)


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2)])
def test_diamond_closed_form_matches_transport(q, n, cache):
    eng = cache.engine(q, n, 2)
    space = cache.space(q, n, 2)
    ctx = eng.ctx
    for a in ctx.labels:
        alpha = (ctx.one + ctx.t * a).truncate(n)
        dia = eng.diamond(alpha)
        perm = diamond_permutation_matrix(space, a)
        assert dia.matrix == perm
        # permutation matrices: entries 0/1, one per row/column
        for row in dia.matrix.rows:
            assert sum(1 for x in row if x) == 1
            assert all((not x) or x == dia.matrix.ring.one for x in row)


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2)])
def test_diamond_group_homomorphism(q, n, cache):
    eng = cache.engine(q, n, 2)
    ctx = eng.ctx
    mats = {alpha.poly.coeffs: eng.diamond(alpha).matrix for alpha in ctx.theta}
    for a1 in ctx.theta:
        for a2 in ctx.theta:
            assert mats[a1.poly.coeffs] * mats[a2.poly.coeffs] == mats[(a1 * a2).poly.coeffs]


@pytest.mark.parametrize("q,n,k", [(2, 2, 2), (2, 2, 3), (3, 1, 3)])
def test_diamond_commutes_with_hecke(q, n, k, cache):
    eng = cache.engine(q, n, k)
    ctx = eng.ctx
    ut = eng.u_t()
    tm = eng.t_m(t_plus_one(q))
    for alpha in ctx.theta:
        dia = eng.diamond(alpha)
        assert dia.commutator(ut).is_zero()
        assert dia.commutator(tm).is_zero()


class EvaluatingEngine(HeckeEngine):
    """The evaluate-per-cocycle assembly, kept as the oracle for the
    transport table: every basis cocycle is evaluated afresh on every
    transported edge."""

    def _assemble(self, name, transports):
        space = self.space
        fq = self.ctx.fq
        graph = space.graph
        comp = space.k - 1
        acts = None if space.k == 2 else [space.vk.act_of_inverse(xi) for xi in transports]
        image_edges = []
        for key in self.coords.keys_needed:
            rep = graph.edge_orbits[key].rep
            image_edges.append([apply_edge(xi, rep, fq) for xi in transports])
        cols = []
        for cocycle in space.basis:
            values = {}
            for key, edges in zip(self.coords.keys_needed, image_edges):
                total = [space.ring.zero] * comp
                for pos, e2 in enumerate(edges):
                    assert graph.classify(e2)[0] is not None, "image edge beyond the table"
                    val = space.evaluate(cocycle, e2)
                    if acts is not None:
                        val = acts[pos].apply(list(val))
                    total = [a + b for a, b in zip(total, val)]
                values[key] = tuple(total)
            cols.append(self.coords.coords(values))
        d = space.dim
        matrix = Matrix(space.ring, [[cols[j][i] for j in range(d)] for i in range(d)])
        return OperatorMatrix(name, self.ctx, self.k, matrix)


@pytest.mark.parametrize(
    "q,n,k", [(2, 2, 2), (2, 2, 3), (2, 2, 4), (3, 1, 2), (3, 1, 3), (2, 3, 2)]
)
def test_transport_table_matches_evaluating_oracle(q, n, k, cache):
    eng = cache.engine(q, n, k)
    oracle = EvaluatingEngine(cache.space(q, n, k))
    pairs = [(eng.u_t(), oracle.u_t()), (eng.t_m(t_plus_one(q)), oracle.t_m(t_plus_one(q)))]
    pairs += [(eng.diamond(alpha), oracle.diamond(alpha)) for alpha in eng.ctx.theta]
    for got, want in pairs:
        assert got.name == want.name
        assert got.matrix == want.matrix


@pytest.mark.parametrize("k", [2, 3])
def test_coords_rejects_values_off_the_basis(cache, k):
    # the values of one basis cocycle read back as a unit vector; changed at
    # one non-stable safe row they are no combination of the basis
    eng = cache.engine(2, 2, k)
    space, coords = eng.space, eng.coords
    ring = space.ring
    values = {key: space.basis[0].get(key, space.zero_vector()) for key in coords.keys_needed}
    assert coords.coords(values) == [ring.one] + [ring.zero] * (space.dim - 1)
    key, s = coords.row_keys[-1]
    assert key not in space.stable_keys
    values[key] = tuple(x + ring.one if i == s else x for i, x in enumerate(values[key]))
    with pytest.raises(ReachError, match="operator image is inconsistent"):
        coords.coords(values)


def test_transport_beyond_the_table_is_a_reach_error(cache, monkeypatch):
    # with no safe margin the boundary orbits are transported out of the table
    monkeypatch.setattr(hecke, "SAFE_MARGIN", 0)
    eng = HeckeEngine(cache.space(2, 1, 2))
    with pytest.raises(ReachError, match="edge beyond the depth-5 table"):
        eng.u_t()


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_freeness(q, n):
    rec = verify_freeness(group_context(q, n))
    assert rec["status"]
    r = q ** (n - 1)
    assert rec["orbits"] == r and rec["orbit_sizes"] == [r] * r


def test_certificate_q2_n2_weight2(cache):
    eng = cache.engine(2, 2, 2)
    ut = eng.u_t()
    heckes = [eng.t_m(t_plus_one(2))]
    cert = ordinary_certificate(ut, heckes)
    assert cert.valid()
    assert cert.r == 2
    assert cert.flags == {
        "divisibility": True,
        "positive_slope": True,
        "unipotence_kill": True,
    }
    assert cert.hecke_flags == {"Tm(t+1)": True}
    data = cert.to_json_dict()
    assert data["ordinary_rank"] == 2


def test_certificate_higher_weight_u_flags(cache):
    eng = cache.engine(2, 2, 3)
    ut = eng.u_t()
    cert = ordinary_certificate(ut, [eng.t_m(t_plus_one(2))])
    assert cert.flags["divisibility"] and cert.flags["positive_slope"] and cert.flags["unipotence_kill"]
    assert cert.valid()


def test_weight2_positive_slope_is_the_newton_count():
    # U_t = identity at d = 4 > r = 2: chi_plus = (X-1)^2 has F_q
    # coefficients, so its unit roots are counted and the slope flag fails
    ctx = group_context(2, 2)
    ident = OperatorMatrix("Ut", ctx, 2, Matrix.identity(FqRing(ctx.fq), 4))
    cert = ordinary_certificate(ident)
    assert cert.flags["divisibility"] is True
    assert cert.flags["positive_slope"] is False
    assert not cert.valid()


def test_valid_rejects_a_nontrivial_scalar(cache):
    # an operator acting on the ordinary part as a scalar other than 1 is
    # not trivial: t over K at weight 3, 2 = -1 over F_3 at weight 2
    for q, k, name in ((2, 3, "Scalar(t)"), (3, 2, "Scalar(2)")):
        eng = cache.engine(q, 2, k)
        ut = eng.u_t()
        ring = ut.matrix.ring
        lam = RatFunc.from_poly(Poly.t(ring.fq)) if k > 2 else ring.fq.elem(2)
        scalar = OperatorMatrix(name, eng.ctx, k, Matrix.identity(ring, ut.size).scale(lam))
        cert = ordinary_certificate(ut, [eng.t_m(t_plus_one(q)), scalar])
        assert all(cert.flags.values())
        assert cert.hecke_flags == {"Tm(t+1)": True, name: False}
        assert cert.notes == [f"{name} is not the identity on the ordinary part"]
        assert not cert.valid()


def test_nilpotency_diagnostics(cache):
    diag1 = nilpotency_diagnostics(cache.engine(2, 1, 2).u_t())
    assert diag1["nilpotent_dimension"] == 0 and diag1["nilpotency_index"] == 0
    assert diag1["status"] is True
    diag2 = nilpotency_diagnostics(cache.engine(2, 2, 2).u_t())
    assert diag2["nilpotent_dimension"] == 2 and diag2["nilpotency_index"] <= 2
    assert diag2["status"] is True
    assert "not computed" in diag2["note"]
    # U_t = identity at d = 4 > r = 2 has no nilpotent part at all
    from drinfeldforms.hecke import OperatorMatrix
    from drinfeldforms.linalg import Matrix

    ctx = group_context(2, 2)
    ident = OperatorMatrix("Ut", ctx, 2, Matrix.identity(FqRing(ctx.fq), 4))
    diag3 = nilpotency_diagnostics(ident)
    assert diag3["nilpotent_dimension"] == 0 and diag3["nilpotency_index"] == 0
    assert diag3["status"] is False


@pytest.mark.parametrize("n,dim,index", [(3, 12, 5), (4, 56, 8)])
def test_nilpotency_diagnostics_pinned(cache, n, dim, index):
    diag = nilpotency_diagnostics(cache.engine(2, n, 2).u_t())
    assert (diag["nilpotent_dimension"], diag["nilpotency_index"]) == (dim, index)
    assert diag["status"] is True


def test_diamonds_act_nontrivially_on_ordinary_part(cache):
    # diamonds are deliberately excluded from the certificate's Hecke list:
    # for n >= 2 the group 1 + tA_n moves the ordinary part (its fixed part
    # there is one-dimensional, below the rank q^(n-1))
    from drinfeldforms.linalg import Matrix

    eng = cache.engine(2, 2, 2)
    ut = eng.u_t()
    cert = ordinary_certificate(ut, [])
    proj = cert.chi_plus.eval_matrix(ut.matrix)
    dia = eng.diamond(eng.ctx.one + eng.ctx.t)
    ident = Matrix.identity(ut.matrix.ring, ut.size)
    assert ((ut.matrix - ident) * proj).is_zero()
    assert not ((dia.matrix - ident) * proj).is_zero()


def _over_k(op):
    """The operator with every F_q entry embedded into K: the weight-2 path
    before operators were built over F_q, kept as its oracle."""
    fq = op.ctx.fq
    rows = [[RatFunc.constant(fq, x.code) for x in row] for row in op.matrix.rows]
    return OperatorMatrix(op.name, op.ctx, op.k, Matrix(KRing(fq), rows))


@pytest.mark.parametrize(
    "q,n", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2), (2, 3)]
)
def test_weight2_certificate_matches_the_k_path(q, n, cache):
    eng = cache.engine(q, n, 2)
    ut = eng.u_t()
    assert ut.matrix.ring == eng.space.ring == FqRing(field(q))
    assert all(isinstance(x, FqElem) for row in ut.matrix.rows for x in row)
    # a diamond moves the ordinary part for n >= 2, so the False flag and
    # its note are compared too
    heckes = [eng.t_m(t_plus_one(q)), eng.diamond(eng.ctx.theta[-1])]
    got = ordinary_certificate(ut, heckes)
    want = ordinary_certificate(_over_k(ut), [_over_k(op) for op in heckes])
    assert got.to_json_dict() == want.to_json_dict()
    assert [RatFunc.constant(field(q), c.code) for c in got.chi.coeffs] == want.chi.coeffs
    assert nilpotency_diagnostics(ut) == nilpotency_diagnostics(_over_k(ut))
