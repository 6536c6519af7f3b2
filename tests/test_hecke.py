import random
import re
from pathlib import Path

import pytest

from drinfeldforms import hecke
from drinfeldforms import tree as tree_module
from drinfeldforms.cocycles import depth_default
from drinfeldforms.errors import ReachError, UsageError
from drinfeldforms.fq import FqElem, field
from drinfeldforms.groups import group_context, is_gamma1
from drinfeldforms.hecke import (
    HeckeEngine,
    diamond_label_map,
    diamond_permutation_matrix,
    image_chain,
    nilpotency_diagnostics,
    ordinary_certificate,
    over_field,
    verify_freeness,
)
from drinfeldforms.linalg import DictRing, FqRing, Matrix, UPoly, charpoly
from drinfeldforms.mat2 import Mat2
from drinfeldforms.rings import Poly, RatFunc, graded_polys, poly_is_irreducible
from drinfeldforms.tree import QuotientGraph, apply_edge
from oracles import (
    BlockEngine,
    bareiss_rank,
    block_solve,
    classify_images_oracle,
    coords_oracle,
    dense,
    dense_rows,
    k_ring,
    nilpotency_oracle,
    operator,
    projector_certificate_oracle,
)


def t_plus_one(q):
    fq = field(q)
    return Poly.t(fq) + Poly.one(fq)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_u_t_is_identity_at_level_t(q, cache):
    ut = cache.engine(q, 1, 2).u_t()
    assert ut.size == 1 and dense_rows(ut)[0][0] == ut.ring.one


@pytest.mark.parametrize("q", [2, 3])
def test_t_m_is_identity_at_level_t(q, cache):
    tm = cache.engine(q, 1, 2).t_m(t_plus_one(q))
    assert tm.size == 1 and dense_rows(tm)[0][0] == tm.ring.one


def test_u_t_charpoly_q2_n2(cache):
    eng = cache.engine(2, 2, 2)
    ut = eng.u_t()
    chi = charpoly(dense(ut))
    ring = ut.ring
    x = UPoly.x(ring)
    one = UPoly.one(ring)
    assert chi == (x ** 2) * (x - one) ** 2


def test_u_t_linear(cache):
    # U_t of the zero cocycle is zero: columns of a linear map
    eng = cache.engine(2, 2, 2)
    ut = eng.u_t()
    zero_vec = [ut.ring.zero] * ut.size
    assert dense(ut).apply(zero_vec) == zero_vec
    assert ut.apply_all([ut.ring.vector(zero_vec)])[0] == ut.ring.vector(())


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
        (dense_rows(ident)[i][j] == ident.ring.one) == (i == j)
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
        assert dia.cols == perm
        # permutation matrices: entries 0/1, one per row/column
        for row in dense_rows(dia):
            assert sum(1 for x in row if x) == 1
            assert all((not x) or x == dia.ring.one for x in row)


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2)])
def test_diamond_group_homomorphism(q, n, cache):
    eng = cache.engine(q, n, 2)
    ctx = eng.ctx
    mats = {alpha.coeffs: dense(eng.diamond(alpha)) for alpha in ctx.theta}
    for a1 in ctx.theta:
        for a2 in ctx.theta:
            assert mats[a1.coeffs] * mats[a2.coeffs] == mats[(a1 * a2).truncate(n).coeffs]


@pytest.mark.parametrize("q,n,k", [(2, 2, 2), (2, 2, 3), (3, 1, 3)])
def test_diamond_commutes_with_hecke(q, n, k, cache):
    eng = cache.engine(q, n, k)
    ctx = eng.ctx
    ut = eng.u_t()
    tm = eng.t_m(t_plus_one(q))
    for alpha in ctx.theta:
        dia = eng.diamond(alpha)
        assert dia.commutes(ut)
        assert dia.commutes(tm)


# the (q, n, k) of the hecke goldens: F_q at weight 2, A above
GOLDEN_GRID = [
    (2, 1, 2), (2, 2, 2), (2, 3, 2), (3, 1, 2), (3, 2, 2), (4, 1, 2), (4, 2, 2), (5, 2, 2),
    (2, 1, 3), (2, 2, 3), (3, 1, 3), (3, 2, 3), (4, 2, 3), (7, 1, 3), (2, 1, 4), (2, 2, 4), (3, 2, 4),
]


def _check_against_dense(a, b, rng):
    """apply_all, commutes and composition of the columns against dense Matrix products."""
    ring, d = a.ring, a.size
    da, db = dense(a), dense(b)
    assert operator(a.name, a.ctx, a.k, da).cols == a.cols
    entries = [x for row in da.rows + db.rows for x in row] + [ring.zero, ring.one]
    v = [entries[rng.randrange(len(entries))] for _ in range(d)]
    assert a.apply_all([ring.vector(v)])[0] == ring.vector(da.apply(v))
    assert [a.apply_all([col])[0] for col in b.cols] == operator("AB", a.ctx, a.k, da * db).cols
    assert a.commutes(b) == b.commutes(a) == (da * db == db * da)


@pytest.mark.parametrize("q,n,k", GOLDEN_GRID)
def test_columns_match_dense_products(q, n, k, cache):
    eng = cache.engine(q, n, k)
    ops = [eng.u_t(), eng.t_m(t_plus_one(q))] + [eng.diamond(alpha) for alpha in eng.ctx.theta]
    ring = eng.space.ring
    assert all(op.ring == ring and len(op.cols) == eng.space.dim for op in ops)
    rng = random.Random(q * 100 + n * 10 + k)
    for a in ops:
        for b in ops:
            _check_against_dense(a, b, rng)


def test_a_hand_made_pair_over_k_does_not_commute():
    # A = (1, t; 0, 1) and B = (1, 0; 1, 1): AB = (1 + t, t; 1, 1), BA = (1, t; 1, 1 + t)
    ctx = group_context(2, 1)
    fq = ctx.fq
    one, zero, t = RatFunc.one(fq), RatFunc.zero(fq), RatFunc.from_poly(Poly.t(fq))
    a = operator("A", ctx, 3, Matrix(k_ring(fq), [[one, t], [zero, one]]))
    b = operator("B", ctx, 3, Matrix(k_ring(fq), [[one, zero], [one, one]]))
    assert not a.commutes(b) and not b.commutes(a)
    assert a.commutes(a) and b.commutes(b)
    assert [a.apply_all([col])[0] for col in b.cols] == [{0: one + t, 1: one}, {0: t, 1: one}]
    assert [b.apply_all([col])[0] for col in a.cols] == [{0: one, 1: one}, {0: t, 1: one + t}]
    rng = random.Random(0)
    for x, y in ((a, b), (b, a), (a, a)):
        _check_against_dense(x, y, rng)


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
            cols.append(coords_oracle(self.coords, values))
        d = space.dim
        matrix = Matrix(space.ring, [[cols[j][i] for j in range(d)] for i in range(d)])
        return operator(name, self.ctx, self.k, matrix)


@pytest.mark.parametrize(
    "q,n,k", [(2, 2, 2), (2, 2, 3), (2, 2, 4), (3, 1, 2), (3, 1, 3), (2, 3, 2), (3, 2, 2)]
)
def test_transport_table_matches_evaluating_oracle(q, n, k, cache):
    eng = cache.engine(q, n, k)
    oracle = EvaluatingEngine(cache.space(q, n, k))
    pairs = [(eng.u_t(), oracle.u_t()), (eng.t_m(t_plus_one(q)), oracle.t_m(t_plus_one(q)))]
    pairs += [(eng.diamond(alpha), oracle.diamond(alpha)) for alpha in eng.ctx.theta]
    for got, want in pairs:
        assert got.name == want.name
        assert got.cols == want.cols


# every (q, n, k) with a weight-3 or weight-4 hecke golden
GOLDEN_WEIGHT_K = sorted(
    {
        tuple(map(int, m.groups()))
        for path in (Path(__file__).parent / "golden").glob("hecke_*")
        if (m := re.fullmatch(r"hecke_q(\d+)n(\d+)k([34])\.\w+", path.name))
    }
)
# every weight-2 configuration of the hecke goldens and F_9, an odd
# non-prime field, with both halves; the solve half alone at every weight-k
# golden and at q3n3k3 and q3n3k4 (d = 162 and 243)
BLOCK_ORACLE_GRID = [
    pytest.param(q, n, 2, id=f"{q}-{n}")
    for q, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2), (5, 2), (9, 1)]
] + [pytest.param(q, n, k, id=f"{q}-{n}-{k}") for q, n, k in GOLDEN_WEIGHT_K + [(3, 3, 3), (3, 3, 4)]]


@pytest.mark.parametrize("q,n,k", BLOCK_ORACLE_GRID)
def test_weight2_signed_counts_match_the_block_oracle(q, n, k, cache):
    # the oracle forms every Matrix block and the stabilizer rows
    # (act(delta) - 1) x = 0, which the solve leaves out, and must give the
    # same bases at depths D and D + 1: a stabilizer row that binds fails
    # here.  At weight 2 the solve and the assembly count signed edges mod
    # p, and the oracle must also give the same operator columns.  The
    # depth-(D+1) solve reuses the rows the depth-D solve formed
    space = cache.space(q, n, k)
    orbit_rows = {}
    for graph in (space.graph, space.graph.extended()):
        assert space._solve(graph, orbit_rows) == block_solve(space, graph)
    if k > 2:
        return
    eng, oracle = cache.engine(q, n, 2), BlockEngine(space)
    m, alpha = t_plus_one(q), eng.ctx.theta[-1]
    pairs = [(eng.u_t(), oracle.u_t()), (eng.t_m(m), oracle.t_m(m))]
    pairs.append((eng.diamond(alpha), oracle.diamond(alpha)))
    for got, want in pairs:
        assert got.name == want.name and got.cols == want.cols


@pytest.mark.parametrize("k", [2, 3])
def test_coords_rejects_values_off_the_basis(cache, k):
    # the identity's image is the basis rows, and reads back as the unit
    # columns; changed at one non-stable safe row it is no operator's image
    eng = cache.engine(2, 2, k)
    space, coords = eng.space, eng.coords
    ring = space.ring
    units = [ring.vector([ring.zero] * j + [ring.one]) for j in range(space.dim)]
    image = {row: v for row, v in space.basis_rows.items() if row in coords.safe_rows}
    assert coords.coords(image) == units
    key, s = coords.safe_rows[-1]
    assert key not in space.stable_keys
    image[key, s] = ring.axpy(image.get((key, s), ring.vector(())), ring.one, units[0])
    with pytest.raises(ReachError, match="operator image is inconsistent"):
        coords.coords(image)


@pytest.mark.parametrize("k", [2, 3])
def test_coords_read_missing_keys_as_zero_and_check_them(cache, k):
    # the image of the operator sending basis cocycle 0 to itself and the
    # others to zero, on cocycle 0's support only: every other safe row is
    # missing, reads as zero and is still checked
    eng = cache.engine(2, 2, k)
    space, coords = eng.space, eng.coords
    ring = space.ring
    safe = set(coords.keys_needed)
    first = space.basis[0]
    image = {(key, s): ring.vector([x]) for key, v in first.items() if key in safe for s, x in enumerate(v) if x}
    zero = ring.vector(())
    assert coords.coords(image) == [ring.vector([ring.one])] + [zero] * (space.dim - 1)
    # image side only: a non-stable safe key off the support, where the basis is zero
    off = next(key for key in coords.keys_needed if key not in first and key not in space.stable_keys)
    with pytest.raises(ReachError, match="operator image is inconsistent"):
        coords.coords({**image, **{(off, s): ring.vector([ring.one]) for s in range(k - 1)}})
    # basis side only: a safe key of the support left out of the image
    inside = next(key for key, _ in image if key not in space.stable_keys)
    for s in range(k - 1):
        image.pop((inside, s), None)
    with pytest.raises(ReachError, match="operator image is inconsistent"):
        coords.coords(image)


def test_transport_beyond_the_table_is_a_reach_error(cache, monkeypatch):
    # with no safe margin the boundary orbits are transported out of the table
    monkeypatch.setattr(hecke, "SAFE_MARGIN", 0)
    eng = HeckeEngine(cache.space(2, 1, 2))
    with pytest.raises(ReachError, match="edge beyond the depth-5 table"):
        eng.u_t()


def image_transports(ctx):
    """The coset matrices of U_t, T_{t+1}, the first T_m of degree 2 and every diamond."""
    fq = ctx.fq
    m2 = next(
        m
        for m in graded_polys(fq, 3)
        if m.degree == 2 and m.is_monic() and m.vt() == 0 and poly_is_irreducible(m)
    )
    out = [ctx.xi_beta(ctx.t, Poly.constant(fq, b)) for b in fq.elements()]
    for m in (ctx.t + ctx.one, m2):
        out += [ctx.xi_beta(m, beta) for beta in graded_polys(fq, int(m.degree))]
        out.append(ctx.xi_diamond(m))
    out += [ctx.eta_diamond(a) for a in graded_polys(fq, ctx.n) if a.vt() == 0]
    return out


# the depths of weights 2, 3 and 4 (k = 2 and 3 share 2n + 3)
IMAGE_GRID = [
    (q, n, depth)
    for q, n in [(q, n) for q in (2, 3, 4, 5, 9) for n in (1, 2)] + [(2, 3)]
    for depth in sorted({depth_default(n, k) for k in (2, 3, 4)})
]


def with_parents(graph, keys):
    """``keys`` and every parent of theirs, as QuotientGraph.classify_images takes them."""
    out = {}
    for key in keys:
        orbit = graph.edge_orbits[key]
        while orbit is not None and orbit.key not in out:
            out[orbit.key] = None
            orbit = orbit.parent
    return list(out)


@pytest.mark.parametrize("q,n,depth", IMAGE_GRID)
def test_classify_image_matches_classifying_the_literal_edge(q, n, depth):
    # orbits of the whole table, deepest first, so that boundary ones whose
    # images leave the table come in: all of them up to 1000 images, evenly
    # spaced beyond, each reduced from its parent's image.  Key and sign are
    # the literal ones.  The witness delta is one in Gamma_1(t^n) taking
    # the representative to the image, so it differs from the literal
    # classification's by an element of the representative's stabilizer
    # (the two walks may end in different gammas), which a stored value is
    # invariant under
    ctx = group_context(q, n)
    fq = ctx.fq
    graph = QuotientGraph(ctx, depth)
    transports = image_transports(ctx)
    keys = sorted(graph.edge_orbits, key=lambda key: (-graph.edge_orbits[key].depth, key))
    stride = -(-len(keys) * len(transports) // 1000)
    sample = keys[::stride]
    transported = with_parents(graph, sample)
    images = [dict(zip(transported, row)) for row in graph.classify_images(transports, transported)]
    found = missing = 0
    for key in sample:
        orbit = graph.edge_orbits[key]
        for xi, image in zip(transports, images):
            got = image[key]
            e = apply_edge(xi, orbit.rep, fq)
            want = graph.classify(e)
            assert got[:3] == want[:3]
            if got[0] is None:
                assert got[3] is None and want[3] is None
                missing += 1
                continue
            rep2, delta = got[0].rep, got[3]
            assert is_gamma1(delta, n)
            assert apply_edge(delta, rep2, fq) == (e if got[2] == 1 else e.reverse())
            assert apply_edge(want[3].adjugate() * delta, rep2, fq) == rep2
            found += 1
    assert found and missing


def _compare_with_the_oracle(graph, transports, keys):
    """(found, missing) images of ``keys`` under ``transports``, each equal to the per-transport
    walk's in orbit, key and sign, and in its witness entry by entry."""
    found = missing = 0
    for xi, got in zip(transports, graph.classify_images(transports, keys)):
        for g, w in zip(got, classify_images_oracle(graph, xi, keys), strict=True):
            assert g[:3] == w[:3]
            if g[0] is None:
                assert g[3] is None and w[3] is None
                missing += 1
                continue
            assert [x.x for x in g[3].entries()] == [x.x for x in w[3].entries()]
            found += 1
    return found, missing


@pytest.mark.parametrize("q,n,depth", IMAGE_GRID)
def test_classify_images_match_the_per_transport_walk(q, n, depth):
    # the one walk of all transports with its witness chains of packed ints
    # gives every image the orbit, key and sign of the walk one transport at
    # a time with a Deferred chain per image, and the same witness matrix,
    # not merely one in the same stabilizer coset; the orbits are sampled as
    # in the literal test, boundary ones included, with all their parents
    ctx = group_context(q, n)
    graph = QuotientGraph(ctx, depth)
    keys = sorted(graph.edge_orbits, key=lambda key: (-graph.edge_orbits[key].depth, key))
    transports = image_transports(ctx)
    stride = -(-len(keys) * len(transports) // 1000)
    found, missing = _compare_with_the_oracle(graph, transports, with_parents(graph, keys[::stride]))
    assert found and missing


@pytest.mark.parametrize("q,n,k", [g for g in GOLDEN_GRID if g[2] > 2])
def test_weight_k_images_match_the_per_transport_walk(cache, q, n, k):
    # on the safe keys of the weight-3 and weight-4 goldens every image is
    # found, and every witness the blocks read is the oracle's matrix
    engine = cache.engine(q, n, k)
    graph = engine.space.graph
    found, missing = _compare_with_the_oracle(graph, image_transports(graph.ctx), engine.coords.keys_needed)
    assert found and not missing


def test_classify_images_needs_every_parent():
    # an orbit whose parent is not transported has no image to start from
    graph = QuotientGraph(group_context(2, 2), 4)
    orbit = next(o for o in graph.edge_orbits.values() if o.depth == 2)
    xi = image_transports(graph.ctx)[0]
    with pytest.raises(AssertionError, match="transported without its parent"):
        graph.classify_images([xi], [orbit.parent.parent.key, orbit.key])
    assert [len(row) for row in graph.classify_images([xi], with_parents(graph, [orbit.key]))] == [3]


@pytest.mark.parametrize("q,n,k", [(2, 3, 2), (3, 2, 2), (4, 2, 3)])
def test_every_non_seed_image_reduces_in_two_row_operations(cache, q, n, k, monkeypatch):
    # h_P sigma is an edge next to +-e_j, and so is R(e_0) for a seed's
    # Hecke coset representative R, so Euclid fills every entry of the
    # tree context's memo in at most two row operations, and it runs once
    # per distinct state (h, sigma) over all the transports
    engine = cache.engine(q, n, k)
    graph = engine.space.graph
    tree = graph.tree
    keys = engine.coords.keys_needed
    assert 0 < sum(graph.edge_orbits[key].parent is None for key in keys) < len(keys)
    monkeypatch.setattr(tree, "_image_cache", {})
    lengths, states = [], []
    reduce_image, reduce_state = tree_module._reduce_image, tree_module.TreeContext.reduce_state

    def recording_image(*args):
        got = reduce_image(*args)
        lengths.append(len(got[0]))
        return got

    def recording_state(self, h, sigma, *args):
        states.append((h, sigma))
        return reduce_state(self, h, sigma, *args)

    monkeypatch.setattr(tree_module, "_reduce_image", recording_image)
    monkeypatch.setattr(tree_module.TreeContext, "reduce_state", recording_state)
    transports = image_transports(graph.ctx)
    graph.classify_images(transports, keys)
    assert len(states) == len(keys) * len(transports)
    assert len(lengths) == len(set(states)) == len(tree._image_cache) < len(states)
    assert max(lengths) <= 2
    if (q, n) == (2, 3):
        # U_t, T_(t+1), T_(t^2+t+1) and <t+1> on a fresh memo: 902 images,
        # fewer than a tenth of which reach Euclid
        monkeypatch.setattr(tree, "_image_cache", {})
        lengths.clear(), states.clear()
        ctx, fresh = graph.ctx, HeckeEngine(engine.space)
        fresh.u_t(), fresh.t_m(ctx.t + ctx.one), fresh.t_m(ctx.t * ctx.t + ctx.t + ctx.one)
        fresh.diamond(ctx.t + ctx.one)
        assert len(states) == 902
        assert len(lengths) == len(set(states)) == len(tree._image_cache) < len(states) / 10
        assert max(lengths) <= 2


# the (q, n) of the hecke goldens, and two with a degree-2 T_m over non-prime fields
SEED_GRID = sorted({(q, n) for q, n, _ in GOLDEN_GRID} | {(4, 2), (9, 2)})


@pytest.mark.parametrize("q,n", SEED_GRID)
def test_seed_images_are_sl2_times_their_coset_representative(q, n):
    # xi w0 = gamma R for every seed w0 and every transport of U_t, T_(t+1),
    # a degree-2 T_m and the diamonds: gamma in SL_2(A), and R one of the
    # q^deg m + 1 Hecke coset representatives of det xi = m
    ctx = group_context(q, n)
    seeds = [orbit for orbit in QuotientGraph(ctx, 0).edge_orbits.values() if orbit.parent is None]
    assert len(seeds) == q ** (2 * n - 2)
    met = set()
    for xi in image_transports(ctx):
        m = xi.det()
        for orbit in seeds:
            gamma, r = ctx.hecke_coset(tuple(x.x for x in xi.entries()), orbit.w0, m.x)
            gamma, r = Mat2.from_packed(ctx.fq, gamma), Mat2.from_packed(ctx.fq, r)
            assert gamma.det().is_one() and gamma * r == xi * orbit.w0
            assert r.c.is_zero() and r.det() == m
            assert (r.a.is_one() and r.b.degree < m.degree) or (r.a == m and r.b.is_zero())
            met.add((m.x, r.a.x, r.b.x))
    # the diamonds' R is the identity, and both kinds of R occur
    assert (1, 1, 0) in met and any(a > 1 for _, a, _ in met) and any(b for _, _, b in met)


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
    ident = operator("Ut", ctx, 2, Matrix.identity(FqRing(ctx.fq), 4))
    cert = ordinary_certificate(ident)
    assert cert.flags["divisibility"] is True
    assert cert.flags["positive_slope"] is False
    assert not cert.valid()


def test_valid_rejects_a_nontrivial_scalar(cache):
    # an operator acting on the ordinary part as a scalar other than 1 is
    # not trivial: t over A at weight 3, 2 = -1 over F_3 at weight 2
    for q, k, name in ((2, 3, "Scalar(t)"), (3, 2, "Scalar(2)")):
        eng = cache.engine(q, 2, k)
        ut = eng.u_t()
        ring = ut.ring
        lam = Poly.t(field(q)) if k > 2 else field(q).elem(2)
        scalar = operator(name, eng.ctx, k, Matrix.identity(ring, ut.size).scale(lam))
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
    ctx = group_context(2, 2)
    ident = operator("Ut", ctx, 2, Matrix.identity(FqRing(ctx.fq), 4))
    diag3 = nilpotency_diagnostics(ident)
    assert diag3["nilpotent_dimension"] == 0 and diag3["nilpotency_index"] == 0
    assert diag3["status"] is False


@pytest.mark.parametrize("n,dim,index", [(3, 12, 5), (4, 56, 8), (5, 240, 13)])
def test_nilpotency_diagnostics_pinned(cache, n, dim, index):
    diag = nilpotency_diagnostics(cache.engine(2, n, 2).u_t())
    assert (diag["nilpotent_dimension"], diag["nilpotency_index"]) == (dim, index)
    assert diag["status"] is True


@pytest.mark.parametrize(
    "q,n", [(q, n) for q in (2, 3, 4, 5, 7) for n in (1, 2)] + [(2, 3), (3, 3)]
)
def test_image_chain_matches_the_power_and_kernel_oracle(q, n, cache):
    ut = cache.engine(q, n, 2).u_t()
    assert nilpotency_diagnostics(ut) == nilpotency_oracle(ut)


def _block_diagonal(fq, blocks):
    """A weight-2 U_t over F_q from square blocks of 0/1 codes."""
    d = sum(len(b) for b in blocks)
    rows = [[FqElem(fq, 0)] * d for _ in range(d)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            for j, code in enumerate(row):
                rows[at + i][at + j] = FqElem(fq, code)
        at += len(block)
    return rows


def _jordan(size):
    """The nilpotent Jordan block of the given size: 1 just above the diagonal."""
    return [[int(j == i + 1) for j in range(size)] for i in range(size)]


def _identity(size):
    return [[int(i == j) for j in range(size)] for i in range(size)]


@pytest.mark.parametrize(
    "blocks,want",
    [
        # U = I: no nilpotent part, reached at j = 0
        ([_identity(4)], (0, 0, False)),
        # U = 0: all of the space dies at the first step
        ([[[0] * 4 for _ in range(4)]], (4, 1, False)),
        # one Jordan block of size d - r: the chain runs all d - r steps
        ([_jordan(4), _identity(2)], (4, 4, True)),
        # two blocks of size 2: the rank repeats before j = d - r
        ([_jordan(2), _jordan(2), _identity(2)], (4, 2, True)),
        # d - r = 0 and d - r < 0: no step is taken
        ([_identity(2)], (0, 0, True)),
        ([[[0]]], (0, 0, False)),
        # s = 0 < r: the ranks 4, 3, 2, 1, 0 are still falling at j = d - r,
        # where the record reads them
        ([_jordan(4)], (2, 2, True)),
    ],
    ids=["identity", "zero", "jordan-d-minus-r", "two-jordan", "d-equals-r", "d-below-r", "s-below-r"],
)
def test_image_chain_on_hand_made_matrices(blocks, want):
    ctx = group_context(2, 2)  # r = 2
    rows = _block_diagonal(ctx.fq, blocks)
    ut = operator("Ut", ctx, 2, Matrix(FqRing(ctx.fq), rows))
    diag = nilpotency_diagnostics(ut)
    assert (diag["nilpotent_dimension"], diag["nilpotency_index"], diag["status"]) == want
    assert diag == nilpotency_diagnostics(_over_k(ut))
    assert diag == nilpotency_oracle(ut) == nilpotency_oracle(_over_k(ut))


@pytest.mark.parametrize("q,n,k", [(2, 2, 3), (3, 1, 4), (2, 2, 4)])
def test_nilpotency_diagnostics_over_k_matches_the_oracle(q, n, k, cache):
    # the oracle reads U_t lifted to K, where the chain runs
    ut = cache.engine(q, n, k).u_t()
    assert ut.ring == DictRing(Poly.zero(field(q)), Poly.one(field(q)))
    assert nilpotency_diagnostics(ut) == nilpotency_oracle(over_field(ut))


def _dense(ring, v, d):
    """A vector in its ring adapter's format as a list of d entries."""
    if isinstance(ring, FqRing):
        return [FqElem(ring.fq, c) for c in v.to_bytes(d, "little")]
    return [v.get(i, ring.zero) for i in range(d)]


def _chain_cases():
    ctx = group_context(2, 2)
    for blocks in ([_jordan(4)], [_jordan(4), _identity(2)], [[[1, 1], [0, 1]], _jordan(3)]):
        ut = operator("Ut", ctx, 2, Matrix(FqRing(ctx.fq), _block_diagonal(ctx.fq, blocks)))
        yield ut
        yield _over_k(ut)


@pytest.mark.parametrize(
    "qn",
    [(2, 1), (2, 2), (3, 1), (3, 2), (4, 2), (5, 2), (2, 3), "hand-made", (2, 2, 3), (3, 1, 4), (2, 2, 4)],
    ids=str,
)
def test_image_chain_matches_dense_powers(qn, cache):
    if qn == "hand-made":
        operators = list(_chain_cases())
    else:
        q, n, k = qn if len(qn) == 3 else (*qn, 2)
        operators = [cache.engine(q, n, k).u_t()]
    for ut in operators:
        u = dense(over_field(ut))  # the chain's basis lies over K above weight 2
        ring = u.ring
        d = u.nrows
        ranks, basis, u_im = image_chain(ut)
        power = Matrix.identity(ring, d)
        for j, rank in enumerate(ranks):
            assert rank == bareiss_rank(power), (j, ranks)
            power = power * u
        # the chain ends at the first repeat, on a basis of im U^N
        assert ranks[-1] == ranks[-2] and len(set(ranks)) == len(ranks) - 1
        assert len(basis) == ranks[-1] == u_im.nrows
        # each basis vector is 1 at its highest nonzero coordinate, and
        # those coordinates are distinct
        vecs = [_dense(ring, b, d) for b in basis]
        tops = [max(i for i, x in enumerate(v) if x) for v in vecs]
        assert len(set(tops)) == len(basis)
        assert all(v[top] == ring.one for v, top in zip(vecs, tops))
        # U B = B U|im, and U is invertible on im U^N
        for j, v in enumerate(vecs):
            want = [ring.zero] * d
            for i, w in enumerate(vecs):
                want = [a + u_im.rows[i][j] * x for a, x in zip(want, w)]
            assert u.apply(v) == want
        assert charpoly(u_im).coeff(0)


def test_image_chain_pinned_at_q2_n5(cache):
    ranks, basis, u_im = image_chain(cache.engine(2, 5, 2).u_t())
    assert ranks == [256, 192, 128, 96, 70, 52, 41, 34, 30, 26, 22, 20, 18, 16, 16]
    assert len(basis) == 16 and u_im == Matrix.identity(u_im.ring, 16)


def test_diamonds_act_nontrivially_on_ordinary_part(cache):
    # diamonds are deliberately excluded from the certificate's Hecke list:
    # for n >= 2 the group 1 + tA_n moves the ordinary part (its fixed part
    # there is one-dimensional, below the rank q^(n-1))
    eng = cache.engine(2, 2, 2)
    ut = eng.u_t()
    cert = ordinary_certificate(ut, [])
    proj = cert.chi_plus.eval_matrix(dense(ut))
    dia = eng.diamond(eng.ctx.one + eng.ctx.t)
    ident = Matrix.identity(ut.ring, ut.size)
    assert ((dense(ut) - ident) * proj).is_zero()
    assert not ((dense(dia) - ident) * proj).is_zero()


def _over_k(op):
    """The operator with every F_q entry embedded into K: the weight-2 path
    before operators were built over F_q, kept as its oracle."""
    fq = op.ctx.fq
    rows = [[RatFunc.from_poly(Poly.constant(fq, x.code)) for x in row] for row in dense_rows(op)]
    return operator(op.name, op.ctx, op.k, Matrix(k_ring(fq), rows))


@pytest.mark.parametrize(
    "q,n", [(q, n) for q in (2, 3, 4, 5, 7) for n in (1, 2)] + [(2, 3), (3, 3)]
)
def test_weight2_certificate_matches_the_k_path(q, n, cache):
    eng = cache.engine(q, n, 2)
    ut = eng.u_t()
    assert ut.ring == eng.space.ring == FqRing(field(q))
    assert all(isinstance(x, FqElem) for row in dense_rows(ut) for x in row)
    # a diamond moves the ordinary part for n >= 2, so the False flag and
    # its note are compared too
    heckes = [eng.t_m(t_plus_one(q)), eng.diamond(eng.ctx.theta[-1])]
    got = ordinary_certificate(ut, heckes)
    # the chain over K on the embedded operators, and the oracles over F_q,
    # where every weight-2 entry lies: the whole-space projector and the
    # dense power, which share no code with the chain
    ut_k = _over_k(ut)
    over_k = ordinary_certificate(ut_k, [_over_k(op) for op in heckes])
    want = projector_certificate_oracle(ut, heckes)
    assert got.to_json_dict() == over_k.to_json_dict() == want.to_json_dict()
    assert got.chi == want.chi
    embedded = [RatFunc.from_poly(Poly.constant(field(q), c.code)) for c in got.chi.coeffs]
    assert embedded == over_k.chi.coeffs
    assert nilpotency_diagnostics(ut) == nilpotency_diagnostics(ut_k) == nilpotency_oracle(ut)


@pytest.mark.parametrize(
    "q,n,k", [(q, n, k) for k in (3, 4) for q, n in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2))]
)
def test_weight_k_certificate_matches_the_projector_oracle(q, n, k, cache):
    eng = cache.engine(q, n, k)
    ut = eng.u_t()
    assert ut.ring == eng.space.ring == DictRing(Poly.zero(field(q)), Poly.one(field(q)))
    # every entry of U_t, T_(t+1) and the diamonds lies in A
    ops = [ut, eng.t_m(t_plus_one(q))] + [eng.diamond(alpha) for alpha in eng.ctx.theta]
    assert all(isinstance(x, Poly) for op in ops for col in op.cols for x in col.values())
    heckes = [eng.t_m(t_plus_one(q)), eng.diamond(eng.ctx.theta[-1])]
    got = ordinary_certificate(ut, heckes)
    want = projector_certificate_oracle(over_field(ut), [over_field(op) for op in heckes])
    assert got.to_json_dict() == want.to_json_dict()


def _hand_made(q, n, name, blocks, moves=()):
    """An operator over F_q from diagonal blocks of codes, plus 1 at each (row, col) of ``moves``."""
    ctx = group_context(q, n)
    rows = _block_diagonal(ctx.fq, blocks)
    for i, j in moves:
        rows[i][j] = rows[i][j] + FqElem(ctx.fq, 1)
    return operator(name, ctx, 2, Matrix(FqRing(ctx.fq), rows))


# (q, n, U's blocks, each T's moves off I, flags, Hecke flags); r = q^(n-1)
HAND_MADE_CERTIFICATES = {
    # s = r, but U is not the identity on one vector of the chain's basis:
    # the second of two, the first of three, the third of three
    "unipotent-q2": (2, 2, [[[1, 1], [0, 1]], _jordan(2)], [], (True, True, False), []),
    "unipotent-first": (3, 2, [[[1, 0, 0], [0, 1, 0], [1, 0, 1]]], [], (True, True, False), []),
    "unipotent-last": (
        3, 2, [[[1, 0, 0], [0, 1, 1], [0, 0, 1]], _jordan(2)], [], (True, True, False), [],
    ),
    # s = 4 > r = 2 and s = 0 < r
    "s-above-r": (2, 2, [_identity(4)], [], (True, False, True), []),
    "s-below-r": (2, 2, [_jordan(4)], [[(1, 0)]], (False, False, False), [False]),
    # s = r, and T is not the identity on one stable vector, either one;
    # moving a nilpotent vector onto a stable one is allowed
    "t-moves-one": (
        2, 2, [_identity(2), _jordan(2)], [[(1, 0)], [(0, 1)], [(0, 2)], [(2, 0)]],
        (True, True, True), [False, False, True, False],
    ),
    # s = 2 > r = 1 with g = X - 2, so G = g(U|im) is not the identity
    "g-not-one": (
        3, 1, [[[1, 0], [0, 2]], _jordan(2)], [[], [(1, 1)], [(1, 0)], [(0, 1)]],
        (True, False, True), [True, True, False, True],
    ),
}


@pytest.mark.parametrize("case", HAND_MADE_CERTIFICATES)
def test_weight2_certificate_on_hand_made_matrices(case):
    q, n, blocks, moves, flags, hecke_flags = HAND_MADE_CERTIFICATES[case]
    ut = _hand_made(q, n, "Ut", blocks)
    d = ut.size
    heckes = [_hand_made(q, n, f"T{i}", [_identity(d)], m) for i, m in enumerate(moves)]
    # the same matrices over F_q and embedded into K
    certs = []
    for u, ts in ((ut, heckes), (_over_k(ut), [_over_k(op) for op in heckes])):
        got = ordinary_certificate(u, ts)
        assert got.to_json_dict() == projector_certificate_oracle(u, ts).to_json_dict()
        assert tuple(got.flags.values()) == flags
        assert list(got.hecke_flags.values()) == hecke_flags
        certs.append(got.to_json_dict())
    assert certs[0] == certs[1]


_T = RatFunc.from_poly(Poly.t(field(2)))

# (q, n, U's blocks, U's entries then set over K, each T's moves off I,
# flags, Hecke flags, notes); r = q^(n-1)
K_HAND_MADE_CERTIFICATES = {
    # a Jordan block at eigenvalue t, a unit of K: s = 4 > r = 2, and
    # g = (X - t)^2 has no t-adic unit root
    "eigenvalue-t": (
        2, 2, [_identity(4), _jordan(2)], {(2, 2): _T, (3, 3): _T, (2, 3): RatFunc.one(field(2))},
        [[(2, 0)], [(0, 2)]], (True, True, True), [False, True],
        ["T0 is not the identity on the ordinary part"],
    ),
    # 1/t on the diagonal: chi_plus = X^2 (X - 1/t) is not t-integral
    "t-in-a-denominator": (
        2, 2, [_identity(3), _jordan(2)], {(2, 2): _T.inverse()}, [[]], (True, False, True), [True],
        ["Newton count failed: non-integral coefficient (negative t-adic valuation)"],
    ),
}


@pytest.mark.parametrize("case", K_HAND_MADE_CERTIFICATES)
def test_k_certificate_on_hand_made_matrices(case):
    q, n, blocks, entries, moves, flags, hecke_flags, notes = K_HAND_MADE_CERTIFICATES[case]
    base = _over_k(_hand_made(q, n, "Ut", blocks))
    u = dense(base)
    for (i, j), x in entries.items():
        u.rows[i][j] = x
    ut = operator("Ut", base.ctx, base.k, u)
    heckes = [_over_k(_hand_made(q, n, f"T{i}", [_identity(ut.size)], m)) for i, m in enumerate(moves)]
    got = ordinary_certificate(ut, heckes)
    assert got.to_json_dict() == projector_certificate_oracle(ut, heckes).to_json_dict()
    assert tuple(got.flags.values()) == flags
    assert list(got.hecke_flags.values()) == hecke_flags
    assert got.notes == notes
