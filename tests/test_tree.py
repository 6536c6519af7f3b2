import random

import pytest

from drinfeldforms.cocycles import depth_default
from drinfeldforms.errors import ResourceBoundError
from drinfeldforms.fq import field
from drinfeldforms.groups import group_context, is_gamma1
from drinfeldforms.hecke import HeckeEngine
from drinfeldforms.mat2 import DeferredProduct, Mat2
from drinfeldforms.rings import Poly, RatFunc, Residue, laurent_tail, tail_to_ratfunc
from drinfeldforms.tree import (
    Edge,
    EdgeOrbit,
    QuotientGraph,
    TreeContext,
    Vertex,
    apply_edge,
    apply_vertex,
    classify_edge,
    is_adjacent,
    parabolic_fixed_end,
    reduce_edge,
    reduce_vertex,
    vertex_zero_stabilizer,
)
from oracles import ApartmentStabilizer


def rand_word(fq, rng, steps=6, maxdeg=3):
    m = Mat2.identity_poly(fq)
    for _ in range(steps):
        b = Poly(fq, [rng.randrange(fq.q) for _ in range(rng.randrange(1, maxdeg + 1))])
        m = m * (Mat2.translation(b) if rng.random() < 0.5 else Mat2.j_matrix(fq))
    return m


def test_standard_apartment_action():
    fq = field(2)
    one = Poly.one(fq)
    for i in (1, 2, 3):
        g = Mat2.diag(Poly.t_power(fq, i), one)  # diag(pi^{-i}, 1)
        assert apply_vertex(g, Vertex.standard(0), fq) == Vertex.standard(i)
    j = Mat2.j_matrix(fq)
    je0 = apply_edge(j, Edge.standard(0), fq)
    assert je0.origin == Vertex.standard(0)
    assert je0 == Edge.standard(-1).reverse()
    assert apply_edge(Mat2.diag(Poly.t(fq), one), Edge.standard(0), fq) == Edge.standard(1)


def test_adjacency_and_neighbors():
    fq = field(3)
    v = Vertex.standard(2)
    nbrs = v.neighbors(fq)
    assert len(nbrs) == 4  # q + 1
    assert all(is_adjacent(v, u) for u in nbrs)
    assert len(set(nbrs)) == 4
    child = v.child(2)
    assert child.parent() == v


@pytest.mark.parametrize("q", [2, 3])
def test_action_axiom_randomized(q):
    fq = field(q)
    rng = random.Random(q * 5)
    for _ in range(30):
        g, h = rand_word(fq, rng), rand_word(fq, rng)
        v = apply_vertex(rand_word(fq, rng), Vertex.standard(rng.randrange(4)), fq)
        assert apply_vertex(g * h, v, fq) == apply_vertex(g, apply_vertex(h, v, fq), fq)


def test_singular_matrix_rejected():
    fq = field(2)
    zero, one, t = Poly.zero(fq), Poly.one(fq), Poly.t(fq)
    v = Vertex(2, ((0, 1), (1, 1)))
    for g in (Mat2(zero, zero, zero, zero), Mat2(one, t, one, t)):
        with pytest.raises(ZeroDivisionError):
            apply_vertex(g, Vertex.standard(0), fq)
        with pytest.raises(ZeroDivisionError):
            apply_vertex(g, v, fq)


def apply_vertex_over_k(g, v, fq):
    """The action through K = F_q(t): (g (pi^r, s; 0, 1)) with reduced
    entries, kept as the oracle for the integral apply_vertex."""
    r = v.r
    if r >= 0:
        pir = RatFunc(Poly.one(fq), Poly.t_power(fq, r), reduce=False)
    else:
        pir = RatFunc.from_poly(Poly.t_power(fq, -r))
    m = g.to_k() * Mat2(pir, tail_to_ratfunc(fq, v.tail), RatFunc.zero(fq), RatFunc.one(fq))
    det = m.det()
    if det.is_zero():
        raise ZeroDivisionError("singular matrix acting on the tree")
    vdet = det.v_inf()
    vc, vd = m.c.v_inf(), m.d.v_inf()
    if vc >= vd:
        rp = vdet - 2 * vd
        s = m.b / m.d
    else:
        rp = vdet - 2 * vc
        s = m.a / m.c
    return Vertex(rp, laurent_tail(s, rp))


def rand_vertex(fq, rng):
    """A canonical vertex with a random tail, polynomial part included."""
    r = rng.randrange(-4, 6)
    tail = []
    for e in range(r - rng.randrange(0, 7), r):
        c = rng.randrange(fq.q)
        if c:
            tail.append((e, c))
    return Vertex(r, tail)


def rand_nonzero_poly(fq, rng):
    return Poly(fq, [rng.randrange(fq.q) for _ in range(rng.randrange(0, 3))] + [rng.randrange(1, fq.q)])


@pytest.mark.parametrize("q", [2, 3, 4])
def test_integral_action_matches_k_oracle(q):
    fq = field(q)
    rng = random.Random(q * 31)
    one = Poly.one(fq)
    for _ in range(120):
        v = rand_vertex(fq, rng)
        g = rand_word(fq, rng, steps=rng.randrange(1, 8))
        want = apply_vertex_over_k(g, v, fq)
        assert apply_vertex(g, v, fq) == want
        # a scalar multiple moves no lattice class
        lam = rand_nonzero_poly(fq, rng)
        scaled = Mat2(*(x * lam for x in g.entries()))
        assert apply_vertex(scaled, v, fq) == want
        # diag(t^i, 1)-type matrices, on either side of the word
        i = rng.randrange(0, 4)
        for d in (Mat2.diag(Poly.t_power(fq, i), one), Mat2.diag(one, Poly.t_power(fq, i))):
            for m in (d, d * g, g * d):
                assert apply_vertex(m, v, fq) == apply_vertex_over_k(m, v, fq)


def test_reduce_examples():
    fq = field(2)
    assert reduce_edge(Edge.standard(3), fq)[1:] == (3, 1)
    gamma, i, sign = reduce_edge(Edge.standard(0).reverse(), fq)
    assert (i, sign) == (0, -1)
    e2t = apply_edge(Mat2.translation(Poly.t(fq)), Edge.standard(2), fq)
    assert e2t == Edge.standard(2)  # deg t <= 2 stabilizes e_2
    assert reduce_edge(e2t, fq)[1:] == (2, 1)


def reduce_vertex_laurent_oracle(v, fq):
    """The walk on truncated Laurent tails: the oracle for Euclid's walk.

    Each step kills the terms of exponent <= 0 by a translation, then
    rebuilds -1/s from the remaining tail and expands it again below the
    new r.  Returns (gamma, j, steps).
    """
    gamma = Mat2.identity_poly(fq)
    r, tail = v.r, v.tail
    steps = 0
    while True:
        steps += 1
        poly_part = [(e, c) for e, c in tail if e <= 0]
        if poly_part:
            b = Poly.zero(fq)
            for e, c in poly_part:
                b = b + Poly.constant(fq, c).shift(-e)
            gamma = Mat2(gamma.a - b * gamma.c, gamma.b - b * gamma.d, gamma.c, gamma.d)
            tail = tuple((e, c) for e, c in tail if e > 0)
        if not tail:
            if r <= 0:
                return gamma, -r, steps
            return Mat2(-gamma.c, -gamma.d, gamma.a, gamma.b), r, steps
        s = tail_to_ratfunc(fq, tail)
        r = r - 2 * tail[0][0]
        tail = laurent_tail(RatFunc(-s.den, s.num, reduce=False), r)
        gamma = Mat2(-gamma.c, -gamma.d, gamma.a, gamma.b)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_euclid_reduction_matches_the_laurent_walk(q, monkeypatch):
    fq = field(q)
    rng = random.Random(q * 47)
    divisions = []
    divmod_poly = Poly.__divmod__

    def counting(self, other):
        divisions.append(1)
        return divmod_poly(self, other)

    polynomial_parts = 0
    for step in range(1000):
        v = rand_vertex(fq, rng)
        if step % 2:
            v = apply_vertex(rand_word(fq, rng, steps=rng.randrange(1, 9)), v, fq)
        polynomial_parts += v.r <= 0 and bool(v.tail)
        gamma, j, steps = reduce_vertex_laurent_oracle(v, fq)
        divisions.clear()
        with monkeypatch.context() as m:
            m.setattr(Poly, "__divmod__", counting)
            assert reduce_vertex(v, fq) == (gamma, j)
        # one division per step: the walk stops as soon as the fractional
        # part lies in pi^r O, where the Laurent walk finds an empty tail
        assert len(divisions) == steps
    assert polynomial_parts >= 100


@pytest.mark.parametrize("q", [2, 3])
def test_reduction_terminates_and_is_correct_on_fuzzed_edges(q):
    fq = field(q)
    rng = random.Random(q * 23)
    for _ in range(40):
        g = rand_word(fq, rng, steps=8)
        e = apply_edge(g, Edge.standard(rng.randrange(3)), fq)
        gamma, i, sign = reduce_edge(e, fq)
        assert gamma.det().is_one()
        target = Edge.standard(i) if sign == 1 else Edge.standard(i).reverse()
        assert apply_edge(gamma, e, fq) == target
        gv, j = reduce_vertex(e.origin, fq)
        assert apply_vertex(gv, e.origin, fq) == Vertex.standard(j)


def test_apartment_stabilizer_orders_and_fixing():
    fq = field(2)
    st0 = ApartmentStabilizer(fq, 0)
    assert st0.order == 2  # q(q-1)
    for m in st0.elements():
        assert apply_edge(m, Edge.standard(0), fq) == Edge.standard(0)
    st1 = ApartmentStabilizer(fq, 1)
    assert st1.order == 4
    for m in st1.elements():
        assert apply_edge(m, Edge.standard(1), fq) == Edge.standard(1)
    assert ApartmentStabilizer(field(5), 0).order == 20
    assert len(vertex_zero_stabilizer(field(3))) == 24  # |SL_2(F_3)|
    for m in vertex_zero_stabilizer(fq):
        assert apply_vertex(m, Vertex.standard(0), fq) == Vertex.standard(0)


def test_parabolic_fixed_end():
    fq = field(2)
    one, zero, t = Poly.one(fq), Poly.zero(fq), Poly.t(fq)
    assert parabolic_fixed_end(Mat2(one, t, zero, one)) == "infinity"
    low = Mat2(one, zero, t, one)
    end = parabolic_fixed_end(low)
    assert end != "infinity" and end[0].is_zero()  # fixes 0


@pytest.mark.parametrize("q,n,count", [(2, 1, 1), (2, 2, 4), (2, 3, 16), (3, 1, 1), (3, 2, 9)])
def test_stable_orbit_counts(q, n, count, cache):
    ctx = group_context(q, n)
    graph = QuotientGraph(ctx, depth=2)
    stables = [o for o in graph.edge_orbits.values() if o.stable]
    assert len(stables) == count
    # every stable orbit carries its label and they are exactly the seeds
    assert sorted(o.key for o in stables) == sorted(graph.seed_keys.values())


def test_classify_examples():
    ctx = group_context(2, 1)
    fq = ctx.fq
    graph = QuotientGraph(ctx, depth=3)
    je0 = apply_edge(Mat2.j_matrix(fq), Edge.standard(0), fq)
    cls = classify_edge(ctx, je0, graph)
    assert cls.stable and cls.sign == 1 and cls.label is not None
    assert is_gamma1(cls.witness, 1)
    # a random Gamma_1(t^n) translate stays in the same labeled orbit
    gamma = Mat2.translation(Poly.t(fq))
    cls2 = classify_edge(ctx, apply_edge(gamma, je0, fq), graph)
    assert cls2.stable and cls2.label == cls.label and cls2.sign == 1
    cls3 = classify_edge(ctx, Edge.standard(1), graph)
    assert not cls3.stable and cls3.apartment_index == 1 and cls3.cusp_end == "infinity"
    # reversal flips the sign, keeps the orbit data
    cls4 = classify_edge(ctx, Edge.standard(1).reverse(), graph)
    assert not cls4.stable and cls4.apartment_index == 1 and cls4.sign == -1
    # the zero-direction ray points at the rational end 0
    f1 = apply_edge(Mat2.j_matrix(fq), Edge.standard(1), fq)
    cls5 = classify_edge(ctx, f1, graph)
    assert not cls5.stable and cls5.cusp_end != "infinity" and cls5.cusp_end[0].is_zero()


def test_vertex_orbit_stabilizer_orders():
    ctx = group_context(2, 1)
    graph = QuotientGraph(ctx, depth=3)
    # the orbit of v_1 for Gamma_1(t): stabilizer of order q^2 containing (1, bt; 0, 1)
    key, j, w = graph.tree.reduce_vertex(Vertex.standard(1))
    vorbit = graph.vertex_orbits[key]
    assert vorbit.j == 1
    assert vorbit.stab_order == 4
    passing, kernel = graph.tree.vertex_stab_elements(vorbit.w0, vorbit.j)
    gens = passing + [
        vorbit.w0 * Mat2.translation(Poly.t_power(ctx.fq, ctx.n + deg)) * vorbit.w0.inverse_unimodular()
        for deg in kernel
    ]
    assert any(
        g.a.is_one() and g.d.is_one() and g.c.is_zero() and g.b == Poly.t(ctx.fq).scale(lam)
        for g in gens
        for lam in ctx.fq.nonzero()
    )
    # brute-force oracle: elements (a, b; 0, a^{-1}) with deg b <= 1 in Gamma_1(t)
    count = 1
    for m in ApartmentStabilizer(ctx.fq, 1).elements():
        if is_gamma1(m, 1) and not (m.a.is_one() and m.b.is_zero() and m.d.is_one()):
            count += 1
    assert count == vorbit.stab_order


def test_edge_orbit_signs_never_collide():
    # an orbit never contains an edge and its reversal (parity of r)
    ctx = group_context(2, 2)
    graph = QuotientGraph(ctx, depth=3)
    for orbit in graph.edge_orbits.values():
        _, key, sign, _ = graph.classify(orbit.rep)
        _, key_r, sign_r, _ = graph.classify(orbit.rep.reverse())
        assert key == key_r and sign == 1 and sign_r == -1


def test_graph_json_and_dot_exports():
    ctx = group_context(2, 2)
    graph = QuotientGraph(ctx, depth=3)
    data = graph.to_json_dict()
    assert data["q"] == 2 and data["n"] == 2
    assert len(data["edge_orbits"]) == len(graph.edge_orbits)
    stables = [e for e in data["edge_orbits"] if e["stable"]]
    assert len(stables) == 4 and all(e["label"] is not None for e in stables)
    dot = graph.to_dot()
    assert dot.count("color=red") == 4


def test_resource_bound():
    ctx = group_context(2, 2)
    with pytest.raises(ResourceBoundError):
        QuotientGraph(ctx, depth=3, max_orbits=3)


@pytest.mark.parametrize("q,n", [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2), (2, 3)])
def test_extended_graph_equals_a_fresh_build(q, n):
    ctx = group_context(q, n)
    depth = depth_default(n, 2)
    graph = QuotientGraph(ctx, depth)
    before = graph.to_json_dict()
    grown = graph.extended()
    fresh = QuotientGraph(ctx, depth + 1)
    assert grown.depth == depth + 1
    assert grown.to_json_dict() == fresh.to_json_dict()
    for table in ("edge_orbits", "vertex_orbits"):
        got, want = getattr(grown, table), getattr(fresh, table)
        assert all(got[key].rep == want[key].rep for key in want)
    # the depth-D table is left as it was
    assert graph.to_json_dict() == before
    # the count-only stabilizer order against the enumerated elements
    for vorbit in grown.vertex_orbits.values():
        passing, kernel = grown.tree.vertex_stab_elements(vorbit.w0, vorbit.j)
        assert vorbit.stab_order == (len(passing) + 1) * q ** len(kernel)


def test_extension_respects_the_orbit_bound():
    graph = QuotientGraph(group_context(2, 2), depth=7, max_orbits=40)
    assert len(graph.edge_orbits) == 39
    with pytest.raises(ResourceBoundError):
        graph.extended()  # the depth-8 shell brings the table to 44


def _is_identity(m):
    return m.a.is_one() and m.b.is_zero() and m.c.is_zero() and m.d.is_one()


def sbar_oracle(fq, i, level):
    """The enumerated classes mod t^level of the apartment stabilizer S_i,
    as (sigma_bar, lift) in the order of ApartmentStabilizer.elements():
    kept as the oracle for the closed forms of the tree layer."""
    cap = min(i, level - 1)
    got = _SBAR.get((fq.q, cap, level))
    if got is None:
        got = [(m.mod_tn(level), m) for m in ApartmentStabilizer(fq, cap).elements()]
        _SBAR[(fq.q, cap, level)] = got
    return got


_SBAR = {}


def row_times(wbar, sb):
    """Bottom row of wbar * sb as coefficient tuples."""
    c = wbar.c * sb.a + wbar.d * sb.c
    d = wbar.c * sb.b + wbar.d * sb.d
    return (c.poly.coeffs, d.poly.coeffs)


def scan_oracle(tree, w, classes):
    """(least translate, passing lifts) of w's bottom row mod t^n over an
    enumerated class list: the least right translate the keys took, and the
    nontrivial classes keeping the row (the old _passing_lifts), kept as
    the oracle for the normal form and the closed-form stabilizer classes."""
    wbar = w.mod_tn(tree.n)
    own = (wbar.c.poly.coeffs, wbar.d.poly.coeffs)
    rows = [row_times(wbar, sb) for sb, _ in classes]
    passing = [lift for (_, lift), row in zip(classes, rows) if row == own and not _is_identity(lift)]
    return min(rows), passing


def witness_oracle(tree, w, orbit):
    """w * lift * w0^-1 for the first class of the S_i scan taking w's row
    to w0's: kept as the oracle for the closed-form witness lift."""
    wbar = w.mod_tn(tree.n)
    w0bar = orbit.w0.mod_tn(tree.n)
    target = (w0bar.c.poly.coeffs, w0bar.d.poly.coeffs)
    for sb, lift in sbar_oracle(tree.fq, orbit.i, tree.n):
        if row_times(wbar, sb) == target:
            return w * lift * orbit.w0_inv
    raise AssertionError("witness search failed")


def passing_lifts_oracle(tree, w, classes):
    """The full conjugate wbar sigma_bar wbar^{-1} over A_n, tested entry by
    entry: kept as the oracle for the bottom-row test of the stabilizer classes."""
    one = Residue.one(tree.fq, tree.n)
    wbar = w.mod_tn(tree.n)
    wbar_inv = Mat2(wbar.d, -wbar.b, -wbar.c, wbar.a)  # adjugate = inverse
    out = []
    for sb, lift in classes:
        m = wbar * sb * wbar_inv
        if (m.a - one).is_zero() and m.c.is_zero() and (m.d - one).is_zero() and not _is_identity(lift):
            out.append(lift)
    return out


def stable_oracle(fq, orbit):
    """Gamma_1(t)-stability by conjugating each nontrivial constant
    (a, b; 0, a^{-1}) mod t: kept as the oracle for the level-1 row test."""
    if orbit.i != 0:
        return False
    one, zero = Residue.one(fq, 1), Residue.zero(fq, 1)
    wbar1 = orbit.w0.mod_tn(1)
    wbar1_inv = Mat2(wbar1.d, -wbar1.b, -wbar1.c, wbar1.a)
    for a in fq.nonzero():
        ap = Residue(1, Poly.constant(fq, a))
        ainv = Residue(1, Poly.constant(fq, fq.inv(a)))
        for b in fq.elements():
            if a == 1 and b == 0:
                continue
            sigma = Mat2(ap, Residue(1, Poly.constant(fq, b)), zero, ainv)
            conj = wbar1 * sigma * wbar1_inv
            if (conj.a - one).is_zero() and conj.c.is_zero() and (conj.d - one).is_zero():
                return False
    return True


ORACLE_GRID = [(q, n) for q in (2, 3, 4, 5) for n in (1, 2, 3)]


@pytest.mark.parametrize("q,n", ORACLE_GRID)
def test_row_test_matches_the_full_conjugate(q, n):
    ctx = group_context(q, n)
    tree = TreeContext(ctx)
    rng = random.Random(q * 100 + n)
    words = [rand_word(ctx.fq, rng) for _ in range(6)]
    # words with a stabilizer: h_{(c,d)} J and its conjugates by constants
    words += [ctx.h_matrix(c, d) * Mat2.j_matrix(ctx.fq) for c, d in ctx.label_pairs()[:3]]
    words += [m * Mat2.j_matrix(ctx.fq) for _, m in tree.sl2fq()[:4]]
    nonempty = 0
    for w in words:
        for i in range(n + 1):
            got = tree._stab_lifts(w.c, i, n)
            assert got == passing_lifts_oracle(tree, w, sbar_oracle(ctx.fq, i, n))
            nonempty += bool(got)
        got = tree._passing_lifts(w.mod_tn(n))
        assert got == passing_lifts_oracle(tree, w, tree.sl2fq())
        nonempty += bool(got)
    assert nonempty  # the comparison reaches passing classes


@pytest.mark.parametrize("q,n", ORACLE_GRID)
def test_stability_matches_the_mod_t_oracle_on_graphs(q, n):
    graph = QuotientGraph(group_context(q, n), depth=2)
    orbits = list(graph.edge_orbits.values())
    assert all(o.stable == stable_oracle(graph.ctx.fq, o) for o in orbits)
    assert any(o.i == 0 and not o.stable for o in orbits)


@pytest.mark.parametrize("q,n", ORACLE_GRID)
def test_stability_matches_the_mod_t_oracle_on_random_orbits(q, n):
    ctx = group_context(q, n)
    fq = ctx.fq
    tree = TreeContext(ctx)
    rng = random.Random(q * 17 + n)
    seen = set()
    for _ in range(40):
        w = rand_word(fq, rng)
        i = rng.choice((0, 0, 0, 1))
        orbit = EdgeOrbit(None, i, w, None, None)
        tree.edge_stabilizer(orbit)
        assert orbit.stable == stable_oracle(fq, orbit)
        seen.add(orbit.stable)
    assert seen == {True, False}


# every (q, n) with q^n <= 800, n <= 4, over prime and non-prime fields
CLOSED_FORM_GRID = [
    (q, n) for q in (2, 3, 4, 5, 7, 8, 9) for n in (1, 2, 3, 4) if q ** n <= 800
]


def rand_gamma1(fq, n, rng):
    """A random element of Gamma_1(t^n): it moves no bottom row mod t^n."""
    m = Mat2.identity_poly(fq)
    for _ in range(3):
        b = Poly(fq, [rng.randrange(fq.q) for _ in range(rng.randrange(1, 3))])
        if rng.random() < 0.5:
            m = m * Mat2.translation(b)
        else:
            m = m * Mat2(Poly.one(fq), Poly.zero(fq), b.shift(n), Poly.one(fq))
    return m


def rand_sigma(fq, i, rng):
    """A random element (a, b; 0, a^-1) of S_i."""
    a = rng.randrange(1, fq.q)
    b = Poly(fq, [rng.randrange(fq.q) for _ in range(rng.randrange(0, i + 2))])
    return Mat2(Poly.constant(fq, a), b, Poly.zero(fq), Poly.constant(fq, fq.inv(a)))


def closed_form_words(fq, n, rng):
    """Random words, and (1, 0; t^k x, 1)(a, b; 0, a^-1) with v_t(c) >= k for
    every k <= n, so c = 0 mod t^n and every partial valuation occur."""
    words = [rand_word(fq, rng) for _ in range(2)]
    for k in range(n + 1):
        x = Poly(fq, [rng.randrange(1, fq.q)] + [rng.randrange(fq.q) for _ in range(rng.randrange(2))])
        low = Mat2(Poly.one(fq), Poly.zero(fq), x.shift(k), Poly.one(fq))
        words.append(rand_gamma1(fq, n, rng) * low * rand_sigma(fq, n, rng))
    return words


@pytest.mark.parametrize("q,n", CLOSED_FORM_GRID)
def test_closed_forms_match_the_scans(q, n):
    ctx = group_context(q, n)
    fq = ctx.fq
    tree = TreeContext(ctx)
    rng = random.Random(q * 1000 + n)
    words = closed_form_words(fq, n, rng)
    zero_rows = with_stabilizer = 0
    for w in words:
        zero_rows += w.c.truncate(n).is_zero()
        # keys: the normal form is the least translate, j = 0 included
        assert tree.vertex_key(w, 0) == (0, scan_oracle(tree, w, tree.sl2fq())[0])
        # i >= n - 1 all cap deg b at n - 1
        for i in range(n):
            least, passing = scan_oracle(tree, w, sbar_oracle(fq, i, n))
            assert tree._normal_form(w.c.coeffs, w.d.coeffs, i)[0] == least
            if i:
                assert tree.vertex_key(w, i) == (i, least)
            # stabilizer classes, order included
            lifts = tree._stab_lifts(w.c, i, n)
            assert lifts == passing
            with_stabilizer += bool(lifts)
        # witness: an orbit from w, and an edge w' = gamma w sigma in it
        i = rng.randrange(n + 1)
        orbit = EdgeOrbit(None, i, w, None, None)
        tree.edge_stabilizer(orbit)
        w2 = rand_gamma1(fq, n, rng) * w * rand_sigma(fq, i, rng)
        nf = tree._normal_form(w2.c.coeffs, w2.d.coeffs, i)
        assert nf[0] == orbit.nf[0]
        delta = tree.edge_witness(w2, nf, orbit)
        assert delta == witness_oracle(tree, w2, orbit)
        assert is_gamma1(delta, n)
    assert zero_rows and with_stabilizer


def test_witness_rejects_an_edge_of_another_orbit():
    ctx = group_context(3, 2)
    tree = TreeContext(ctx)
    fq = ctx.fq
    w = Mat2.identity_poly(fq)
    orbit = EdgeOrbit(None, 0, Mat2.j_matrix(fq), None, None)
    tree.edge_stabilizer(orbit)
    nf = tree._normal_form(w.c.coeffs, w.d.coeffs, 0)
    with pytest.raises(AssertionError, match="witness search failed"):
        tree.edge_witness(w, nf, orbit)


def test_deferred_product_multiplies_on_first_read():
    fq = field(3)
    rng = random.Random(5)
    factors = [rand_word(fq, rng) for _ in range(3)]
    m = DeferredProduct(*factors)
    assert isinstance(m, Mat2)
    assert m == factors[0] * factors[1] * factors[2]
    assert m.det().is_one() and m.factors == tuple(factors)
    with pytest.raises(AttributeError):
        m.nonexistent


def test_weight3_reads_the_witnesses_of_the_scan(cache, monkeypatch):
    # weight 3 reads every witness it transports through; q = 3 gives lifts
    # with a != 1
    space = cache.space(3, 2, 3)
    tree = space.graph.tree
    made = []
    witness = TreeContext.edge_witness

    def recording(self, w, nf, orbit):
        delta = witness(self, w, nf, orbit)
        made.append((w, orbit, delta))
        return delta

    monkeypatch.setattr(TreeContext, "edge_witness", recording)
    HeckeEngine(space).u_t()
    assert made
    assert any(delta.factors[1].a.coeffs != (1,) for _, _, delta in made)
    for w, orbit, delta in made:
        assert isinstance(delta, DeferredProduct)
        assert delta == witness_oracle(tree, w, orbit)
