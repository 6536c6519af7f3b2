import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeldforms import tree as tree_module
from drinfeldforms.cocycles import depth_default
from drinfeldforms.errors import ResourceBoundError
from drinfeldforms.fq import field
from drinfeldforms.groups import group_context, is_gamma1
from drinfeldforms.hecke import HeckeEngine
from drinfeldforms.mat2 import Deferred, Mat2, _replay
from drinfeldforms.rings import Poly, RatFunc, int_add, packed
from drinfeldforms.tree import (
    Edge,
    EdgeOrbit,
    QuotientGraph,
    TreeContext,
    Vertex,
    VertexOrbit,
    apply_edge,
    apply_vertex,
    _lattice,
    _reduce_image,
    _tail,
    reduce_edge,
)
from oracles import (
    ApartmentStabilizer,
    RingMat2,
    TupleVertex,
    apply_edge_two_acts,
    classify_image_oracle,
    edge_stab_generators,
    edge_witness_product,
    identity_poly,
    kernel_lifts,
    laurent_tail,
    literal_edge_replay,
    mod_tn,
    passing_lifts,
    reduce_edge_oracle,
    reduce_edge_replay,
    reduce_vertex,
    reduce_vertex_oracle,
    reduce_vertex_replay,
    replay_inverse,
    sl2fq_classes,
    stab_lifts,
    star_sigma,
    tail_to_ratfunc,
    to_k,
    tuple_tail,
    v_inf,
    vertex_of_tail,
    vertex_stab_elements,
    vertex_tail,
    vertex_zero_stabilizer,
)


def packed_entries(g):
    """The entries of a Mat2 over A as packed ints, as the tree walk takes them."""
    return tuple(x.x for x in g.entries())


def rand_word(fq, rng, steps=6, maxdeg=3):
    m = identity_poly(fq)
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
    assert all(u.parent() == v or v.parent() == u for u in nbrs)
    assert len(set(nbrs)) == 4
    child = v.child(2)
    assert child.parent() == v


def _draw_tuple_vertex(data, fq):
    """A canonical TupleVertex with up to 9 terms below pi^r, polynomial parts (exponents <= 0) included."""
    r = data.draw(st.integers(-6, 8))
    codes = data.draw(st.lists(st.integers(0, fq.q - 1), max_size=9))
    return TupleVertex(r, tuple((e, c) for e, c in zip(range(r - len(codes), r), codes) if c))


def _draw_packed_poly(data, fq, nonzero=False):
    low = data.draw(st.lists(st.integers(0, fq.q - 1), max_size=5))
    top = [data.draw(st.integers(1, fq.q - 1))] if nonzero else []
    return Poly(fq, low + top).x


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_packed_vertex_matches_the_tuple_tail_oracle(data):
    # the packed tail against the tuple of (exponent, code) pairs: the
    # neighbors, equality and hashing, the lattice matrix and the tail read
    # off one division
    fq = field(data.draw(st.sampled_from([2, 3, 4, 5, 9])))
    tv = _draw_tuple_vertex(data, fq)
    v = tv.packed()
    assert TupleVertex.of(v) == tv
    assert TupleVertex.of(v.parent()) == tv.parent()
    code = data.draw(st.integers(0, fq.q - 1))
    assert TupleVertex.of(v.child(code)) == tv.child(code)
    assert v.child(code).parent() == v
    assert v.apartment_index() == tv.apartment_index()
    assert _lattice(v) == tv.lattice()
    nbrs, tnbrs = v.neighbors(fq), tv.neighbors(fq)
    assert [TupleVertex.of(u) for u in nbrs] == tnbrs
    # v is exactly one neighbor of each neighbor, with v's hash
    for u, tu in zip(nbrs, tnbrs):
        assert [x == v for x in u.neighbors(fq)] == [x == tv for x in tu.neighbors(fq)]
        assert {hash(x) for x in u.neighbors(fq) if x == v} == {hash(v)}
    assert len(set(nbrs)) == len(set(tnbrs)) == fq.q + 1
    tw = _draw_tuple_vertex(data, fq)
    assert (tw.packed() == v) == (tw == tv)
    num, den = _draw_packed_poly(data, fq), _draw_packed_poly(data, fq, nonzero=True)
    r = data.draw(st.integers(-6, 8))
    assert TupleVertex.of(Vertex(r, _tail(num, den, r, fq))) == TupleVertex(r, tuple_tail(fq, num, den, r))


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
    v = vertex_of_tail(2, ((0, 1), (1, 1)))
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
    m = to_k(g) * RingMat2(pir, tail_to_ratfunc(fq, vertex_tail(v)), RatFunc.zero(fq), RatFunc.one(fq))
    det = m.det()
    if det.is_zero():
        raise ZeroDivisionError("singular matrix acting on the tree")
    vdet = v_inf(det)
    vc, vd = v_inf(m.c), v_inf(m.d)
    if vc >= vd:
        rp = vdet - 2 * vd
        s = m.b / m.d
    else:
        rp = vdet - 2 * vc
        s = m.a / m.c
    return vertex_of_tail(rp, laurent_tail(s, rp))


def rand_vertex(fq, rng):
    """A canonical vertex with a random tail, polynomial part included."""
    r = rng.randrange(-4, 6)
    tail = []
    for e in range(r - rng.randrange(0, 7), r):
        c = rng.randrange(fq.q)
        if c:
            tail.append((e, c))
    return vertex_of_tail(r, tail)


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
    gamma = identity_poly(fq)
    r, tail = v.r, vertex_tail(v)
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
    divmod_packed = tree_module.int_divmod

    def counting(field_, x, y):
        divisions.append(1)
        return divmod_packed(field_, x, y)

    polynomial_parts = 0
    for step in range(1000):
        v = rand_vertex(fq, rng)
        if step % 2:
            v = apply_vertex(rand_word(fq, rng, steps=rng.randrange(1, 9)), v, fq)
        polynomial_parts += v.r <= 0 and bool(v.s)
        gamma, j, steps = reduce_vertex_laurent_oracle(v, fq)
        divisions.clear()
        with monkeypatch.context() as m:
            m.setattr(tree_module, "int_divmod", counting)
            assert reduce_vertex(v, fq) == (gamma, j)
        # one division per step: the walk stops as soon as the fractional
        # part lies in pi^r O, where the Laurent walk finds an empty tail
        assert len(divisions) == steps
    assert polynomial_parts >= 100


def oracle_edge_key(tree, e):
    """(key, i, sign) of a literal edge from the tail-fraction oracle: its
    reduction gamma(e) = sign * e_i, keyed by the row of gamma^-1."""
    gamma, i, sign = reduce_edge_oracle(e, tree.fq)
    return (i, tree._normal_form(*tree._row(gamma.adjugate()), i)[0]), i, sign


def oracle_vertex_key(tree, v):
    """(key, j) of a literal vertex from the tail-fraction oracle."""
    gamma, j = reduce_vertex_oracle(v, tree.fq)
    return tree.vertex_key(*tree._row(gamma.adjugate()), j), j


@pytest.mark.parametrize("q,n", [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2), (2, 3), (9, 1)])
def test_graph_reductions_match_the_tail_fraction_oracle(q, n):
    # every star a graph build keys, at the depth the graph tests extend
    # to: the edges sign * (w sigma)(e_i) are exactly the literal edges into
    # w(v_j), and the literal oracle reduces each to the key, index and
    # sign read off the row
    ctx = group_context(q, n)
    fq = ctx.fq
    graph = QuotientGraph(ctx, depth_default(n, 2) + 1)
    tree = graph.tree
    assert {vorbit.j for vorbit in graph.vertex_orbits.values()} >= {0, 1, n + 1}
    for vorbit in graph.vertex_orbits.values():
        w, j = vorbit.w0, vorbit.j
        v = apply_vertex(w, Vertex.standard(j), fq)
        edges = []
        for key, i, sign, x, _ in vorbit.star:
            sigma, i_table, sign_table = star_sigma(fq, j, x)
            assert (i, sign) == (i_table, sign_table)
            e = apply_edge(w * sigma, Edge.standard(i), fq)
            e = e if sign == 1 else e.reverse()
            assert oracle_edge_key(tree, e) == (key, i, sign)
            edges.append(e)
        assert len(edges) == q + 1
        assert set(edges) == {Edge(u, v) for u in v.neighbors(fq)}


@pytest.mark.parametrize("q,n", [(q, n) for q in (2, 3, 4, 5, 8, 9) for n in (1, 2, 3)])
def test_reductions_match_the_tail_fraction_oracle_on_random_words(q, n):
    # gamma w with gamma in Gamma_1(t^n) and w a random word, on e_i and on
    # each of its vertices; the matrix route also with non-unimodular
    # scalar and diag(t^k, 1) factors
    fq = field(q)
    rng = random.Random(q * 53 + n)
    one = Poly.one(fq)
    for _ in range(40):
        g = rand_gamma1(fq, n, rng) * rand_word(fq, rng, steps=rng.randrange(1, 8))
        i = rng.randrange(4)
        e = apply_edge(g, Edge.standard(i), fq)
        want = reduce_edge_oracle(e, fq)
        assert reduce_edge(e, fq) == want
        assert reduce_edge(e.reverse(), fq) == reduce_edge_oracle(e.reverse(), fq)
        ops, *got = _reduce_image(packed_entries(g), i, g.det().degree, fq)
        assert (_replay(fq, ops, False), *got[:2]) == want
        # h is gamma g, and takes e_i to sign * e_j
        assert got[2] == packed_entries(want[0] * g)
        assert apply_edge(Mat2(*(packed(fq, x) for x in got[2])), Edge.standard(i), fq) == (
            Edge.standard(got[0]) if got[1] == 1 else Edge.standard(got[0]).reverse()
        )
        # each replay, of gamma or of the witness gamma^-1, starts afresh
        assert _replay(fq, ops, True) == want[0].adjugate()
        for v in (e.origin, e.terminus):
            gamma, j = reduce_vertex(v, fq)
            want_v = reduce_vertex_oracle(v, fq)
            assert (gamma.adjugate(), j) == (want_v[0].adjugate(), want_v[1])
            assert (gamma, j) == want_v
        lam = rand_nonzero_poly(fq, rng)
        k = rng.randrange(3)
        scaled = Mat2(*(x * lam for x in g.entries())) * Mat2.diag(Poly.t_power(fq, k), one)
        e = apply_edge(scaled, Edge.standard(i), fq)
        ops, *got = _reduce_image(packed_entries(scaled), i, scaled.det().degree, fq)
        gamma = _replay(fq, ops, False)
        assert (gamma, *got[:2]) == reduce_edge_oracle(e, fq)
        assert got[2] == packed_entries(gamma * scaled)


@pytest.mark.parametrize("q,n", [(q, n) for q in (2, 3, 4, 5, 9) for n in (1, 2, 3)])
def test_literal_edges_match_the_two_act_and_replay_oracles(q, n):
    # apply_edge's one tail step against both endpoints acted on in full;
    # gamma, gamma^-1 and the key rows read off Euclid's last matrix against
    # the replayed row operations; and the fused witness against w * lift *
    # w0^-1 multiplied out.  Words move the standard edges, and Gamma_1(t^n)
    # elements the orbit representatives, whose images keep their orbit
    ctx = group_context(q, n)
    fq = ctx.fq
    graph = QuotientGraph(ctx, 2)
    tree = graph.tree
    orbits = sorted(graph.edge_orbits.values(), key=lambda o: o.key)
    rng = random.Random(q * 71 + n)
    scaled = 0
    for _ in range(20):
        orbit = orbits[rng.randrange(len(orbits))]
        moves = [
            (rand_word(fq, rng, steps=rng.randrange(1, 8)), Edge.standard(rng.randrange(4))),
            (rand_gamma1(fq, n, rng), orbit.rep),
        ]
        for g, e in moves:
            image = apply_edge(g, e, fq)
            assert image == apply_edge_two_acts(g, e, fq)
            assert apply_edge(g, e.reverse(), fq) == image.reverse()
            for f in (image, image.reverse()):
                gamma, i, sign = reduce_edge(f, fq)
                want = reduce_edge_replay(f, fq)
                assert (i, sign) == want[1:]
                assert gamma == want[0] and gamma.adjugate() == replay_inverse(want[0])
                got, want = tree.reduce_edge(f), literal_edge_replay(tree, f)
                assert got[:3] == want[:3] and got[4] == want[4] and got[3] == want[3]
            for v in (image.origin, image.terminus):
                gamma, j = reduce_vertex(v, fq)
                want = reduce_vertex_replay(v, fq)
                assert (gamma, j) == want and gamma.adjugate() == replay_inverse(want[0])
            classified, _, _, delta = graph.classify(image)
            if classified is not None:
                w, nf, _ = delta.args
                assert delta == edge_witness_product(tree, w, nf, classified)
                scaled += nf[1] != classified.nf[1]
        assert graph.classify(image)[::2] == (orbit, 1)
        # and on a w whose row is w0's moved by a random element of S_i
        w = rand_gamma1(fq, n, rng) * orbit.w0 * rand_sigma(fq, orbit.i, rng)
        nf = tree._normal_form(*tree._row(w), orbit.i)
        assert tree.edge_witness(w, nf, orbit) == edge_witness_product(tree, w, nf, orbit)
        scaled += nf[1] != orbit.nf[1]
    assert scaled or q == 2


def test_apply_edge_rejects_non_adjacent_endpoints():
    fq = field(3)
    with pytest.raises(AssertionError, match="non-adjacent edge endpoints"):
        apply_edge(Mat2.j_matrix(fq), Edge(Vertex.standard(0), Vertex.standard(2)), fq)


def test_reduce_edge_rejects_non_adjacent_endpoints():
    fq = field(3)
    for e in (
        Edge(Vertex.standard(0), Vertex.standard(2)),
        Edge(Vertex.standard(1), vertex_of_tail(0, ((-2, 1),))),
    ):
        with pytest.raises(AssertionError, match="non-adjacent"):
            reduce_edge(e, fq)


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
    orbit, _, sign, delta = graph.classify(je0)
    assert orbit.stable and sign == 1 and orbit.label is not None
    assert is_gamma1(delta, 1)
    # a Gamma_1(t^n) translate stays in the same labeled orbit
    gamma = Mat2.translation(Poly.t(fq))
    assert graph.classify(apply_edge(gamma, je0, fq))[::2] == (orbit, 1)
    unstable, key, sign, _ = graph.classify(Edge.standard(1))
    assert not unstable.stable and unstable.i == 1
    # reversal flips the sign, keeps the orbit
    assert graph.classify(Edge.standard(1).reverse())[:3] == (unstable, key, -sign)


def test_vertex_orbit_stabilizer_orders():
    ctx = group_context(2, 1)
    graph = QuotientGraph(ctx, depth=3)
    # the orbit of v_1 for Gamma_1(t): stabilizer of order q^2 containing (1, bt; 0, 1)
    key, j = oracle_vertex_key(graph.tree, Vertex.standard(1))
    vorbit = graph.vertex_orbits[key]
    assert vorbit.j == 1
    assert vorbit.stab_order == 4
    passing, kernel = vertex_stab_elements(graph.tree, vorbit.w0, vorbit.j)
    gens = passing + kernel
    assert all(is_gamma1(g, ctx.n) and apply_vertex(g, vorbit.rep, ctx.fq) == vorbit.rep for g in gens)
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
        passing, kernel = vertex_stab_elements(grown.tree, vorbit.w0, vorbit.j)
        assert vorbit.stab_order == (len(passing) + 1) * q ** len(kernel)


@pytest.mark.parametrize(
    "q,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1), (5, 2), (7, 1), (7, 2)]
)
def test_representatives_are_w0_of_the_standard_edge_and_vertex(q, n):
    # a representative is w0(e_i) or w0(v_j), formed when first read; the
    # literal oracle reduces it back to its orbit's key and index, with sign +1
    ctx = group_context(q, n)
    graph = QuotientGraph(ctx, 2)
    for table in (graph, graph.extended()):
        for orbit in table.edge_orbits.values():
            assert oracle_edge_key(table.tree, orbit.rep) == (orbit.key, orbit.i, 1)
        for vorbit in table.vertex_orbits.values():
            assert oracle_vertex_key(table.tree, vorbit.rep) == (vorbit.key, vorbit.j)


def _build_depth_1(ctx):
    QuotientGraph(ctx, depth=1)


def _register_beyond_the_table(ctx):
    # a literal edge off a depth-1 table, registered as the orbit of its own reduction
    tree = QuotientGraph(ctx, depth=1).tree
    key, i, _, w, _ = tree.reduce_edge(Edge.standard(5))
    tree.edge_orbit(key, i, w, None)


@pytest.mark.parametrize(
    "side,run",
    [
        ("_lattice_row", _register_beyond_the_table),
        ("_row", _build_depth_1),
        ("_star_rows", _build_depth_1),
    ],
    ids=["_lattice_row", "_row", "_star_rows"],
)
def test_registration_checks_the_key_against_the_representative_row(monkeypatch, side, run):
    # a build reads each key off the star's row arithmetic mod t^n, and a
    # literal classification off Euclid's last matrix h = gamma M_v mod t^n,
    # while the orbit's normal form comes from the row of all of w0;
    # corrupting any of them is caught once per new orbit, before any
    # witness is read
    ctx = group_context(2, 2)
    run(ctx)  # the uncorrupted run passes
    real = getattr(TreeContext, side)

    def corrupted(self, *args):
        # (c, d) -> (c + d, d) on the one row, or on every row of a star
        got = real(self, *args)
        rows = [(int_add(self.fq, c, d), d) for c, d in (got if side == "_star_rows" else [got])]
        return rows if side == "_star_rows" else rows[0]

    monkeypatch.setattr(TreeContext, side, corrupted)
    with pytest.raises(AssertionError, match="disagrees with its representative's row"):
        run(ctx)


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 1), (2, 3)])
def test_every_non_seed_orbit_is_one_star_step_from_its_parent(q, n):
    # w0 = parent.w0 sigma for the recorded star step, from a vertex of the
    # parent's representative, in the table and in its extension, whose
    # first new shell starts from vertex orbits registered in the last
    # shell of the table; U_t's images of the whole extension reduced from
    # their parents' have the key and sign of the walk from xi w0
    ctx = group_context(q, n)
    graph = QuotientGraph(ctx, depth_default(n, 2))
    table = graph.extended()
    seeds = set(graph.seed_keys.values())
    for orbit in table.edge_orbits.values():
        if orbit.parent is None:
            assert orbit.depth == 0 and orbit.key in seeds
            continue
        parent, (j, x) = orbit.parent, orbit.sigma
        assert table.edge_orbits[parent.key] is parent and parent.depth < orbit.depth
        assert j in (parent.i, parent.i + 1)
        sigma, i, _ = star_sigma(ctx.fq, j, x)
        assert i == orbit.i and orbit.w0 == parent.w0 * sigma
    assert {o.depth for o in table.edge_orbits.values()} == set(range(graph.depth + 2))
    keys = list(table.edge_orbits)
    transports = [ctx.xi_beta(ctx.t, Poly.constant(ctx.fq, b)) for b in ctx.fq.elements()]
    for xi, got in zip(transports, table.classify_images(transports, keys)):
        want = [classify_image_oracle(table, xi, table.edge_orbits[key]) for key in keys]
        assert [g[:3] for g in got] == [w[:3] for w in want]


def test_a_graph_build_forms_no_literal_edge_or_vertex(monkeypatch):
    # seeds, shells, extended() and the interior listings run in group
    # coordinates: no tree action, no literal reduction and no Euclid walk;
    # the one Mat2 product is each seed's h J, as a new orbit's w0 is its
    # parent's w0 stepped row by row
    def forbidden(*args):
        raise AssertionError("a graph build acted on or reduced a literal edge or vertex")

    for name in ("apply_edge", "apply_vertex", "reduce_edge", "_euclid"):
        monkeypatch.setattr(tree_module, name, forbidden)
    products, mul = [], Mat2.__mul__

    def counting_mul(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(Mat2, "__mul__", counting_mul)
    for q, n in [(2, 2), (3, 2), (4, 1), (2, 3), (9, 1)]:
        products.clear()
        graph = QuotientGraph(group_context(q, n), depth_default(n, 2))
        assert graph.interior_vertex_orbits()
        assert graph.extended().interior_vertex_orbits()
        assert len(products) == len(graph.seed_keys)


class _Unread:
    def __get__(self, obj, cls=None):
        raise AssertionError("a representative was read")


def test_graph_export_reads_no_representative(monkeypatch):
    # the endpoint keys of an edge orbit are the vertex keys of w0's row
    # at i and i + 1, so neither export forms a literal edge or vertex
    graph = QuotientGraph(group_context(3, 2), 4)
    monkeypatch.setattr(EdgeOrbit, "rep", _Unread())
    monkeypatch.setattr(VertexOrbit, "rep", _Unread())
    data = graph.to_json_dict()
    graph.to_dot()
    assert len(data["edge_orbits"]) == len(graph.edge_orbits)


# the (q, n, depth) of the graph goldens
GOLDEN_GRAPHS = [(2, 2, 5), (3, 2, 5), (4, 1, 5), (5, 2, 4), (3, 3, 3), (2, 4, 6), (4, 2, 5), (9, 2, 3)]


@pytest.mark.parametrize("q,n,depth", GOLDEN_GRAPHS)
def test_stabilizer_counts_match_the_lists(q, n, depth):
    # the closed-form orders and stability against the enumerated lists
    # of class lifts and kernel lifts; one F_p-generator per factor p of
    # the order
    graph = QuotientGraph(group_context(q, n), depth)
    tree, fq = graph.tree, graph.ctx.fq
    for orbit in graph.edge_orbits.values():
        c, i = orbit.w0.c, orbit.i
        lifts = stab_lifts(fq, c, i, n)
        assert orbit.stab_order == (len(lifts) + 1) * q ** len(kernel_lifts(fq, n, i))
        assert fq.p ** len(edge_stab_generators(tree, orbit)) == orbit.stab_order
        assert orbit.stable == (i == 0 and not stab_lifts(fq, c, 0, 1))
    for vorbit in graph.vertex_orbits.values():
        passing, kernel = vertex_stab_elements(tree, vorbit.w0, vorbit.j)
        assert vorbit.stab_order == (len(passing) + 1) * q ** len(kernel)
    assert any(o.stab_order > 1 for o in graph.edge_orbits.values())


def fp_rank(fq, polys):
    """The F_p-rank of polynomials over F_q, each read as the base-p digits of its coefficient codes."""
    p = fq.p
    rows = [[code // p**k % p for code in b.coeffs for k in range(fq.e)] for b in polys]
    width = max(map(len, rows), default=0)
    rows = [row + [0] * (width - len(row)) for row in rows]
    rank = 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] * inv % p
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("q,n", [(q, n) for q in (2, 3, 4, 8, 9) for n in (1, 2)])
def test_stabilizer_generators_span_the_stabilizer(q, n):
    # each generator is delta = w0 u(b) w0^-1 in Gamma_1(t^n) with deg b <= i,
    # so it fixes w0(e_i); the stabilizer is elementary abelian of order
    # stab_order, and the b's span it exactly when their F_p-rank is
    # log_p stab_order (over F_4, F_8 and F_9 the codes 1, p, ... are needed)
    ctx = group_context(q, n)
    graph = QuotientGraph(ctx, depth_default(n, 3))
    nontrivial = 0
    for orbit in graph.edge_orbits.values():
        bs = []
        for delta in edge_stab_generators(graph.tree, orbit):
            assert is_gamma1(delta, n)
            u = orbit.w0_inv * delta * orbit.w0
            assert u.a.is_one() and u.c.is_zero() and u.d.is_one() and u.b.degree <= orbit.i
            bs.append(u.b)
        assert ctx.fq.p ** fp_rank(ctx.fq, bs) == orbit.stab_order
        nontrivial += orbit.stab_order > 1
    assert nontrivial


def test_interior_is_listed_once_per_table():
    ctx = group_context(2, 2)
    graph = QuotientGraph(ctx, 4)
    interior = graph.interior_vertex_orbits()
    assert graph.interior_vertex_orbits() is interior
    # the depth-5 table is a copy of this one, but not of its listing
    grown = graph.extended().interior_vertex_orbits()
    assert grown is not interior and len(grown) > len(interior)
    assert [v.key for v in grown] == [v.key for v in QuotientGraph(ctx, 5).interior_vertex_orbits()]


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
        got = [(mod_tn(m, level), m) for m in ApartmentStabilizer(fq, cap).elements()]
        _SBAR[(fq.q, cap, level)] = got
    return got


_SBAR = {}


def row_times(wbar, sb, n):
    """Bottom row of wbar * sb mod t^n as coefficient tuples."""
    c = (wbar.c * sb.a + wbar.d * sb.c).truncate(n)
    d = (wbar.c * sb.b + wbar.d * sb.d).truncate(n)
    return (c.coeffs, d.coeffs)


def scan_oracle(tree, w, classes):
    """(least translate, passing lifts) of w's bottom row mod t^n over an
    enumerated class list: the least right translate the keys took, and the
    nontrivial classes keeping the row (as oracles.passing_lifts), kept as
    the oracle for the normal form and the closed-form stabilizer classes."""
    wbar = mod_tn(w, tree.n)
    own = (wbar.c.coeffs, wbar.d.coeffs)
    rows = [row_times(wbar, sb, tree.n) for sb, _ in classes]
    passing = [lift for (_, lift), row in zip(classes, rows) if row == own and not _is_identity(lift)]
    return min(rows), passing


def witness_oracle(tree, w, orbit):
    """w * lift * w0^-1 for the first class of the S_i scan taking w's row
    to w0's: kept as the oracle for the closed-form witness lift."""
    wbar = mod_tn(w, tree.n)
    w0bar = mod_tn(orbit.w0, tree.n)
    target = (w0bar.c.coeffs, w0bar.d.coeffs)
    for sb, lift in sbar_oracle(tree.fq, orbit.i, tree.n):
        if row_times(wbar, sb, tree.n) == target:
            return w * lift * orbit.w0_inv
    raise AssertionError("witness search failed")


def passing_lifts_oracle(tree, w, classes):
    """The full conjugate wbar sigma_bar wbar^{-1} over A_n, tested entry by
    entry: kept as the oracle for the bottom-row test of the stabilizer classes."""
    wbar = mod_tn(w, tree.n)
    wbar_inv = Mat2(wbar.d, -wbar.b, -wbar.c, wbar.a)  # adjugate = inverse
    out = []
    for sb, lift in classes:
        m = mod_tn(wbar * sb * wbar_inv, tree.n)
        if m.a.is_one() and m.c.is_zero() and m.d.is_one() and not _is_identity(lift):
            out.append(lift)
    return out


def stable_oracle(fq, orbit):
    """Gamma_1(t)-stability by conjugating each nontrivial constant
    (a, b; 0, a^{-1}) mod t: kept as the oracle for the level-1 row test."""
    if orbit.i != 0:
        return False
    zero = Poly.zero(fq)
    wbar1 = mod_tn(orbit.w0, 1)
    wbar1_inv = Mat2(wbar1.d, -wbar1.b, -wbar1.c, wbar1.a)
    for a in fq.nonzero():
        ap = Poly.constant(fq, a)
        ainv = Poly.constant(fq, fq.inv(a))
        for b in fq.elements():
            if a == 1 and b == 0:
                continue
            sigma = Mat2(ap, Poly.constant(fq, b), zero, ainv)
            conj = mod_tn(wbar1 * sigma * wbar1_inv, 1)
            if conj.a.is_one() and conj.c.is_zero() and conj.d.is_one():
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
    words += [m * Mat2.j_matrix(ctx.fq) for _, m in sl2fq_classes(ctx.fq, n)[:4]]
    nonempty = 0
    for w in words:
        for i in range(n + 1):
            got = stab_lifts(ctx.fq, w.c, i, n)
            assert got == passing_lifts_oracle(tree, w, sbar_oracle(ctx.fq, i, n))
            # the closed form counts the classes, with the kernel below n
            assert len(got) + 1 == q ** max(min(i, n - 1) - tree._shift(w) + 1, 0)
            nonempty += bool(got)
        got = passing_lifts(tree, w)
        assert got == passing_lifts_oracle(tree, w, sl2fq_classes(ctx.fq, n))
        assert bool(got) == (tree._v0_line(w) is not None)
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
        orbit = EdgeOrbit(None, i, w, None)
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
    m = identity_poly(fq)
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


# the grid's depth-0 graphs with at most 729 stable orbits, each built in
# well under a second
V0_GRAPH_GRID = [(q, n) for q, n in CLOSED_FORM_GRID if q ** (2 * (n - 1)) <= 729]


@pytest.mark.parametrize("q,n", V0_GRAPH_GRID)
def test_v0_classes_match_the_scan_on_graphs(q, n):
    # the transvections against the scan of all of SL_2(F_q), element by
    # element and in order, and the closed-form order, on every j = 0
    # vertex orbit representative
    graph = QuotientGraph(group_context(q, n), depth=0)
    classes = sl2fq_classes(graph.ctx.fq, n)
    nonempty = 0
    reps = [vorbit for vorbit in graph.vertex_orbits.values() if vorbit.j == 0]
    for vorbit in reps:
        got = passing_lifts(graph.tree, vorbit.w0)
        assert got == passing_lifts_oracle(graph.tree, vorbit.w0, classes)
        assert vorbit.stab_order == len(got) + 1
        nonempty += bool(got)
    # mod t every row is constant, so a row off the line of its constant
    # coefficient row occurs only from n = 2 on
    assert nonempty and (n == 1 or nonempty < len(reps))


@pytest.mark.parametrize("q,n", CLOSED_FORM_GRID)
def test_closed_forms_match_the_scans(q, n):
    ctx = group_context(q, n)
    fq = ctx.fq
    tree = TreeContext(ctx)
    rng = random.Random(q * 1000 + n)
    words = closed_form_words(fq, n, rng)
    sl2fq = sl2fq_classes(fq, n)
    zero_rows = with_stabilizer = 0
    for w in words:
        zero_rows += w.c.truncate(n).is_zero()
        # keys: the normal form is the least translate, j = 0 included
        assert tree.vertex_key(*tree._row(w), 0) == (0, scan_oracle(tree, w, sl2fq)[0])
        # the transvections at v_0, order included, and the line test
        v0_lifts = passing_lifts(tree, w)
        assert v0_lifts == passing_lifts_oracle(tree, w, sl2fq)
        assert bool(v0_lifts) == (tree._v0_line(w) is not None)
        with_stabilizer += bool(v0_lifts)
        # i >= n - 1 all cap deg b at n - 1
        for i in range(n):
            least, passing = scan_oracle(tree, w, sbar_oracle(fq, i, n))
            assert tree._normal_form(*tree._row(w), i)[0] == least
            if i:
                assert tree.vertex_key(*tree._row(w), i) == (i, least)
            # stabilizer classes, order included, and their closed-form count
            lifts = stab_lifts(fq, w.c, i, n)
            assert lifts == passing
            assert len(lifts) + 1 == q ** max(i - tree._shift(w) + 1, 0)
            with_stabilizer += bool(lifts)
        # witness: an orbit from w, and an edge w' = gamma w sigma in it
        i = rng.randrange(n + 1)
        orbit = EdgeOrbit(None, i, w, None)
        tree.edge_stabilizer(orbit)
        w2 = rand_gamma1(fq, n, rng) * w * rand_sigma(fq, i, rng)
        nf = tree._normal_form(*tree._row(w2), i)
        assert nf[0] == orbit.nf[0]
        delta = tree.edge_witness(w2, nf, orbit)
        assert delta == witness_oracle(tree, w2, orbit)
        assert is_gamma1(delta, n)
    assert zero_rows and with_stabilizer


def test_witness_rejects_an_edge_of_another_orbit():
    ctx = group_context(3, 2)
    tree = TreeContext(ctx)
    fq = ctx.fq
    w = identity_poly(fq)
    orbit = EdgeOrbit(None, 0, Mat2.j_matrix(fq), None)
    tree.edge_stabilizer(orbit)
    nf = tree._normal_form(*tree._row(w), 0)
    with pytest.raises(AssertionError, match="witness search failed"):
        tree.edge_witness(w, nf, orbit)


def test_deferred_product_multiplies_on_first_read():
    fq = field(3)
    rng = random.Random(5)
    factors = [rand_word(fq, rng) for _ in range(3)]
    calls = []

    def product(*fs):
        calls.append(fs)
        return fs[0] * fs[1] * fs[2]

    m = Deferred(product, *factors)
    assert isinstance(m, Mat2) and not calls
    assert m == factors[0] * factors[1] * factors[2]
    assert m.det().is_one() and m.args == tuple(factors)
    assert calls == [tuple(factors)]  # made once, on the first read
    with pytest.raises(AttributeError):
        m.nonexistent


def test_weight3_reads_the_witnesses_of_the_scan(cache, monkeypatch):
    # weight 3 reads every witness it transports through, each built once
    # when first read, and each link of the walk multiplied out once; q = 3
    # gives lifts with a != 1, where w's normal form scales by another a
    # than w0's
    space = cache.space(3, 2, 3)
    tree = space.graph.tree
    made, built, replays = [], [], []
    classify_images, witness = QuotientGraph.classify_images, TreeContext.edge_witness

    def recording_replay(*args):
        replays.append(args)
        return _replay(*args)

    def recording_images(self, *args):
        got = classify_images(self, *args)
        made.extend(image[3] for images in got for image in images)
        return got

    def recording_witness(self, w, nf, orbit):
        built.append((w, nf, orbit))
        return witness(self, w, nf, orbit)

    monkeypatch.setattr(QuotientGraph, "classify_images", recording_images)
    monkeypatch.setattr(TreeContext, "edge_witness", recording_witness)
    monkeypatch.setattr(tree_module, "_replay", recording_replay)
    HeckeEngine(space).u_t()
    assert made and len(built) == len(made)
    assert any(nf[1] != orbit.nf[1] for _, nf, orbit, _ in (delta.args for delta in made))
    # each witness is read as its image comes, so in the order they were made;
    # a witness's args are (its chain link, nf, orbit, the walk's multiplied-out
    # links), and w the chain multiplied out
    known = made[0].args[3]
    for delta, (w, nf, orbit) in zip(made, built):
        assert isinstance(delta, Deferred) and delta.args[1:] == (nf, orbit, known)
        assert known[id(delta.args[0])] == (delta.args[0], w)
        assert delta == witness_oracle(tree, w, orbit)
    assert len(built) == len(made)  # the comparisons read entries already filled in
    assert len(replays) == len(known) <= len(made)  # one gamma'^-1 per link, each replayed once
