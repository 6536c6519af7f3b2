import functools
import random
from collections import Counter

import pytest

from drinfeldforms import cocycles, rings, tree
from drinfeldforms.cocycles import CocycleSpace, VkAction, depth_default
from drinfeldforms.errors import DimensionMismatchError, ResourceBoundError
from drinfeldforms.fq import field
from drinfeldforms.groups import group_context, is_gamma1
from drinfeldforms.linalg import DictRing, FqRing, Matrix
from drinfeldforms.hecke import HeckeEngine
from drinfeldforms.mat2 import Deferred, Mat2, _replay
from drinfeldforms.rings import Poly, RatFunc
from drinfeldforms.tree import Edge, QuotientGraph, TreeContext, apply_edge
from oracles import (
    edge_stab_generators,
    evaluate_oracle,
    gauss_jordan_kernel,
    identity_poly,
    inverse_k,
    k_ring,
    to_a,
    to_k,
)


def rand_gamma(ctx, rng):
    fq = ctx.fq
    m = identity_poly(fq)
    for _ in range(4):
        b = Poly(fq, [rng.randrange(fq.q) for _ in range(rng.randrange(1, 3))])
        if rng.random() < 0.5:
            m = m * Mat2.translation(b)
        else:
            m = m * Mat2(Poly.one(fq), Poly.zero(fq), b.shift(ctx.n), Poly.one(fq))
    assert is_gamma1(m, ctx.n)
    return m


def test_vk_action_axioms():
    fq = field(3)
    rng = random.Random(12)
    for k in (2, 3, 4):
        vk = VkAction(fq, k)
        ident = identity_poly(fq)
        assert vk.act(ident) == Matrix.identity(vk.ring, k - 1)
        for _ in range(8):
            g = _rand_word(fq, rng)
            h = _rand_word(fq, rng)
            assert vk.act(g * h) == vk.act(g) * vk.act(h)
            if k == 2:
                # V_2: one cached identity over F_q, no substitution matrices
                assert vk.act(g) is vk.act_of_inverse(h)
                assert vk.act(g) == Matrix.identity(FqRing(fq), 1)
        if k == 2:
            assert not vk._cache


@pytest.mark.parametrize("q", [2, 3, 4])
def test_act_is_the_substitution_of_the_adjugate(q):
    # the inverse over K is the oracle
    fq = field(q)
    rng = random.Random(q * 13)
    for k in (3, 4):
        vk = VkAction(fq, k)
        for _ in range(10):
            g = _rand_word(fq, rng)
            assert vk.act(g) == vk.substitution(to_a(inverse_k(to_k(g)))).transpose()
        t, one = Poly.t(fq), Poly.one(fq)
        for g in (Mat2.diag(t, one), Mat2.diag(t, t)):
            with pytest.raises(ValueError):
                vk.act(g)


def _rand_word(fq, rng):
    m = identity_poly(fq)
    for _ in range(4):
        b = Poly(fq, [rng.randrange(fq.q) for _ in range(rng.randrange(1, 3))])
        m = m * (Mat2.translation(b) if rng.random() < 0.5 else Mat2.j_matrix(fq))
    return m


@pytest.mark.parametrize(
    "q,n,k,want",
    [(2, 1, 2, 1), (2, 2, 2, 4), (3, 1, 2, 1), (2, 1, 3, 2), (3, 1, 3, 2), (2, 2, 3, 8)],
)
def test_dimensions(q, n, k, want, cache):
    space = cache.space(q, n, k)
    assert space.dim == want


def test_depth_default_grows_with_weight():
    assert depth_default(1, 2) == 5
    assert depth_default(2, 2) == 7
    assert depth_default(1, 5) == 7


def test_too_small_depth_is_detected():
    from drinfeldforms.errors import StabilityError

    ctx = group_context(2, 2)
    with pytest.raises((DimensionMismatchError, StabilityError)):
        CocycleSpace(ctx, 2, depth=1)
    with pytest.raises((DimensionMismatchError, StabilityError)):
        CocycleSpace(ctx, 3, depth=2)


def test_delta_basis_property(cache):
    space = cache.space(2, 2, 2)
    ring = space.ring
    graph = space.graph
    for j, (c, d) in enumerate(space.ctx.label_pairs()):
        rep = graph.edge_orbits[graph.seed_keys[(c.coeffs, d.coeffs)]].rep
        for i, cocycle in enumerate(space.basis):
            val = space.evaluate(cocycle, rep)[0]
            assert val == (ring.one if i == j else ring.zero)
            # antisymmetry at the stable representative
            assert space.evaluate(cocycle, rep.reverse())[0] == -val


def test_weight2_evaluate_vanishes_up_the_apartment(cache):
    # the source set of e_1 is one orbit of q edges with equal values: q = 0
    space = cache.space(2, 1, 2)
    c = space.basis[0]
    assert space.evaluate(c, Edge.standard(1))[0].is_zero()
    assert space.evaluate(c, Edge.standard(2))[0].is_zero()


def test_weight2_invariance_under_group(cache):
    space = cache.space(2, 1, 2)
    ctx = space.ctx
    rng = random.Random(3)
    c = space.basis[0]
    base = space.graph.edge_orbits[space.stable_keys[0]].rep
    for _ in range(10):
        gamma = rand_gamma(ctx, rng)
        assert space.evaluate(c, apply_edge(gamma, base, ctx.fq)) == space.evaluate(c, base)


@pytest.mark.parametrize("q,n,k", [(2, 2, 2), (3, 1, 3), (2, 1, 4)])
def test_equivariance_randomized(q, n, k, cache):
    space = cache.space(q, n, k)
    ctx = space.ctx
    rng = random.Random(q * n * k)
    reps = [
        space.graph.edge_orbits[key].rep
        for key in space.orbit_keys
        if space.graph.edge_orbits[key].depth <= space.depth - 3
    ]
    for _ in range(25):
        gamma = rand_gamma(ctx, rng)
        e = reps[rng.randrange(len(reps))]
        cocycle = space.basis[rng.randrange(space.dim)]
        lhs = space.evaluate(cocycle, apply_edge(gamma, e, ctx.fq))
        rhs = space.evaluate(cocycle, e)
        if k > 2:
            rhs = space.vk.act(gamma).apply(rhs)
        assert tuple(lhs) == tuple(rhs)


@pytest.mark.parametrize("q,n,k", [(2, 1, 2), (2, 2, 2), (2, 1, 3)])
def test_harmonicity_residual_zero_everywhere(q, n, k, cache):
    # one ring vector per component, coordinate j that of basis cocycle j
    space = cache.space(q, n, k)
    for vorbit in space.graph.interior_vertex_orbits():
        residuals = space.harmonicity_residual(vorbit.rep)
        assert len(residuals) == k - 1
        assert not any(residuals)


@pytest.mark.parametrize("q,n,k", [(2, 1, 2), (2, 2, 2), (3, 1, 3)])
def test_source_sum_recursion(q, n, k, cache):
    space = cache.space(q, n, k)
    graph = space.graph
    interior = {vo.rep for vo in graph.interior_vertex_orbits()}
    checked = 0
    for key in space.orbit_keys:
        orbit = graph.edge_orbits[key]
        if orbit.depth > 3:
            continue
        for e in (orbit.rep, orbit.rep.reverse()):
            if e.origin not in interior:
                continue
            sums = space.predecessor_sum(e, space.basis_rows)
            assert len(sums) == k - 1
            assert per_cocycle(space, sums) == [space.evaluate(c, e) for c in space.basis]
            checked += 1
    assert checked > 0


def per_cocycle(space, vectors, count=None):
    """The k - 1 ring vectors of sum_values read back as one value tuple per cocycle (``count``: the basis)."""
    terms = [dict(space.ring.terms(v)) for v in vectors]
    return [tuple(t.get(j, space.ring.zero) for t in terms) for j in range(space.dim if count is None else count)]


@pytest.mark.parametrize("q,n,k", [(2, 2, 2), (3, 1, 2), (3, 2, 2), (2, 1, 3), (3, 1, 3)])
def test_sum_values_matches_the_oracle_values_summed_cocycle_by_cocycle(q, n, k, cache):
    # sum_values reads every cocycle at once as ring vectors from the signed
    # blocks summed per orbit key; the oracle transports each cocycle's value
    # through the witness edge by edge and adds the tuples.  On the stars of
    # interior vertices, on each representative with its reversal (zero by
    # antisymmetry), and on a subset of the basis in another order
    space = cache.space(q, n, k)
    graph = space.graph
    reps = [graph.edge_orbits[key].rep for key in space.orbit_keys]
    groups = [[Edge(u, vo.rep) for u in vo.rep.neighbors(graph.ctx.fq)] for vo in graph.interior_vertex_orbits()]
    groups += [[e] for e in reps] + [[e, e.reverse()] for e in reps] + [[Edge.standard(space.depth)]]
    some = space.basis[::-1][:3]
    nonzero = 0
    for edges in groups:
        for cocycles, rows in ((space.basis, space.basis_rows), (some, space.rows(some))):
            want = []
            for c in cocycles:
                values = [evaluate_oracle(space, c, f) for f in edges]
                want.append(tuple(sum(column, space.ring.zero) for column in zip(*values)))
            got = space.sum_values(edges, rows)
            assert len(got) == k - 1
            assert per_cocycle(space, got, len(cocycles)) == want
            nonzero += any(got)
    assert nonzero > 0


@pytest.mark.parametrize("q,n,k", [(2, 2, 2), (3, 1, 2), (2, 1, 3), (3, 1, 3)])
def test_values_agree_with_one_cocycle_at_a_time(q, n, k, cache):
    # on representatives, their reversals, the literal in-edges of interior
    # vertices and an edge beyond the table
    space = cache.space(q, n, k)
    graph = space.graph
    reps = [graph.edge_orbits[key].rep for key in space.orbit_keys]
    edges = reps + [e.reverse() for e in reps]
    for vorbit in graph.interior_vertex_orbits():
        edges += [Edge(u, vorbit.rep) for u in vorbit.rep.neighbors(graph.ctx.fq)]
    beyond = Edge.standard(space.depth)
    assert graph.classify(beyond)[0] is None
    edges.append(beyond)
    nonzero = 0
    for e in edges:
        got = [space.evaluate(c, e) for c in space.basis]
        assert got == [evaluate_oracle(space, c, e) for c in space.basis]
        nonzero += sum(1 for v in got if any(v))
    assert nonzero > 0
    assert [space.evaluate(c, beyond) for c in space.basis] == [space.zero_vector()] * space.dim
    # a subset in another order reads the same values
    some = space.basis[::-1][:2]
    for e in reps:
        assert [space.evaluate(c, e) for c in some] == [evaluate_oracle(space, c, e) for c in some]


# at q = 2, -v = v, so only the odd q can see a lost orientation sign
@pytest.mark.parametrize("q,n,k", [(2, 2, 3), (3, 2, 2), (3, 1, 3)])
def test_antisymmetry_everywhere(cache, q, n, k):
    space = cache.space(q, n, k)
    for cocycle in space.basis:
        for key in space.orbit_keys:
            rep = space.graph.edge_orbits[key].rep
            plus = space.evaluate(cocycle, rep)
            minus = space.evaluate(cocycle, rep.reverse())
            assert all(not (a + b) for a, b in zip(plus, minus))


# the weight-k spaces whose supports meet an orbit with a nontrivial
# stabilizer: 2, 2, 5, 5, 8 and 30 such orbits.  The supports of the other
# weight-k goldens, and of q3n3k3, q4n2k4 and q9n2k3, meet none
STABILIZED_SUPPORTS = [(2, 1, 3), (2, 1, 4), (2, 2, 3), (2, 2, 4), (3, 2, 4), (3, 3, 4)]


@pytest.mark.parametrize("q,n,k", STABILIZED_SUPPORTS)
def test_stored_values_are_invariant_under_every_stabilizer_generator(cache, q, n, k):
    # act(delta) c(key) = c(key) for every delta of the representative's
    # stabilizer, on every orbit of every basis cocycle's support: a witness
    # is then only defined up to that stabilizer, and an operator image
    # reduced from its parent's may take another one than the literal walk.
    # The solve forms no stabilizer row, so this is where the invariance
    # is checked, and each case checks at least one (orbit, generator) pair
    space = cache.space(q, n, k)
    graph = space.graph
    checked = 0
    for key in sorted({key for cocycle in space.basis for key in cocycle}):
        for delta in edge_stab_generators(graph.tree, graph.edge_orbits[key]):
            act = space.vk.act(delta)
            checked += 1
            for cocycle in space.basis:
                if key in cocycle:
                    stored = list(cocycle[key])
                    assert act.apply(stored) == stored
    assert checked


@pytest.mark.parametrize("q,n,k", [(2, 2, 2), (2, 1, 3)])
def test_depth_stable_compares_spans(cache, q, n, k):
    assert cache.space(q, n, k).depth_stable is True


def test_depth_stable_detects_a_changed_resolve(monkeypatch):
    # the depth-(D+1) basis changed at one non-stable orbit spans another space
    solve = CocycleSpace._solve
    calls = []

    def changed(self, graph, orbit_rows):
        basis, keys = solve(self, graph, orbit_rows)
        calls.append(graph)
        if len(calls) == 2:
            stable = set(self.stable_keys)
            key = next(key for key in keys if key not in basis[0] and key not in stable)
            basis[0][key] = (self.ring.one,)
        return basis, keys

    monkeypatch.setattr(CocycleSpace, "_solve", changed)
    space = CocycleSpace(group_context(2, 2), 2)
    assert len(calls) == 2
    assert space.depth_stable is False


@pytest.mark.parametrize("q,n,k", [(2, 2, 2), (3, 1, 3), (2, 2, 3)])
def test_solved_basis_is_the_unit_basis_on_the_stable_rows(cache, q, n, k):
    space = cache.space(q, n, k)
    ring = space.ring
    stable_rows = {(key, s) for key in space.stable_keys for s in range(k - 1)}
    assert set(space.unit_rows) == stable_rows
    assert len(space.unit_rows) == space.dim
    for unit, cocycle in zip(space.unit_rows, space.basis):
        for key, s in stable_rows:
            want = ring.one if (key, s) == unit else ring.zero
            assert cocycle.get(key, space.zero_vector())[s] == want


# perturbations of sparse_kernel's vectors, dicts {col: nonzero elem}
def _summed(vecs):
    total = dict(vecs[0])
    for c, x in vecs[1].items():
        total[c] = total[c] + x if c in total else x
    vecs[0] = total


def _doubled(vecs):
    vecs[0] = {c: x + x for c, x in vecs[0].items()}


def _repeated(vecs):
    vecs[0] = dict(vecs[1])


@pytest.mark.parametrize(
    "q,k,perturb,match",
    [
        (2, 2, _summed, "not the unit basis"),
        (2, 3, _summed, "not the unit basis"),
        (3, 2, _doubled, "not the unit basis"),
        (2, 2, _repeated, "the same stable representative"),
    ],
)
def test_a_basis_off_the_unit_rows_is_rejected(monkeypatch, q, k, perturb, match):
    # each perturbed kernel basis puts one off-identity entry at a stable row
    kernel = cocycles.sparse_kernel

    def perturbed(rows, ncols, ring, col_order=None):
        vecs = kernel(rows, ncols, ring, col_order=col_order)
        perturb(vecs)
        return vecs

    monkeypatch.setattr(cocycles, "sparse_kernel", perturbed)
    with pytest.raises(DimensionMismatchError, match=match):
        CocycleSpace(group_context(q, 2), k)


# the (q, n, k) of the default paper suite: q = 2 with n <= 3, q = 3 with n <= 2, k <= 4
DEFAULT_GRID = [(q, n, k) for q, nmax in ((2, 3), (3, 2)) for n in range(1, nmax + 1) for k in (2, 3, 4)]


@pytest.mark.parametrize("q,n,k", DEFAULT_GRID)
def test_kernel_matches_the_gauss_jordan_oracle_on_the_harmonicity_rows(cache, monkeypatch, q, n, k):
    # the depth-D system of a solved space, through sparse_kernel and the
    # eager Gauss-Jordan oracle: the same vectors, entries in the same order.
    # Above weight 2 the system is over A and the oracle runs on it lifted
    # to K, so every kernel entry it finds must lie in A
    space = cache.space(q, n, k)
    kernel = cocycles.sparse_kernel
    systems = []

    def recorded(rows, ncols, ring, col_order=None):
        systems.append((rows, ncols, ring, col_order))
        return kernel(rows, ncols, ring, col_order=col_order)

    monkeypatch.setattr(cocycles, "sparse_kernel", recorded)
    space._solve(space.graph, {})
    ((rows, ncols, ring, order),) = systems
    got = kernel(rows, ncols, ring, col_order=order)
    if k > 2:
        assert ring == DictRing(Poly.zero(field(q)), Poly.one(field(q)))
        lift = RatFunc.from_poly
        rows, ring = [{c: lift(x) for c, x in r.items()} for r in rows], k_ring(field(q))
        got = [{c: lift(x) for c, x in v.items()} for v in got]
    want = gauss_jordan_kernel(rows, ncols, ring, col_order=order)
    assert [list(v.items()) for v in got] == [list(v.items()) for v in want]
    assert rows and len(got) == space.expected_dim


def test_one_graph_build_per_space(monkeypatch):
    builds = []

    class Counted(cocycles.QuotientGraph):
        def __init__(self, ctx, depth, **kwargs):
            builds.append(depth)
            super().__init__(ctx, depth, **kwargs)

        def extended(self):
            builds.append("extended")
            return super().extended()

    monkeypatch.setattr(cocycles, "QuotientGraph", Counted)
    ctx = group_context(2, 2)
    assert CocycleSpace(ctx, 2).depth_stable is True
    assert builds == [7, "extended"]


def test_orbit_bound_covers_the_stability_shell():
    # 39 edge orbits at the default depth 7, 44 at depth 8
    with pytest.raises(ResourceBoundError):
        CocycleSpace(group_context(2, 2), 2, max_orbits=40)


def test_weight2_space_and_ut_multiply_out_no_witness(monkeypatch):
    # V_2 never reads a witness, so building the q2n3 space and assembling
    # U_t, T_(t+1), T_(t^2+t+1) and <t+1> (902 images over 11 transports,
    # 86 reduced states) forms no witness inside classify or
    # classify_images, and none is multiplied out later: edge_witness and
    # chain_witness are never called, and no Deferred is ever read.
    # classify_images runs on packed ints: a seed's xi w0 is one packed
    # product (hecke_coset), every other image is stepped on from its
    # parent's, and the witness of a found image is its one Deferred, over
    # a chain of row operations, so the walk constructs no Mat2 and no
    # Poly.  The assembly multiplies no Mat2 at all: the T_m's xi_diamond
    # = eta diag(m, 1) scales eta's first column.  The graph grows in group
    # coordinates and seeds from the matrices h J, and a literal
    # representative is formed only when read, so nothing acts on the tree.
    seen = Counter()
    acted = {"apply_edge": [], "apply_vertex": []}
    made = []  # the makes of the Deferreds formed inside classify_images
    inside = []  # the lookups running: classify or classify_images

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            seen[name] += 1
            seen[name + " inside"] += bool(inside)
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(Mat2, "__mul__", counted("Mat2.__mul__", Mat2.__mul__))
    monkeypatch.setattr(Mat2, "__init__", counted("Mat2.__init__", Mat2.__init__))
    monkeypatch.setattr(Poly, "__init__", counted("Poly", Poly.__init__))
    monkeypatch.setattr(rings, "_new", counted("Poly", rings._new))  # rings.packed's Poly
    for name in ("edge_witness", "chain_witness"):
        monkeypatch.setattr(TreeContext, name, counted(name, getattr(TreeContext, name)))
    for cls, name in (
        (QuotientGraph, "classify"),
        (QuotientGraph, "classify_images"),
    ):
        fn = getattr(cls, name)

        def wrapped(*args, _fn=fn, _name=name):
            inside.append(_name)
            seen[_name] += 1
            if _name == "classify_images":
                seen["images"] += len(args[1]) * len(args[2])
            try:
                return _fn(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(cls, name, wrapped)
    for name, calls in acted.items():

        def recording_act(g, x, fq, _fn=getattr(tree, name), _calls=calls):
            _calls.append(x)
            return _fn(g, x, fq)

        monkeypatch.setattr(tree, name, recording_act)
    init, read = Deferred.__init__, Deferred.__getattr__

    def recording_init(self, make, *args):
        init(self, make, *args)
        if inside == ["classify_images"]:
            made.append(make.__name__)

    def counting_read(self, name):
        seen["read"] += 1
        return read(self, name)

    monkeypatch.setattr(Deferred, "__init__", recording_init)
    monkeypatch.setattr(Deferred, "__getattr__", counting_read)
    ctx = group_context(2, 3)
    space = CocycleSpace(ctx, 2)
    engine = HeckeEngine(space)
    before = seen["Mat2.__mul__"]
    engine.u_t(), engine.t_m(ctx.t + ctx.one), engine.t_m(ctx.t * ctx.t + ctx.t + ctx.one)
    engine.diamond(ctx.t + ctx.one)
    assert seen["classify_images"] == 4
    assert seen["images"] == 902 and len(space.graph.tree._image_cache) == 86
    assert 0 < len(made) <= seen["images"] and set(made) == {"chain_witness"}  # at most one per image
    assert seen["Mat2.__init__ inside"] == seen["Poly inside"] == seen["Mat2.__mul__ inside"] == 0
    assert seen["Mat2.__mul__"] == before
    assert seen["read"] == seen["edge_witness"] == seen["chain_witness"] == 0
    assert acted == {"apply_edge": [], "apply_vertex": []}


def test_weight2_solve_and_assembly_form_no_block_and_lift_no_stabilizer(monkeypatch):
    # on V_2 the solve and the assembly count signed edges: building a
    # space, U_t, T_(t+1) and a diamond multiplies no Matrix and reads no
    # action from _solve or _assemble.  At weight 3 the blocks are formed
    # and multiplied.  No weight lifts a stabilizer element, as the solve
    # forms harmonicity rows only.
    entered, calls, inside = Counter(), Counter(), []

    def scoped(name, fn):
        def wrapped(*args):
            entered[name] += 1
            inside.append(name)
            try:
                return fn(*args)
            finally:
                inside.pop()

        return wrapped

    def counted(name, fn, anywhere):
        def wrapped(*args):
            calls[name] += anywhere or bool(inside)
            return fn(*args)

        return wrapped

    monkeypatch.setattr(CocycleSpace, "_solve", scoped("_solve", CocycleSpace._solve))
    monkeypatch.setattr(HeckeEngine, "_assemble", scoped("_assemble", HeckeEngine._assemble))
    monkeypatch.setattr(Matrix, "__mul__", counted("Matrix.__mul__", Matrix.__mul__, True))
    monkeypatch.setattr(VkAction, "act", counted("act", VkAction.act, False))
    monkeypatch.setattr(VkAction, "act_of_inverse", counted("act_of_inverse", VkAction.act_of_inverse, False))
    ctx = group_context(3, 2)
    eng = HeckeEngine(CocycleSpace(ctx, 2))
    eng.u_t()
    eng.t_m(Poly.t(ctx.fq) + Poly.one(ctx.fq))
    eng.diamond(ctx.theta[-1])
    assert entered == {"_solve": 2, "_assemble": 3}
    assert +calls == {}
    eng = HeckeEngine(CocycleSpace(group_context(2, 1), 3))
    eng.u_t()
    assert calls["act"] > 0 and calls["act_of_inverse"] > 0 and calls["Matrix.__mul__"] > 0
