import random

import pytest

from drinfeldforms import cocycles
from drinfeldforms.cocycles import CocycleSpace, VkAction, depth_default
from drinfeldforms.errors import DimensionMismatchError, ResourceBoundError
from drinfeldforms.fq import field
from drinfeldforms.groups import group_context, is_gamma1
from drinfeldforms.linalg import FqRing, Matrix
from drinfeldforms.hecke import HeckeEngine
from drinfeldforms.mat2 import DeferredProduct, Mat2
from drinfeldforms.rings import Poly
from drinfeldforms.tree import Edge, QuotientGraph, TreeContext, apply_edge
from oracles import inverse_k


def rand_gamma(ctx, rng):
    fq = ctx.fq
    m = Mat2.identity_poly(fq)
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
        ident = Mat2.identity_poly(fq)
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
            assert vk.act(g) == vk.substitution(inverse_k(g.to_k())).transpose()
        t, one = Poly.t(fq), Poly.one(fq)
        for g in (Mat2.diag(t, one), Mat2.diag(t, t)):
            with pytest.raises(ValueError):
                vk.act(g)


def _rand_word(fq, rng):
    m = Mat2.identity_poly(fq)
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
        CocycleSpace(ctx, 2, depth=1, check_stability=False)
    with pytest.raises((DimensionMismatchError, StabilityError)):
        CocycleSpace(ctx, 3, depth=2, check_stability=False)


def test_delta_basis_property(cache):
    space = cache.space(2, 2, 2)
    ring = space.ring
    labels = space.labels()
    for j, (c, d) in enumerate(labels):
        rep = space.stable_rep_edge(c, d)
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
    base = space.stable_rep_edge(*space.labels()[0])
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
    space = cache.space(q, n, k)
    for cocycle in space.basis:
        for vorbit in space.graph.interior_vertex_orbits():
            assert not any(space.harmonicity_residual(cocycle, vorbit.rep))


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
            for cocycle in space.basis:
                assert space.predecessor_sum(cocycle, e) == space.evaluate(cocycle, e)
            checked += 1
    assert checked > 0


def test_antisymmetry_everywhere(cache):
    space = cache.space(2, 2, 3)
    for cocycle in space.basis:
        for key in space.orbit_keys:
            rep = space.graph.edge_orbits[key].rep
            plus = space.evaluate(cocycle, rep)
            minus = space.evaluate(cocycle, rep.reverse())
            assert all(not (a + b) for a, b in zip(plus, minus))


def test_stabilizer_fixed_space(cache):
    # stored values lie in the fixed space of the representative stabilizer
    space = cache.space(2, 1, 3)
    graph = space.graph
    for key in space.orbit_keys:
        orbit = graph.edge_orbits[key]
        if orbit.stab_order == 1:
            continue
        for delta in graph.tree.edge_stab_generators(orbit):
            act = space.vk.act(delta)
            for cocycle in space.basis:
                stored = cocycle.get(key)
                if stored is None:
                    continue
                vec = list(stored)
                assert act.apply(vec) == vec


@pytest.mark.parametrize("q,n,k", [(2, 2, 2), (2, 1, 3)])
def test_depth_stable_compares_spans(cache, q, n, k):
    assert cache.space(q, n, k).depth_stable is True


def test_depth_stable_detects_a_changed_resolve(monkeypatch):
    # the depth-(D+1) basis changed at one non-stable orbit spans another space
    solve = CocycleSpace._solve
    calls = []

    def changed(self, graph):
        basis, keys = solve(self, graph)
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


def _summed(vecs):
    vecs[0] = [a + b for a, b in zip(vecs[0], vecs[1])]


def _doubled(vecs):
    vecs[0] = [x + x for x in vecs[0]]


def _repeated(vecs):
    vecs[0] = list(vecs[1])


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
        CocycleSpace(group_context(q, 2), k, check_stability=False)


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
    builds.clear()
    CocycleSpace(ctx, 2, check_stability=False)
    assert builds == [7]


def test_orbit_bound_covers_the_stability_shell():
    # 39 edge orbits at the default depth 7, 44 at depth 8
    ctx = group_context(2, 2)
    assert CocycleSpace(ctx, 2, check_stability=False, max_orbits=40).dim == 4
    with pytest.raises(ResourceBoundError):
        CocycleSpace(ctx, 2, max_orbits=40)


def test_weight2_space_and_ut_multiply_out_no_witness(monkeypatch):
    # V_2 never reads a witness or a stabilizer element, so building the
    # space and U_t forms no Mat2 product inside classify or
    # edge_stab_generators, and no deferred product is multiplied out later
    seen = {"depth": 0, "calls": 0, "inside": 0, "read": 0}
    mul = Mat2.__mul__

    def counting_mul(self, other):
        seen["inside"] += bool(seen["depth"])
        return mul(self, other)

    monkeypatch.setattr(Mat2, "__mul__", counting_mul)
    for cls, name in ((QuotientGraph, "classify"), (TreeContext, "edge_stab_generators")):
        fn = getattr(cls, name)

        def wrapped(*args, _fn=fn):
            seen["depth"] += 1
            seen["calls"] += 1
            try:
                return _fn(*args)
            finally:
                seen["depth"] -= 1

        monkeypatch.setattr(cls, name, wrapped)
    read = DeferredProduct.__getattr__

    def counting_read(self, name):
        seen["read"] += 1
        return read(self, name)

    monkeypatch.setattr(DeferredProduct, "__getattr__", counting_read)
    space = CocycleSpace(group_context(2, 2), 2)
    HeckeEngine(space).u_t()
    assert seen["calls"] > 0
    assert seen["inside"] == 0 and seen["read"] == 0
