import concurrent.futures
import copy
import random
from types import SimpleNamespace

import pytest

from drinfeldforms import hecke, tree, verify
from drinfeldforms.fq import field
from drinfeldforms.linalg import Matrix
from drinfeldforms.mat2 import Mat2
from drinfeldforms.rings import poly_is_irreducible
from drinfeldforms.verify import (
    congruence_suite_items,
    goss_suite_items,
    paper_suite_items,
    run_suite,
    suite_passed,
)
from oracles import dense, identity_poly, operator, random_gamma_oracle


def test_goss_suite_records_reducible_skip():
    records = run_suite(goss_suite_items([3]))
    assert suite_passed(records)
    skipped = [r for r in records if r["status"] == "skipped"]
    assert len(skipped) == 1
    assert "reducible" in skipped[0]["reason"]
    # the degree-2 substitute ran and passed
    assert any(r["id"] == "goss/q3/m(t^2+1)" and r["status"] is True for r in records)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_goss_moduli_hold_an_irreducible_of_degree_two(q):
    # every quadratic with coefficients in F_3 splits over F_9, so the
    # substitute must be enumerated over F_q itself
    moduli = verify.goss_m_list(field(q))
    assert any(m.degree == 2 and m.is_monic() and poly_is_irreducible(m) for m in moduli)


def test_congruence_suite():
    records = run_suite(congruence_suite_items([2], lambda q: 2))
    assert suite_passed(records)
    assert {r["lemma"] for r in records} == {
        "xi-coset-congruence",
        "diamond-coset-congruence",
        "distinct-coset-representatives",
    }


def test_small_paper_suite_sequential_vs_pool():
    items = paper_suite_items([2], nmax=1, kmax=2, seed=7)
    seq = run_suite(items, jobs=1)
    par = run_suite(items, jobs=2)
    assert suite_passed(seq)
    assert seq == par  # records are deterministic and sorted


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

    seen = []

    def __init__(self, max_workers):
        RecordingPool.seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_jobs_capped_by_items_and_cpus(monkeypatch):
    # run_suite imports the pool only when it starts workers
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 3)
    items = congruence_suite_items([2], lambda q: 2)  # 2 items
    want = run_suite(items, jobs=1)
    RecordingPool.seen = []
    assert run_suite(items, jobs=10**6) == want
    assert run_suite(items * 2, jobs=10**6) == sorted(want * 2, key=lambda r: r["id"])
    assert run_suite(items * 2, jobs=2) == sorted(want * 2, key=lambda r: r["id"])
    assert RecordingPool.seen == [2, 3, 2]
    # one CPU, or an unknown count, runs in this process
    monkeypatch.setattr(verify.os, "cpu_count", lambda: None)
    assert run_suite(items, jobs=8) == want
    assert run_suite(items, jobs=0) == want
    assert RecordingPool.seen == [2, 3, 2]


def test_paper_suite_contains_all_checkers():
    items = paper_suite_items([2], nmax=2, kmax=3, seed=0)
    kinds = {kind for kind, _ in items}
    assert kinds == {"goss", "pullback", "congruence", "cusps", "stable-count", "freeness", "space"}


def test_space_item_records():
    from drinfeldforms.verify import _space_item

    records = _space_item(2, 1, 2, seed=5, hecke_ms=[[1, 1]])
    by_lemma = {r["lemma"]: r for r in records}
    for lemma in (
        "cocycle-dimension",
        "harmonicity-residual",
        "antisymmetry",
        "equivariance",
        "source-sum-recursion",
        "classification-orbit-invariance",
        "delta-basis",
        "ordinary-certificate",
        "diamond-hecke-commutation",
        "diamond-group-action",
        "diamond-label-permutation",
        "nonordinary-nilpotency",
    ):
        assert lemma in by_lemma, lemma
        assert by_lemma[lemma]["status"] in (True, "diagnostic")
    dim = by_lemma["cocycle-dimension"]
    assert dim["depth_stable"] is True and dim["dim"] == 1
    diag = [r for r in records if r["lemma"] == "ut-tm-commutator-diagnostic"]
    assert diag and all("commutes" in r for r in diag)


def test_depth_stable_is_computed(monkeypatch):
    # the depth-(D+1) basis changed at one non-stable orbit spans another space
    solve = verify.CocycleSpace._solve
    calls = []

    def changed(self, graph, orbit_rows):
        basis, keys = solve(self, graph, orbit_rows)
        calls.append(graph)
        if len(calls) == 2:
            stable = set(self.stable_keys)
            key = next(key for key in keys if key not in basis[0] and key not in stable)
            basis[0][key] = (self.ring.one,)
        return basis, keys

    monkeypatch.setattr(verify.CocycleSpace, "_solve", changed)
    records = verify._space_item(2, 1, 2, seed=5, hecke_ms=[[1, 1]])
    dim = next(r for r in records if r["lemma"] == "cocycle-dimension")
    assert dim["depth_stable"] is False and dim["status"] is False


CHECKS = {name: check for name, _, check, _, _ in verify.SPACE_CHECKS}


def _status(name, space, ops=None):
    status, _ = CHECKS[name](space, ops, random.Random(0))
    return status


def _with_basis(space, basis):
    """A copy of space with another basis, and the terms and ring-vector rows the checks read off it."""
    corrupted = copy.copy(space)
    corrupted.basis, corrupted.basis_terms, corrupted.basis_rows = basis, space.terms(basis), space.rows(basis)
    return corrupted


def _with_classify(space, mutate):
    """A copy of space whose graph classifies e as mutate(*classify(e))."""
    corrupted = copy.copy(space)
    corrupted.graph = copy.copy(space.graph)
    classify = space.graph.classify
    corrupted.graph.classify = lambda e: mutate(*classify(e))
    return corrupted


@pytest.mark.parametrize("q,n,k", [(2, 2, 2), (3, 1, 3), (2, 2, 3)])
def test_a_changed_value_fails_harmonicity_and_source_sum(cache, q, n, k):
    """One added to basis[0] at the non-stable depth-1 orbit breaks both sums.

    Antisymmetry, orbit invariance and (at weight 2) equivariance still hold:
    ``evaluate`` makes them true of any orbit-indexed dict, so on a
    corrupted basis they test the classifier, not the cocycle.
    """
    space = cache.space(q, n, k)
    graph = space.graph
    key = next(
        key
        for key in space.orbit_keys
        if graph.edge_orbits[key].depth == 1 and not graph.edge_orbits[key].stable
    )
    value = space.basis[0].get(key, space.zero_vector())
    bad = dict(space.basis[0])
    bad[key] = (value[0] + space.ring.one,) + value[1:]
    corrupted = _with_basis(space, [bad] + space.basis[1:])
    for name in ("harmonicity", "source-sum"):
        assert _status(name, space) is True, name
        assert _status(name, corrupted) is False, name
    held = ["antisymmetry", "orbit-invariance"] + (["equivariance"] if k == 2 else [])
    for name in held:
        assert _status(name, corrupted) is True, name


@pytest.mark.parametrize("q,n,k", [(3, 1, 2), (3, 2, 2), (3, 1, 3)])
def test_an_orientation_blind_classifier_fails_antisymmetry(cache, q, n, k):
    """Every edge read with sign +1, so c(-e) = c(e).

    In characteristic 2 that is still -c(e), so the mutation shows at q = 3.
    """
    space = cache.space(q, n, k)
    corrupted = _with_classify(space, lambda orbit, key, sign, delta: (orbit, key, 1, delta))
    assert _status("antisymmetry", space) is True
    assert _status("antisymmetry", corrupted) is False


@pytest.mark.parametrize("q,n", [(2, 2), (3, 1), (3, 2)])
def test_a_witness_without_its_lift_fails_orbit_invariance(cache, monkeypatch, q, n):
    """delta = w w0^-1 without the S_i lift still carries the representative
    to the edge, but it leaves Gamma_1(t^n)."""
    space = cache.space(q, n, 2)
    assert _status("orbit-invariance", space) is True
    monkeypatch.setattr(tree.TreeContext, "edge_witness", lambda self, w, nf, orbit: w * orbit.w0_inv)
    assert _status("orbit-invariance", space) is False


@pytest.mark.parametrize("q,n", [(2, 1), (3, 1), (2, 2)])
def test_an_untransported_value_fails_equivariance_at_weight_3(cache, q, n):
    """Every witness read as the identity: c(gamma e) is the stored value,
    not gamma . c(e).

    On V_2 every element acts trivially, so at weight 2 the same mutation
    leaves equivariance true.
    """
    for k, want in ((3, False), (2, True)):
        space = cache.space(q, n, k)
        identity = identity_poly(space.ctx.fq)
        corrupted = _with_classify(space, lambda orbit, key, sign, delta: (orbit, key, sign, identity))
        assert _status("equivariance", space) is True
        assert _status("equivariance", corrupted) is want, k


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_an_action_on_the_wrong_side_fails_equivariance_at_weight_3(cache, q, n):
    """act replaced by g -> act(g^-1), an anti-homomorphism, after solving.

    Drawn with the paper suite's seed for the space item.  At an orbit
    representative itself the witness of gamma e is gamma, and any map in
    place of the action passed; the check moves each draw off it.
    """
    space = cache.space(q, n, 3)
    seed = 1000 * q + 100 * n + 3
    swapped = copy.copy(space)
    swapped.vk = copy.copy(space.vk)
    swapped.vk.act = swapped.vk.act_of_inverse
    assert CHECKS["equivariance"](space, None, random.Random(seed))[0] is True
    assert CHECKS["equivariance"](swapped, None, random.Random(seed))[0] is False


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_gamma_is_the_product_of_its_factors(q, n):
    ctx = SimpleNamespace(fq=field(q), n=n)
    for seed in range(200):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        assert verify._random_gamma(ctx, rng) == random_gamma_oracle(ctx, oracle_rng)
        assert rng.getstate() == oracle_rng.getstate()


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2)])
def test_swapped_cocycles_fail_the_delta_basis(cache, q, n):
    space = cache.space(q, n, 2)
    basis = list(space.basis)
    basis[0], basis[1] = basis[1], basis[0]
    assert _status("delta-basis", space) is True
    assert _status("delta-basis", _with_basis(space, basis)) is False


def _nontrivial_diamond(ops, ctx):
    return next(dia for alpha, dia in zip(ctx.theta, ops.diamonds) if alpha != ctx.one)


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2)])
def test_a_zero_diamond_fails_the_group_action_and_the_closed_form(cache, q, n):
    # the identity would not do at q = 2: (1+t)^2 = 1 mod t^2, so the
    # group action still holds; the engine caches by name, so the closed
    # form reads the same corrupted matrix
    space = cache.space(q, n, 2)
    ops = verify.space_operators(space, [[1, 1]])
    names = ("diamond-homomorphism", "diamond-closed-form")
    for name in names:
        assert _status(name, space, ops) is True, name
    dia = _nontrivial_diamond(ops, space.ctx)
    dia.cols = operator(dia.name, dia.ctx, dia.k, Matrix.zeros(space.ring, dia.size, dia.size)).cols
    for name in names:
        assert _status(name, space, ops) is False, name


def _off_the_commutant(ut):
    """The columns of an elementary matrix E_ij that does not commute with U_t."""
    ring, d = ut.ring, ut.size
    units = (Matrix.zeros(ring, d, d) for _ in range(d * d))
    for idx, unit in enumerate(units):
        unit.rows[idx // d][idx % d] = ring.one
        if not (unit * dense(ut) - dense(ut) * unit).is_zero():
            return operator("E", ut.ctx, ut.k, unit).cols
    pytest.fail("U_t commutes with every elementary matrix")


def test_a_diamond_off_the_commutant_fails_commutation(cache):
    space = cache.space(2, 2, 2)
    ops = verify.space_operators(space, [[1, 1]])
    assert _status("diamond-commutation", space, ops) is True
    _nontrivial_diamond(ops, space.ctx).cols = _off_the_commutant(ops.ut)
    assert _status("diamond-commutation", space, ops) is False


def test_a_diamond_off_the_commutant_fails_commutation_at_weight_3(cache):
    # over A: the columns are dicts, and E_ij has entry 1 = Poly.one
    space = cache.space(2, 2, 3)
    ops = verify.space_operators(space, [[1, 1]])
    assert _status("diamond-commutation", space, ops) is True
    _nontrivial_diamond(ops, space.ctx).cols = _off_the_commutant(ops.ut)
    assert _status("diamond-commutation", space, ops) is False


@pytest.mark.parametrize("k", [2, 3])
def test_a_tm_off_the_commutant_reads_commutes_false(monkeypatch, k):
    # the [U_t, T_m] diagnostic record reads the commutator: true on the
    # engine's T_(t+1), false once T_(t+1) is replaced by an E_ij that
    # does not commute with U_t; the record stays a diagnostic either way
    def record(records):
        (rec,) = [r for r in records if r["lemma"] == "ut-tm-commutator-diagnostic"]
        return rec

    assert record(verify._space_item(2, 2, k, 0, [[1, 1]]))["commutes"] is True
    build = verify.space_operators

    def corrupted(space, hecke_ms):
        ops = build(space, hecke_ms)
        ops.heckes[0].cols = _off_the_commutant(ops.ut)
        return ops

    monkeypatch.setattr(verify, "space_operators", corrupted)
    rec = record(verify._space_item(2, 2, k, 0, [[1, 1]]))
    assert rec["commutes"] is False and rec["status"] == "diagnostic"


def test_a_weight2_space_item_runs_the_image_chain_once(monkeypatch):
    # the certificate and the nilpotency record both read U_t's image
    # chain; the second reads the chain the first kept on the operator
    chain = hecke.image_chain
    got = []

    def recording(op):
        got.append((op, chain(op)))
        return got[-1][1]

    monkeypatch.setattr(hecke, "image_chain", recording)
    verify._space_item(2, 3, 2, 0, [[1, 1]])
    assert len(got) == 2
    (ut, first), (again, second) = got
    assert again is ut and ut.name == "Ut"
    assert second is first is ut.chain
