"""Executable verification suites.

Each suite is a list of independent items (kind, params) with primitive
parameters; :func:`run_suite` executes them sequentially or in a process
pool and returns records {id, lemma, params, status, ...} sorted by id.
Every record is built by :func:`_record`.  The ``paper`` suite aggregates
every checker in the package: the torsion-scaling and uniformizer-pullback
expansions, the coset congruences, cusp/genus counting, stable-orbit
counts, diamond freeness, and one ``space`` item per (q, n, k).

A space item solves the cocycle space, builds U_t, the T_m and the
diamonds of the unit group once, and runs the rows of
:data:`SPACE_CHECKS` in order.  A row names the record, its lemma, the
check, whether it runs at weight 2 only and which of (q, n, k, seed) its
params carry.  A check is a function of (space, operators, seeded
generator) returning (status, extra fields), so each can be run alone:
dimension with depth stability, harmonicity, antisymmetry, equivariance
and orbit invariance under random translates, the source-sum recursion,
the delta basis, the ordinary certificate, diamond commutation, the
diamond group action and closed form, and the nilpotent block of U_t.
A check reading cocycles on literal tree edges classifies each edge once
for all the cocycles it reads.  The commutators [U_t, T_m] follow as
diagnostics, reported and never asserted.
"""

import os
import random
from collections import namedtuple

from .carlitz import (
    carlitz_phi,
    exp_coeffs,
    goss_polynomials,
    goss_polynomials_oracle,
    verify_coeff_scaling,
    verify_uniformizer_pullback,
)
from .cocycles import CocycleSpace
from .fq import field
from .groups import (
    distinct_coset_check,
    group_context,
    is_gamma1,
    verify_diamond_congruence,
    verify_xi_congruences,
)
from .hecke import (
    HeckeEngine,
    diamond_permutation_matrix,
    nilpotency_diagnostics,
    ordinary_certificate,
    verify_freeness,
)
from .mat2 import Mat2
from .rings import Poly, RatFunc, graded_polys, int_axpy, poly_is_irreducible
from .tree import MAX_ORBITS, QuotientGraph, apply_edge


def goss_m_list(fq):
    """The degree <= 2 test moduli: t, t+1, t^2+t+1.

    A reducible t^2+t+1 (it splits when F_q holds a cube root of unity
    other than 1, and is (t-1)^2 when 3 = 0) stays in the list so the
    suite records it as skipped, and the first monic irreducible quadratic
    of :func:`graded_polys` is appended to keep the coverage.
    """
    t, one = Poly.t(fq), Poly.one(fq)
    deg2 = t * t + t + one
    out = [t, t + one, deg2]
    if not poly_is_irreducible(deg2):
        out.append(next(
            m for m in graded_polys(fq, 3)
            if m.degree == 2 and m.is_monic() and poly_is_irreducible(m)
        ))
    return out


def _record(record_id, lemma, params, status, **extra):
    """One suite record: {id, lemma, params, status} and any extra fields."""
    return {"id": record_id, "lemma": lemma, "params": params, "status": status, **extra}


def _from_report(record_id, report, *fields):
    """The record of a checker's report, keeping the named extra fields."""
    extra = {field: report[field] for field in fields}
    return _record(record_id, report["lemma"], report["params"], report["status"], **extra)


def _goss_item(q, mcoeffs, imax, precision):
    fq = field(q)
    m = Poly(fq, mcoeffs)
    record_id, params = f"goss/q{q}/m({m})", {"q": q, "m": str(m), "imax": imax}
    if not poly_is_irreducible(m):
        reason = f"{m} is reducible over F_{q}"
        return [_record(record_id, "torsion-scaling", params, "skipped", reason=reason)]
    phi = carlitz_phi(m)
    alphas = exp_coeffs(m, phi)
    recursion = goss_polynomials(m, imax, alphas)
    oracle = goss_polynomials_oracle(m, imax, alphas)
    agree = all(a == b for a, b in zip(recursion, oracle))
    r = int(m.degree)
    integral = all(alphas[i].is_poly() for i in range(r)) and alphas[r] == RatFunc(Poly.one(fq), m)
    cert = verify_coeff_scaling(m, imax, precision, phi, recursion)
    status = bool(agree and integral and cert["status"])
    return [
        _record(
            record_id, "torsion-scaling", params, status,
            recursion_matches_oracle=agree, exp_coeffs_integral=integral, items=cert["items"],
        )
    ]


def _pullback_item(q, lmax, precision):
    fq = field(q)
    return [
        _from_report(f"pullback/q{q}/l{l}", verify_uniformizer_pullback(fq, l, precision), "items")
        for l in range(1, lmax + 1)
    ]


def _congruence_item(q, n):
    xi = verify_xi_congruences(q, n)
    dia = verify_diamond_congruence(q, n)
    cosets = distinct_coset_check(q, n)
    return [
        _from_report(f"congruence/xi/q{q}n{n}", xi, "checked", "witness"),
        _from_report(f"congruence/diamond/q{q}n{n}", dia, "checked", "witness"),
        _record(
            f"congruence/cosets/q{q}n{n}", "distinct-coset-representatives", {"q": q, "n": n}, cosets
        ),
    ]


def _cusp_item(q, n):
    ctx = group_context(q, n)
    cusps = ctx.cusps()
    h = len(cusps)
    g = ctx.genus()
    ok_identity = g - 1 + h == ctx.dim_weight2()
    widths_ok = all(
        (c.kind == "zero" and c.width_exponent == n)
        or (c.kind == "infinity" and 0 <= c.width_exponent <= n - 1)
        for c in cusps
    )
    labels = {
        (c.kind,) + tuple(p.coeffs for p in c.label) for c in cusps
    }
    status = bool(ok_identity and widths_ok and len(labels) == h)
    return [
        _record(
            f"cusps/q{q}n{n}", "cusp-count-genus", {"q": q, "n": n}, status,
            h=h, g=g, identity=ok_identity,
        )
    ]


def _stable_count_item(q, n, max_orbits=MAX_ORBITS):
    ctx = group_context(q, n)
    graph = QuotientGraph(ctx, depth=2, max_orbits=max_orbits)
    count = sum(1 for o in graph.edge_orbits.values() if o.stable)
    want = ctx.dim_weight2()
    return [
        _record(
            f"stable-count/q{q}n{n}", "stable-orbit-count", {"q": q, "n": n}, count == want,
            count=count, expected=want,
        )
    ]


def _freeness_item(q, n):
    report = verify_freeness(group_context(q, n))
    return [_from_report(f"freeness/q{q}n{n}", report, "orbits", "orbit_sizes")]


def _random_gamma(ctx, rng):
    """A random word in Gamma_1(t^n) from upper and t^n-lower unipotents,
    each factor (1, x; 0, 1) or (1, 0; x t^n, 1) applied as a column operation on packed ints."""
    fq = ctx.fq
    a, b, c, d = 1, 0, 0, 1
    for _ in range(4):
        x = int.from_bytes(bytes(rng.randrange(fq.q) for _ in range(rng.randrange(1, 3))), "little")
        if rng.random() < 0.5:
            b, d = int_axpy(fq, b, a, x), int_axpy(fq, d, c, x)
        else:
            y = x << 8 * ctx.n
            a, c = int_axpy(fq, a, b, y), int_axpy(fq, c, d, y)
    return Mat2.from_packed(fq, (a, b, c, d))


Operators = namedtuple("Operators", "engine ut heckes diamonds")


def space_operators(space, hecke_ms):
    """U_t, the T_m of the coefficient lists ``hecke_ms`` and the diamond of
    every unit in ``ctx.theta``, from one engine (which caches by name)."""
    engine = HeckeEngine(space)
    ut = engine.u_t()
    heckes = [engine.t_m(Poly(space.ctx.fq, m)) for m in hecke_ms]
    return Operators(engine, ut, heckes, [engine.diamond(a) for a in space.ctx.theta])


def _reps(space):
    return [space.graph.edge_orbits[key].rep for key in space.orbit_keys]


def _check_dimension(space, ops, rng):
    # the constructor gates the depth-(D+1) dimension; the record adds
    # whether the re-solve spans the same cocycles
    ok = space.dim == space.expected_dim and space.depth_stable
    return ok, {"dim": space.dim, "depth_stable": space.depth_stable}


def _check_harmonicity(space, ops, rng):
    """Zero residual at every interior vertex orbit, for every basis cocycle."""
    interior = space.graph.interior_vertex_orbits()
    ok = not any(any(space.harmonicity_residual(vorbit.rep)) for vorbit in interior)
    return ok, {"vertex_orbits": len(interior)}


def _check_antisymmetry(space, ops, rng):
    """c(-e) = -c(e) on every orbit representative."""
    ok = not any(any(space.sum_values([e, e.reverse()], space.basis_rows)) for e in _reps(space))
    return ok, {}


def _check_equivariance(space, ops, rng):
    """c(gamma e) = gamma . c(e) on 25 random (gamma, e, c).

    Each e is an orbit representative moved by the fixed word
    gamma_0 = (1 1; 0 1)(1 0; t^n 1) of Gamma_1(t^n).  At a representative
    the witness of gamma e is gamma itself, so the two sides would agree
    for any map in place of the action; off it they agree only when the
    action composes as gamma . (gamma_0 . v) = (gamma gamma_0) . v.
    """
    ctx = space.ctx
    tn = ctx.one.shift(ctx.n)
    gamma0 = Mat2(ctx.one + tn, ctx.one, tn, ctx.one)
    orbits = [space.graph.edge_orbits[key] for key in space.orbit_keys]
    safe = [o for o in orbits if o.depth <= space.depth - 3] or orbits[:4]
    moved = {}
    for _ in range(25):
        gamma = _random_gamma(ctx, rng)
        i = rng.randrange(len(safe))
        if i not in moved:
            moved[i] = apply_edge(gamma0, safe[i].rep, ctx.fq)
        e = moved[i]
        c = space.basis[rng.randrange(len(space.basis))]
        lhs = space.evaluate(c, apply_edge(gamma, e, ctx.fq))
        if lhs != tuple(space.vk.act(gamma).apply(space.evaluate(c, e))):
            return False, {}
    return True, {}


def _check_source_sum(space, ops, rng):
    """The predecessor sum at o(e) is c(e) on the shallow unstable orbits."""
    graph = space.graph
    interior = {vorbit.rep for vorbit in graph.interior_vertex_orbits()}
    edges = [
        e
        for orbit in (graph.edge_orbits[key] for key in space.orbit_keys)
        if orbit.depth <= 3 and not orbit.stable
        for e in (orbit.rep, orbit.rep.reverse())
        if e.origin in interior
    ]
    rows = space.rows(space.basis[:4])
    ok = all(space.predecessor_sum(e, rows) == space.sum_values([e], rows) for e in edges)
    return ok, {}


def _check_orbit_invariance(space, ops, rng):
    """Classification is constant on orbits: 50 random translates, each
    reached from its representative by a witness in Gamma_1(t^n)."""
    graph, fq = space.graph, space.ctx.fq
    reps = _reps(space)
    for _ in range(50):
        e = reps[rng.randrange(len(reps))]
        key0 = graph.tree.reduce_edge(e)[0]
        e2 = apply_edge(_random_gamma(space.ctx, rng), e, fq)
        orbit, key, sign, delta = graph.classify(e2)
        if orbit is None or key != key0:
            return False, {}
        if apply_edge(delta, orbit.rep if sign == 1 else orbit.rep.reverse(), fq) != e2:
            return False, {}
        if not is_gamma1(delta, space.ctx.n):
            return False, {}
    return True, {}


def _check_delta_basis(space, ops, rng):
    """Cocycle j is 1 at stable representative j and 0 at the others."""
    zero, one = space.ring.zero, space.ring.one
    ok = all(
        c.get(key, (zero,))[0] == (one if i == j else zero)
        for j, c in enumerate(space.basis)
        for i, key in enumerate(space.stable_keys)
    )
    return ok, {}


def _check_certificate(space, ops, rng):
    cert = ordinary_certificate(ops.ut, ops.heckes)
    return cert.valid(), {"detail": cert.to_json_dict()}


def _check_diamond_commutation(space, ops, rng):
    ok = all(dia.commutes(op) for dia in ops.diamonds for op in (ops.ut, *ops.heckes))
    return ok, {}


def _check_diamond_homomorphism(space, ops, rng):
    """<a1><a2> = <a1 a2> on the full unit group ``ctx.theta``."""
    theta, n = space.ctx.theta, space.ctx.n
    cols = {alpha.coeffs: dia.cols for alpha, dia in zip(theta, ops.diamonds)}
    ok = all(
        d1.apply_all(d2.cols) == cols[(a1 * a2).truncate(n).coeffs]
        for a1, d1 in zip(theta, ops.diamonds)
        for a2, d2 in zip(theta, ops.diamonds)
    )
    return ok, {}


def _check_diamond_closed_form(space, ops, rng):
    """<1 + t a> is the permutation of the labels by a, in the delta basis."""
    ctx = space.ctx
    ok = all(
        ops.engine.diamond((ctx.one + ctx.t * a).truncate(ctx.n)).cols
        == diamond_permutation_matrix(space, a)
        for a in ctx.labels
    )
    return ok, {}


def _check_nilpotency(space, ops, rng):
    report = nilpotency_diagnostics(ops.ut)
    return report["status"], {
        field: report[field] for field in ("nilpotent_dimension", "nilpotency_index", "note")
    }


_QN, _QNK, _SEEDED = ("q", "n"), ("q", "n", "k"), ("q", "n", "k", "seed")

# (record name, lemma, check, weight 2 only, params keys), run in this order:
# equivariance draws from the generator before orbit-invariance does.  The
# weight-2 statements delta-basis and diamond-closed-form carry no k.
SPACE_CHECKS = (
    ("dimension", "cocycle-dimension", _check_dimension, False, _QNK),
    ("harmonicity", "harmonicity-residual", _check_harmonicity, False, _QNK),
    ("antisymmetry", "antisymmetry", _check_antisymmetry, False, _QNK),
    ("equivariance", "equivariance", _check_equivariance, False, _SEEDED),
    ("source-sum", "source-sum-recursion", _check_source_sum, False, _QNK),
    ("orbit-invariance", "classification-orbit-invariance", _check_orbit_invariance, False, _SEEDED),
    ("delta-basis", "delta-basis", _check_delta_basis, True, _QN),
    ("ordinary-certificate", "ordinary-certificate", _check_certificate, False, _QNK),
    ("diamond-commutation", "diamond-hecke-commutation", _check_diamond_commutation, False, _QNK),
    ("diamond-homomorphism", "diamond-group-action", _check_diamond_homomorphism, False, _QNK),
    ("diamond-closed-form", "diamond-label-permutation", _check_diamond_closed_form, True, _QN),
    ("nilpotency", "nonordinary-nilpotency", _check_nilpotency, True, _QNK),
)


def _space_item(q, n, k, seed, hecke_ms, max_orbits=MAX_ORBITS):
    space = CocycleSpace(group_context(q, n), k, max_orbits=max_orbits)
    ops = space_operators(space, hecke_ms)
    rng = random.Random(seed)
    values = {"q": q, "n": n, "k": k, "seed": seed}
    base = f"space/q{q}n{n}k{k}"
    records = []
    for name, lemma, check, weight2_only, keys in SPACE_CHECKS:
        if k == 2 or not weight2_only:
            status, extra = check(space, ops, rng)
            params = {key: values[key] for key in keys}
            records.append(_record(f"{base}/{name}", lemma, params, status, **extra))
    # diagnostic only: [U_t, T_m] is reported, never asserted
    return records + [
        _record(
            f"{base}/diagnostic-ut-{tm.name}", "ut-tm-commutator-diagnostic",
            {"q": q, "n": n, "k": k}, "diagnostic", commutes=ops.ut.commutes(tm),
        )
        for tm in ops.heckes
    ]


_RUNNERS = {
    "goss": _goss_item,
    "pullback": _pullback_item,
    "congruence": _congruence_item,
    "cusps": _cusp_item,
    "stable-count": _stable_count_item,
    "freeness": _freeness_item,
    "space": _space_item,
}


def run_item(item):
    kind, params = item
    return _RUNNERS[kind](**params)


def hecke_m_coeffs(q):
    """Coefficient lists for the default T_m moduli: t+1, and t^2+t+1 when
    it is irreducible (degree-2 coverage for q = 2)."""
    fq = field(q)
    t, one = Poly.t(fq), Poly.one(fq)
    out = [list((t + one).coeffs)]
    deg2 = t * t + t + one
    if poly_is_irreducible(deg2):
        out.append(list(deg2.coeffs))
    return out


# the goss items' least series precision; the pullback items' levels
# l <= PULLBACK_LMAX and their precision
GOSS_PRECISION = 64
PULLBACK_LMAX = 3
PULLBACK_PRECISION = 8


def goss_suite_items(qs, imax=None):
    items = []
    for q in qs:
        fq = field(q)
        bound = q * q if imax is None else imax
        for m in goss_m_list(fq):
            # verify_coeff_scaling needs q^deg(m) + 2 terms, 66 at q = 8
            prec = max(GOSS_PRECISION, q ** int(m.degree) + 2)
            items.append(
                ("goss", {"q": q, "mcoeffs": list(m.coeffs), "imax": bound, "precision": prec})
            )
        items.append(("pullback", {"q": q, "lmax": PULLBACK_LMAX, "precision": PULLBACK_PRECISION}))
    return items


def congruence_suite_items(qs, nmax_for):
    items = []
    for q in qs:
        for n in range(1, nmax_for(q) + 1):
            items.append(("congruence", {"q": q, "n": n}))
    return items


def paper_nmax(q, nmax=None):
    """The largest level of the paper grid: ``nmax``, else 3 for q = 2 and 2 above."""
    if nmax is not None:
        return nmax
    return 3 if q == 2 else 2


def paper_suite_items(qs, nmax=None, kmax=4, seed=0, max_orbits=MAX_ORBITS):
    """The verification grid over n <= :func:`paper_nmax`.

    ``max_orbits`` bounds the orbit tables of the stable-count and space items.
    """
    items = goss_suite_items(qs)
    items += congruence_suite_items(qs, lambda q: paper_nmax(q, nmax))
    for q in qs:
        for n in range(1, paper_nmax(q, nmax) + 1):
            items.append(("cusps", {"q": q, "n": n}))
            items.append(("stable-count", {"q": q, "n": n, "max_orbits": max_orbits}))
            items.append(("freeness", {"q": q, "n": n}))
            for k in range(2, kmax + 1):
                items.append(
                    (
                        "space",
                        {
                            "q": q,
                            "n": n,
                            "k": k,
                            "seed": seed + 1000 * q + 100 * n + k,
                            "hecke_ms": hecke_m_coeffs(q) if k == 2 else hecke_m_coeffs(q)[:1],
                            "max_orbits": max_orbits,
                        },
                    )
                )
    return items


def run_suite(items, jobs=1):
    """Execute suite items; returns records sorted by id.

    At most min(jobs, items, CPUs) worker processes are started.
    """
    records = []
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers > 1:
        # imported only here: a run in one process loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for recs in pool.map(run_item, items):
                records.extend(recs)
    else:
        for item in items:
            records.extend(run_item(item))
    records.sort(key=lambda r: r["id"])
    return records


def suite_passed(records):
    return all(r["status"] in (True, "skipped", "diagnostic") for r in records)
