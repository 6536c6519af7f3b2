"""Executable verification suites.

Each suite is a list of independent items (kind, params) with primitive
parameters; :func:`run_suite` executes them sequentially or in a process
pool and returns records {id, lemma, params, status, ...} sorted by id.
The ``paper`` suite aggregates every checker in the package: the
torsion-scaling and uniformizer-pullback expansions, the coset
congruences, cusp/genus counting, stable-orbit counts, the weight-2
dimension and delta basis, the diamond closed form and freeness, and the
ordinary certificates with their property gates (harmonicity,
antisymmetry, equivariance, depth stability, commutators, orbit
invariance under random translates).
"""

import os
import random
from concurrent.futures import ProcessPoolExecutor

from .carlitz import (
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
from .rings import Poly, RatFunc, poly_is_irreducible
from .tree import MAX_ORBITS, QuotientGraph, apply_edge


def goss_m_list(fq):
    """The degree <= 2 test moduli: t, t+1, t^2+t+1.

    A reducible t^2+t+1 (it factors as (t-1)^2 when 3 = 0) stays in the
    list so the suite records it as skipped, and a degree-2 irreducible
    substitute is appended to keep the coverage.
    """
    t, one = Poly.t(fq), Poly.one(fq)
    out = [t, t + one]
    deg2 = t * t + t + one
    out.append(deg2)
    if not poly_is_irreducible(deg2):
        for cands in ([1, 0, 1], [2, 0, 1], [1, 1, 1], [2, 1, 1], [1, 2, 1], [2, 2, 1]):
            cand = Poly(fq, [fq.from_int(c) for c in cands])
            if poly_is_irreducible(cand):
                out.append(cand)
                break
    return out


def _goss_item(q, mcoeffs, imax, precision):
    fq = field(q)
    m = Poly(fq, mcoeffs)
    rec = {
        "id": f"goss/q{q}/m({m})",
        "lemma": "torsion-scaling",
        "params": {"q": q, "m": str(m), "imax": imax},
    }
    if not poly_is_irreducible(m):
        rec["status"] = "skipped"
        rec["reason"] = f"{m} is reducible over F_{q}"
        return [rec]
    recursion = goss_polynomials(m, imax)
    oracle = goss_polynomials_oracle(m, imax)
    agree = all(a == b for a, b in zip(recursion, oracle))
    alphas = exp_coeffs(m)
    r = int(m.degree)
    integral = all(alphas[i].is_poly() for i in range(r)) and alphas[r] == RatFunc(
        Poly.one(fq), m
    )
    cert = verify_coeff_scaling(m, imax, precision)
    rec["status"] = bool(agree and integral and cert["status"])
    rec["recursion_matches_oracle"] = agree
    rec["exp_coeffs_integral"] = integral
    rec["items"] = cert["items"]
    return [rec]


def _pullback_item(q, lmax, precision):
    fq = field(q)
    out = []
    for l in range(1, lmax + 1):
        cert = verify_uniformizer_pullback(fq, l, precision)
        out.append(
            {
                "id": f"pullback/q{q}/l{l}",
                "lemma": cert["lemma"],
                "params": cert["params"],
                "status": cert["status"],
                "items": cert["items"],
            }
        )
    return out


def _congruence_item(q, n):
    xi = verify_xi_congruences(q, n)
    dia = verify_diamond_congruence(q, n)
    cosets = distinct_coset_check(q, n)
    return [
        {
            "id": f"congruence/xi/q{q}n{n}",
            "lemma": xi["lemma"],
            "params": xi["params"],
            "status": xi["status"],
            "checked": xi["checked"],
            "witness": xi["witness"],
        },
        {
            "id": f"congruence/diamond/q{q}n{n}",
            "lemma": dia["lemma"],
            "params": dia["params"],
            "status": dia["status"],
            "checked": dia["checked"],
            "witness": dia["witness"],
        },
        {
            "id": f"congruence/cosets/q{q}n{n}",
            "lemma": "distinct-coset-representatives",
            "params": {"q": q, "n": n},
            "status": cosets,
        },
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
    return [
        {
            "id": f"cusps/q{q}n{n}",
            "lemma": "cusp-count-genus",
            "params": {"q": q, "n": n},
            "status": bool(ok_identity and widths_ok and len(labels) == h),
            "h": h,
            "g": g,
            "identity": ok_identity,
        }
    ]


def _stable_count_item(q, n, max_orbits=MAX_ORBITS):
    ctx = group_context(q, n)
    graph = QuotientGraph(ctx, depth=2, max_orbits=max_orbits)
    stables = [o for o in graph.edge_orbits.values() if o.stable]
    want = ctx.dim_weight2()
    return [
        {
            "id": f"stable-count/q{q}n{n}",
            "lemma": "stable-orbit-count",
            "params": {"q": q, "n": n},
            "status": len(stables) == want,
            "count": len(stables),
            "expected": want,
        }
    ]


def _freeness_item(q, n):
    ctx = group_context(q, n)
    rec = verify_freeness(ctx)
    return [
        {
            "id": f"freeness/q{q}n{n}",
            "lemma": rec["lemma"],
            "params": rec["params"],
            "status": rec["status"],
            "orbits": rec["orbits"],
            "orbit_sizes": rec["orbit_sizes"],
        }
    ]


def _random_gamma(ctx, rng):
    """A random word in Gamma_1(t^n) from upper and t^n-lower unipotents."""
    fq = ctx.fq
    m = Mat2.identity_poly(fq)
    for _ in range(4):
        b = Poly(fq, [rng.randrange(fq.q) for _ in range(rng.randrange(1, 3))])
        if rng.random() < 0.5:
            m = m * Mat2.translation(b)
        else:
            m = m * Mat2(Poly.one(fq), Poly.zero(fq), b.shift(ctx.n), Poly.one(fq))
    return m


def _space_item(q, n, k, seed, hecke_ms, max_orbits=MAX_ORBITS):
    ctx = group_context(q, n)
    fq = ctx.fq
    rng = random.Random(seed)
    records = []
    base = f"space/q{q}n{n}k{k}"
    # the constructor gates the depth-(D+1) dimension; the record adds
    # whether the re-solve spans the same cocycles
    space = CocycleSpace(ctx, k, check_stability=True, max_orbits=max_orbits)
    depth_stable = space.depth_stable is True
    records.append(
        {
            "id": f"{base}/dimension",
            "lemma": "cocycle-dimension",
            "params": {"q": q, "n": n, "k": k},
            "status": space.dim == (k - 1) * ctx.dim_weight2() and depth_stable,
            "dim": space.dim,
            "depth_stable": depth_stable,
        }
    )
    graph = space.graph
    # harmonicity residual at every interior vertex orbit, all basis cocycles
    interior = graph.interior_vertex_orbits()
    harm_ok = True
    for cocycle in space.basis:
        for vorbit in interior:
            if any(x for x in space.harmonicity_residual(cocycle, vorbit.rep)):
                harm_ok = False
                break
        if not harm_ok:
            break
    records.append(
        {
            "id": f"{base}/harmonicity",
            "lemma": "harmonicity-residual",
            "params": {"q": q, "n": n, "k": k},
            "status": harm_ok,
            "vertex_orbits": len(interior),
        }
    )
    # antisymmetry on every representative
    anti_ok = True
    for cocycle in space.basis:
        for key in space.orbit_keys:
            rep = graph.edge_orbits[key].rep
            plus = space.evaluate(cocycle, rep)
            minus = space.evaluate(cocycle, rep.reverse())
            if any(a + b for a, b in zip(plus, minus)):
                anti_ok = False
                break
        if not anti_ok:
            break
    records.append(
        {
            "id": f"{base}/antisymmetry",
            "lemma": "antisymmetry",
            "params": {"q": q, "n": n, "k": k},
            "status": anti_ok,
        }
    )
    # equivariance on 25 random (gamma, e) pairs
    equi_ok = True
    reps = [graph.edge_orbits[key].rep for key in space.orbit_keys]
    safe_reps = [
        graph.edge_orbits[key].rep
        for key in space.orbit_keys
        if graph.edge_orbits[key].depth <= space.depth - 3
    ] or reps[:4]
    for _ in range(25):
        gamma = _random_gamma(ctx, rng)
        e = safe_reps[rng.randrange(len(safe_reps))]
        cocycle = space.basis[rng.randrange(len(space.basis))]
        lhs = space.evaluate(cocycle, apply_edge(gamma, e, fq))
        rhs = tuple(space.vk.act(gamma).apply(space.evaluate(cocycle, e)))
        if lhs != rhs:
            equi_ok = False
            break
    records.append(
        {
            "id": f"{base}/equivariance",
            "lemma": "equivariance",
            "params": {"q": q, "n": n, "k": k, "seed": seed},
            "status": equi_ok,
        }
    )
    # predecessor (source-sum) consistency on shallow unstable orbits
    src_ok = True
    interior_vertices = {vo.rep for vo in interior}
    for cocycle in space.basis[: min(4, len(space.basis))]:
        for key in space.orbit_keys:
            orbit = graph.edge_orbits[key]
            if orbit.depth > 3 or orbit.stable:
                continue
            for e in (orbit.rep, orbit.rep.reverse()):
                if e.origin not in interior_vertices:
                    continue
                if space.predecessor_sum(cocycle, e) != space.evaluate(cocycle, e):
                    src_ok = False
                    break
            if not src_ok:
                break
        if not src_ok:
            break
    records.append(
        {
            "id": f"{base}/source-sum",
            "lemma": "source-sum-recursion",
            "params": {"q": q, "n": n, "k": k},
            "status": src_ok,
        }
    )
    # classification is constant on orbits: 50 random translates
    cls_ok = True
    for _ in range(50):
        e = reps[rng.randrange(len(reps))]
        key0 = graph.tree.reduce_edge(e)[0]
        gamma = _random_gamma(ctx, rng)
        e2 = apply_edge(gamma, e, fq)
        orbit, key, sign, delta = graph.classify(e2)
        if key != key0 or orbit is None:
            cls_ok = False
            break
        src = orbit.rep if sign == 1 else orbit.rep.reverse()
        if apply_edge(delta, src, fq) != e2:
            cls_ok = False
            break
    records.append(
        {
            "id": f"{base}/orbit-invariance",
            "lemma": "classification-orbit-invariance",
            "params": {"q": q, "n": n, "k": k, "seed": seed},
            "status": cls_ok,
        }
    )
    # weight-2 extras: delta property and the diamond closed form
    if k == 2:
        ring = space.ring
        delta_ok = True
        for j, cocycle in enumerate(space.basis):
            for i, key in enumerate(space.stable_keys):
                want = ring.one if i == j else ring.zero
                if cocycle.get(key, (ring.zero,))[0] != want:
                    delta_ok = False
        records.append(
            {
                "id": f"{base}/delta-basis",
                "lemma": "delta-basis",
                "params": {"q": q, "n": n},
                "status": delta_ok,
            }
        )
    # operators and the certificate
    engine = HeckeEngine(space)
    ut = engine.u_t()
    heckes = []
    for mcoeffs in hecke_ms:
        m = Poly(fq, mcoeffs)
        heckes.append(engine.t_m(m))
    cert = ordinary_certificate(ut, heckes)
    records.append(
        {
            "id": f"{base}/ordinary-certificate",
            "lemma": "ordinary-certificate",
            "params": {"q": q, "n": n, "k": k},
            "status": cert.valid(),
            "detail": cert.to_json_dict(),
        }
    )
    # diamond checks: homomorphism on the full label group, commutators
    diamonds = [engine.diamond(alpha) for alpha in ctx.theta]
    comm_ok = True
    for dia in diamonds:
        if not dia.commutator(ut).is_zero():
            comm_ok = False
        for tm in heckes:
            if not dia.commutator(tm).is_zero():
                comm_ok = False
    records.append(
        {
            "id": f"{base}/diamond-commutation",
            "lemma": "diamond-hecke-commutation",
            "params": {"q": q, "n": n, "k": k},
            "status": comm_ok,
        }
    )
    hom_ok = True
    index = {alpha.poly.coeffs: i for i, alpha in enumerate(ctx.theta)}
    for a1 in ctx.theta:
        for a2 in ctx.theta:
            prod = a1 * a2
            lhs = diamonds[index[a1.poly.coeffs]].matrix * diamonds[index[a2.poly.coeffs]].matrix
            rhs = diamonds[index[prod.poly.coeffs]].matrix
            if lhs != rhs:
                hom_ok = False
    records.append(
        {
            "id": f"{base}/diamond-homomorphism",
            "lemma": "diamond-group-action",
            "params": {"q": q, "n": n, "k": k},
            "status": hom_ok,
        }
    )
    if k == 2:
        match_ok = True
        for a in ctx.labels:
            alpha = (ctx.one + ctx.t * a).truncate(ctx.n)
            dia = engine.diamond(alpha)
            if dia.matrix != diamond_permutation_matrix(space, a):
                match_ok = False
        records.append(
            {
                "id": f"{base}/diamond-closed-form",
                "lemma": "diamond-label-permutation",
                "params": {"q": q, "n": n},
                "status": match_ok,
            }
        )
        records.append({"id": f"{base}/nilpotency", **nilpotency_diagnostics(ut)})
    # diagnostic only: [U_t, T_m] is reported, never asserted
    for tm in heckes:
        records.append(
            {
                "id": f"{base}/diagnostic-ut-{tm.name}",
                "lemma": "ut-tm-commutator-diagnostic",
                "params": {"q": q, "n": n, "k": k},
                "status": "diagnostic",
                "commutes": ut.commutator(tm).is_zero(),
            }
        )
    return records


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


def goss_suite_items(qs, imax=None, precision=64, lmax=3):
    items = []
    for q in qs:
        fq = field(q)
        bound = q * q if imax is None else imax
        for m in goss_m_list(fq):
            # verify_coeff_scaling needs q^deg(m) + 2 terms, 66 at q = 8
            prec = max(precision, q ** int(m.degree) + 2)
            items.append(
                ("goss", {"q": q, "mcoeffs": list(m.coeffs), "imax": bound, "precision": prec})
            )
        items.append(("pullback", {"q": q, "lmax": lmax, "precision": 8}))
    return items


def congruence_suite_items(qs, nmax_for):
    items = []
    for q in qs:
        for n in range(1, nmax_for(q) + 1):
            items.append(("congruence", {"q": q, "n": n}))
    return items


def paper_suite_items(qs, nmax=None, kmax=4, seed=0, max_orbits=MAX_ORBITS):
    """The default verification grid: n <= 3 for q = 2, n <= 2 for q >= 3.

    ``max_orbits`` bounds the orbit tables of the stable-count and space items.
    """

    def nlimit(q):
        if nmax is not None:
            return nmax
        return 3 if q == 2 else 2

    items = goss_suite_items(qs)
    items += congruence_suite_items(qs, nlimit)
    for q in qs:
        for n in range(1, nlimit(q) + 1):
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
