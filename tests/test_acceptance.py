"""The acceptance gate: one test per criterion, exact tolerances, with a
printed PASS line each (run with -s to see them inline)."""

import time

import pytest

from drinfeldforms.fq import field
from drinfeldforms.groups import group_context, verify_diamond_congruence, verify_xi_congruences
from drinfeldforms.hecke import nilpotency_diagnostics, ordinary_certificate, over_field, verify_freeness
from drinfeldforms.linalg import UPoly
from drinfeldforms.rings import Poly
from drinfeldforms.verify import _space_item, goss_suite_items, run_suite, suite_passed
from oracles import bareiss_rank, dense

WEIGHT2_GRID = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]
HIGHER_GRID = [(2, 1), (2, 2), (3, 1)]


def hecke_moduli(q):
    fq = field(q)
    t, one = Poly.t(fq), Poly.one(fq)
    out = [t + one]
    if q == 2:
        out.append(t * t + t + one)
    return out


def test_criterion_1_weight2_dimensions(cache):
    for q, n in WEIGHT2_GRID:
        t0 = time.perf_counter()
        space = cache.space(q, n, 2)
        elapsed = time.perf_counter() - t0
        assert space.dim == q ** (2 * (n - 1)), (q, n, space.dim)
        assert elapsed < 60
        print(f"ACCEPTANCE 1 (q={q}, n={n}): dim = {space.dim} = q^(2(n-1))  [{elapsed:.2f}s] PASS")


def test_criterion_2_higher_weight_dimensions(cache):
    for k in (3, 4):
        for q, n in HIGHER_GRID:
            t0 = time.perf_counter()
            space = cache.space(q, n, k)
            elapsed = time.perf_counter() - t0
            assert space.dim == (k - 1) * q ** (2 * (n - 1)), (q, n, k, space.dim)
            assert elapsed < 120
            print(
                f"ACCEPTANCE 2 (q={q}, n={n}, k={k}): dim = {space.dim} = (k-1)q^(2(n-1))  "
                f"[{elapsed:.2f}s] PASS"
            )


def test_criterion_3_main_theorem_weight2(cache):
    for q, n in WEIGHT2_GRID:
        t0 = time.perf_counter()
        eng = cache.engine(q, n, 2)
        ut = eng.u_t()
        heckes = [eng.t_m(m) for m in hecke_moduli(q)]
        cert = ordinary_certificate(ut, heckes)
        assert cert.valid(), cert.to_json_dict()
        d, r = ut.size, q ** (n - 1)
        assert cert.r == r
        ring = ut.ring
        x = UPoly.x(ring)
        assert cert.chi == x ** (d - r) * (x - UPoly.one(ring)) ** r
        elapsed = time.perf_counter() - t0
        assert elapsed < 120
        print(
            f"ACCEPTANCE 3 (q={q}, n={n}): chi(U_t) = X^{d - r}(X-1)^{r}, Hecke trivial on "
            f"ordinary part  [{elapsed:.2f}s] PASS"
        )


def test_criterion_4_main_theorem_higher_weight(cache):
    for k in (3, 4):
        for q, n in HIGHER_GRID:
            eng = cache.engine(q, n, k)
            ut = eng.u_t()
            heckes = [eng.t_m(m) for m in hecke_moduli(q)]
            cert = ordinary_certificate(ut, heckes)
            # the U_t side must pass unconditionally
            assert cert.flags["divisibility"], (q, n, k)
            assert cert.flags["positive_slope"], (q, n, k)
            assert cert.flags["unipotence_kill"], (q, n, k)
            # and every T_m is exactly the identity on the ordinary part
            assert cert.valid(), cert.to_json_dict()
            print(f"ACCEPTANCE 4 (q={q}, n={n}, k={k}): certificate valid; all Hecke flags exactly trivial PASS")


def test_criterion_5_level_t_reproduction(cache):
    t0 = time.perf_counter()
    for q in (2, 3):
        for k in (2, 3, 4, 5):
            eng = cache.engine(q, 1, k)
            ut = eng.u_t()
            tm = eng.t_m(hecke_moduli(q)[0])
            cert = ordinary_certificate(ut, [tm])
            assert cert.r == 1
            assert cert.valid(), cert.to_json_dict()
            u, t = dense(over_field(ut)), dense(over_field(tm))  # over chi's field
            proj = cert.chi_plus.eval_matrix(u)
            assert bareiss_rank(proj) == 1  # the ordinary part is one-dimensional
            assert (u * proj) == proj  # U_t acts as the identity on it
            assert (t * proj) == proj  # and so does T_m
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    print(f"ACCEPTANCE 5 (n=1, k=2..5, q=2,3): ordinary part is [1] for U_t and T_m  [{elapsed:.2f}s] PASS")


def test_criterion_6_freeness():
    t0 = time.perf_counter()
    for q, n in ((2, 2), (2, 3), (3, 2)):
        rec = verify_freeness(group_context(q, n))
        r = q ** (n - 1)
        assert rec["status"] and rec["orbits"] == r and rec["orbit_sizes"] == [r] * r
    elapsed = time.perf_counter() - t0
    assert elapsed < 1
    print(f"ACCEPTANCE 6: diamond label action fixed-point-free, q^(n-1) orbits of size q^(n-1)  [{elapsed:.2f}s] PASS")


def test_criterion_7_congruence_suite():
    t0 = time.perf_counter()
    for q in (2, 3):
        for n in (1, 2, 3):
            xi = verify_xi_congruences(q, n)
            dia = verify_diamond_congruence(q, n)
            assert xi["status"], xi["witness"]
            assert dia["status"], dia["witness"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    print(f"ACCEPTANCE 7: coset congruences hold for all beta, a, (c,d), q in {{2,3}}, n <= 3  [{elapsed:.2f}s] PASS")


def test_criterion_8_carlitz_goss_suite():
    t0 = time.perf_counter()
    records = run_suite(goss_suite_items([2, 3]))
    assert suite_passed(records)
    skips = [r for r in records if r["status"] == "skipped"]
    assert len(skips) == 1 and skips[0]["params"]["q"] == 3  # t^2+t+1 = (t-1)^2 over F_3
    ran = [r for r in records if r["status"] is True]
    assert len(ran) >= 12
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    print(
        f"ACCEPTANCE 8: torsion-scaling and pullback certificates pass (one reducible-m skip "
        f"recorded for q=3)  [{elapsed:.2f}s] PASS"
    )


def test_criterion_9_property_suites():
    t0 = time.perf_counter()
    for (q, n, k) in ((2, 2, 2), (3, 1, 3)):
        records = _space_item(q, n, k, seed=9, hecke_ms=[[1, 1]])
        for rec in records:
            assert rec["status"] in (True, "diagnostic"), rec
        lemmas = {r["lemma"] for r in records}
        for needed in (
            "harmonicity-residual",
            "antisymmetry",
            "equivariance",
            "source-sum-recursion",
            "classification-orbit-invariance",
            "diamond-hecke-commutation",
        ):
            assert needed in lemmas
    elapsed = time.perf_counter() - t0
    print(
        "ACCEPTANCE 9: harmonicity, antisymmetry, equivariance (25 pairs), depth stability, "
        f"commutators, orbit invariance (50 translates)  [{elapsed:.2f}s] PASS"
    )


def test_criterion_10_documented_exclusions(cache):
    # the square-vanishing filtration is not computed; the nonordinary
    # nilpotent block is the recorded indirect evidence
    diag = nilpotency_diagnostics(cache.engine(2, 2, 2).u_t())
    assert "not computed" in diag["note"]
    assert diag["nilpotent_dimension"] == 2
    records = _space_item(2, 2, 2, seed=1, hecke_ms=[[1, 1]])
    notes = [r for r in records if r["lemma"] == "nonordinary-nilpotency"]
    assert notes and "not computed" in notes[0]["note"]
    print(
        "ACCEPTANCE 10: direct double-cusp-vanishing computation excluded and documented; "
        "nilpotent block reported instead PASS"
    )
