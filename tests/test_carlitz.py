import json
import random

import pytest

from drinfeldforms import carlitz, verify
from drinfeldforms.carlitz import (
    carlitz_phi,
    exp_coeffs,
    goss_polynomials,
    goss_polynomials_oracle,
    torsion_exponential,
    verify_coeff_scaling,
    verify_uniformizer_pullback,
)
from drinfeldforms.cli import main
from drinfeldforms.fq import field
from drinfeldforms.linalg import DictRing, UPoly
from drinfeldforms.rings import Poly, RatFunc
from oracles import k_ring


def rand_poly(fq, rng, maxdeg):
    return Poly(fq, [rng.randrange(fq.q) for _ in range(rng.randrange(1, maxdeg + 2))])


def test_phi_t_and_examples():
    fq = field(2)
    t, one = Poly.t(fq), Poly.one(fq)
    phi_t = carlitz_phi(t)
    assert phi_t.coeffs == [t, one]
    assert carlitz_phi(one).coeffs == [one]
    phi_t2 = carlitz_phi(t * t)
    assert phi_t2.coeffs == [t * t, t + t ** fq.q, one]
    with pytest.raises(ValueError):
        carlitz_phi(Poly.zero(fq))


@pytest.mark.parametrize("q", [2, 3])
def test_module_axiom_randomized(q):
    fq = field(q)
    rng = random.Random(q * 7)
    for _ in range(15):
        a = rand_poly(fq, rng, 3)
        b = rand_poly(fq, rng, 3)
        if a.is_zero() or b.is_zero():
            continue
        assert carlitz_phi(a * b) == carlitz.compose(carlitz_phi(a), carlitz_phi(b))
        assert carlitz.compose(carlitz_phi(a), carlitz_phi(b)) == carlitz.compose(carlitz_phi(b), carlitz_phi(a))


def irreducibles(fq, maxdeg):
    from drinfeldforms.rings import graded_polys, poly_is_irreducible

    out = []
    for p in graded_polys(fq, maxdeg + 1):
        if p.is_monic() and poly_is_irreducible(p):
            out.append(p)
    return out


@pytest.mark.parametrize("q", [2, 3])
def test_exp_coeffs_integrality(q):
    fq = field(q)
    for m in irreducibles(fq, 3):
        alphas = exp_coeffs(m)
        r = int(m.degree)
        assert all(alphas[i].is_poly() for i in range(r))
        assert alphas[r] == RatFunc(Poly.one(fq), m)
        assert alphas[0].is_one() or alphas[0] == RatFunc.from_poly(m) / RatFunc.from_poly(m)


def test_goss_small_closed_forms():
    fq = field(2)
    t = Poly.t(fq)
    gs = goss_polynomials(t, 3)
    K = k_ring(fq)
    x = UPoly.x(K)
    assert gs[0] == x
    assert gs[1] == x * x  # q = 2, m = t: G_2 = X^2
    tinv = RatFunc(Poly.one(fq), t)
    assert gs[2] == x ** 3 + UPoly(K, [K.zero, K.zero, tinv])


@pytest.mark.parametrize("q", [2, 3])
def test_goss_recursion_matches_generating_oracle(q):
    fq = field(q)
    for m in irreducibles(fq, 2):
        imax = q * q + 3
        rec = goss_polynomials(m, imax)
        ora = goss_polynomials_oracle(m, imax)
        assert rec == ora
        # G_1 = X; no constant or linear terms beyond G_1
        assert rec[0] == UPoly.x(k_ring(fq))
        for g in rec[1:]:
            assert g.coeff(0).is_zero() and g.coeff(1).is_zero()


def test_goss_requires_irreducible():
    fq = field(3)
    t, one = Poly.t(fq), Poly.one(fq)
    with pytest.raises(ValueError):
        goss_polynomials(t * t + t + one, 4)  # (t-1)^2 over F_3
    with pytest.raises(ValueError):
        goss_polynomials(t * t, 4)


def test_torsion_exponential_is_sparse():
    fq = field(2)
    m = Poly.t(fq) * Poly.t(fq) + Poly.t(fq) + Poly.one(fq)
    dense = torsion_exponential(m)
    support = [i for i, c in enumerate(dense) if not c.is_zero()]
    assert support == [1, 2, 4]  # q^0, q^1, q^2


@pytest.mark.parametrize("q", [2, 3])
def test_coeff_scaling_certificates(q):
    fq = field(q)
    t, one = Poly.t(fq), Poly.one(fq)
    ms = [t, t + one]
    deg2 = t * t + t + one
    from drinfeldforms.rings import poly_is_irreducible

    if poly_is_irreducible(deg2):
        ms.append(deg2)
    else:
        ms.append(t * t + one)
    for m in ms:
        rep = verify_coeff_scaling(m, q * q, 64)
        assert rep["status"], rep
        assert rep["items"]["linear-goss-scaling"]
        assert rep["items"]["higher-goss-scaling"]
        assert rep["items"]["pullback-order"]
        assert rep["pullback_order"] == q ** int(m.degree)


@pytest.mark.parametrize("q,mcoeffs", [(2, [1, 1, 1]), (3, [1, 0, 1]), (4, [0, 1])])
def test_goss_item_computes_phi_alphas_and_goss_polynomials_once(q, mcoeffs, monkeypatch):
    # every call is counted, from the item and from inside carlitz alike
    calls = {}
    for name in ("carlitz_phi", "exp_coeffs", "goss_polynomials"):
        def counted(*args, _f=getattr(carlitz, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(carlitz, name, counted)
        # verify calls the names it imports, if it imports them
        monkeypatch.setattr(verify, name, counted, raising=False)
    item = next(it for it in verify.goss_suite_items([q]) if it[1].get("mcoeffs") == mcoeffs)
    (record,) = verify.run_item(item)
    assert record["status"] is True, record
    assert calls == {"carlitz_phi": 1, "exp_coeffs": 1, "goss_polynomials": 1}


def test_pullback_order_reads_false_without_a_series_over_a(monkeypatch):
    # u(mz) is expanded over A: with no inverse of its denominator there,
    # the sub-item and the certificate read false, and the rest still hold
    def no_inverse(self, n):
        raise ZeroDivisionError("no series inverse over A")

    m = Poly.t(field(3)) + Poly.one(field(3))
    monkeypatch.setattr(UPoly, "series_inverse", no_inverse)
    rep = verify_coeff_scaling(m, 9, 64)
    assert rep["items"] == {"linear-goss-scaling": True, "higher-goss-scaling": True, "pullback-order": False}
    assert rep["status"] is False and rep["pullback_order"] is None
    (record,) = verify.run_item(("goss", {"q": 3, "mcoeffs": [1, 1], "imax": 9, "precision": 64}))
    assert record["status"] is False and record["items"]["pullback-order"] is False
    assert record["recursion_matches_oracle"] and record["exp_coeffs_integral"]


@pytest.mark.parametrize("q,coefficient", [(2, "t^2"), (3, "t^2+2*t+2")])
def test_goss_scaling_items_read_false_on_hand_made_polynomials(q, coefficient):
    # G_1 = X and, for i >= 2, g_0 = g_1 = 0 and den(g_j) | m^(j-1): each
    # hand-made gs breaks one of these, or meets the last one exactly
    fq = field(q)
    K = k_ring(fq)
    m = Poly.t(fq) + Poly.one(fq)
    gs = goss_polynomials(m, 4)
    inv_m = RatFunc(Poly.one(fq), m)

    def items(*changed):
        hand = list(gs)
        for i, g in changed:
            hand[i - 1] = g
        rep = verify_coeff_scaling(m, 4, 64, gs=hand)
        assert rep["status"] is all(rep["items"].values()) and rep["items"]["pullback-order"]
        return rep["items"]["linear-goss-scaling"], rep["items"]["higher-goss-scaling"], rep["witness"]

    def mono(c, j):
        return UPoly(K, [K.zero] * j + [c])

    linear = {"i": 2, "reason": "nonzero constant or linear term"}
    assert items() == (True, True, None)
    assert items((1, mono(RatFunc.from_poly(m), 1))) == (False, True, None)
    assert items((1, UPoly.x(K) + UPoly.one(K))) == (False, True, None)
    assert items((2, gs[1] + UPoly.x(K))) == (True, False, linear)
    assert items((2, gs[1] + UPoly.one(K))) == (True, False, linear)
    assert items((2, gs[1] + mono(inv_m * inv_m, 2))) == (True, False, {"i": 2, "coefficient": coefficient})
    assert items((3, gs[2] + mono(inv_m * inv_m, 3))) == (True, True, None)
    assert items((4, gs[3] + mono(inv_m * inv_m * inv_m, 3))) == (True, False, {"i": 4, "coefficient": "1"})


def test_coeff_scaling_precision_guard():
    fq = field(2)
    with pytest.raises(ValueError):
        verify_coeff_scaling(Poly.t(fq), 4, 3)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("l", [1, 2, 3])
def test_uniformizer_pullback(q, l):
    rep = verify_uniformizer_pullback(field(q), l, 6)
    assert rep["status"], rep


@pytest.mark.parametrize("q", [2, 3])
def test_a_non_unit_constant_leaves_the_ring(q):
    # 1/(t + t beta zeta u) has no expansion over A[beta, zeta]: the item
    # reads false instead of raising in series_inverse
    fq = field(q)
    rep = verify_uniformizer_pullback(fq, 1, 6, constant=Poly.t(fq))
    assert rep["items"]["coefficients-in-ring"] is False
    assert rep["status"] is False
    unit = verify_uniformizer_pullback(fq, 1, 6, constant=Poly.one(fq))
    assert unit == verify_uniformizer_pullback(fq, 1, 6)
    assert unit["items"]["coefficients-in-ring"] is True


def test_a_non_unit_constant_fails_the_goss_run(monkeypatch, tmp_path):
    def pullback(fq, l, precision):
        return verify_uniformizer_pullback(fq, l, precision, constant=Poly.t(fq))

    out = tmp_path / "goss.json"
    assert main(["verify", "--suite", "goss", "--q", "2", "--jobs", "1", "--out", str(out)]) == 0
    monkeypatch.setattr(verify, "verify_uniformizer_pullback", pullback)
    assert main(["verify", "--suite", "goss", "--q", "2", "--jobs", "1", "--out", str(out)]) == 1
    records = json.loads(out.read_text())["items"]
    failed = [r["id"] for r in records if r["status"] is False]
    assert failed == ["pullback/q2/l1", "pullback/q2/l2", "pullback/q2/l3"]
    assert all(not r["items"]["coefficients-in-ring"] for r in records if r["id"] in failed)


def test_symbolic_units_are_the_nonzero_constants():
    # the units of A and of A[y], y = beta*zeta, are the nonzero constants of F_q
    fq = field(3)
    base = DictRing(Poly.zero(fq), Poly.one(fq))
    t, two = Poly.t(fq), Poly.constant(fq, 2)
    assert two.inverse() == two and two * two.inverse() == base.one
    y = UPoly(base, [base.zero, base.one])
    two_ay = UPoly(base, [two])
    assert two_ay.inverse() * two_ay == UPoly.one(base)
    for x in (base.zero, t, t + two):
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    for x in (UPoly.zero(base), UPoly(base, [t]), y, two_ay + y):
        with pytest.raises(ZeroDivisionError):
            x.inverse()


def test_uniformizer_pullback_leading_terms():
    # l = 1, q = 3: t*u - t^2 y u^2 + t^3 y^2 u^3 - ..., y = beta*zeta
    fq = field(3)
    base = DictRing(Poly.zero(fq), Poly.one(fq))
    ring = DictRing(UPoly.zero(base), UPoly.one(base))
    t = Poly.t(fq)

    def monomial(c, k):
        return UPoly(base, [base.zero] * k + [c])

    den = UPoly(ring, [ring.one, monomial(t, 1)])
    series = (UPoly(ring, [ring.zero, monomial(t, 0)]) * den.series_inverse(4)).truncate(4)
    assert series.coeff(1) == monomial(t, 0)
    assert series.coeff(2) == -monomial(t * t, 1)
    assert series.coeff(3) == monomial(t * t * t, 2)


def test_torsion_pullback_expansion_coefficients():
    # m = t, q = 2: u(tz) = u^2/(1 + t u) = u^2 + t u^3 + t^2 u^4 + ...
    fq = field(2)
    ring = k_ring(fq)
    t = RatFunc.from_poly(Poly.t(fq))
    den = UPoly(ring, [ring.one, t])
    series = (UPoly(ring, [ring.zero, ring.zero, ring.one]) * den.series_inverse(6)).truncate(6)
    assert series.order() == 2
    for j in range(2, 6):
        assert series.coeff(j) == RatFunc.from_poly(Poly.t_power(fq, j - 2))


def test_pullback_reports_the_expansion_to_its_precision():
    # q = 2, l = 1: t*u + t^2 beta zeta u^2 + t^3 beta^2 zeta^2 u^3 + ...
    fq = field(2)
    t = Poly.t(fq)
    rep = verify_uniformizer_pullback(fq, 1, 3)
    assert rep["status"], rep
    assert rep["sample_terms"] == ["0", f"({t})", "(t^2)*beta*zeta"]
    # q = 3, l = 2: t*u - t^3 y u^2 + t^5 y^2 u^3 - ..., y = beta*zeta
    rep = verify_uniformizer_pullback(field(3), 2, 8)
    assert rep["status"], rep
    assert rep["sample_terms"] == ["0", "(t)", "(2*t^3)*beta*zeta", "(t^5)*beta^2*zeta^2"]


@pytest.mark.parametrize("q", [2, 3, 4])
def test_scaling_series_starts_at_q_to_the_degree(q):
    # u(mz) for m = t + 1 of degree 1: u^q / (1 + m u^(q - 1))
    fq = field(q)
    m = Poly.t(fq) + Poly.one(fq)
    rep = verify_coeff_scaling(m, 2, q + 2)
    assert rep["status"], rep
    assert rep["pullback_order"] == q
