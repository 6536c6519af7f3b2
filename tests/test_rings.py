import itertools
import random

import pytest

from drinfeldforms.fq import field
from drinfeldforms.rings import (
    NEG_INF,
    POS_INF,
    Poly,
    RatFunc,
    graded_polys,
    poly_gcd,
    poly_is_irreducible,
)
from oracles import laurent_expand, laurent_tail, poly_xgcd, tail_to_ratfunc, v_inf


def rand_poly(fq, rng, maxlen=5, nonzero=False):
    while True:
        p = Poly(fq, [rng.randrange(fq.q) for _ in range(rng.randrange(0, maxlen))])
        if not nonzero or not p.is_zero():
            return p


def test_degree_sentinel():
    fq = field(2)
    assert Poly.zero(fq).degree is NEG_INF
    assert Poly.zero(fq).vt() is POS_INF
    assert Poly.one(fq).degree == 0
    # -inf sentinel composes with degree arithmetic
    assert Poly.zero(fq).degree + 5 == NEG_INF


@pytest.mark.parametrize("q", [2, 3, 4])
def test_ring_axioms_randomized(q):
    fq = field(q)
    rng = random.Random(q)
    for _ in range(100):
        a, b, c = (rand_poly(fq, rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == Poly.zero(fq)


def test_divmod_and_gcd():
    fq = field(3)
    rng = random.Random(9)
    for _ in range(100):
        a = rand_poly(fq, rng)
        b = rand_poly(fq, rng, nonzero=True)
        quo, rem = divmod(a, b)
        assert quo * b + rem == a
        assert rem.degree < b.degree or rem.is_zero()
        g, x, y = poly_xgcd(a, b)
        assert x * a + y * b == g
        if not a.is_zero():
            assert (a % poly_gcd(a, b)).is_zero()


def test_vt_examples():
    fq = field(2)
    t, one = Poly.t(fq), Poly.one(fq)
    assert t.vt() == 1
    assert (one + t).vt() == 0
    assert RatFunc(Poly.t_power(fq, 3), one + t).vt() == 3
    assert Poly.zero(fq).vt() is POS_INF


@pytest.mark.parametrize("q", [2, 3])
def test_vt_additivity_randomized(q):
    fq = field(q)
    rng = random.Random(4 + q)
    for _ in range(60):
        x = RatFunc(rand_poly(fq, rng, nonzero=True), rand_poly(fq, rng, nonzero=True))
        y = RatFunc(rand_poly(fq, rng, nonzero=True), rand_poly(fq, rng, nonzero=True))
        assert (x * y).vt() == x.vt() + y.vt()


def test_bar_vt_examples():
    fq = field(2)
    t = Poly.t(fq)
    # the valuation of a class of A_n, capped at n, as the cusps read it
    assert min((t + t * t).truncate(2).vt(), 2) == 1
    assert min(Poly.zero(fq).vt(), 2) == 2
    assert min(Poly.one(fq).truncate(1).vt(), 1) == 0


def test_bar_vt_independent_of_lift():
    fq = field(3)
    rng = random.Random(31)
    for _ in range(50):
        p = rand_poly(fq, rng)
        lift2 = p + Poly.t_power(fq, 2) * rand_poly(fq, rng)
        assert min(p.truncate(2).vt(), 2) == min(lift2.truncate(2).vt(), 2) == min(p.vt(), 2)


def test_residue_inverse():
    fq = field(3)
    t, one = Poly.t(fq), Poly.one(fq)
    u = one + t + t * t
    assert (u * u.inverse_mod(3)).truncate(3).is_one()
    with pytest.raises(ZeroDivisionError):
        t.inverse_mod(3)
    # A_0 is the zero ring: every class is 0 and a unit, as diamond_label_map reads it at n = 1
    assert u.inverse_mod(0) == t.inverse_mod(0) == Poly.zero(fq)


def test_laurent_examples():
    fq = field(2)
    t, one = Poly.t(fq), Poly.one(fq)
    la = laurent_expand(RatFunc.from_poly(t), 3)
    assert la.lead == -1 and la.coeffs == (1, 0, 0)
    lb = laurent_expand(RatFunc(one, t - one), 3)
    assert lb.lead == 1 and lb.coeffs == (1, 1, 1)
    lc = laurent_expand(RatFunc(t * t + one, t), 4)
    assert lc.coeff(-1) == 1 and lc.coeff(0) == 0 and lc.coeff(1) == 1
    assert laurent_expand(RatFunc.zero(fq), 5).is_zero()
    with pytest.raises(ValueError):
        laurent_expand(RatFunc.from_poly(t), 0)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_laurent_product_inverse(q):
    fq = field(q)
    rng = random.Random(77 + q)
    for _ in range(40):
        x = RatFunc(rand_poly(fq, rng, nonzero=True), rand_poly(fq, rng, nonzero=True))
        prod = laurent_expand(x, 9).mul(laurent_expand(x.inverse(), 9))
        assert prod.is_one_to_precision()


def test_laurent_tail_roundtrip():
    fq = field(3)
    rng = random.Random(5)
    for _ in range(40):
        x = RatFunc(rand_poly(fq, rng, nonzero=True), rand_poly(fq, rng, nonzero=True))
        below = rng.randrange(-3, 6)
        tail = laurent_tail(x, below)
        assert all(e < below for e, _ in tail)
        # the tail is x modulo pi^below: the difference has valuation >= below
        s = tail_to_ratfunc(fq, tail)
        # built without a gcd, yet already in lowest terms
        assert s == RatFunc(s.num, s.den)
        diff = x - s
        assert diff.is_zero() or v_inf(diff) >= below


def test_irreducibility():
    fq2, fq3 = field(2), field(3)
    t2, one2 = Poly.t(fq2), Poly.one(fq2)
    assert poly_is_irreducible(t2 * t2 + t2 + one2)
    assert not poly_is_irreducible(t2 * t2 + one2)  # (t+1)^2
    t3, one3 = Poly.t(fq3), Poly.one(fq3)
    assert not poly_is_irreducible(t3 * t3 + t3 + one3)  # (t-1)^2 over F_3
    assert poly_is_irreducible(t3 * t3 + one3)


def _mobius(m):
    out, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


@pytest.mark.parametrize("q,dmax", [(2, 6), (3, 4), (4, 3), (5, 3), (7, 2), (8, 2), (9, 2)])
def test_irreducible_counts_are_gauss_counts(q, dmax):
    # Gauss: the monic irreducibles of degree d over F_q number
    # (1/d) sum_{e | d} mu(d/e) q^e
    fq = field(q)
    for d in range(1, dmax + 1):
        found = sum(
            poly_is_irreducible(Poly(fq, [*low, 1]))
            for low in itertools.product(range(q), repeat=d)
        )
        assert found * d == sum(_mobius(d // e) * q**e for e in range(1, d + 1) if d % e == 0), (q, d)


def test_enumeration_order():
    assert [p.coeffs for p in graded_polys(field(2), 2)] == [(), (1,), (0, 1), (1, 1)]
    for q in (2, 3, 4):
        fq = field(q)
        for k in range(4):
            coeffs = [p.coeffs for p in graded_polys(fq, k)]
            assert coeffs == sorted(coeffs, key=lambda c: (len(c), c))
            assert len(coeffs) == q ** k == len(set(coeffs))
        # the unbounded enumeration continues the bounded one
        unbounded = graded_polys(fq)
        assert [next(unbounded) for _ in range(q ** 3)] == list(graded_polys(fq, 3))


def test_zero_denominator_rejected():
    fq = field(2)
    with pytest.raises(ZeroDivisionError):
        RatFunc(Poly.one(fq), Poly.zero(fq))
    with pytest.raises(ZeroDivisionError):
        RatFunc.one(fq) / RatFunc.zero(fq)
