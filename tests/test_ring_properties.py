"""Property tests for the gcd-based structure of A = F_q[t], K and A/(t^n).

Over q in {2, 3, 4, 5, 9}: the extended gcd (the oracle ``poly_xgcd``) is
a monic common divisor written as a combination, a rational function is
stored reduced with a monic denominator whatever representation it was
built from, and a residue mod t^n is invertible exactly when its constant
term is nonzero.  Over q in {2, 3, 4, 9} the packed inverse mod any nonzero
m is the extended gcd's coefficient reduced mod m, and exists exactly when
the gcd is 1.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeldforms.fq import field
from drinfeldforms.rings import Poly, RatFunc, int_inverse_mod, packed, poly_gcd
from oracles import poly_xgcd

FIELDS = st.sampled_from([2, 3, 4, 5, 9]).map(field)
MAX_LEN = 12


def _draw_poly(data, fq, nonzero=False):
    coeffs = data.draw(st.lists(st.integers(0, fq.q - 1), max_size=MAX_LEN))
    if nonzero:
        coeffs.append(data.draw(st.integers(1, fq.q - 1)))
    return Poly(fq, coeffs)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_xgcd_is_a_monic_common_divisor_and_a_combination(data):
    fq = data.draw(FIELDS)
    a, b = _draw_poly(data, fq), _draw_poly(data, fq)
    g, x, y = poly_xgcd(a, b)
    assert a * x + b * y == g
    if a.is_zero() and b.is_zero():
        assert g.is_zero()
        return
    assert g.is_monic()
    assert (a % g).is_zero() and (b % g).is_zero()
    assert g == poly_gcd(a, b)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_inverse_mod_a_polynomial_matches_the_xgcd_oracle(data):
    fq = field(data.draw(st.sampled_from([2, 3, 4, 9])))
    x = _draw_poly(data, fq)
    # a nonzero modulus, often a constant one (A/(m) the zero ring)
    if data.draw(st.booleans()):
        m = _draw_poly(data, fq, nonzero=True)
    else:
        m = Poly.constant(fq, data.draw(st.integers(1, fq.q - 1)))
    s = int_inverse_mod(fq, x.x, m.x)
    g, a, _ = poly_xgcd(x, m)
    if not g.is_one():
        assert s is None
        return
    s = packed(fq, s)
    assert s == a % m
    assert s.degree < m.degree
    assert (s * x - Poly.one(fq)) % m == Poly.zero(fq)


def test_inverse_mod_a_constant_is_zero():
    # A/(m) is the zero ring for a nonzero constant m: every class is 0, a unit
    for q in (2, 3, 4, 9):
        fq = field(q)
        for code in range(1, q):
            for x in (0, 1, 1 + (2 % q << 8), 1 << 16):
                assert int_inverse_mod(fq, x, code) == 0
    assert int_inverse_mod(field(3), 1 + (2 << 8), 2) == 0


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ratfunc_is_reduced_with_a_monic_denominator(data):
    fq = data.draw(FIELDS)
    num = _draw_poly(data, fq)
    den = _draw_poly(data, fq, nonzero=True)
    m = _draw_poly(data, fq, nonzero=True)
    r = RatFunc(num, den)
    assert r.den.is_monic()
    assert poly_gcd(r.num, r.den).is_one()
    if num.is_zero():
        assert r.den.is_one()
    # the same fraction
    assert r.num * den == num * r.den
    # another representation of it is stored identically
    other = RatFunc(num * m, den * m)
    assert other == r
    assert hash(other) == hash(r)
    assert (other.num, other.den) == (r.num, r.den)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_residue_inverse_exactly_for_units(data):
    fq = data.draw(FIELDS)
    n = data.draw(st.integers(1, 6))
    # any lift of the class, of degree up to MAX_LEN
    u = _draw_poly(data, fq)
    if u.constant_coeff() == 0:
        with pytest.raises(ZeroDivisionError):
            u.inverse_mod(n)
        return
    inv = u.inverse_mod(n)
    assert (u * inv).truncate(n) == Poly.one(fq)
    assert (inv * u).truncate(n) == Poly.one(fq)
    assert inv.degree < n
    assert u.truncate(n).inverse_mod(n) == inv
