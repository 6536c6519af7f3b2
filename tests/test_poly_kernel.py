"""Property tests: the packed F_q[t] kernel against tuple and schoolbook oracles.

A ``Poly`` is one int with the code of the coefficient of t^i in byte i.
The oracles below are the tuple kernels the packing replaced: ascending
coefficient tuples with no trailing zero, combined through the field's
``_add``/``_mul``/``_neg``/``_inv`` tables.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeldforms.fq import field
from drinfeldforms.mat2 import Mat2
from drinfeldforms.rings import (
    NEG_INF,
    POS_INF,
    Poly,
    int_add,
    int_axpy,
    int_divmod,
    int_mul,
    int_neg,
    packed,
)
from oracles import RingMat2

QS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 25, 131]
FIELDS = st.sampled_from(QS).map(field)
MAX_LEN = 40


def _strip(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def tuple_add(fq, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = fq._add[out[i]][c]
    return _strip(out)


def tuple_mul(fq, a, b):
    if not a or not b:
        return ()
    if len(a) > len(b):
        a, b = b, a
    add, mul = fq._add, fq._mul
    terms = [(j, bj) for j, bj in enumerate(b) if bj]
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            row = mul[ai]
            for j, bj in terms:
                out[i + j] = add[out[i + j]][row[bj]]
    return tuple(out)


def tuple_divmod(fq, a, b):
    degd = len(b) - 1
    if len(a) <= degd:
        return (), a
    add, mul, neg = fq._add, fq._mul, fq._neg
    by_lead = mul[fq._inv[b[-1]]]
    terms = [(j, neg[bj]) for j, bj in enumerate(b[:-1]) if bj]
    rem = list(a)
    quo = [0] * (len(rem) - degd)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + degd]
        if c:
            f = by_lead[c]
            quo[k] = f
            row = mul[f]
            for j, nbj in terms:
                rem[k + j] = add[rem[k + j]][row[nbj]]
    return tuple(quo), _strip(rem[:degd])


def _draw_coeffs(data, fq, nonzero=False, max_size=MAX_LEN):
    low = data.draw(st.lists(st.integers(0, fq.q - 1), max_size=max_size))
    if nonzero:
        low.append(data.draw(st.integers(1, fq.q - 1)))
    return low


def _draw_poly(data, fq, nonzero=False, max_size=MAX_LEN):
    return Poly(fq, _draw_coeffs(data, fq, nonzero, max_size))


def schoolbook_mul(a, b):
    """The product through the field's own add and mul, pair by pair."""
    fq = a.fq
    out = [0] * (len(a.coeffs) + len(b.coeffs))
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = fq.add(out[i + j], fq.mul(x, y))
    return Poly(fq, out)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_mul_matches_the_schoolbook_product(data):
    fq = data.draw(FIELDS)
    a, b = _draw_poly(data, fq), _draw_poly(data, fq)
    want = schoolbook_mul(a, b)
    assert a * b == want
    assert b * a == want
    assert (a * b).coeffs == want.coeffs == tuple_mul(fq, a.coeffs, b.coeffs)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_divmod_identity_and_degree_bound(data):
    fq = data.draw(FIELDS)
    a = _draw_poly(data, fq)
    b = _draw_poly(data, fq, nonzero=True, max_size=data.draw(st.integers(0, MAX_LEN)))
    quo, rem = divmod(a, b)
    assert (quo.coeffs, rem.coeffs) == tuple_divmod(fq, a.coeffs, b.coeffs)
    assert quo * b + rem == a
    assert rem.degree < b.degree
    # both results are normalized: a zero leading coefficient would
    # break degree comparisons and equality
    assert all(p.coeffs[-1] for p in (quo, rem) if p.coeffs)
    assert divmod(a * b, b) == (a, Poly.zero(fq))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_add_and_sub_match_the_tuple_kernel(data):
    fq = data.draw(FIELDS)
    a, b = _draw_poly(data, fq), _draw_poly(data, fq)
    assert (a + b).coeffs == tuple_add(fq, a.coeffs, b.coeffs)
    assert (-a).coeffs == tuple(fq._neg[c] for c in a.coeffs)
    assert (a - b).coeffs == tuple_add(fq, a.coeffs, (-b).coeffs)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_negation_is_an_additive_inverse(data):
    fq = data.draw(FIELDS)
    a = _draw_poly(data, fq)
    assert (a + -a).is_zero()
    assert (a - a).is_zero()
    assert -(-a) == a


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_coeffs_round_trip_and_trailing_zeros_normalize(data):
    fq = data.draw(FIELDS)
    coeffs = _draw_coeffs(data, fq)
    zeros = data.draw(st.integers(0, 5))
    p = Poly(fq, coeffs)
    assert p.coeffs == _strip(coeffs)
    assert Poly(fq, p.coeffs).x == p.x
    padded = Poly(fq, coeffs + [0] * zeros)
    assert padded == p and hash(padded) == hash(p) and padded.coeffs == p.coeffs
    assert packed(fq, p.x) == p and hash(packed(fq, p.x)) == hash(p)


@pytest.mark.parametrize("q", QS)
def test_constructors_agree_on_equality_and_hash(q):
    fq = field(q)
    pairs = [
        (Poly.zero(fq), Poly(fq, ())),
        (Poly.zero(fq), Poly(fq, [0, 0, 0])),
        (Poly.one(fq), Poly(fq, (1,))),
        (Poly.t(fq), Poly(fq, (0, 1))),
        (Poly.t_power(fq, 5), Poly(fq, (0,) * 5 + (1, 0))),
        (Poly.constant(fq, 0), Poly.zero(fq)),
        (Poly.constant(fq, q - 1), Poly(fq, [q - 1])),
        (Poly.t(fq) * Poly.t(fq), Poly.t_power(fq, 2)),
        (Poly.t(fq) + Poly.one(fq) - Poly.one(fq), Poly.t(fq)),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b) and a.coeffs == b.coeffs
    assert len({a for a, _ in pairs} | {b for _, b in pairs}) == len({a.x for a, _ in pairs})
    # the same packed int over another field is another polynomial
    assert Poly.one(fq) != Poly.one(field(2 if q != 2 else 3))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_structure_matches_the_tuple_definitions(data):
    fq = data.draw(FIELDS)
    p = _draw_poly(data, fq)
    c = p.coeffs
    n = data.draw(st.integers(0, MAX_LEN + 2))
    code = data.draw(st.integers(0, fq.q - 1))
    assert p.degree == (len(c) - 1 if c else NEG_INF)
    assert p.leading() == (c[-1] if c else 0)
    assert p.constant_coeff() == (c[0] if c else 0)
    assert p.vt() == next((i for i, x in enumerate(c) if x), POS_INF)
    assert [p.coeff(i) for i in range(-1, len(c) + 2)] == [0, *c, 0, 0]
    assert p.is_monic() == (bool(c) and c[-1] == 1)
    assert p.truncate(n).coeffs == _strip(c[:n])
    # the lift of degree < n depends only on the class mod t^n
    assert (p + p.shift(n)).truncate(n) == p.truncate(n)
    assert p.scale(code).coeffs == _strip([fq._mul[code][x] for x in c])
    assert p.shift(n).coeffs == (((0,) * n + c) if c else ())
    if c:
        assert p.monic().coeffs == tuple(fq._mul[fq._inv[c[-1]]][x] for x in c)


def _kron_bound(p):
    return 255 // (p - 1) ** 2


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_products_at_and_past_the_no_carry_bound(p):
    """All-(p - 1) operands of min length L put L (p - 1)^2 into the middle slot.

    At L = 255 // (p - 1)^2 that is at most 255, so the int product is
    exact; at L + 1 it carries, and the product must take the table loop.
    """
    fq = field(p)
    bound = _kron_bound(p)
    assert fq.kron_bits == 8 * bound
    for length in (bound, bound + 1):
        for other in (length, length + 3):
            a = Poly(fq, [p - 1] * length)
            b = Poly(fq, [p - 1] * other)
            want = tuple_mul(fq, a.coeffs, b.coeffs)
            assert (a * b).coeffs == want
            assert (b * a).coeffs == want
            assert divmod(a * b, b) == (a, Poly.zero(fq))


def _axpy_bound(p):
    return _kron_bound(p) if p == 2 else (256 - p) // (p - 1) ** 2


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_multiply_adds_at_and_past_the_no_carry_bound(p):
    """All-(p - 1) operands put (p - 1) + L (p - 1)^2 into the middle slot of x + f y, L = min(len f, len y).

    At L = (256 - p) // (p - 1)^2 that is at most 255, so one reduction of
    the int x + f y is exact; at L + 1 it carries, and the multiply-add must
    take the table path.  At p = 7 the bound is 6, one below the product's
    own 7 (7 * 36 + 6 = 258).  At p = 2 the sum is an XOR, which adds
    nothing to a slot, so the bound is the product's.
    """
    fq = field(p)
    bound = _axpy_bound(p)
    assert fq.axpy_bits == 8 * bound
    for length in (bound, bound + 1):
        for other in (length, length + 3):
            f, y = (p - 1,) * length, (p - 1,) * other
            for x in ((), (p - 1,) * (length + other - 1), (p - 1,) * (length + other + 2)):
                want = Poly(fq, tuple_add(fq, x, tuple_mul(fq, f, y))).x
                px, pf, py = (Poly(fq, c).x for c in (x, f, y))
                assert int_axpy(fq, px, pf, py) == want
                assert int_axpy(fq, px, py, pf) == want


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_axpy_matches_the_tuple_kernels(data):
    fq = data.draw(FIELDS)
    x, f, y = (tuple(_draw_poly(data, fq).coeffs) for _ in range(3))
    want = Poly(fq, tuple_add(fq, x, tuple_mul(fq, f, y))).x
    px, pf, py = (Poly(fq, c).x for c in (x, f, y))
    assert int_axpy(fq, px, pf, py) == want == int_add(fq, px, int_mul(fq, pf, py))
    assert int_axpy(fq, px, py, pf) == want
    assert int_axpy(fq, px, 0, py) == int_axpy(fq, px, pf, 0) == px


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mat2_product_and_det_match_the_poly_operators(data):
    """Mat2's product and det on packed ints through int_axpy, against Poly's + and *."""
    fq = data.draw(FIELDS)
    g, h = ([_draw_poly(data, fq, max_size=12) for _ in range(4)] for _ in range(2))
    want = RingMat2(*g) * RingMat2(*h)
    assert (Mat2(*g) * Mat2(*h)).entries() == want.entries()
    assert Mat2(*g).det() == RingMat2(*g).det()


def test_q2_product_of_a_short_and_a_long_factor():
    """At q = 2 the no-carry product is reduced mod 2 by a mask over all its bytes.

    A 255-coefficient factor is within the no-carry bound, so a product with a
    5001-coefficient one is an int product too, and its 5255 bytes all need
    the mask.
    """
    fq = field(2)
    rng = random.Random(2)
    short = Poly(fq, [1] * 255)
    long_ = Poly(fq, [rng.randrange(2) for _ in range(5000)] + [1])
    want = tuple_mul(fq, short.coeffs, long_.coeffs)
    assert len(want) == 5255
    assert (short * long_).coeffs == want
    assert (long_ * short).coeffs == want


KERNEL_QS = [2, 3, 4, 5, 7, 8, 9, 13, 16, 25]


@pytest.mark.parametrize("q", KERNEL_QS)
def test_int_kernels_match_the_tuple_kernels_and_poly(q):
    """The packed-int kernels against the tuple oracles, and Poly's operators against them.

    Operand lengths run over zero, degree 0 (a constant divisor) and, over
    a prime field, the no-carry bound of the int product and past it, with
    random and all-(q - 1) coefficients (the latter put the most into each
    byte slot of an int product).
    """
    fq = field(q)
    rng = random.Random(q)
    bound = fq.kron_bits // 8
    lengths = [0, 1, 2, 5, 17] + ([bound, bound + 1, bound + 3] if bound else [])

    def draws(length):
        if not length:
            return [()]
        low = [rng.randrange(q) for _ in range(length - 1)]
        return [tuple(low) + (rng.randrange(1, q),), (q - 1,) * length]

    for la in lengths:
        for lb in lengths:
            for a in draws(la):
                for b in draws(lb):
                    x, y = Poly(fq, a).x, Poly(fq, b).x
                    assert int_add(fq, x, y) == Poly(fq, tuple_add(fq, a, b)).x
                    assert int_neg(fq, x) == Poly(fq, [fq._neg[c] for c in a]).x
                    assert int_mul(fq, x, y) == Poly(fq, tuple_mul(fq, a, b)).x
                    assert (Poly(fq, a) + Poly(fq, b)).x == int_add(fq, x, y)
                    assert (-Poly(fq, a)).x == int_neg(fq, x)
                    assert (Poly(fq, a) * Poly(fq, b)).x == int_mul(fq, x, y)
                    if not b:
                        with pytest.raises(ZeroDivisionError):
                            int_divmod(fq, x, y)
                        continue
                    quo, rem = tuple_divmod(fq, a, b)
                    assert int_divmod(fq, x, y) == (Poly(fq, quo).x, Poly(fq, rem).x)
                    got = divmod(Poly(fq, a), Poly(fq, b))
                    assert (got[0].x, got[1].x) == int_divmod(fq, x, y)
