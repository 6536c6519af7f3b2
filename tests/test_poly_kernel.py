"""Property tests: the table-driven F_q[t] kernel against schoolbook oracles."""

from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeldforms.fq import field
from drinfeldforms.rings import Poly

FIELDS = st.sampled_from([2, 3, 4, 5, 9]).map(field)


def _draw_poly(data, fq, nonzero=False, max_size=8):
    low = data.draw(st.lists(st.integers(0, fq.q - 1), max_size=max_size))
    if nonzero:
        return Poly(fq, low + [data.draw(st.integers(1, fq.q - 1))])
    return Poly(fq, low)


def schoolbook_mul(a, b):
    """The product through the field's own add and mul, pair by pair."""
    fq = a.fq
    out = [0] * (len(a.coeffs) + len(b.coeffs))
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = fq.add(out[i + j], fq.mul(x, y))
    return Poly(fq, out)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mul_matches_the_schoolbook_product(data):
    fq = data.draw(FIELDS)
    a, b = _draw_poly(data, fq), _draw_poly(data, fq)
    want = schoolbook_mul(a, b)
    assert a * b == want
    assert b * a == want
    assert (a * b).coeffs == want.coeffs


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_divmod_identity_and_degree_bound(data):
    fq = data.draw(FIELDS)
    a = _draw_poly(data, fq, max_size=12)
    b = _draw_poly(data, fq, nonzero=True, max_size=5)
    quo, rem = divmod(a, b)
    assert quo * b + rem == a
    assert rem.degree < b.degree
    # both results are normalized: a zero leading coefficient would
    # break degree comparisons and equality
    assert all(p.coeffs[-1] for p in (quo, rem) if p.coeffs)
    assert divmod(a * b, b) == (a, Poly.zero(fq))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_negation_is_an_additive_inverse(data):
    fq = data.draw(FIELDS)
    a = _draw_poly(data, fq)
    assert (a + -a).is_zero()
    assert (a - a).is_zero()
    assert -(-a) == a
