"""Property test: Laurent expansion does not need a reduced fraction."""

from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeldforms.fq import field
from drinfeldforms.rings import Poly, RatFunc
from drinfeldforms.tree import Vertex, _tail
from oracles import laurent_tail, vertex_tail


def _draw_poly(data, fq, nonzero=False):
    low = data.draw(st.lists(st.integers(0, fq.q - 1), max_size=5))
    if nonzero:
        return Poly(fq, low + [data.draw(st.integers(1, fq.q - 1))])
    return Poly(fq, low)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_laurent_tail_of_unreduced_fraction(data):
    # the tree action expands num/den without reducing it first
    fq = field(data.draw(st.sampled_from([2, 3, 4, 5, 9])))
    num = _draw_poly(data, fq)
    den = _draw_poly(data, fq, nonzero=True)
    h = _draw_poly(data, fq, nonzero=True)
    below = data.draw(st.integers(-6, 8))
    unreduced = RatFunc(num * h, den * h, reduce=False)
    want = laurent_tail(RatFunc(num, den), below)
    assert laurent_tail(unreduced, below) == want
    # the tree action reads the same tail off one division, packed
    assert vertex_tail(Vertex(below, _tail((num * h).x, (den * h).x, below, fq))) == want
    assert vertex_tail(Vertex(below, _tail(0, den.x, below, fq))) == ()
