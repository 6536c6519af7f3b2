"""2x2 matrices over A, with the handful of operations the group and tree
code needs.  A matrix over A_n is one over A whose entries are read modulo
t^n (see :func:`groups.lift_sl2`).  Products and determinants run on the
packed entries through ``rings.int_axpy``."""

from .rings import Poly, int_axpy, int_mul, int_neg, packed


class Mat2:
    """Row-major 2x2 matrix over A; its entries are Polys over one field."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    @staticmethod
    def j_matrix(fq):
        one, zero = Poly.one(fq), Poly.zero(fq)
        return Mat2(zero, -one, one, zero)

    @staticmethod
    def translation(b):
        one, zero = Poly.one(b.fq), Poly.zero(b.fq)
        return Mat2(one, b, zero, one)

    @staticmethod
    def diag(a, d):
        zero = Poly.zero(a.fq)
        return Mat2(a, zero, zero, d)

    @staticmethod
    def from_packed(fq, entries):
        """The Mat2 over A of the packed entries (a, b, c, d)."""
        a, b, c, d = entries
        return Mat2(packed(fq, a), packed(fq, b), packed(fq, c), packed(fq, d))

    def __mul__(self, other):
        return Mat2.from_packed(self.a.fq, packed_product(self.a.fq, (self.a.x, self.b.x, self.c.x, self.d.x), other))

    def det(self):
        fq = self.a.fq
        return packed(fq, int_axpy(fq, int_mul(fq, self.a.x, self.d.x), int_neg(fq, self.b.x), self.c.x))

    def adjugate(self):
        return Mat2(self.d, -self.b, -self.c, self.a)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __eq__(self, other):
        return (
            isinstance(other, Mat2)
            and self.a == other.a
            and self.b == other.b
            and self.c == other.c
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


def packed_product(fq, x, other):
    """The packed entries of m other, for x = (a, b, c, d) the packed entries of m."""
    (a, b, c, d), (e, f, g, h) = x, (other.a.x, other.b.x, other.c.x, other.d.x)
    return (
        int_axpy(fq, int_mul(fq, a, e), b, g),
        int_axpy(fq, int_mul(fq, a, f), b, h),
        int_axpy(fq, int_mul(fq, c, e), d, g),
        int_axpy(fq, int_mul(fq, c, f), d, h),
    )


class Deferred(Mat2):
    """The Mat2 make(*args), its entries filled in the first time one is read.

    Every witness is one; an operator image's multiplies out its chain of
    row operations when read (tree.TreeContext.chain_witness).  Witnesses
    are read only above weight 2; the trivial action on V_2 reads none.
    """

    __slots__ = ("make", "args")

    def __init__(self, make, *args):
        self.make = make
        self.args = args

    def __getattr__(self, name):
        # reached only while the entry slots are still unset
        if name not in Mat2.__slots__:
            raise AttributeError(name)
        m = self.make(*self.args)
        self.a, self.b, self.c, self.d = m.a, m.b, m.c, m.d
        return getattr(self, name)


def _replay(fq, ops, inverted):
    """gamma, the row operations ``ops`` applied to the identity, or adj(gamma) if ``inverted``.

    Each op multiplies on the left: a packed b != 0 by (1, b; 0, 1), and 0
    by J.  The entries are replayed on packed ints, as Deferred(_replay,
    fq, ops, inverted) does the first time one is read.
    """
    a, b, c, d = 1, 0, 0, 1
    for op in ops:
        if op:
            a, b = int_axpy(fq, a, op, c), int_axpy(fq, b, op, d)
        else:
            a, b, c, d = int_neg(fq, c), int_neg(fq, d), a, b
    if inverted:
        a, b, c, d = d, int_neg(fq, b), int_neg(fq, c), a
    return Mat2.from_packed(fq, (a, b, c, d))
