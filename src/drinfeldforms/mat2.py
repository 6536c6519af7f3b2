"""2x2 matrices over A, A_n or K, with the handful of operations the
group and tree code needs."""

from .rings import Poly, RatFunc, Residue


class Mat2:
    """Row-major 2x2 matrix; entries share one ring (Poly, Residue, RatFunc)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    @staticmethod
    def identity_poly(fq):
        one, zero = Poly.one(fq), Poly.zero(fq)
        return Mat2(one, zero, zero, one)

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
        zero = Poly.zero(a.fq) if isinstance(a, Poly) else a - a
        return Mat2(a, zero, zero, d)

    def __mul__(self, other):
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def det(self):
        return self.a * self.d - self.b * self.c

    def trace(self):
        return self.a + self.d

    def adjugate(self):
        return Mat2(self.d, -self.b, -self.c, self.a)

    def inverse_unimodular(self):
        """Inverse assuming det = 1 (not rechecked here)."""
        return self.adjugate()

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def mod_tn(self, n):
        """Reduce Poly entries to Residue entries mod t^n."""
        return Mat2(Residue(n, self.a), Residue(n, self.b), Residue(n, self.c), Residue(n, self.d))

    def to_k(self):
        """Promote Poly entries to RatFunc entries."""
        if isinstance(self.a, RatFunc):
            return self
        return Mat2(
            RatFunc.from_poly(self.a),
            RatFunc.from_poly(self.b),
            RatFunc.from_poly(self.c),
            RatFunc.from_poly(self.d),
        )

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


class DeferredProduct(Mat2):
    """The product of its factors, multiplied out the first time an entry is read.

    Witnesses and stabilizer conjugates are formed for every classified
    edge, but the trivial action on V_2 never reads them.
    """

    __slots__ = ("factors",)

    def __init__(self, *factors):
        self.factors = factors

    def __getattr__(self, name):
        # reached only while the entry slots are still unset
        if name not in Mat2.__slots__:
            raise AttributeError(name)
        m = self.factors[0]
        for f in self.factors[1:]:
            m = m * f
        self.a, self.b, self.c, self.d = m.a, m.b, m.c, m.d
        return getattr(self, name)
