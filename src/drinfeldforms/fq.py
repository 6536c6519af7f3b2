"""Arithmetic in the finite field F_q, q = p^e.

Elements are represented by integer codes 0..q-1: the code of the element
with coordinate vector (c_0, ..., c_{e-1}) in the fixed polynomial basis
over F_p is sum c_i p^i.  The basis is F_p[x]/(modulus) where the modulus
is the lexicographically smallest monic irreducible of degree e over F_p,
chosen once per q, so codes are a stable encoding for serialization.

All operations are table driven (q is small in every intended use), and a
field object is created at most once per q via :func:`field`.  A prime
field's tables are the integers mod p; an extension field's are sums and
products of ``rings.Poly`` over F_p, a product reduced mod the modulus.
"""

from functools import lru_cache


def _is_prime(n):
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def _factor_prime_power(q):
    """Return (p, e) with q = p^e, or raise ValueError."""
    if q < 2:
        raise ValueError(f"q must be a prime power >= 2, got {q}")
    for p in range(2, q + 1):
        if _is_prime(p) and q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, e
    raise ValueError(f"{q} is not a prime power")


def _decode(code, p, e):
    digits = []
    for _ in range(e):
        digits.append(code % p)
        code //= p
    return tuple(digits)


def _encode(digits, p):
    code = 0
    for d in reversed(digits):
        code = code * p + d
    return code


class Fq:
    """The field F_q with table-driven arithmetic on integer codes."""

    def __init__(self, q):
        p, e = _factor_prime_power(q)
        if q > 256:
            raise ValueError(f"q = {q} exceeds the supported table size")
        self.q = q
        self.p = p
        self.e = e
        if e == 1:
            self.modulus = (0, 1)  # x: a formal placeholder, unused for e = 1
        else:
            self.modulus = self._find_modulus()
        self._build_tables()
        self.zero = 0
        self.one = 1

    def _find_modulus(self):
        from .rings import Poly, poly_is_irreducible  # rings imports this module

        p, e = self.p, self.e
        fp = field(p)
        for code in range(p ** e):
            coeffs = _decode(code, p, e) + (1,)
            if poly_is_irreducible(Poly(fp, coeffs)):
                return coeffs
        raise AssertionError("no irreducible modulus found")

    def _build_tables(self):
        p, e, q = self.p, self.e, self.q
        if e == 1:
            add = [[(a + b) % p for b in range(q)] for a in range(q)]
            mul = [[a * b % p for b in range(q)] for a in range(q)]
            neg = [-a % p for a in range(q)]
        else:
            from .rings import Poly  # rings imports this module

            fp = field(p)
            modulus = Poly(fp, self.modulus)
            elems = [Poly(fp, _decode(c, p, e)) for c in range(q)]
            add = [[_encode((a + b).coeffs, p) for b in elems] for a in elems]
            mul = [[_encode((a * b % modulus).coeffs, p) for b in elems] for a in elems]
            neg = [_encode((-a).coeffs, p) for a in elems]
        self._add = add
        self._mul = mul
        self._neg = neg
        self._inv = [0] + [row.index(1) for row in mul[1:]]
        # bytes.translate tables for the packed polynomials of rings.Poly,
        # whose bytes are codes; a byte >= q maps to 0 under neg and mul
        pad = bytes(256 - q)
        self.neg_bytes = bytes(self._neg) + pad
        self.mul_bytes = [bytes(row) + pad for row in mul]
        self.mod_p_bytes = bytes(i % p for i in range(256))
        # over a prime field, int products of operands of at most
        # 255 // (p - 1)^2 bytes carry into no other byte; this is 0 past p = 13
        self.kron_bits = 8 * (255 // (p - 1) ** 2) if e == 1 else 0
        # and x + f y with x reduced carries nowhere while the shorter of f, y
        # has at most (256 - p) // (p - 1)^2 bytes (at p = 2 the sum is an XOR)
        self.axpy_bits = self.kron_bits if p == 2 else 8 * ((256 - p) // (p - 1) ** 2) if e == 1 else 0

    # -- raw code arithmetic ------------------------------------------------
    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def mul(self, a, b):
        return self._mul[a][b]

    def neg(self, a):
        return self._neg[a]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_q")
        return self._inv[a]

    def div(self, a, b):
        return self._mul[a][self.inv(b)]

    def from_int(self, n):
        """Reduce an integer to a code: n mod q read in the fixed basis.

        For prime q this is the ring map Z -> F_q.
        """
        return n % self.q

    def elements(self):
        return range(self.q)

    def nonzero(self):
        return range(1, self.q)

    # -- element wrappers ---------------------------------------------------
    def elem(self, code):
        return FqElem(self, code % self.q if code >= 0 else self.from_int(code))

    def __repr__(self):
        return f"Fq({self.q})"

    def __eq__(self, other):
        return isinstance(other, Fq) and other.q == self.q

    def __hash__(self):
        return hash(("Fq", self.q))


class FqElem:
    """A wrapped F_q element, for generic code paths that want operators."""

    __slots__ = ("fq", "code")

    def __init__(self, fq, code):
        self.fq = fq
        self.code = code

    def __add__(self, other):
        return FqElem(self.fq, self.fq.add(self.code, other.code))

    def __sub__(self, other):
        return FqElem(self.fq, self.fq.sub(self.code, other.code))

    def __mul__(self, other):
        return FqElem(self.fq, self.fq.mul(self.code, other.code))

    def __truediv__(self, other):
        return FqElem(self.fq, self.fq.div(self.code, other.code))

    def __neg__(self):
        return FqElem(self.fq, self.fq.neg(self.code))

    def inverse(self):
        return FqElem(self.fq, self.fq.inv(self.code))

    def is_zero(self):
        return self.code == 0

    def __bool__(self):
        return self.code != 0

    def __eq__(self, other):
        return isinstance(other, FqElem) and self.code == other.code and self.fq.q == other.fq.q

    def __hash__(self):
        return hash((self.fq.q, self.code))

    def __str__(self):
        return str(self.code)

    def __repr__(self):
        return f"FqElem({self.fq.q}, {self.code})"


@lru_cache(maxsize=None)
def field(q):
    """The cached F_q context for a prime power q."""
    return Fq(q)
