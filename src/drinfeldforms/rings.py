"""The coefficient tower: A = F_q[t], A_n = A/(t^n), K = F_q(t), K_infinity.

A polynomial is one Python int: byte i (bits 8i..8i+7) holds the F_q code
of the coefficient of t^i, and every code fits in a byte since q <= 256.
Zero coefficients above the degree take no bytes, so the packing is
normalized by construction; deg(0) is the -infinity sentinel so valuation
arithmetic needs no special cases.  Sums, products and quotients are int
and ``bytes.translate`` operations wherever no byte slot can carry, and
loops over the field's tables elsewhere.  They are the functions
``int_add``, ``int_neg``, ``int_mul``, ``int_axpy``, ``int_divmod`` and
``int_inverse_mod`` of (fq, x, y) on packed ints: Poly's own operators
wrap them, and a loop that runs many steps on packed ints (the tree walk,
Mat2's product) calls them directly, so each operation has one
implementation; the one for inverses and Bezout pairs modulo a polynomial
is ``int_inverse_mod``.  The multiply-add ``int_axpy(fq, x, f, y)`` is
x + f y reduced once: at q = 2 an XOR of the int product then one mask,
and over F_p one translate of the int x + f y while the shorter of f, y
has at most (256 - p) // (p - 1)^2 coefficients (``Fq.axpy_bits``; 63 at
p = 3, 15 at p = 5, 6 at p = 7, one below the product's own 7, 2 at
p = 11, 1 at p = 13); past that, and over non-prime fields, it is
``int_add`` of ``int_mul``.
A class of A_n is its lift of degree < n, a plain Poly: a product is cut
back with ``truncate(n)`` and a unit inverted with ``inverse_mod(n)``.
Rational functions are stored reduced with a monic denominator.  At the
place at infinity, with uniformizer pi = 1/t, v_infinity(num/den) =
deg den - deg num is read off the degrees.
"""

from itertools import product

NEG_INF = float("-inf")
POS_INF = float("inf")


def _translate(x, table):
    """Map every byte of the packed int x through a 256-byte table."""
    return int.from_bytes(x.to_bytes((x.bit_length() + 7) >> 3, "little").translate(table), "little")


# 0x01 in each of the low _ONES_BYTES bytes: the mod-2 mask of every
# product up to that size; a longer product builds a mask of its own size
_ONES_BYTES = 4096
_ONES = int.from_bytes(b"\1" * _ONES_BYTES, "little")


def _mod2(x):
    """Every byte of the packed int x reduced mod 2: one AND with 0x01 in each byte of x."""
    size = (x.bit_length() + 7) >> 3
    return x & (_ONES if size <= _ONES_BYTES else int.from_bytes(b"\1" * size, "little"))


def _codes(x):
    """The bytes of the packed int x: its coefficient codes, ascending."""
    return x.to_bytes((x.bit_length() + 7) >> 3, "little")


def int_add(fq, x, y):
    """The packed sum of the polynomials packed in x and y."""
    if fq.p == 2:
        return x ^ y
    if fq.kron_bits:
        return _translate(x + y, fq.mod_p_bytes)
    a, b = _codes(x), _codes(y)
    if len(a) < len(b):
        a, b = b, a
    add = fq._add
    out = bytearray(a)
    for i, c in enumerate(b):
        out[i] = add[out[i]][c]
    return int.from_bytes(out, "little")


def int_neg(fq, x):
    """The packed negative of the polynomial packed in x."""
    return x if fq.p == 2 else _translate(x, fq.neg_bytes)


def int_mul(fq, x, y):
    """The packed product of the polynomials packed in x and y."""
    if not x or not y:
        return 0
    if x.bit_length() <= fq.kron_bits or y.bit_length() <= fq.kron_bits:
        # no byte slot of the int product exceeds min(len) (p - 1)^2 <= 255
        if fq.q == 2:
            return _mod2(x * y)
        return _translate(x * y, fq.mod_p_bytes)
    a, b = _codes(x), _codes(y)
    if len(a) > len(b):
        a, b = b, a
    add, mul = fq._add, fq._mul
    terms = [(j, bj) for j, bj in enumerate(b) if bj]
    out = bytearray(len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            row = mul[ai]
            for j, bj in terms:
                out[i + j] = add[out[i + j]][row[bj]]
    return int.from_bytes(out, "little")


def int_axpy(fq, x, f, y):
    """The packed x + f y, int_add(fq, x, int_mul(fq, f, y)), reduced once where no byte slot can carry."""
    if not f or not y:
        return x
    if f.bit_length() <= fq.axpy_bits or y.bit_length() <= fq.axpy_bits:
        if fq.q == 2:
            return _mod2(x ^ f * y)
        return _translate(x + f * y, fq.mod_p_bytes)
    return int_add(fq, x, int_mul(fq, f, y))


def int_divmod(fq, x, y):
    """(quotient, remainder) of the polynomials packed in x and y, packed."""
    if not y:
        raise ZeroDivisionError("polynomial division by zero")
    degd = (y.bit_length() - 1) >> 3
    top = (x.bit_length() - 1) >> 3
    if top < degd:
        return 0, x
    if fq.q == 2:
        # each step clears the top byte of the remainder
        quo = 0
        while top >= degd:
            k = 8 * (top - degd)
            quo |= 1 << k
            x ^= y << k
            top = (x.bit_length() - 1) >> 3
        return quo, x
    if fq.kron_bits:
        # add f (-y) t^k for the top term f t^k of the quotient; its
        # bytes are at most (p - 1)^2, so x + f (-y) t^k carries
        # nowhere while p (p - 1) <= 255, as it is for p <= 13
        mod = fq.mod_p_bytes
        by_lead = fq._mul[fq._inv[y >> 8 * degd]]
        neg_y = _translate(y, fq.neg_bytes)
        quo = 0
        while top >= degd:
            k = 8 * (top - degd)
            f = by_lead[x >> 8 * top]
            quo |= f << k
            x = _translate(x + (f * neg_y << k), mod)
            top = (x.bit_length() - 1) >> 3
        return quo, x
    b = _codes(y)
    add, mul, neg = fq._add, fq._mul, fq._neg
    by_lead = mul[fq._inv[b[-1]]]
    # the nonzero lower coefficients of -y; the leading one cancels
    terms = [(j, neg[bj]) for j, bj in enumerate(b[:-1]) if bj]
    rem = bytearray(_codes(x))
    quo = bytearray(len(rem) - degd)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + degd]
        if c:
            f = by_lead[c]
            quo[k] = f
            row = mul[f]
            for j, nbj in terms:
                rem[k + j] = add[rem[k + j]][row[nbj]]
    return int.from_bytes(quo, "little"), int.from_bytes(rem[:degd], "little")


def int_inverse_mod(fq, x, m):
    """The inverse of x mod m, packed and of degree < deg m, or None if x is not a unit mod m.

    Euclid on (m, x mod m) keeps s with s x = r mod m for each remainder r,
    and x is a unit exactly when the remainders reach a nonzero constant.
    Mod a nonzero constant m, A/(m) is the zero ring: every class is 0, a unit.
    """
    if 0 < m < 256:
        return 0
    r0, r1, s0, s1 = m, int_divmod(fq, x, m)[1], 0, 1
    while r1 >> 8:
        quo, rem = int_divmod(fq, r0, r1)
        r0, r1, s0, s1 = r1, rem, s1, int_axpy(fq, s0, int_neg(fq, quo), s1)
    return int_mul(fq, fq._inv[r1], s1) if r1 else None


_new = object.__new__


def packed(fq, x):
    """The polynomial whose packed int is x."""
    p = _new(Poly)
    p.fq = fq
    p.x = x
    return p


class Poly:
    """Element of A = F_q[t], packed into the int ``x`` (byte i: code of t^i).

    ``coeffs`` decodes ``x``, and the operators wrap the int kernels above.
    Negation and scaling translate the bytes, and addition is ``x ^ y`` in
    characteristic 2.  Over a prime field F_p with p <= 13 (``Fq.kron_bits``
    nonzero) a sum is the int sum with every byte reduced mod p, a product
    is the int product reduced mod p while the shorter factor has at most
    255 // (p - 1)^2 coefficients, so that no byte slot carries (at p = 2
    by one AND with 0x01 in every byte), and a
    division step adds a multiple of the divisor to the packed remainder.
    Every other field, and every product past the no-carry bound, goes
    through the field's tables.
    """

    __slots__ = ("fq", "x")

    def __init__(self, fq, coeffs):
        self.fq = fq
        self.x = int.from_bytes(bytes(coeffs), "little")

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zero(fq):
        return packed(fq, 0)

    @staticmethod
    def one(fq):
        return packed(fq, 1)

    @staticmethod
    def t(fq):
        return packed(fq, 1 << 8)

    @staticmethod
    def constant(fq, code):
        return packed(fq, code)

    @staticmethod
    def t_power(fq, k):
        return packed(fq, 1 << 8 * k)

    # -- structure --------------------------------------------------------
    @property
    def coeffs(self):
        """Ascending coefficient codes, with a nonzero last entry."""
        return tuple(_codes(self.x))

    @property
    def degree(self):
        x = self.x
        return (x.bit_length() - 1) >> 3 if x else NEG_INF

    def is_zero(self):
        return not self.x

    def __bool__(self):
        return bool(self.x)

    def is_one(self):
        return self.x == 1

    def is_monic(self):
        return self.leading() == 1

    def leading(self):
        x = self.x
        return x >> ((x.bit_length() - 1) & ~7) if x else 0

    def constant_coeff(self):
        return self.x & 255

    def coeff(self, i):
        return (self.x >> 8 * i) & 255 if i >= 0 else 0

    def vt(self):
        """t-adic valuation, +infinity for 0."""
        x = self.x
        return ((x & -x).bit_length() - 1) >> 3 if x else POS_INF

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        return packed(self.fq, int_add(self.fq, self.x, other.x))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return packed(self.fq, int_neg(self.fq, self.x))

    def __mul__(self, other):
        return packed(self.fq, int_mul(self.fq, self.x, other.x))

    def scale(self, code):
        if code == 1:
            return self
        return packed(self.fq, _translate(self.x, self.fq.mul_bytes[code]) if code else 0)

    def shift(self, k):
        """Multiply by t^k (k >= 0)."""
        return packed(self.fq, self.x << 8 * k)

    def __divmod__(self, other):
        quo, rem = int_divmod(self.fq, self.x, other.x)
        return packed(self.fq, quo), packed(self.fq, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divexact(self, other):
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ArithmeticError("inexact polynomial division")
        return q

    def __pow__(self, n):
        result = Poly.one(self.fq)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def monic(self):
        lead = self.leading()
        if lead <= 1:
            return self
        return self.scale(self.fq.inv(lead))

    def truncate(self, n):
        """Reduce modulo t^n (n >= 0): the lift of degree < n of the class in A_n."""
        return packed(self.fq, self.x & ((1 << 8 * n) - 1))

    def inverse(self):
        """The inverse in A of a unit, a nonzero constant; ZeroDivisionError otherwise."""
        if self.degree != 0:
            raise ZeroDivisionError(f"{self} is not a unit of A")
        return packed(self.fq, self.fq.inv(self.x))

    def inverse_mod(self, n):
        """The inverse modulo t^n, truncated; ZeroDivisionError unless it is a unit of A_n."""
        inv = int_inverse_mod(self.fq, self.x, 1 << 8 * n)
        if inv is None:
            raise ZeroDivisionError(f"{self} is not a unit mod t^{n}")
        return packed(self.fq, inv)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.x == other.x and self.fq.q == other.fq.q

    def __hash__(self):
        return hash((self.fq.q, self.x))

    def __repr__(self):
        return f"Poly({self.fq.q}, {self})"

    def __str__(self):
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        terms = []
        for i in range(len(coeffs) - 1, -1, -1):
            c = coeffs[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                tp = "t" if i == 1 else f"t^{i}"
                terms.append(tp if c == 1 else f"{c}*{tp}")
        return "+".join(terms)


def poly_gcd(a, b):
    fq, x, y = a.fq, a.x, b.x
    while y:
        x, y = y, int_divmod(fq, x, y)[1]
    return packed(fq, x).monic()


def poly_is_irreducible(m):
    """Trial division by the monic polynomials of degree 1 to deg m // 2, adequate for the small moduli used here."""
    d = m.degree
    if d is NEG_INF or d == 0:
        return False
    divisors = (div for div in graded_polys(m.fq, d // 2 + 1) if div.degree >= 1 and div.is_monic())
    return not any((m % div).is_zero() for div in divisors)


def graded_polys(fq, bound=None):
    """Polynomials of degree < ``bound`` (all of them if ``bound`` is None).

    The order is the key (len(coeffs), coeffs): graded by degree, starting
    with 0, and lexicographic within a degree with c_0 most significant.
    """
    yield Poly.zero(fq)
    length = 1
    while bound is None or length <= bound:
        for low in product(range(fq.q), repeat=length - 1):
            for lead in range(1, fq.q):
                yield Poly(fq, low + (lead,))
        length += 1


class RatFunc:
    """Element of K = F_q(t), reduced with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den, reduce=True):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if reduce:
            if num.is_zero():
                den = Poly.one(num.fq)
            else:
                g = poly_gcd(num, den)
                if not g.is_one():
                    num = num.divexact(g)
                    den = den.divexact(g)
                if not den.is_monic():
                    c = num.fq.inv(den.leading())
                    num = num.scale(c)
                    den = den.scale(c)
        self.num = num
        self.den = den

    @staticmethod
    def from_poly(p):
        return RatFunc(p, Poly.one(p.fq), reduce=False)

    @staticmethod
    def zero(fq):
        return RatFunc(Poly.zero(fq), Poly.one(fq), reduce=False)

    @staticmethod
    def one(fq):
        return RatFunc(Poly.one(fq), Poly.one(fq), reduce=False)

    @property
    def fq(self):
        return self.num.fq

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def __add__(self, other):
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RatFunc(-self.num, self.den, reduce=False)

    def __mul__(self, other):
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def inverse(self):
        return RatFunc(self.den, self.num)

    def vt(self):
        """t-adic valuation v_t, normalized v_t(t) = 1; +infinity for 0."""
        if self.num.is_zero():
            return POS_INF
        return self.num.vt() - self.den.vt()

    def is_poly(self):
        return self.den.is_one()

    def __eq__(self, other):
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFunc({self})"

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

