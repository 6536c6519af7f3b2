"""Exact dense and sparse linear algebra over F_q, A = F_q[t] and K = F_q(t).

Dense matrices are generic over a small ring adapter exposing ``zero`` and
``one`` elements; the elements themselves carry the arithmetic through
operator overloading (FqElem, Poly, RatFunc all qualify).  One code path
serves every ring: weight-2 operators and kernels are over F_q (FqRing),
weight-k ones over A, and the image chain above weight 2 over K.  The
adapters also own the vector format of an operator's columns and of
``hecke.image_chain``, one packed int over F_q (FqRing) and a dict over
any other ring (DictRing, with its constants): ``vector``, ``terms`` (the
nonzero (coordinate, entry) pairs) and ``from_terms``, ``lead`` (the
highest nonzero coordinate and its entry), ``axpy`` (w + c v, a new
vector), ``transpose`` (the d columns of the matrix with the given rows)
and ``text_rows`` (each row's d entries as text, formed once per value).

UPoly, the dense univariate polynomial, is both the charpoly's type and
the truncated u-series of ``carlitz``: a series to precision n is a
UPoly cut by :meth:`UPoly.truncate` after each product, and
:meth:`UPoly.series_inverse` inverts one with a unit constant term mod
X^n, over any ring whose elements have ``inverse()``; a UPoly is one, so
over DictRings with Poly and UPoly constants a series has coefficients
in A[y].

Every elimination goes through one routine, :func:`eliminate`, which
clears a vector's leading coordinate against an echelon of rows with
leading 1s.  ``hecke.image_chain`` runs it on the adapters' vectors, and
:func:`sparse_kernel`, the cocycle solver's kernel, on dict vectors at
every weight (constraint systems over quotient graphs are tree-shaped,
and sparse rows keep them that way; over A every pivot is a unit); kernel
vectors are read off the reduced pivot rows as sparse dicts {col: nonzero
elem}.  Characteristic polynomials use the division-free Berkowitz algorithm.
"""

from .errors import StabilityError
from .fq import FqElem
from .rings import NEG_INF, POS_INF, int_add, int_axpy


class FqRing:
    """Adapter handing out FqElem constants; a vector is a packed int, byte i holding coordinate i."""

    def __init__(self, fq):
        self.fq = fq
        self.zero = FqElem(fq, 0)
        self.one = FqElem(fq, 1)

    def vector(self, entries):
        return int.from_bytes(bytes(a.code for a in entries), "little")

    def terms(self, v):
        return ((i, FqElem(self.fq, c)) for i, c in enumerate(v.to_bytes((v.bit_length() + 7) >> 3, "little")) if c)

    def from_terms(self, terms):
        return sum(x.code << 8 * i for i, x in terms)

    def lead(self, v):
        top = (v.bit_length() - 1) >> 3
        return top, FqElem(self.fq, v >> 8 * top)

    def axpy(self, w, c, v):
        if c.code == 1:
            return int_add(self.fq, w, v) if w else v
        return int_axpy(self.fq, w, c.code, v)

    def transpose(self, rows, d):
        packed = b"".join(v.to_bytes(d, "little") for v in rows)
        return [int.from_bytes(packed[j::d], "little") for j in range(d)]

    def text_rows(self, rows, d, text):
        table = [text(FqElem(self.fq, c)) for c in range(self.fq.q)]  # one string per code
        return (map(table.__getitem__, v.to_bytes(d, "little")) for v in rows)

    def __eq__(self, other):
        return isinstance(other, FqRing) and other.fq.q == self.fq.q

    def __hash__(self):
        return hash(("FqRing", self.fq.q))


class DictRing:
    """Adapter handing out the constants ``zero`` and ``one``; a vector is a dict {coordinate: nonzero entry}."""

    def __init__(self, zero, one):
        self.zero = zero
        self.one = one

    def vector(self, entries):
        return {i: x for i, x in enumerate(entries) if x}

    def terms(self, v):
        return v.items()

    def from_terms(self, terms):
        return dict(terms)

    def lead(self, v):
        top = max(v)
        return top, v[top]

    def axpy(self, w, c, v):
        out = dict(w)
        for i, x in v.items():
            y = out.pop(i) + c * x if i in out else c * x
            if y:
                out[i] = y
        return out

    def transpose(self, rows, d):
        return [{i: v[j] for i, v in enumerate(rows) if j in v} for j in range(d)]

    def text_rows(self, rows, d, text):
        table = {x: text(x) for x in {self.zero}.union(*(v.values() for v in rows))}  # one per entry
        return ((table[v.get(j, self.zero)] for j in range(d)) for v in rows)

    def __eq__(self, other):
        return isinstance(other, DictRing) and other.one == self.one

    def __hash__(self):
        return hash(("DictRing", self.one))


class Matrix:
    """Dense matrix with entries in a common ring."""

    __slots__ = ("ring", "rows")

    def __init__(self, ring, rows):
        self.ring = ring
        self.rows = [list(r) for r in rows]
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise ValueError("ragged matrix")

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    @staticmethod
    def identity(ring, n):
        z, o = ring.zero, ring.one
        return Matrix(ring, [[o if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(ring, m, n):
        z = ring.zero
        return Matrix(ring, [[z] * n for _ in range(m)])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
            z = self.ring.zero
            # each right row's nonzero (j, b), read once per product
            other_terms = [[(j, b) for j, b in enumerate(r) if b] for r in other.rows]
            out = []
            for row in self.rows:
                acc = [z] * other.ncols
                for a, terms in zip(row, other_terms):
                    if a:
                        for j, b in terms:
                            acc[j] = acc[j] + a * b
                out.append(acc)
            return Matrix(self.ring, out)
        return self.scale(other)

    def scale(self, c):
        return Matrix(self.ring, [[c * a for a in row] for row in self.rows])

    def __add__(self, other):
        return Matrix(self.ring, [[a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return Matrix(self.ring, [[a - b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __neg__(self):
        return Matrix(self.ring, [[-a for a in row] for row in self.rows])

    def transpose(self):
        return Matrix(self.ring, [list(col) for col in zip(*self.rows)])

    def is_zero(self):
        return not any(a for row in self.rows for a in row)

    def apply(self, vec):
        """M vec, each row's sum started at its first nonzero term: over K a
        sum with 0 would still take a gcd."""
        z = self.ring.zero
        terms = [(i, x) for i, x in enumerate(vec) if x]
        out = []
        for row in self.rows:
            s = None
            for i, x in terms:
                a = row[i]
                if a:
                    s = a * x if s is None else s + a * x
            out.append(z if s is None else s)
        return out

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __repr__(self):
        body = "; ".join(", ".join(str(a) for a in row) for row in self.rows)
        return f"Matrix[{body}]"


class UPoly:
    """Dense univariate polynomial over a ring adapter (variable X)."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.ring = ring
        self.coeffs = coeffs

    @staticmethod
    def zero(ring):
        return UPoly(ring, [])

    @staticmethod
    def one(ring):
        return UPoly(ring, [ring.one])

    @staticmethod
    def x(ring):
        return UPoly(ring, [ring.zero, ring.one])

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.ring.one

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.ring.zero

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return UPoly(self.ring, [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return UPoly(self.ring, [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self):
        return UPoly(self.ring, [-c for c in self.coeffs])

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return UPoly.zero(self.ring)
        # each sum starts at its first term: over K a sum with 0 would still take a gcd
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        out = [None] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms:
                    out[i + j] = a * b if out[i + j] is None else out[i + j] + a * b
        return UPoly(self.ring, [self.ring.zero if c is None else c for c in out])

    def __pow__(self, n):
        result = UPoly.one(self.ring)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        quo = [self.ring.zero] * max(0, len(rem) - len(other.coeffs) + 1)
        dd = other.degree
        inv_lead = self.ring.one / other.coeffs[-1]
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if c:
                f = c * inv_lead
                quo[k - dd] = f
                for j, b in enumerate(other.coeffs):
                    rem[k - dd + j] = rem[k - dd + j] - f * b
        return UPoly(self.ring, quo), UPoly(self.ring, rem)

    def truncate(self, n):
        """The terms of degree < n: the polynomial mod X^n."""
        return UPoly(self.ring, self.coeffs[:n])

    def order(self):
        """The least degree of a nonzero term; None for 0."""
        return next((i for i, c in enumerate(self.coeffs) if c), None)

    def inverse(self):
        """The inverse of a unit constant; ZeroDivisionError otherwise."""
        if self.degree != 0:
            raise ZeroDivisionError(f"{self} is not a unit constant")
        return UPoly(self.ring, [self.coeffs[0].inverse()])

    def series_inverse(self, n):
        """The inverse mod X^n of a polynomial with unit constant term.

        Its coefficients g_k solve sum_{j <= min(k, deg)} f_j g_(k-j) = 0
        for 0 < k < n, with g_0 = f_0^(-1).
        """
        f = self.coeffs
        if not self.coeff(0):
            raise ZeroDivisionError("series inverse of a polynomial with zero constant term")
        inv0 = f[0].inverse()
        out = [inv0]
        for k in range(1, n):
            s = None  # as in __mul__, the sum starts at its first term
            for j in range(1, min(k, len(f) - 1) + 1):
                if f[j] and out[k - j]:
                    s = f[j] * out[k - j] if s is None else s + f[j] * out[k - j]
            out.append(self.ring.zero if s is None else -(inv0 * s))
        return UPoly(self.ring, out[:n])

    def eval_matrix(self, m):
        """Horner evaluation at a square Matrix over the same field."""
        n = m.nrows
        acc = Matrix.zeros(self.ring, n, n)
        for c in reversed(self.coeffs):
            acc = acc * m
            if c:
                acc = acc + Matrix.identity(self.ring, n).scale(c)
        return acc

    def __eq__(self, other):
        return isinstance(other, UPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            xs = "" if i == 0 else ("X" if i == 1 else f"X^{i}")
            cs = str(c)
            if i > 0 and cs == "1":
                parts.append(xs)
            elif i == 0:
                parts.append(cs)
            else:
                parts.append(f"({cs})*{xs}")
        return " + ".join(parts)

    __repr__ = __str__


def charpoly(matrix):
    """Characteristic polynomial det(X*I - M), by division-free Berkowitz."""
    n = matrix.nrows
    if n != matrix.ncols:
        raise ValueError("charpoly of a non-square matrix")
    ring = matrix.ring
    if n == 0:
        return UPoly.one(ring)
    a = matrix.rows
    coeffs = [ring.one, -a[0][0]]  # descending, for the 1x1 leading block
    for i in range(1, n):
        # the nonzero (index, entry) pairs of a[j][:i], j <= i, read once
        terms = [[(c, x) for c, x in enumerate(a[j][:i]) if x] for j in range(i + 1)]
        row = terms[i]
        col = [a[j][i] for j in range(i)]
        corner = a[i][i]
        toeplitz = [ring.one, -corner]
        v = col
        for k in range(i):
            toeplitz.append(-_sparse_dot(ring, row, v))
            if k < i - 1:
                v = [_sparse_dot(ring, terms[j], v) for j in range(i)]
        new = [ring.zero] * (i + 2)
        for r in range(i + 2):
            s = ring.zero
            for k in range(min(r + 1, i + 1)):
                t = toeplitz[r - k] if r - k < len(toeplitz) else ring.zero
                if t and coeffs[k]:
                    s = s + t * coeffs[k]
            new[r] = s
        coeffs = new
    return UPoly(ring, list(reversed(coeffs)))


def _sparse_dot(ring, terms, v):
    """sum x * v[c] over the nonzero (c, x) of a row, skipping zero v[c]."""
    s = ring.zero
    for c, x in terms:
        y = v[c]
        if y:
            s = s + x * y
    return s


def newton_slope_zero_count(f):
    """Number of roots of t-adic valuation zero of a monic f over K.

    Requires t-integral coefficients; equals deg(f) minus the multiplicity
    of X in the reduction of f modulo t.
    """
    if not f.is_monic():
        raise ValueError("Newton slope count requires a monic polynomial")
    vals = [(0 if c else POS_INF) if isinstance(c, FqElem) else c.vt() for c in f.coeffs]
    if any(v < 0 for v in vals):
        raise ValueError("non-integral coefficient (negative t-adic valuation)")
    return f.degree - vals.index(0)  # the lowest coefficient that is a t-adic unit: monic f has one


def eliminate(ring, echelon, w):
    """(w less multiples of the echelon rows, the multiples as (leading coordinate, entry)).

    ``echelon`` maps each row's leading coordinate, its highest nonzero
    one, to the row, whose entry there is 1 (a lead that survives raises);
    w's leading coordinate is cleared while it leads a row.  Vectors are in ``ring``'s format.
    """
    cleared = []
    while w:
        top, c = ring.lead(w)
        if cleared and cleared[-1][0] == top:
            raise AssertionError(f"echelon row at coordinate {top} does not lead with 1")
        row = echelon.get(top)
        if row is None:
            break
        cleared.append((top, c))
        w = ring.axpy(w, -c, row)
    return w, cleared


def extend_echelon(ring, echelon, w):
    """Add w, less multiples of the echelon rows, to ``echelon`` scaled to a leading 1, unless that is 0."""
    w, _ = eliminate(ring, echelon, w)
    if w:
        top, c = ring.lead(w)
        echelon[top] = w if c == ring.one else ring.axpy(ring.vector(()), c.inverse(), w)


def sparse_kernel(rows, ncols, ring, col_order=None):
    """Kernel basis of a sparse system; rows are dicts {col: nonzero elem}.

    Column ``col_order[i]`` (default 0..ncols-1) is coordinate ncols-1-i, so
    the first column visited leads: each row goes into an echelon of dict
    vectors through :func:`extend_echelon`.  Back-substitution, lowest
    pivot first, clears every pivot row at the other pivots; that reduced
    echelon form is unique for the column order.  A pivot row holds 1 at
    its pivot column c and otherwise free columns only: the kernel vector
    of free column f, a dict {col: nonzero elem}, is 1 at f and -x at c for
    each pivot row holding x at f.  One vector per free column, in order.
    A pivot that is not a unit (over A, a non-constant one) raises StabilityError.
    """
    order = range(ncols) if col_order is None else col_order
    top = ncols - 1
    coord = {col: top - i for i, col in enumerate(order)}
    dicts = DictRing(ring.zero, ring.one)
    echelon = {}
    for r in rows:
        w = {coord[c]: x for c, x in r.items()}
        try:
            extend_echelon(dicts, echelon, w)
        except ZeroDivisionError:
            p, c = dicts.lead(eliminate(dicts, echelon, w)[0])
            raise StabilityError(f"the kernel's pivot at column {order[top - p]} is {c}, not a unit") from None
    for p in sorted(echelon):
        row = echelon[p]
        # the rows below p are reduced already, so each clears one pivot
        for c in [c for c in row if c != p and c in echelon]:
            row = dicts.axpy(row, -row[c], echelon[c])
        echelon[p] = row
    basis = {f: {f: ring.one} for f in range(ncols) if coord[f] not in echelon}
    for p in sorted(echelon, reverse=True):
        c = order[top - p]
        for f, x in echelon[p].items():
            if f != p:
                basis[order[top - f]][c] = -x
    return list(basis.values())
