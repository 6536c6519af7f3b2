"""Exact dense and sparse linear algebra over F_q and K = F_q(t).

Dense matrices are generic over a small ring adapter exposing ``zero`` and
``one`` elements; the elements themselves carry the arithmetic through
operator overloading (FqElem, RatFunc, Poly all qualify).  One code path
serves both fields: weight-2 operators, their charpolys and kernels are
over F_q (FqRing), and weight-k ones over K (KRing).

Every elimination goes through one sparse Gauss-Jordan routine,
:func:`_reduce`, behind both the kernel the cocycle solver calls
(constraint systems over quotient graphs are tree-shaped, and ordered
sparse elimination keeps them that way) and the dense
:func:`kernel_basis`.  Characteristic polynomials use the division-free
Berkowitz algorithm.
"""

from .fq import FqElem
from .rings import NEG_INF, POS_INF, RatFunc


class FqRing:
    """Adapter handing out FqElem constants."""

    def __init__(self, fq):
        self.fq = fq
        self.zero = FqElem(fq, 0)
        self.one = FqElem(fq, 1)

    def __eq__(self, other):
        return isinstance(other, FqRing) and other.fq.q == self.fq.q

    def __hash__(self):
        return hash(("FqRing", self.fq.q))


class KRing:
    """Adapter handing out RatFunc constants over F_q(t)."""

    def __init__(self, fq):
        self.fq = fq
        self.zero = RatFunc.zero(fq)
        self.one = RatFunc.one(fq)

    def __eq__(self, other):
        return isinstance(other, KRing) and other.fq.q == self.fq.q

    def __hash__(self):
        return hash(("KRing", self.fq.q))


def _is_zero(x):
    return not x


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
            out = []
            for row in self.rows:
                acc = [z] * other.ncols
                for a, other_row in zip(row, other.rows):
                    if a:
                        for j, b in enumerate(other_row):
                            if b:
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

    def __pow__(self, n):
        if self.nrows != self.ncols:
            raise ValueError("power of a non-square matrix")
        result = Matrix.identity(self.ring, self.nrows)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def transpose(self):
        return Matrix(self.ring, [list(col) for col in zip(*self.rows)])

    def is_zero(self):
        return all(_is_zero(a) for row in self.rows for a in row)

    def apply(self, vec):
        z = self.ring.zero
        out = []
        for row in self.rows:
            s = z
            for a, x in zip(row, vec):
                if a and x:
                    s = s + a * x
            out.append(s)
        return out

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.rows))

    def __repr__(self):
        body = "; ".join(", ".join(str(a) for a in row) for row in self.rows)
        return f"Matrix[{body}]"


def kernel_basis(matrix):
    """Basis of the right kernel {v : M v = 0}, vectors over the field.

    The dense rows are eliminated as sparse ones by :func:`_reduce`,
    columns in the order 0..ncols-1; each basis vector is 1 at its own
    free (non-pivot) column and 0 at the other free columns.
    """
    rows = [{c: x for c, x in enumerate(row) if x} for row in matrix.rows]
    return _kernel(rows, matrix.ncols, matrix.ring, range(matrix.ncols))


class UPoly:
    """Dense univariate polynomial over a field adapter (variable X)."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        coeffs = list(coeffs)
        while coeffs and _is_zero(coeffs[-1]):
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
        out = [self.ring.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if _is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                if not _is_zero(b):
                    out[i + j] = out[i + j] + a * b
        return UPoly(self.ring, out)

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
            if not _is_zero(c):
                f = c * inv_lead
                quo[k - dd] = f
                for j, b in enumerate(other.coeffs):
                    rem[k - dd + j] = rem[k - dd + j] - f * b
        return UPoly(self.ring, quo), UPoly(self.ring, rem)

    def eval_matrix(self, m):
        """Horner evaluation at a square Matrix over the same field."""
        n = m.nrows
        acc = Matrix.zeros(self.ring, n, n)
        for c in reversed(self.coeffs):
            acc = acc * m
            if not _is_zero(c):
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
            if _is_zero(c):
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
    vals = []
    for c in f.coeffs:
        if isinstance(c, FqElem):
            vals.append(0 if c else POS_INF)
        else:
            v = c.vt()
            if v is not POS_INF and v < 0:
                raise ValueError("non-integral coefficient (negative t-adic valuation)")
            vals.append(v)
    mult = 0
    for v in vals:
        if v == 0:
            break
        mult += 1
    return f.degree - mult


def _reduce(rows, col_order, ring):
    """Gauss-Jordan elimination of sparse rows over a field, in place.

    ``rows`` are dicts {col: nonzero elem}.  Columns are visited in
    ``col_order``; the pivot for a column is the sparsest row holding it
    that is not yet a pivot row.  It is scaled to a leading 1 and cleared
    from every other row, so the rows end in reduced echelon form.
    Returns {pivot col: row index}.
    """
    col_rows = {}
    for idx, r in enumerate(rows):
        for c in r:
            col_rows.setdefault(c, set()).add(idx)
    pivots = {}
    pivot_rows = set()
    for col in col_order:
        holders = col_rows.get(col)
        if not holders:
            continue
        candidates = [i for i in holders if i not in pivot_rows]
        if not candidates:
            continue
        p = min(candidates, key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        inv = ring.one / prow[col]
        if inv != ring.one:
            for c in list(prow):
                prow[c] = prow[c] * inv
        for s in list(holders):
            if s == p:
                continue
            srow = rows[s]
            f = srow[col]
            for c, val in prow.items():
                cur = srow.get(c)
                nv = (cur - f * val) if cur is not None else -(f * val)
                if _is_zero(nv):
                    if cur is not None:
                        del srow[c]
                        col_rows[c].discard(s)
                else:
                    if cur is None:
                        col_rows.setdefault(c, set()).add(s)
                    srow[c] = nv
        pivots[col] = p
        pivot_rows.add(p)
    return pivots


def sparse_kernel(rows, ncols, ring, col_order=None):
    """Kernel basis of a sparse system; rows are dicts {col: nonzero elem}.

    Elimination (:func:`_reduce`) visits columns in ``col_order`` (default
    0..ncols-1) and keeps a full reduced form, so kernel vectors read off
    directly.
    """
    rows = [dict(r) for r in rows if r]
    return _kernel(rows, ncols, ring, range(ncols) if col_order is None else col_order)


def _kernel(rows, ncols, ring, col_order):
    """The kernel of :func:`sparse_kernel`, eliminating ``rows`` in place.

    :func:`kernel_basis` calls this rather than :func:`sparse_kernel`,
    which ``perfbench/tracing.py`` counts as the cocycle solve.
    """
    pivots = _reduce(rows, col_order, ring)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free_cols:
        v = [ring.zero] * ncols
        v[f] = ring.one
        for c, p in pivots.items():
            val = rows[p].get(f)
            if val is not None:
                v[c] = -val
        basis.append(v)
    return basis
