"""Independent reference implementations the tests compare the engine against.

None of this is used by ``drinfeldforms`` itself:

* fraction-free Bareiss elimination over an integral domain, the oracle for
  the sparse Gauss-Jordan kernel (:func:`bareiss_rank`,
  :func:`bareiss_kernel`);
* the inverse over K of a 2x2 matrix (:func:`inverse_k`), the oracle for
  the adjugate-based actions and the coset test over A;
* the enumerated apartment stabilizer (:class:`ApartmentStabilizer`), the
  oracle for the tree layer's closed-form stabilizer classes.
"""

from drinfeldforms.mat2 import Mat2
from drinfeldforms.rings import Poly, RatFunc, graded_polys, poly_gcd


def _is_zero(x):
    return not x


def _divexact(a, b):
    if isinstance(a, Poly):
        return a.divexact(b)
    return a / b


def _embed(x):
    """A cleared domain entry back in the field."""
    if isinstance(x, Poly):
        return RatFunc.from_poly(x)
    return x


def _clear_denominators(matrix):
    """Rows of domain entries (Poly or FqElem), row-scaled out of K."""
    cleared = []
    for row in matrix.rows:
        if row and isinstance(row[0], RatFunc):
            den = Poly.one(matrix.ring.fq)
            for a in row:
                if not a.is_zero():
                    den = den * a.den.divexact(poly_gcd(den, a.den))
            cleared.append(
                [a.num * den.divexact(a.den) if not a.is_zero() else Poly.zero(matrix.ring.fq) for a in row]
            )
        else:
            cleared.append(list(row))
    return cleared


def bareiss_echelon(rows):
    """Fraction-free row echelon form over an integral domain.

    Returns (echelon_rows, pivot_cols).  Entries must support *, -, and
    exact division (Poly.divexact, or true division in a field).
    """
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivot_cols = []
    prev = None
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if not _is_zero(rows[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        p = rows[r][c]
        for i in range(r + 1, len(rows)):
            if all(_is_zero(x) for x in rows[i]):
                continue
            ri_c = rows[i][c]
            for j in range(ncols):
                val = rows[i][j] * p - rows[r][j] * ri_c
                if prev is not None and not _is_zero(val):
                    val = _divexact(val, prev)
                elif prev is not None:
                    val = val  # zero stays zero
                rows[i][j] = val
        pivot_cols.append(c)
        prev = p
        r += 1
        if r == len(rows):
            break
    return rows, pivot_cols


def bareiss_pivots(matrix):
    """Pivot columns of the fraction-free echelon form of a Matrix."""
    _, pivots = bareiss_echelon(_clear_denominators(matrix))
    return pivots


def bareiss_rank(matrix):
    return len(bareiss_pivots(matrix))


def bareiss_kernel(matrix):
    """Basis of the right kernel {v : M v = 0}, vectors over the field.

    Echelon over the cleared domain matrix, then back-substitution in the
    field.  Each basis vector is normalized so its first nonzero entry is 1.
    """
    ring = matrix.ring
    cleared = _clear_denominators(matrix)
    ech, pivots = bareiss_echelon(cleared)
    ncols = matrix.ncols
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free_cols:
        v = [ring.zero] * ncols
        v[f] = ring.one
        # solve pivot variables bottom-up
        for idx in range(len(pivots) - 1, -1, -1):
            c = pivots[idx]
            row = ech[idx]
            s = ring.zero
            for j in range(c + 1, ncols):
                if not _is_zero(row[j]) and not _is_zero(v[j]):
                    s = s + _embed(row[j]) * v[j]
            v[c] = -s / _embed(row[c])
        basis.append(_normalize_vector(ring, v))
    return basis


def _normalize_vector(ring, v):
    lead = None
    for x in v:
        if not _is_zero(x):
            lead = x
            break
    if lead is None or lead == ring.one:
        return v
    inv = ring.one / lead
    return [x * inv if not _is_zero(x) else x for x in v]


def inverse_k(m):
    """Inverse over K of an invertible Mat2 with RatFunc entries."""
    det = m.det()
    if det.is_zero():
        raise ZeroDivisionError("singular matrix")
    inv = det.inverse()
    adj = m.adjugate()
    return Mat2(adj.a * inv, adj.b * inv, adj.c * inv, adj.d * inv)


class ApartmentStabilizer:
    """Stab(SL_2(A), e_i) = {(a, b; 0, a^{-1}) : a in F_q^x, deg b <= i}.

    For i >= 1 this is also Stab(SL_2(A), v_i); Stab(SL_2(A), v_0) is the
    larger SL_2(F_q), handled by :func:`drinfeldforms.tree.vertex_zero_stabilizer`.
    """

    def __init__(self, fq, i):
        self.fq = fq
        self.i = i

    @property
    def order(self):
        return (self.fq.q - 1) * self.fq.q ** (self.i + 1)

    def elements(self):
        fq = self.fq
        zero = Poly.zero(fq)
        for a in fq.nonzero():
            ap = Poly.constant(fq, a)
            ainv = Poly.constant(fq, fq.inv(a))
            for b in graded_polys(fq, self.i + 1):
                yield Mat2(ap, b, zero, ainv)
