"""Independent reference implementations the tests compare the engine against.

None of this is used by ``drinfeldforms`` itself:

* fraction-free Bareiss elimination over an integral domain, the oracle for
  the sparse kernel (:func:`bareiss_rank`, :func:`bareiss_kernel`);
* eager sparse Gauss-Jordan elimination with a column index and the
  sparsest-row pivot (:func:`gauss_jordan_kernel`), the oracle for
  ``linalg.sparse_kernel``, which runs ``linalg.eliminate`` and then
  back-substitutes: for a fixed column order both reach the one reduced
  echelon form;
* 2x2 matrices over any ring of Polys or RatFuncs (:class:`RingMat2`),
  multiplied entry by entry through the ring's own operators: the K
  matrices the tests form, which ``Mat2`` (over A only) does not hold, and
  the oracle for ``Mat2``'s product on packed ints;
* the inverse over K of a 2x2 matrix (:func:`inverse_k`), with the moves
  between A and K (:func:`to_k`, :func:`to_a`), the oracle for the
  adjugate-based actions and the coset test over A;
* the enumerated apartment stabilizer (:class:`ApartmentStabilizer`) and
  the enumerated SL_2(F_q) (:func:`sl2fq_classes`), with the reduction of
  a matrix mod t^n (:func:`mod_tn`), the oracles for the tree layer's
  closed-form stabilizer classes;
* the classes of the stabilizers as lists of lifts (:func:`stab_lifts`,
  :func:`kernel_lifts`, :func:`passing_lifts`) and their conjugates
  (:func:`vertex_stab_elements`), the oracles for the one exponent range
  of ``TreeContext`` (its stabilizer orders);
* the F_p-generators of an edge stabilizer read from that exponent range
  (:func:`edge_stab_generators`), which :func:`block_solve` and the
  invariance tests act with: the engine forms no stabilizer element;
* the star of v_j as a table of matrices (:func:`star_sigma`), the oracle
  for the star steps on packed rows that grow the quotient graph;
* the canonical vertex with its tail as a tuple of (exponent, code) pairs
  (:class:`TupleVertex`, :func:`tuple_tail`), with the moves to and from
  the packed tail of ``tree.Vertex`` (:func:`vertex_tail`,
  :func:`vertex_of_tail`), the oracle for the packed vertex's neighbors,
  lattice matrix and tails, through which the tests write vertices by
  their terms;
* Euclid's walk on the exact fraction num/den of a vertex's tail
  (:func:`reduce_vertex_oracle`, :func:`reduce_edge_oracle`), the oracle for
  the tree layer's Euclid on matrices over A;
* a literal vertex reduced by ``tree._euclid`` on its lattice matrix, with
  gamma read off Euclid's last matrix (:func:`reduce_vertex`): the engine
  reduces only edges, and the vertex-level Euclid tests go through it;
* a literal edge acted on with a full tail division at both endpoints
  (:func:`apply_edge_two_acts`), its reductions with gamma kept as Euclid's
  row operations and replayed, keys included (:func:`reduce_vertex_replay`,
  :func:`reduce_edge_replay`, :func:`literal_edge_replay`,
  :func:`replay_inverse`), and the witness as three Mat2 multiplied out
  (:func:`edge_witness_product`), the oracles for ``apply_edge``'s one
  tail step, for gamma and its key read off Euclid's last matrix, and for
  the fused witness product;
* truncated Laurent expansions at infinity (:class:`Laurent`,
  :func:`laurent_expand`, :func:`laurent_tail`, :func:`v_inf`), the oracle
  for the tree layer's tails and for :func:`tail_to_ratfunc`, the exact
  fraction of a tail, which the other oracles start from;
* U_t^(d-r) by repeated squaring and its kernel by Bareiss
  (:func:`nilpotency_oracle`), the oracle for the image chain of
  ``hecke.nilpotency_diagnostics``;
* the certificate from the projector chi_plus(U_t) on the whole space
  (:func:`projector_certificate_oracle`), the oracle for
  ``hecke.ordinary_certificate``, which works on U_t's Fitting image;
* products of coefficient tuples over F_p reduced mod the field modulus
  (:func:`fp_poly_mulmod`, :func:`field_tables`), the oracle for the
  extension-field tables that ``fq`` builds on ``rings.Poly``;
* one cocycle's value at one edge, classified for that cocycle alone
  (:func:`evaluate_oracle`), the oracle for ``CocycleSpace.evaluate``,
  which reads one stored value through the summed signed block of its
  witness;
* the random word in Gamma_1(t^n) as four full RingMat2 products
  (:func:`random_gamma_oracle`), the oracle for the column operations of
  ``verify._random_gamma``;
* an operator built from a dense Matrix (:func:`operator`), its dense
  rows and Matrix (:func:`dense_rows`, :func:`dense`), which the oracles
  and the hand-made operators go through, and its JSON dict read off the
  dense rows (:func:`operator_json`), the oracle for the streamed writer
  ``hecke.operator_chunks``: the engine keeps an operator only as its
  columns and forms no d x d view of it;
* the classification of one operator image by the full Euclid walk from
  its matrix xi w0 (:func:`classify_image_oracle`), and of one transport's
  images each from its parent's with a Deferred witness chain per image
  (:func:`classify_images_oracle`, with the key row replayed by
  :func:`inverse_row`), the oracles for ``QuotientGraph.classify_images``,
  which walks all of an operator's transports at once on packed ints,
  reduces each image from its parent's, and a seed's from its Hecke coset
  representative, once per state, and multiplies a witness out only when
  it is read;
* the solve and the operator assembly with every block a Matrix
  (:func:`block_solve`, :class:`BlockEngine`): act(delta) read for each
  star edge and each image, stabilizer rows formed for every generator,
  and the blocks negated and summed as Matrices, each image classified by
  :func:`classify_image_oracle`.  At weight 2 they are the oracle for the
  signed counts of ``CocycleSpace._solve`` and ``HeckeEngine._assemble``,
  which form no block; at every weight :func:`block_solve` is the oracle
  for the solve on harmonicity rows alone;
* one cocycle's image read back in the basis on its own
  (:func:`coords_oracle`): the values at the unit rows, checked against
  the basis summed over the supports of the cocycles with a nonzero
  coordinate, the oracle for ``Coordinates.coords``, which reads a whole
  operator at once on the basis rows;
* the extended Euclid on Polys (:func:`poly_xgcd`) and the SL_2 lift whose
  bottom row is searched by gcds and whose top row comes from
  ``poly_xgcd(d, -c)`` (:func:`xgcd_lift_sl2`), the oracles for
  ``rings.int_inverse_mod`` and for ``groups.lift_sl2``, which read the
  coprimality test and the Bezout pair off the packed inverse mod c;
* the identity over A (:func:`identity_poly`) and the CLI's polynomial
  parser as one call (:func:`parse_poly`), which only the tests use;
* the CLI's former argparse parser (:func:`build_parser`), the oracle for
  ``cli.parse_args``, which reads the option table ``cli.COMMANDS``;
* the dict adapter over K (:func:`k_ring`), the ring of the tests'
  matrices with real denominators and of the systems the oracles solve
  over K in place of A.
"""

import argparse

from drinfeldforms.cli import cmd_dims, cmd_graph, cmd_hecke, cmd_verify
from drinfeldforms.errors import ReachError
from drinfeldforms.fq import _decode, _encode
from drinfeldforms.hecke import HeckeEngine, OperatorMatrix, OrdinaryCertificate
from drinfeldforms.linalg import DictRing, Matrix, UPoly, charpoly, newton_slope_zero_count, sparse_kernel
from drinfeldforms.mat2 import Deferred, Mat2, _replay
from drinfeldforms.rings import POS_INF, Poly, RatFunc, graded_polys, int_axpy, int_neg, packed, poly_gcd
from drinfeldforms.serialize import entry_json, parse_terms, poly_from_terms
from drinfeldforms.tree import (
    MAX_ORBITS,
    NEG_SIGN,
    POS_SIGN,
    Edge,
    Vertex,
    _act_degree,
    _act_tail,
    _det_degree,
    _euclid,
    _lattice_matrix,
    _reduce_image,
    _unlattice,
    apply_edge,
    apply_vertex,
)


def k_ring(fq):
    """The dict adapter over K = F_q(t), handing out RatFunc constants."""
    return DictRing(RatFunc.zero(fq), RatFunc.one(fq))


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
            fq = row[0].fq
            den = Poly.one(fq)
            for a in row:
                if not a.is_zero():
                    den = den * a.den.divexact(poly_gcd(den, a.den))
            cleared.append(
                [a.num * den.divexact(a.den) if not a.is_zero() else Poly.zero(fq) for a in row]
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


def gauss_jordan_kernel(rows, ncols, ring, col_order=None):
    """Kernel basis of a sparse system by Gauss-Jordan elimination, as ``linalg.sparse_kernel`` returns it.

    ``rows`` are dicts {col: nonzero elem}.  Columns are visited in
    ``col_order`` (default 0..ncols-1); the pivot for a column is the
    sparsest row holding it that is not yet a pivot row.  It is scaled to a
    leading 1 and cleared from every other row, so the rows end in reduced
    echelon form, and the vector of free column f is 1 at f and -x at c for
    each pivot row c holding x at f.
    """
    rows = [dict(r) for r in rows if r]
    col_rows = {}
    for idx, r in enumerate(rows):
        for c in r:
            col_rows.setdefault(c, set()).add(idx)
    pivots = {}
    pivot_rows = set()
    for col in range(ncols) if col_order is None else col_order:
        candidates = [i for i in col_rows.get(col, ()) if i not in pivot_rows]
        if not candidates:
            continue
        p = min(candidates, key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        inv = ring.one / prow[col]
        for c in list(prow):
            prow[c] = prow[c] * inv
        for s in list(col_rows[col]):
            if s == p:
                continue
            srow = rows[s]
            f = srow[col]
            for c, val in prow.items():
                cur = srow.get(c)
                nv = (cur - f * val) if cur is not None else -(f * val)
                if not nv:
                    if cur is not None:
                        del srow[c]
                        col_rows[c].discard(s)
                else:
                    if cur is None:
                        col_rows.setdefault(c, set()).add(s)
                    srow[c] = nv
        pivots[col] = p
        pivot_rows.add(p)
    basis = {f: {f: ring.one} for f in range(ncols) if f not in pivots}
    for c, p in pivots.items():
        for f, x in rows[p].items():
            if f != c:
                basis[f][c] = -x
    return list(basis.values())


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


class RingMat2:
    """Row-major 2x2 matrix whose entries share one ring, Poly or RatFunc, through its operators."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    def __mul__(self, other):
        return RingMat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def det(self):
        return self.a * self.d - self.b * self.c

    def adjugate(self):
        return RingMat2(self.d, -self.b, -self.c, self.a)

    def entries(self):
        return (self.a, self.b, self.c, self.d)


def ring_product(g, h):
    """The Mat2 g h over A, multiplied through Poly's operators."""
    return Mat2(*(RingMat2(*g.entries()) * RingMat2(*h.entries())).entries())


def inverse_k(m):
    """Inverse over K of an invertible RingMat2 with RatFunc entries."""
    det = m.det()
    if det.is_zero():
        raise ZeroDivisionError("singular matrix")
    inv = det.inverse()
    adj = m.adjugate()
    return RingMat2(adj.a * inv, adj.b * inv, adj.c * inv, adj.d * inv)


def to_k(m):
    """A Mat2 over A as a RingMat2 over K."""
    return RingMat2(*(RatFunc.from_poly(x) for x in m.entries()))


def to_a(mk):
    """A RingMat2 over K as a Mat2 over A, or None if an entry is not integral."""
    entries = []
    for x in mk.entries():
        if not x.is_zero() and not x.is_poly():
            return None
        entries.append(x.num if x.den.is_one() else Poly.zero(x.fq))
    return Mat2(*entries)


class ApartmentStabilizer:
    """Stab(SL_2(A), e_i) = {(a, b; 0, a^{-1}) : a in F_q^x, deg b <= i}.

    For i >= 1 this is also Stab(SL_2(A), v_i); Stab(SL_2(A), v_0) is the
    larger SL_2(F_q), enumerated by :func:`vertex_zero_stabilizer`.
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


def mod_tn(m, n):
    """The Mat2 m over A with each entry truncated to its lift of degree < n."""
    return Mat2(*(x.truncate(n) for x in m.entries()))


def vertex_zero_stabilizer(fq):
    """All of SL_2(F_q) = Stab(SL_2(A), v_0) as constant matrices, in the
    lexicographic order of the codes of (a, b, c, d)."""
    out = []
    for a in fq.elements():
        for b in fq.elements():
            for c in fq.elements():
                for d in fq.elements():
                    if fq.sub(fq.mul(a, d), fq.mul(b, c)) == 1:
                        out.append(Mat2(*(Poly.constant(fq, x) for x in (a, b, c, d))))
    return out


_SL2FQ = {}


def sl2fq_classes(fq, n):
    """SL_2(F_q) as (class mod t^n, constant lift) pairs: the classes of
    Stab(v_0), in the order of :func:`vertex_zero_stabilizer`."""
    got = _SL2FQ.get((fq.q, n))
    if got is None:
        got = _SL2FQ[(fq.q, n)] = [(mod_tn(m, n), m) for m in vertex_zero_stabilizer(fq)]
    return got


def star_sigma(fq, j, x):
    """(sigma, i, sign) for the edge sign * sigma(e_i) into v_j of digit x (None: the parent edge).

    The parent edge is -e_j.  For j >= 1 the child of digit x is
    u(x t^j)(v_(j-1)), and u(x t^j) fixes v_j, so its edge is
    u(x t^j)(e_(j-1)); at j = 0 it is u(x) J (v_1), with edge u(x) J (-e_0).
    """
    if x is None:
        return identity_poly(fq), j, NEG_SIGN
    u = Mat2.translation(Poly.constant(fq, x).shift(j))
    return (u, j - 1, POS_SIGN) if j else (u * Mat2.j_matrix(fq), 0, NEG_SIGN)


def stab_lifts(fq, c, i, level):
    """Lifts (1, t^shift b'; 0, 1), b' != 0 in graded_polys order, of the classes of
    Sbar_i mod t^level fixing a bottom row (c, d).

    (c, d) (a, b; 0, a^-1) = (c, d) forces a = 1 and t^(level - v) | b,
    v = min(v_t(c), level), so shift = level - v and
    deg b' <= min(i, level - 1) - shift.
    """
    shift = level - min(c.vt(), level)
    free = min(i, level - 1) - shift + 1
    return [Mat2.translation(b.shift(shift)) for b in list(graded_polys(fq, free))[1:]]


def kernel_lifts(fq, n, i):
    """u(t^(n+deg)) for deg <= i - n: they lie in S_i and are trivial mod t^n."""
    return [Mat2.translation(Poly.t_power(fq, n + deg)) for deg in range(i - n + 1)]


def passing_lifts(tree, w):
    """Lifts of the nontrivial classes of SL_2(F_q) fixing w's bottom row (c, d) mod t^n.

    sigma is constant, so it fixes (c, d) exactly when it fixes every
    coefficient row (c_k, d_k), k < n.  Those sigma != 1 are the q - 1
    transvections 1 + lam (d_0, -c_0)^T (c_0, d_0), lam != 0, when every
    coefficient row is on the line of (c_0, d_0), and none otherwise.  They
    come sorted by the codes of (a, b, c, d), the order of a scan of SL_2(F_q).
    """
    fq, n = tree.fq, tree.n
    c, d = (x.truncate(n).coeffs for x in (w.c, w.d))
    c, d = c + (0,) * (n - len(c)), d + (0,) * (n - len(d))
    if any(fq.mul(ck, d[0]) != fq.mul(dk, c[0]) for ck, dk in zip(c, d)):
        return []
    c0, d0 = c[0], d[0]
    cd, dd, cc = fq.mul(c0, d0), fq.mul(d0, d0), fq.mul(c0, c0)
    classes = sorted(
        (fq.add(1, fq.mul(lam, cd)), fq.mul(lam, dd), fq.neg(fq.mul(lam, cc)), fq.sub(1, fq.mul(lam, cd)))
        for lam in fq.nonzero()
    )
    return [Mat2(*(Poly.constant(fq, x) for x in m)) for m in classes]


def vertex_stab_elements(tree, w, j):
    """Nontrivial Gamma_1(t^n)-stabilizer elements of the vertex w(v_j), multiplied out.

    Returns (class_elements, kernel_elements): w sigma w^-1 for the lifts of
    the classes fixing w's row, and for the unipotent kernel family
    u(t^(n+deg)), always in the stabilizer.
    """
    w_inv = w.adjugate()
    lifts = passing_lifts(tree, w) if j == 0 else stab_lifts(tree.fq, w.c, j, tree.n)
    return [w * s * w_inv for s in lifts], [w * s * w_inv for s in kernel_lifts(tree.fq, tree.n, j)]


def edge_stab_generators(tree, orbit):
    """F_p-generators of the Gamma_1(t^n)-stabilizer of the representative w0(e_i).

    They are w0 u(lam t^m) w0^-1 = 1 + lam t^m (a, c)^T (-c, a) for
    (a, c) w0's first column, m from s to i (``TreeContext._shift``) and
    lam over the codes 1, p, ..., p^(e-1), an F_p-basis of F_q.
    """
    fq, w0 = tree.fq, orbit.w0
    one, ac, aa, cc = Poly.one(fq), w0.a * w0.c, w0.a * w0.a, -(w0.c * w0.c)
    out = []
    for m in range(tree._shift(w0), orbit.i + 1):
        for lam in (fq.p**k for k in range(fq.e)):
            bac = ac.scale(lam).shift(m)
            out.append(Mat2(one - bac, aa.scale(lam).shift(m), cc.scale(lam).shift(m), one + bac))
    return out


def vertex_tail(v):
    """The tail of a ``tree.Vertex`` as (exponent, code) pairs, exponents ascending.

    Byte k of the packed tail v.s is the code of pi^(r - 1 - k).
    """
    s = v.s.to_bytes((v.s.bit_length() + 7) >> 3, "little")
    return tuple((v.r - 1 - k, c) for k, c in reversed(list(enumerate(s))) if c)


def vertex_of_tail(r, tail):
    """The ``tree.Vertex`` (r, tail) for a tail of (exponent, code) pairs, every exponent below r."""
    assert all(e < r for e, _ in tail), "a tail term at or above pi^r"
    return Vertex(r, sum(c << 8 * (r - 1 - e) for e, c in tail))


class TupleVertex:
    """Canonical lattice class (r, s mod pi^r O) with the tail a tuple of
    (exponent, code) pairs, exponents ascending and below r, codes nonzero."""

    __slots__ = ("r", "tail")

    def __init__(self, r, tail=()):
        self.r = r
        self.tail = tuple(tail)

    @staticmethod
    def of(v):
        return TupleVertex(v.r, vertex_tail(v))

    def packed(self):
        return vertex_of_tail(self.r, self.tail)

    def parent(self):
        r = self.r - 1
        return TupleVertex(r, tuple((e, c) for e, c in self.tail if e < r))

    def child(self, code):
        if code:
            return TupleVertex(self.r + 1, self.tail + ((self.r, code),))
        return TupleVertex(self.r + 1, self.tail)

    def neighbors(self, fq):
        return [self.parent()] + [self.child(c) for c in fq.elements()]

    def apartment_index(self):
        return -self.r if not self.tail else None

    def lattice(self):
        """(L, num t^(L - E)) for s = num / t^E and L = max(E, r, 0), E = max(0, max exponent)."""
        big_e = max(0, max(e for e, _ in self.tail)) if self.tail else 0
        level = max(big_e, self.r, 0)
        top = 0
        for e, c in self.tail:
            top |= c << 8 * (level - e)
        return level, top

    def __eq__(self, other):
        return isinstance(other, TupleVertex) and (self.r, self.tail) == (other.r, other.tail)

    def __hash__(self):
        return hash((self.r, self.tail))


def tuple_tail(fq, num, den, r):
    """The tail below pi^r of num/den, for num and den packed, by :func:`laurent_tail` of the unreduced fraction."""
    return laurent_tail(RatFunc(packed(fq, num), packed(fq, den), reduce=False), r)


def tail_to_ratfunc(fq, tail):
    """Rebuild the finite tail sum c * t^(-exp) as an element of K.

    The result is num / t^E with E = max(0, max exp).  A canonical tail has
    nonzero coefficients, so num has the nonzero constant term c_E whenever
    E > 0: the fraction is already in lowest terms and no gcd is taken.
    """
    if not tail:
        return RatFunc.zero(fq)
    shift = max(0, max(e for e, _ in tail))
    num = 0
    for e, c in tail:
        num |= c << 8 * (shift - e)
    return RatFunc(packed(fq, num), Poly.t_power(fq, shift), reduce=False)


def reduce_vertex_oracle(v, fq):
    """(gamma, j) with gamma in SL_2(A) and gamma(v) = v_j, j >= 0.

    Euclid's algorithm on s = num/den, the exact fraction of the tail: the
    polynomial part of s (the expansion terms of exponent <= 0, less those
    in pi^r O) is killed by a translation, and the fractional part rem/den,
    of valuation v = deg den - deg rem, is inverted through J, which drops
    r by 2v.  The walk stops when the fractional part lies in pi^r O.
    """
    gamma = identity_poly(fq)
    r = v.r
    s = tail_to_ratfunc(fq, vertex_tail(v))
    num, den = s.num, s.den
    while True:
        quo, rem = divmod(num, den)
        # the terms of degree < 1 - r are exponents >= r, inside pi^r O
        low = max(1 - r, 0)
        b = quo - quo.truncate(low)
        if b:
            gamma = Mat2(gamma.a - b * gamma.c, gamma.b - b * gamma.d, gamma.c, gamma.d)
        drop = den.degree - rem.degree
        if drop >= r:
            if r <= 0:
                return gamma, -r
            return Mat2(-gamma.c, -gamma.d, gamma.a, gamma.b), r
        r -= 2 * drop
        num, den = -den, rem
        gamma = Mat2(-gamma.c, -gamma.d, gamma.a, gamma.b)


def reduce_edge_oracle(e, fq):
    """(gamma, i, sign) with gamma in SL_2(A), gamma(e) = sign * e_i, i >= 0:
    the origin's reduction, then the terminus moved next to v_j."""
    gamma, j = reduce_vertex_oracle(e.origin, fq)
    term = apply_vertex(gamma, e.terminus, fq)
    if term.r == -j - 1:
        assert not term.s, "non-adjacent edge endpoints"
        return gamma, j, 1
    assert term.r == -j + 1, "non-adjacent edge endpoints"
    code = 0
    for exp, c in vertex_tail(term):
        if exp == -j:
            code = c
        else:
            assert not c, "non-adjacent edge endpoints"
    if code:
        b = Poly.constant(fq, fq.neg(code)).shift(j)
        gamma = Mat2(gamma.a + b * gamma.c, gamma.b + b * gamma.d, gamma.c, gamma.d)
    if j == 0:
        return Mat2(-gamma.c, -gamma.d, gamma.a, gamma.b), 0, 1
    return gamma, j - 1, -1


def apply_edge_two_acts(g, e, fq):
    """g(e) with each endpoint acted on in full: ``tree._act_degree``, then its tail division ``tree._act_tail``."""
    g = tuple(x.x for x in g.entries())
    deg_det = _det_degree(g, fq)
    return Edge(*(_act_tail(g, v, *_act_degree(g, deg_det, v, fq), fq) for v in (e.origin, e.terminus)))


def replay_inverse(gamma):
    """adj(gamma) for gamma = Deferred(_replay, fq, ops, inverted), replayed afresh from the same ops."""
    fq, ops, inverted = gamma.args
    return Deferred(_replay, fq, ops, not inverted)


def reduce_vertex(v, fq):
    """(gamma, j) with gamma in SL_2(A) and gamma(v) = v_j, j >= 0; gamma is read off h = gamma M_v (``tree._unlattice``)."""
    g, deg_det = _lattice_matrix(v)
    _, j, h = _euclid(g, 0, deg_det, fq)
    return Deferred(_unlattice, fq, h, v, False), j


def reduce_vertex_replay(v, fq):
    """:func:`reduce_vertex` with gamma kept as Euclid's row operations, replayed when read."""
    g, deg_det = _lattice_matrix(v)
    ops, j, _ = _euclid(g, 0, deg_det, fq)
    return Deferred(_replay, fq, ops, False), j


def reduce_edge_replay(e, fq):
    """``tree.reduce_edge`` with gamma kept as the row operations of ``_reduce_image``, replayed when read."""
    if e.terminus == e.origin.parent():
        v, sign = e.origin, POS_SIGN
    elif e.origin == e.terminus.parent():
        v, sign = e.terminus, NEG_SIGN
    else:
        raise AssertionError("non-adjacent edge endpoints")
    g, deg_det = _lattice_matrix(v)
    ops, i, image_sign, _ = _reduce_image(g, 0, deg_det, fq)
    return Deferred(_replay, fq, ops, False), i, sign * image_sign


def inverse_row(tree, ops, row):
    """adj(gamma g)'s bottom row (-c, a) mod t^n for gamma the row operations ``ops``, replaying only
    the first column (a, c) of gamma g from adj g's bottom row ``row`` mod t^n: the replay that
    ``QuotientGraph.classify_images`` runs inline."""
    fq, mask = tree.fq, tree._mask
    a, c = row[1], int_neg(fq, row[0])
    for op in ops:
        if op:
            a = int_axpy(fq, a, op & mask, c) & mask
        else:
            a, c = int_neg(fq, c), a
    return int_neg(fq, c), a


def literal_edge_replay(tree, e):
    """``TreeContext.reduce_edge`` by replay: the key off gamma's first column replayed mod t^n, w = gamma^-1."""
    gamma, i, sign = reduce_edge_replay(e, tree.fq)
    _, ops, _ = gamma.args
    nf = tree._normal_form(*inverse_row(tree, ops, (0, 1)), i)
    return (i, nf[0]), i, sign, replay_inverse(gamma), nf


def edge_witness_product(tree, w, nf, orbit):
    """``TreeContext.edge_witness`` as w * lift * w0^-1, the lift formed as a Mat2 and both products multiplied out."""
    (_, a, b), (_, a0, b0) = nf, orbit.nf
    fq = tree.fq
    mul, add, neg, inv = fq._mul, fq._add, fq._neg, fq._inv
    lift_b = bytes(add[mul[a0][x]][neg[mul[a][y]]] for x, y in zip(b, b0))
    ratio = mul[a][inv[a0]]
    lift = Mat2.from_packed(fq, (ratio, int.from_bytes(lift_b, "little"), 0, inv[ratio]))
    return w * lift * orbit.w0_inv


def identity_poly(fq):
    """The identity Mat2 over A."""
    return Mat2(Poly.one(fq), Poly.zero(fq), Poly.zero(fq), Poly.one(fq))


def parse_poly(fq, text):
    """Parse ``t^2+t+1``-style input into an element of F_q[t], as the CLI reads it."""
    return poly_from_terms(fq, parse_terms(fq, text))


class Laurent:
    """Truncated expansion at infinity: sum coeffs[i] * pi^(lead+i), pi = 1/t.

    ``coeffs`` holds exactly ``precision`` known terms; the first is nonzero
    unless the series is identically zero to this precision.
    """

    __slots__ = ("fq", "lead", "coeffs")

    def __init__(self, fq, lead, coeffs):
        coeffs = tuple(coeffs)
        # strip leading zeros into the exponent so the invariant holds
        while coeffs and coeffs[0] == 0:
            lead += 1
            coeffs = coeffs[1:]
        self.fq = fq
        self.lead = lead if coeffs else 0
        self.coeffs = coeffs

    @property
    def precision(self):
        return len(self.coeffs)

    def is_zero(self):
        return not self.coeffs

    def coeff(self, exp):
        i = exp - self.lead
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def terms(self):
        return tuple((self.lead + i, c) for i, c in enumerate(self.coeffs) if c)

    def mul(self, other):
        """Product, truncated to the honestly shared precision."""
        if self.is_zero() or other.is_zero():
            return Laurent(self.fq, 0, ())
        prec = min(self.precision, other.precision)
        fq = self.fq
        out = [0] * prec
        for i, a in enumerate(self.coeffs[:prec]):
            if a:
                for j, b in enumerate(other.coeffs[:prec]):
                    if b and i + j < prec:
                        out[i + j] = fq.add(out[i + j], fq.mul(a, b))
        return Laurent(fq, self.lead + other.lead, out)

    def is_one_to_precision(self):
        return self.lead == 0 and bool(self.coeffs) and self.coeffs[0] == 1 and all(
            c == 0 for c in self.coeffs[1:]
        )

    def __eq__(self, other):
        return (
            isinstance(other, Laurent)
            and self.lead == other.lead
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.lead, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "Laurent(0)"
        ts = " + ".join(f"{c}*pi^{self.lead + i}" for i, c in enumerate(self.coeffs) if c)
        return f"Laurent({ts})"


def laurent_expand(x, precision):
    """Exact expansion of x in K at infinity to ``precision`` terms.

    The leading exponent is deg(den) - deg(num).  Both reversed numerator
    and denominator have nonzero constant term, so a plain power-series
    division in pi produces the expansion.
    """
    if precision < 1:
        raise ValueError("precision must be >= 1")
    fq = x.fq
    if x.is_zero():
        return Laurent(fq, 0, ())
    num, den = x.num, x.den
    lead = den.degree - num.degree
    rn = tuple(reversed(num.coeffs))
    rd = tuple(reversed(den.coeffs))
    out = []
    acc = list(rn[:precision]) + [0] * max(0, precision - len(rn))
    inv0 = fq.inv(rd[0])
    for i in range(precision):
        c = fq.mul(acc[i], inv0)
        out.append(c)
        if c:
            for j in range(1, min(len(rd), precision - i)):
                acc[i + j] = fq.sub(acc[i + j], fq.mul(c, rd[j]))
    return Laurent(fq, lead, out)


def v_inf(x):
    """The valuation of a RatFunc at infinity in pi = 1/t: deg den - deg num, +infinity for 0."""
    return POS_INF if x.is_zero() else x.den.degree - x.num.degree


def laurent_tail(x, below):
    """Terms of the expansion of x with exponent < ``below``, as a tuple.

    This is the canonical representative of x modulo pi^below * O.
    """
    if x.is_zero():
        return ()
    v = v_inf(x)
    n_terms = below - v
    if n_terms <= 0:
        return ()
    series = laurent_expand(x, n_terms)
    return series.terms()


def nilpotency_oracle(ut):
    """The nonordinary-nilpotency record from U_t^(d-r) and its kernel.

    The power is formed by dense repeated squaring and its kernel by
    Bareiss; the index is the number of applications of U_t that take a
    basis of that kernel to zero.
    """
    ctx = ut.ctx
    matrix = dense(ut)
    d = ut.size
    r = ctx.ordinary_rank()
    n = max(d - r, 0)
    power, base = Matrix.identity(matrix.ring, d), matrix
    while n:
        if n & 1:
            power = power * base
        base = base * base
        n >>= 1
    vecs = bareiss_kernel(power) if d - r > 0 else []
    dim_nilp = len(vecs)
    index = 0
    while any(any(x for x in v) for v in vecs):
        index += 1
        vecs = [matrix.apply(v) for v in vecs]
    return {
        "lemma": "nonordinary-nilpotency",
        "params": {"q": ctx.q, "n": ctx.n, "k": ut.k},
        "status": dim_nilp == d - r and index <= d - r,
        "nilpotent_dimension": dim_nilp,
        "nilpotency_index": index,
        "note": (
            "the doubly-cusp-vanishing subspace is not computed at this scale; "
            "the nilpotent block of U_t is its indirect witness"
        ),
    }


def projector_certificate_oracle(ut, heckes=()):
    """Checks (a)-(d) with chi = charpoly(U_t) and the projector chi_plus(U_t).

    Berkowitz runs on the whole d x d matrix, and (c) and (d) are read off
    the d x d products (U_t - 1) chi_plus(U_t) and (T - 1) chi_plus(U_t),
    over whichever ring U_t is over.
    """
    ctx = ut.ctx
    ring = ut.ring
    d = ut.size
    r = ctx.ordinary_rank()
    notes = []
    u = dense(ut)
    chi = charpoly(u)
    x_minus_1 = UPoly(ring, [-ring.one, ring.one])
    chi_plus = chi
    ok_div = True
    for _ in range(r):
        chi_plus, rem = divmod(chi_plus, x_minus_1)
        if not rem.is_zero():
            ok_div = False
            notes.append("(X-1)^r does not divide the characteristic polynomial")
            break
    flags = {"divisibility": ok_div}
    if ok_div:
        try:
            flags["positive_slope"] = newton_slope_zero_count(chi_plus) == 0
        except ValueError as exc:
            flags["positive_slope"] = False
            notes.append(f"Newton count failed: {exc}")
    else:
        flags["positive_slope"] = False
    unipotent = False
    if ok_div:
        proj = chi_plus.eval_matrix(u)
        ident = Matrix.identity(ring, d)
        unipotent = ((u - ident) * proj).is_zero()

        def fixes(op):
            return ((dense(op) - ident) * proj).is_zero()

    flags["unipotence_kill"] = unipotent
    hecke_flags = {}
    for op in heckes:
        ok = ok_div and fixes(op)
        hecke_flags[op.name] = ok
        if not ok:
            notes.append(f"{op.name} is not the identity on the ordinary part")
    return OrdinaryCertificate(ctx, ut.k, r, chi, chi_plus, flags, hecke_flags, notes)


def fp_poly_mulmod(a, b, modulus, p):
    """Multiply coefficient tuples a, b over F_p modulo a monic modulus."""
    e = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce modulo the monic modulus
    for k in range(len(prod) - 1, e - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for j in range(e + 1):
                prod[k - e + j] = (prod[k - e + j] - c * modulus[j]) % p
    while len(prod) < e:
        prod.append(0)
    return tuple(prod[:e])


def field_tables(fq):
    """F_q's addition, multiplication and negation tables on codes, from
    coefficient tuples and :func:`fp_poly_mulmod`."""
    p, e = fq.p, fq.e
    vecs = [_decode(c, p, e) for c in range(fq.q)]
    add = [[_encode([(x + y) % p for x, y in zip(va, vb)], p) for vb in vecs] for va in vecs]
    mul = [[_encode(fp_poly_mulmod(va, vb, fq.modulus, p), p) for vb in vecs] for va in vecs]
    neg = [_encode([-x % p for x in va], p) for va in vecs]
    return add, mul, neg


def evaluate_oracle(space, cocycle, e):
    """A cocycle's value at an oriented edge: its stored value transported
    through the witness, with the orientation sign; zero off the table and
    off its support."""
    orbit, key, sign, delta = space.graph.classify(e)
    stored = None if orbit is None else cocycle.get(key)
    if stored is None:
        return space.zero_vector()
    out = space.vk.act(delta).apply(stored)
    return tuple(out if sign == 1 else [-x for x in out])


def classify_image_oracle(graph, xi, orbit):
    """graph.classify(apply_edge(xi, orbit.rep)), from the image's matrix xi w0.

    orbit.rep is w0(e_i), so its image is (xi w0)(e_i): xi w0 is multiplied
    out through Poly's operators and walked to the apartment from scratch, with no
    lattice coordinates formed and nothing read off another orbit's image.
    """
    fq, tree = graph.ctx.fq, graph.tree
    g = tuple(x.x for x in ring_product(xi, orbit.w0).entries())
    ops, i, sign, _ = _reduce_image(g, orbit.i, xi.det().degree, fq)
    nf = tree._normal_form(*inverse_row(tree, ops, (0, 1)), i)
    return graph._lookup((i, nf[0]), i, sign, Deferred(_replay, fq, ops, True), nf)


def classify_images_oracle(graph, xi, keys):
    """[classify(apply_edge(xi, orbit.rep)) for the orbit of each key], with every parent in ``keys``,
    one transport at a time and with a Deferred chain per image: the former
    ``QuotientGraph.classify_images``, the oracle for its one packed walk over all transports.

    In depth order, each image is reduced from its parent's: gamma_P xi w0(P) = h_P, so gamma_P
    xi w0 = h_P sigma, and Euclid's gamma' on it gives gamma = gamma' gamma_P, whose first column
    keys the image, and the witness gamma^-1 = Deferred(Mat2.__mul__, w_P, gamma'^-1), with
    gamma'^-1 = Deferred(_replay, fq, ops, True).  A seed's xi w0 is w R for its Hecke coset
    representative R (GroupContext.hecke_coset), w a Mat2 here: h = R and sigma = 1.
    """
    tree, fq = graph.tree, graph.ctx.fq
    det = xi.det()
    steps, got = {}, {}
    for orbit in sorted((graph.edge_orbits[key] for key in keys), key=lambda o: o.depth):
        if orbit.parent is None:
            gamma, h = graph.ctx.hecke_coset(tuple(x.x for x in xi.entries()), orbit.w0, det.x)
            w = Mat2.from_packed(fq, gamma)
            row, sigma = tree._row(w), (0, None)
        elif orbit.parent.key not in steps:
            raise AssertionError(f"orbit {orbit.key} is transported without its parent")
        else:
            (h, row, w), sigma = steps[orbit.parent.key], orbit.sigma
        ops, i, sign, h = tree.reduce_state(h, sigma, orbit.i, det.degree)
        row, w = inverse_row(tree, ops, row), Deferred(Mat2.__mul__, w, Deferred(_replay, fq, ops, True))
        steps[orbit.key] = h, row, w
        nf = tree._normal_form(*row, i)
        got[orbit.key] = graph._lookup((i, nf[0]), i, sign, w, nf)
    return [got[key] for key in keys]


def random_gamma_oracle(ctx, rng):
    """The random word of ``verify._random_gamma``, each factor a product through Poly's operators."""
    fq = ctx.fq
    m = identity_poly(fq)
    for _ in range(4):
        b = Poly(fq, [rng.randrange(fq.q) for _ in range(rng.randrange(1, 3))])
        if rng.random() < 0.5:
            m = ring_product(m, Mat2.translation(b))
        else:
            m = ring_product(m, Mat2(Poly.one(fq), Poly.zero(fq), b.shift(ctx.n), Poly.one(fq)))
    return m


def operator(name, ctx, k, matrix):
    """The OperatorMatrix whose columns are those of a dense Matrix."""
    ring = matrix.ring
    return OperatorMatrix(name, ctx, k, ring, [ring.vector(col) for col in zip(*matrix.rows)])


def dense_rows(op):
    """An operator's dense rows, the d x d view of its columns."""
    rows = [[op.ring.zero] * op.size for _ in op.cols]
    for j, col in enumerate(op.cols):
        for i, x in op.ring.terms(col):
            rows[i][j] = x
    return rows


def dense(op):
    """An operator's dense Matrix, from its rows."""
    return Matrix(op.ring, dense_rows(op))


def operator_json(op):
    """An operator's JSON dict from its dense rows, the reference for the streamed writer."""
    rows = dense_rows(op)
    values = {x: entry_json(x) for x in {x for row in rows for x in row}}  # one per distinct entry
    return {
        "name": op.name,
        "q": op.ctx.q,
        "n": op.ctx.n,
        "k": op.k,
        "size": op.size,
        "entries": [[values[x] for x in row] for row in rows],
    }


def block_solve(space, graph):
    """(basis, keys) of ``CocycleSpace._solve`` with every block a Matrix.

    Each star edge contributes its sign times act(delta), summed entry by
    entry per column block, and each generator delta of a nontrivial edge
    stabilizer contributes the rows of act(delta) - 1, dropped where zero.
    """
    comp = space.k - 1
    ring = space.ring
    keys = sorted(graph.edge_orbits)
    col_of = {key: i * comp for i, key in enumerate(keys)}
    stable = set(space.stable_keys)
    col_order = []
    for key in sorted(keys, key=lambda kk: (kk in stable, -graph.edge_orbits[kk].depth, kk)):
        base = col_of[key]
        col_order.extend(range(base, base + comp))
    rows = []
    for vorbit in graph.interior_vertex_orbits():
        blocks = {}
        for orbit, key, sign, delta in graph.star(vorbit):
            assert orbit is not None, "interior vertex star left the table"
            m = space.vk.act(delta)
            mat = [[x if sign == 1 else -x for x in row] for row in m.rows]
            acc = blocks.get(col_of[key])
            if acc is None:
                blocks[col_of[key]] = [row[:] for row in mat]
            else:
                for r in range(comp):
                    for s in range(comp):
                        acc[r][s] = acc[r][s] + mat[r][s]
        for r in range(comp):
            row = {base + s: mat[r][s] for base, mat in blocks.items() for s in range(comp) if mat[r][s]}
            if row:
                rows.append(row)
    for key in keys:
        orbit = graph.edge_orbits[key]
        if orbit.stab_order == 1:
            continue
        base = col_of[key]
        for delta in edge_stab_generators(graph.tree, orbit):
            m = space.vk.act(delta)
            for r in range(comp):
                row = {}
                for s in range(comp):
                    v = m.rows[r][s] - (ring.one if r == s else ring.zero)
                    if v:
                        row[base + s] = v
                if row:
                    rows.append(row)
    basis = []
    for vec in sparse_kernel(rows, len(keys) * comp, ring, col_order=col_order):
        entry = {}
        for col, x in vec.items():
            entry.setdefault(keys[col // comp], [ring.zero] * comp)[col % comp] = x
        basis.append({key: tuple(v) for key, v in entry.items()})
    return basis, keys


class BlockEngine(HeckeEngine):
    """``HeckeEngine`` whose transport table holds Matrix blocks: each image's
    block is act(xi^-1) act(delta), negated for a reversed edge and summed
    as a Matrix, and the column stage applies the sums."""

    def _assemble(self, name, transports):
        space = self.space
        graph = space.graph
        acts = [space.vk.act_of_inverse(xi) for xi in transports]
        table = {}
        for key in self.coords.keys_needed:
            orbit = graph.edge_orbits[key]
            for xi, act in zip(transports, acts):
                found, key2, sign, delta = classify_image_oracle(graph, xi, orbit)
                if found is None:
                    raise ReachError(f"edge beyond the table: {apply_edge(xi, orbit.rep, space.ctx.fq)}")
                block = act * space.vk.act(delta)
                if sign == -1:
                    block = -block
                row = table.setdefault(key2, {})
                row[key] = row[key] + block if key in row else block
        cols = []
        for cocycle in space.basis:
            values = {}
            for key2, stored in cocycle.items():
                for key, block in table.get(key2, {}).items():
                    image = block.apply(stored)
                    prev = values.get(key)
                    values[key] = image if prev is None else [a + b for a, b in zip(prev, image)]
            cols.append(space.ring.vector(coords_oracle(self.coords, values)))
        return OperatorMatrix(name, self.ctx, self.k, space.ring, cols)


def coords_oracle(coords, values):
    """One cocycle's coordinates in the solved basis, from its values {key: vector}.

    They are the values at the unit rows.  The basis times them, summed
    over the supports of the cocycles with a nonzero coordinate, must
    equal the values on every safe row of ``coords`` either side reaches,
    a missing key reading as zero; the first bad row in safe-row order
    is a ReachError.
    """
    space = coords.space
    ring = space.ring
    zero = space.zero_vector()
    x = [values.get(key, zero)[s] for key, s in space.unit_rows]
    got = {}
    for xj, cocycle in zip(x, space.basis):
        if xj:
            for key, v in cocycle.items():
                for s, bij in enumerate(v):
                    if bij:
                        got[key, s] = got.get((key, s), ring.zero) + bij * xj
    reached = {(key, s) for key, v in values.items() for s, want in enumerate(v) if want}
    for key, s in coords.safe_rows:
        if (key, s) in reached or (key, s) in got:
            if got.get((key, s), ring.zero) != values.get(key, zero)[s]:
                raise ReachError(
                    f"operator image is inconsistent with the basis at row {key}, "
                    "component %d: truncation depth too small" % s
                )
    return x


def poly_xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) monic and x*a + y*b = g."""
    fq = a.fq
    r0, r1 = a, b
    x0, x1 = Poly.one(fq), Poly.zero(fq)
    y0, y1 = Poly.zero(fq), Poly.one(fq)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if r0.is_zero():
        return r0, x0, y0
    lead_inv = fq.inv(r0.leading())
    return r0.scale(lead_inv), x0.scale(lead_inv), y0.scale(lead_inv)


def xgcd_lift_sl2(gbar, n):
    """The lift of gbar in SL_2(A_n) to SL_2(A) by gcds and an extended gcd.

    The bottom row is (c, d) with c the first cbar + t^n z, z degree-first,
    prime to d = dbar (t^n when dbar = 0); (a1, b1) = (x, y) of
    poly_xgcd(d, -c), corrected by lambda (c, d), lambda of degree < n.
    """
    fq = gbar.a.fq
    tn = Poly.t_power(fq, n)
    abar, bbar, cbar, dbar = (x.truncate(n) for x in gbar.entries())
    d = dbar or tn
    c = next(c for c in (cbar + tn * z for z in graded_polys(fq)) if poly_gcd(c, d).is_one())
    g, a1, b1 = poly_xgcd(d, -c)
    assert g.is_one()
    lam = (a1 * (bbar - b1) - b1 * (abar - a1)) % tn
    return Mat2(a1 + lam * c, b1 + lam * d, c, d)


def build_parser():
    p = argparse.ArgumentParser(
        prog="drinfeldforms",
        description="Exact harmonic-cocycle computations for Drinfeld cuspform "
        "spaces of level Gamma_1(t^n): dimensions, Hecke/diamond matrices, and "
        "the verification suites.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--q", type=int, required=True, help="field size, a prime power")
        sp.add_argument("--n", type=int, required=True, help="level exponent, n >= 1")
        sp.add_argument("--depth", type=int, default=None, help="override truncation depth")
        sp.add_argument(
            "--max-orbits",
            type=int,
            default=None,
            help=f"orbit-table bound (default $DRINFELDFORMS_MAX_ORBITS or {MAX_ORBITS})",
        )
        sp.add_argument("--out", default=None, help="output file (default stdout)")

    d = sub.add_parser("dims", help="dimension and genus data")
    common(d)
    d.add_argument("--k", type=int, default=2)
    d.set_defaults(func=cmd_dims)

    h = sub.add_parser("hecke", help="operator matrices")
    common(h)
    h.add_argument("--k", type=int, default=2)
    h.add_argument("--op", action="append", help="Ut | Tm:<poly> | Diamond:<poly>")
    h.add_argument("--format", default="json", choices=["json", "csv", "latex"])
    h.add_argument("--certify", action="store_true", help="attach the ordinary certificate")
    h.set_defaults(func=cmd_hecke)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", default="paper", choices=["paper", "goss", "congruences"])
    v.add_argument("--q", type=int, action="append", help="repeatable; default 2 and 3")
    v.add_argument("--nmax", "--n", type=int, default=None, dest="nmax")
    v.add_argument("--kmax", type=int, default=4)
    v.add_argument("--imax", type=int, default=None)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--jobs", type=int, default=1)
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify)

    g = sub.add_parser("graph", help="quotient graph export")
    common(g)
    g.add_argument("--format", default="dot", choices=["dot", "json"])
    g.set_defaults(func=cmd_graph)
    return p
