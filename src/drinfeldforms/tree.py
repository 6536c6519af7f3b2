"""The Bruhat-Tits tree of SL_2(K_infinity) and its Gamma_1(t^n) orbits.

Vertices are lattice classes in canonical coordinates (r, s mod pi^r O),
pi = 1/t: the class of the lattice spanned by the rows (pi^r, s), (0, 1).
The tail, the finitely many expansion terms of s below pi^r, is one packed
int whose byte k is the code of pi^(r - 1 - k), so the parent drops byte 0,
a child shifts a digit in, and vertex equality compares two ints.  The
standard apartment is v_i = (-i, 0), and e_i is the oriented edge from v_i
to v_{i+1}.

The quotient graph is grown in group coordinates.  SL_2(A) acts with the
ray v_0, v_1, ... as quotient, so each orbit keeps a w0 in SL_2(A), and
its representative w0(e_i) or w0(v_j) is formed only when read.  The
q + 1 edges into w(v_j) are sign * (w sigma)(e_i) for the star steps
sigma of digit x in F_q: -e_j (sigma = 1), u(x t^j)(e_(j-1)) for j >= 1
and u(x) J (-e_0) at j = 0.  A step is a column operation on packed rows
(_star_step), so each edge is keyed from the bottom row of w sigma mod
t^n, read off w's row, and w0 = w sigma is formed by stepping both rows
of w only for a new orbit, whose full row must give the same key.

A literal edge or vertex (classify, verify's checks) is acted on over A,
never over K, and on packed ints: g's entries are read once, the lattice
matrix is scaled by t^L to the integral M_v = t^L (pi^r, s; 0, 1) =
(t^(L - r), top; 0, t^L), L = max(r, 0), each entry of their product is
one multiply-add (rings.int_axpy), r is read off degrees, and the tail off
one division, with no reduction of the fraction.  M_v(v_0) = v and M_v
fixes the end at infinity, so an edge is +-M_v(e_0) for its lower vertex
v, and its image takes one tail: the other end is the parent.  It is
reduced to the apartment by Euclid's algorithm on a matrix g over A with
g(e_i) the edge, run on packed ints: s is b/d (or a/c) of g diag(t^i, 1),
the polynomial part of s is killed by a translation in SL_2(A), and the
rest is inverted through J = (0 -1; 1 0), which strictly decreases r; the
terminus is read off degrees and one division.  A literal edge enters as
M_v, and gamma, gamma^-1 and the key row are read off Euclid's
last matrix h = gamma M_v, as det M_v = t^(2L - r).  An operator image
xi w0(e_i) is reduced from its parent's reduced image, one star step and
at most two row operations away, and a seed's from the Hecke coset
representative of xi w0, each such state once; all of an operator's
transports walk the orbits in one depth order on packed ints
(classify_images).

Orbits of Gamma_1(t^n) are canonicalized through the finite double coset
Gamma_1(t^n)bar \\ SL_2(A_n) / Sbar_i, where S_i is the apartment
stabilizer (a b; 0 a^{-1}), deg b <= i: the left coset is determined by the
bottom row mod t^n, and the orbit key is its least right translate, a
normal form computed coefficient by coefficient (memoized per row): a
scales the first nonzero coefficient of c to 1, and b clears the
coefficients of d from there on as far as its degree allows.  At v_0,
whose stabilizer is SL_2(F_q), the key is the least of the q + 1 normal
forms of row rho over coset representatives rho of SL_2(F_q)/Sbar_0.

A classification also gives an exact witness in Gamma_1(t^n) taking the
representative to the input: w (w(e_i) = +-e) times its lift in S_i, read
off the two normal forms, times w0^-1, a Deferred built only when an
entry is read (V_2 reads none); an operator image's w is multiplied out
from its chain of row operations then, each link of an operator's walk
once (chain_witness), and w0^-1 is formed on first read.  SL_2 preserves the parity of r, so an orbit never
contains an edge and its reversal, and orientation is carried as an
explicit sign.

The Gamma_1(t^n)-stabilizer of w(e_i), and of w(v_i) for i >= 1, is
w {u(b) : t^s | b, deg b <= i} w^-1 with s = n - min(v_t(c), n) for c the
lower-left entry of w: one exponent range gives its order q^(i - s + 1)
and Gamma_1(t)-stability (i = 0 and c(0) != 0).  At v_0 it is trivial, or
1 and the q - 1 transvections along the constant coefficient row, so no
stabilizer element is enumerated.
"""

import copy

from .errors import ResourceBoundError
from .mat2 import Deferred, Mat2, _replay, packed_product
from .rings import NEG_INF, int_axpy, int_divmod, int_mul, int_neg

POS_SIGN = 1
NEG_SIGN = -1

# default bound on the number of edge orbits in one table
MAX_ORBITS = 200000


class Vertex:
    """Canonical lattice class (r, s mod pi^r O); ``s`` is packed, byte k the code of pi^(r - 1 - k)."""

    __slots__ = ("r", "s")

    def __init__(self, r, s=0):
        self.r = r
        self.s = s

    @staticmethod
    def standard(i):
        """v_i, the class of O(pi^i, 0) + O(0, 1): coordinates (-i, 0)."""
        return Vertex(-i)

    def parent(self):
        """The neighbor one level up (ball of one size larger): the term of pi^(r - 1) goes."""
        return Vertex(self.r - 1, self.s >> 8)

    def child(self, code):
        """The neighbor refining this ball with next digit ``code``, the term of pi^r."""
        return Vertex(self.r + 1, self.s << 8 | code)

    def neighbors(self, fq):
        return [self.parent(), *(self.child(c) for c in fq.elements())]

    def apartment_index(self):
        """i with self == v_i, or None."""
        return None if self.s else -self.r

    def __eq__(self, other):
        return isinstance(other, Vertex) and self.r == other.r and self.s == other.s

    def __hash__(self):
        return hash((self.r, self.s))

    def __repr__(self):
        i = self.apartment_index()
        if i is not None:
            return f"v_{i}"
        return f"Vertex(r={self.r}, s={self.s:#x})"


class Edge:
    """Oriented edge (origin, terminus)."""

    __slots__ = ("origin", "terminus")

    def __init__(self, origin, terminus):
        self.origin = origin
        self.terminus = terminus

    @staticmethod
    def standard(i):
        """e_i, from v_i to v_{i+1}."""
        return Edge(Vertex.standard(i), Vertex.standard(i + 1))

    def reverse(self):
        return Edge(self.terminus, self.origin)

    def __eq__(self, other):
        return (
            isinstance(other, Edge)
            and self.origin == other.origin
            and self.terminus == other.terminus
        )

    def __hash__(self):
        return hash((self.origin, self.terminus))

    def __repr__(self):
        return f"Edge({self.origin} -> {self.terminus})"


def apply_vertex(g, v, fq):
    """Canonical form of g applied to v; g is 2x2 over A, det != 0.

    Works over A: with L = max(r, 0) (_lattice), the lattice matrix
    t^L (pi^r, s; 0, 1) is integral, and so is its product m with g.
    Then r' = v_inf(det m) - 2 min(v_inf(c), v_inf(d)) comes from degrees,
    and the tail of s' = b/d (or a/c when deg c > deg d) is read off one
    division, with no reduction of the fraction.  g's entries are read once
    as packed ints, and the rest runs on them.
    """
    g = g.a.x, g.b.x, g.c.x, g.d.x
    return _act_tail(g, v, *_act_degree(g, _det_degree(g, fq), v, fq), fq)


def apply_edge(g, e, fq):
    """g(e) for e joining a vertex to its parent: both ends take the degree step of apply_vertex,
    and only the one of larger r' its tail step, the other being its parent (AssertionError off edges)."""
    o, t = e.origin, e.terminus
    adjacent = t.r == o.r - 1 and t.s == o.s >> 8 or o.r == t.r - 1 and o.s == t.s >> 8
    g = g.a.x, g.b.x, g.c.x, g.d.x
    deg_det = _det_degree(g, fq)
    at_o, at_t = _act_degree(g, deg_det, o, fq), _act_degree(g, deg_det, t, fq)
    if not adjacent or abs(at_o[0] - at_t[0]) != 1:
        raise AssertionError("non-adjacent edge endpoints")
    up = at_o[0] > at_t[0]  # the image goes up, from its lower end
    low = _act_tail(g, o, *at_o, fq) if up else _act_tail(g, t, *at_t, fq)
    return Edge(low, low.parent()) if up else Edge(low.parent(), low)


def _det_degree(g, fq):
    """deg det g for g = (a, b, c, d) packed."""
    a, b, c, d = g
    det = int_axpy(fq, int_mul(fq, a, d), int_neg(fq, b), c)
    if not det:
        raise ZeroDivisionError("singular matrix acting on the tree")
    return _deg(det)


def _act_degree(g, deg_det, v, fq):
    """(r', left, den) of g(v) for g packed, with no division: s' = num/den has den = mc if left, else md."""
    level, top = _lattice(v)
    # the bottom row (mc, md) of m = g t^L (pi^r, s; 0, 1)
    mc, md = g[2] << 8 * (level - v.r), int_axpy(fq, g[3] << 8 * level, g[2], top)
    left = _deg(mc) > _deg(md)
    return 2 * _deg(mc if left else md) - deg_det - 2 * level + v.r, left, mc if left else md


def _act_tail(g, v, rp, left, den, fq):
    """g(v) from _act_degree's (r', left, den): num is ma or mb, and the tail one division."""
    level, top = _lattice(v)
    num = g[0] << 8 * (level - v.r) if left else int_axpy(fq, g[1] << 8 * level, g[0], top)
    return Vertex(rp, _tail(num, den, rp, fq))


def _lattice(v):
    """(L, num t^(L - E)) for s = num / t^E, the tail's exact fraction, and L = max(r, 0).

    t^L (pi^r, s; 0, 1) = (t^(L - r), num t^(L - E); 0, t^L) is then
    integral: every exponent is below r, so E <= L.  Byte k of v.s, the
    code of pi^(r - 1 - k), is the coefficient of t^(L - r + 1 + k).
    """
    level = max(v.r, 0)
    return level, v.s << 8 * (level - v.r + 1)


def _lattice_matrix(v):
    """(M_v, deg det M_v): M_v = t^L (pi^r, s; 0, 1) over A, packed, so that M_v(v_0) = v."""
    level, top = _lattice(v)
    return (1 << 8 * (level - v.r), top, 0, 1 << 8 * level), 2 * level - v.r


def _tail(num, den, r, fq):
    """The canonical tail of num/den below pi^r, packed, for num and den packed.

    With m = max(r - 1, 0), the coefficient of t^k in the quotient of
    num t^m by den is the coefficient of pi^(m - k) in num/den, and every
    exponent below r is at most m: byte k of the tail, pi^(r - 1 - k), is
    the quotient's coefficient of t^(m + 1 - r + k).
    """
    m = max(r - 1, 0)
    return int_divmod(fq, num << 8 * m, den)[0] >> 8 * (m + 1 - r)


def _deg(x):
    """The degree of the polynomial packed in x."""
    return (x.bit_length() - 1) >> 3 if x else NEG_INF


def _star_step(fq, c, d, j, x):
    """The packed row (c, d) sigma for the star step sigma into v_j of digit x, the identity for x None.

    sigma is u(x t^j) for j >= 1 and u(x) J at j = 0 (TreeContext.star).
    """
    if x is None:
        return c, d
    if j:
        return c, int_axpy(fq, d, x, c << 8 * j)
    return int_axpy(fq, d, x, c), int_neg(fq, c)


def _star_matrix(w, j, x):
    """w sigma for the star step (j, x), each row of w stepped by _star_step."""
    fq = w.a.fq
    rows = (*_star_step(fq, w.a.x, w.b.x, j, x), *_star_step(fq, w.c.x, w.d.x, j, x))
    return Mat2.from_packed(fq, rows)


def _euclid(g, i, deg_det, fq):
    """(ops, j, h): gamma g(v_i) = v_j, j >= 0, for gamma the row operations ops (mat2._replay).

    g = (a, b, c, d) is packed over A, with det of degree ``deg_det``, and
    g(v_i) is the vertex of g diag(t^i, 1).  Its r and s are read off the
    entries as in apply_vertex: s = num/den is b/d, or a/c when deg(c t^i) > deg d.
    The polynomial part of s (the expansion terms of exponent <= 0, less
    those in pi^r O) is killed by a translation, and the fractional part
    rem/den, of valuation v = deg den - deg rem, is inverted through J,
    which drops r by 2v.  The walk stops when the fractional part lies in
    pi^r O.  Since -1/s mod pi^(r - 2v) depends only on s mod pi^r, any
    matrix of the vertex gives the same translations.

    They are applied to g too, and h = gamma g is returned packed.  From
    det h it follows that after a step the other entry of the new bottom
    row has degree no larger than the one s is read from, so s stays on its
    column, and the translation leaves rem there: only the other column
    (top, bottom) of h needs a product.
    """
    a, b, c, d = g
    deg_det += i
    left = _deg(c) + i > _deg(d)
    num, den, top, bottom = (a, c, b, d) if left else (b, d, a, c)
    r = 2 * max(_deg(c) + i, _deg(d)) - deg_det
    ops = []
    while True:
        quo, rem = int_divmod(fq, num, den)
        # the terms of degree < 1 - r are exponents >= r, inside pi^r O
        low = max(1 - r, 0)
        minus = int_neg(fq, quo & -(1 << 8 * low))
        if minus:
            ops.append(minus)
            top = int_axpy(fq, top, minus, bottom)
        drop = _deg(den) - _deg(rem)
        if drop >= r:
            if r > 0:
                ops.append(0)
            # r <= 0 whenever low > 0, and then some quotient terms stay in num
            num = int_axpy(fq, num, minus, den) if low else rem
            h = (num, top, den, bottom) if left else (top, num, bottom, den)
            if r > 0:
                h = (int_neg(fq, h[2]), int_neg(fq, h[3]), h[0], h[1])
            return ops, abs(r), h
        r -= 2 * drop
        num, den = int_neg(fq, den), rem
        top, bottom = int_neg(fq, bottom), top
        ops.append(0)


def _unlattice(fq, h, v, inverse):
    """gamma = h adj(M_v) / t^(2L - r) for h = gamma M_v, or gamma^-1 = adj(gamma) if ``inverse``: with
    M_v = (t^(L - r), top; 0, t^L), top h_a and top h_c are its only products, and the divisions exact shifts."""
    level, top = _lattice(v)
    k, top, (a, b, c, d) = 8 * (level - v.r), int_neg(fq, top), h
    b, d = int_axpy(fq, b << k, top, a) >> k + 8 * level, int_axpy(fq, d << k, top, c) >> k + 8 * level
    return Mat2.from_packed(fq, (d, int_neg(fq, b), int_neg(fq, c) >> k, a >> k) if inverse else (a >> k, b, c >> k, d))


def _reduce_image(g, i, deg_det, fq):
    """(ops, j, sign, h): gamma g(e_i) = sign * e_j, j >= 0, for gamma in SL_2(A) the row operations ops.

    g = (a, b, c, d) is packed over A with det != 0 of degree ``deg_det``,
    and h = gamma g packed.  Euclid takes g(v_i) to v_j, and the terminus,
    the vertex of h diag(t^(i+1), 1), is a neighbor of v_j:
    r = -j - 1 (v_(j+1)) or -j + 1, read off degrees as in apply_vertex, and at
    those r <= 1 its tail is the terms of degree >= 1 - r of one quotient,
    none for v_(j+1) and at most c t^j for the child of v_j of digit c.
    """
    ops, j, (a, b, c, d) = _euclid(g, i, deg_det, fq)
    r = 2 * max(_deg(c) + i + 1, _deg(d)) - deg_det - i - 1
    num, den = (a, c) if _deg(c) + i + 1 > _deg(d) else (b, d)
    up = r == -j - 1
    code = int_divmod(fq, num, den)[0] >> 8 * (j + 2 if up else j)
    if (code if up else code >> 8) or not (up or r == -j + 1):
        raise AssertionError("non-adjacent edge endpoints")
    if up:
        return ops, j, POS_SIGN, (a, b, c, d)
    if code:
        ops.append(int_neg(fq, code) << 8 * j)
        a, b = int_axpy(fq, a, ops[-1], c), int_axpy(fq, b, ops[-1], d)
    if j == 0:
        ops.append(0)
        return ops, 0, POS_SIGN, (int_neg(fq, c), int_neg(fq, d), a, b)
    return ops, j - 1, NEG_SIGN, (a, b, c, d)


def reduce_edge(e, fq):
    """(gamma, i, sign) with gamma in SL_2(A), gamma(e) = sign * e_i, i >= 0; gamma is read off h = gamma M_v.

    M_v fixes the end at infinity, so it takes e_0 = (v_0, v_1), whose
    terminus is its origin's parent, to (v, parent of v).  An edge going
    up is M_o(e_0) for its origin o, and one going down is -M_t(e_0) for
    its terminus t.
    """
    if e.terminus == e.origin.parent():
        v, sign = e.origin, POS_SIGN
    elif e.origin == e.terminus.parent():
        v, sign = e.terminus, NEG_SIGN
    else:
        raise AssertionError("non-adjacent edge endpoints")
    g, deg_det = _lattice_matrix(v)
    _, i, image_sign, h = _reduce_image(g, 0, deg_det, fq)
    return Deferred(_unlattice, fq, h, v, False), i, sign * image_sign


class EdgeOrbit:
    """One Gamma_1(t^n)-orbit of oriented edges (up to sign), represented by w0(e_i).

    A seed has parent None; any other orbit has w0 = parent.w0 sigma for the
    star step sigma = (j, x) into parent.w0(v_j) (_star_step)."""

    __slots__ = ("key", "i", "w0", "w0_inv", "_rep", "depth", "stable", "label", "stab_order", "nf", "parent", "sigma")

    def __init__(self, key, i, w0, depth):
        self.key = key
        self.i = i
        self.w0 = w0
        self.w0_inv = Deferred(Mat2.adjugate, w0)  # read by edge_witness only
        self._rep = None
        self.depth = depth
        self.stable = None
        self.label = None
        self.stab_order = None
        self.nf = None
        self.parent = self.sigma = None

    @property
    def rep(self):
        """The literal edge w0(e_i), formed on first read."""
        if self._rep is None:
            self._rep = apply_edge(self.w0, Edge.standard(self.i), self.w0.a.fq)
        return self._rep


class VertexOrbit:
    """One Gamma_1(t^n)-orbit of vertices, represented by w0(v_j) for the w0 of the edge orbit ``edge``."""

    __slots__ = ("key", "j", "w0", "_rep", "depth", "stab_order", "star", "edge")

    def __init__(self, key, j, edge, depth, star):
        self.key = key
        self.j = j
        self.edge = edge
        self.w0 = edge.w0
        self._rep = None
        self.depth = depth
        self.stab_order = None
        self.star = star  # TreeContext.star(w0, j): it does not depend on the table

    @property
    def rep(self):
        """The literal vertex w0(v_j), formed on first read."""
        if self._rep is None:
            self._rep = apply_vertex(self.w0, Vertex.standard(self.j), self.w0.a.fq)
        return self._rep


class TreeContext:
    """Per-(q, n) classification machinery with caching."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.fq = ctx.fq
        self.n = ctx.n
        self._classify_cache = {}
        self._nf_cache = {}
        self._image_cache = {}
        self._mask = (1 << 8 * self.n) - 1

    # -- keys ----------------------------------------------------------------
    def _normal_form(self, c, d, i):
        """(row, a, b): the least right translate of the bottom row (c, d) under S_i.

        Memoized on (c, d, min(i, n - 1)), all it depends on.
        """
        memo = (c, d, i if i < self.n else self.n - 1)
        got = self._nf_cache.get(memo)
        if got is None:
            got = self._nf_cache[memo] = self._least_translate(*memo)
        return got

    def _least_translate(self, c, d, cap):
        """_normal_form of (c, d) under S_i, cap = min(i, n - 1).

        c and d are packed polynomials of degree < n.  row is
        (c, d) (a, b; 0, a^-1) mod t^n as stripped coefficient tuples, the
        least of all such translates as tuples; b is a tuple of codes.  The
        translate is (a c, b c + a^-1 d).  With v = v_t(c) < n, a sets the
        coefficient of c at v to 1, the least nonzero code, and b_0, b_1, ...
        in turn clear the coefficients v, v + 1, ... of the second entry,
        as far as deg b <= cap and t^n allow.  With c = 0 mod t^n, d is a
        unit, a sets its constant coefficient to 1 and b does nothing.
        """
        fq, n = self.fq, self.n
        mul, add, neg, inv = fq._mul, fq._add, fq._neg, fq._inv
        c = c.to_bytes(n, "little")
        d = d.to_bytes(n, "little")
        v = next((p for p, x in enumerate(c) if x), n)
        if v == n:
            a = d[0]
            return ((), _strip([mul[inv[a]][x] for x in d])), a, ()
        a = inv[c[v]]
        row_d = [mul[c[v]][x] for x in d]  # a^-1 d, as a^-1 = c_v
        b = []
        for j in range(min(cap, n - 1 - v) + 1):
            bj = mul[a][neg[row_d[v + j]]]
            b.append(bj)
            if bj:
                times = mul[bj]
                for p in range(v + j, n):
                    row_d[p] = add[row_d[p]][times[c[p - j]]]
        return (_strip([mul[a][x] for x in c]), _strip(row_d)), a, tuple(b)

    def vertex_key(self, c, d, j):
        """The key of w(v_j) for w with bottom row (c, d) mod t^n, packed."""
        if j:
            return (j, self._normal_form(c, d, j)[0])
        # SL_2(F_q) is the union of the cosets rho Sbar_0 over
        # rho = (1, 0; x, 1) and J, and row rho is (c + x d, d) or (d, -c)
        fq = self.fq
        rows = [(int_axpy(fq, c, x, d), d) for x in fq.elements()]
        rows.append((d, int_neg(fq, c)))
        return (0, min(self._normal_form(rc, rd, 0)[0] for rc, rd in rows))

    def star(self, w, j):
        """[(key, i, sign, x, nf)] for the q + 1 edges into w(v_j), in Vertex.neighbors order.

        Each edge is sign * (w sigma)(e_i) for the star step sigma into v_j
        of digit x (_star_step): the parent edge is -e_j (x None), and the
        child of digit x is u(x t^j)(e_(j-1)) for j >= 1 and u(x) J (-e_0)
        at j = 0.  nf is the normal form of the bottom row of w sigma mod
        t^n, read off w's row by _star_rows.
        """
        out = []
        for x, row in zip((None, *self.fq.elements()), self._star_rows(*self._row(w), j)):
            i, sign = (j, NEG_SIGN) if x is None else (j - 1, POS_SIGN) if j else (0, NEG_SIGN)
            nf = self._normal_form(*row, i)
            out.append(((i, nf[0]), i, sign, x, nf))
        return out

    def _star_rows(self, c, d, j):
        """The bottom rows mod t^n of w sigma over the star steps into v_j, from w's row (c, d).

        They are (c, d) for the parent edge, and for the child of digit x,
        (c, d + x t^j c) when j >= 1 and (x c + d, -c) at j = 0.
        """
        fq, mask = self.fq, self._mask
        return [(c, d)] + [(sc, sd & mask) for sc, sd in (_star_step(fq, c, d, j, x) for x in fq.elements())]

    def reduce_state(self, h, sigma, i, deg_det):
        """_reduce_image(h sigma, i), memoized on (h, sigma), which fixes i (star)."""
        got = self._image_cache.get((h, sigma))
        if got is None:
            g = (*_star_step(self.fq, *h[:2], *sigma), *_star_step(self.fq, *h[2:], *sigma))
            got = self._image_cache[h, sigma] = _reduce_image(g, i, deg_det, self.fq)
        return got

    def _row(self, w):
        """The bottom row of w mod t^n, packed."""
        return w.c.x & self._mask, w.d.x & self._mask

    def _lattice_row(self, gamma):
        """gamma^-1's bottom row mod t^n for gamma read off h = gamma M_v: (-h_c, h_a) / t^(L - r) (_unlattice)."""
        fq, (a, _, c, _), v, _ = gamma.args
        return int_neg(fq, c >> 8 * max(-v.r, 0) & self._mask), a >> 8 * max(-v.r, 0) & self._mask

    # -- reductions ------------------------------------------------------------
    def reduce_edge(self, e):
        """(key, i, sign, w, nf): w(sign * e_i) = e, and nf the normal form of w's row."""
        got = self._classify_cache.get(e)
        if got is None:
            gamma, i, sign = reduce_edge(e, self.fq)
            nf = self._normal_form(*self._lattice_row(gamma), i)
            key, w = (i, nf[0]), Deferred(_unlattice, *gamma.args[:3], True)
            got = self._classify_cache[e] = key, i, sign, w, nf
            self._classify_cache[Edge(e.terminus, e.origin)] = (key, i, -sign, w, nf)
        return got

    # -- witnesses -------------------------------------------------------------
    def chain_witness(self, link, nf, orbit, known):
        """edge_witness of w = g gamma_1'^-1 ... gamma_k'^-1 from its chain ``link`` (classify_images): (parent
        link, ops of gamma') per step, ending in the seed's packed g; gamma'^-1 is _replay'ed.  ``known`` maps
        id(link) to (link, w) for each link of the walk multiplied out, so each is multiplied once."""
        steps = []
        while len(link) == 2 and id(link) not in known:
            steps.append(link)
            link = link[0]
        w = known[id(link)][1] if len(link) == 2 else Mat2.from_packed(self.fq, link)
        for step in reversed(steps):
            w = w * _replay(self.fq, step[1], True)
            known[id(step)] = step, w
        return self.edge_witness(w, nf, orbit)

    def edge_witness(self, w, nf, orbit):
        """delta = w lift w0^-1 in Gamma_1(t^n), with delta * (orbit.w0) in w * S_i, one packed product.

        nf is the normal form of w's bottom row and orbit.nf that of w0's,
        so the rows are taken to one row by sigma_w = (a, b; 0, a^-1) and
        sigma_w0 = (a0, b0; 0, a0^-1), and the lift sigma_w sigma_w0^-1 =
        (a/a0, a0 b - a b0; 0, a0/a) takes w's row to w0's.  It is the
        first class a scan of Sbar_i (a, then b in graded_polys order) finds:
        every other class doing so has the same a and adds to b a nonzero
        multiple of t^(n - v), v = v_t(c), while deg b, deg b0 < n - v.
        """
        row, a, b = nf
        row0, a0, b0 = orbit.nf
        if row != row0:
            raise AssertionError("witness search failed: edge not in claimed orbit")
        fq = self.fq
        mul, add, neg, inv = fq._mul, fq._add, fq._neg, fq._inv
        lift_b = int.from_bytes(bytes(add[mul[a0][x]][neg[mul[a][y]]] for x, y in zip(b, b0)), "little")
        ratio = mul[a][inv[a0]]
        wa, wb, wc, wd = w.a.x, w.b.x, w.c.x, w.d.x
        if ratio != 1:
            wb, wd = int_mul(fq, inv[ratio], wb), int_mul(fq, inv[ratio], wd)
        wb, wd = int_axpy(fq, wb, lift_b, wa), int_axpy(fq, wd, lift_b, wc)
        if ratio != 1:
            wa, wc = int_mul(fq, ratio, wa), int_mul(fq, ratio, wc)
        return Mat2.from_packed(fq, packed_product(fq, (wa, wb, wc, wd), orbit.w0_inv))

    # -- stabilizers -------------------------------------------------------------
    def edge_orbit(self, key, i, w0, depth):
        """The orbit of key with representative w0(e_i).

        The key is read off a row mod t^n, and orbit.nf off all of w0.
        """
        orbit = EdgeOrbit(key, i, w0, depth)
        self.edge_stabilizer(orbit)
        if orbit.nf[0] != key[1]:
            raise AssertionError(f"orbit key {key} disagrees with its representative's row")
        return orbit

    def edge_stabilizer(self, orbit):
        """Fill in the normal form and the Gamma_1(t^n)-stabilizer data of the representative.

        The stabilizer has order q^max(i - s + 1, 0) (_stab_order).  Gamma_1(t)-
        stability is a trivial stabilizer at level 1: i = 0, and s = 1 there,
        that is c(0) != 0.
        """
        w0, i = orbit.w0, orbit.i
        orbit.nf = self._normal_form(*self._row(w0), i)
        orbit.stab_order = self._stab_order(w0, i)
        orbit.stable = i == 0 and w0.c.constant_coeff() != 0

    def vertex_stabilizer(self, vorbit):
        """Set the stabilizer order of the representative w(v_j); no element is formed.

        Off v_0 it is that of w(e_j).  At v_0, whose stabilizer in SL_2(A)
        is SL_2(F_q), it is q when w's row is on a line (_v0_line), else 1.
        """
        w, j = vorbit.w0, vorbit.j
        vorbit.stab_order = self._stab_order(w, j) if j else (self.fq.q if self._v0_line(w) else 1)

    def _shift(self, w):
        """s = n - min(v_t(c), n) for w's lower-left c.

        (c, d) (a, b; 0, a^-1) = (c, d) mod t^n forces a = 1 (from a c = c
        if v_t(c) < n, else from a^-1 d = d with d a unit) and t^s | b, so
        the Gamma_1(t^n)-stabilizer of w(e_i), and of w(v_i) for i >= 1, is
        w {u(b) : t^s | b, deg b <= i} w^-1 (Serre, Trees, II.1.6).
        """
        return self.n - min(w.c.vt(), self.n)

    def _stab_order(self, w, i):
        """q^max(i - s + 1, 0), the order of the Gamma_1(t^n)-stabilizer of w(e_i)."""
        return self.fq.q ** max(i - self._shift(w) + 1, 0)

    def _v0_line(self, w):
        """(c_0, d_0) if every coefficient row (c_k, d_k) of w's row mod t^n is on its line, else None.

        A sigma in SL_2(F_q) fixes (c, d) exactly when it fixes every
        coefficient row.  The row is unimodular, so (c_0, d_0) != 0, and the
        sigma != 1 fixing it are the q - 1 transvections
        1 + lam (d_0, -c_0)^T (c_0, d_0), lam != 0, which fix no row off
        the line of (c_0, d_0).
        """
        mul = self.fq._mul
        c, d = (x.to_bytes(self.n, "little") for x in self._row(w))
        if any(mul[ck][d[0]] != mul[dk][c[0]] for ck, dk in zip(c, d)):
            return None
        return c[0], d[0]


def _strip(coeffs):
    """Coefficient tuple without trailing zeros."""
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


class QuotientGraph:
    """Depth-truncated table of Gamma_1(t^n)-orbits of edges and vertices.

    Seeded with the stable representatives h_{(c,d)} J e_0 at depth 0 and
    grown breadth-first in group coordinates: each orbit keeps w0 in
    SL_2(A), and the star of each new vertex orbit is keyed from its bottom
    row mod t^n (TreeContext.star), so the build forms no literal edge or
    vertex.  The search goes shell by shell, so :meth:`extended` grows the
    depth-(D+1) table from this one by one more shell instead of building
    it again.
    """

    def __init__(self, ctx, depth, max_orbits=MAX_ORBITS):
        self.ctx = ctx
        self.tree = TreeContext(ctx)
        self.depth = depth
        self.max_orbits = max_orbits
        self.edge_orbits = {}
        self.vertex_orbits = {}
        self.seed_keys = {}
        self._interior = None
        self._grow(self._seed(), 0)

    def extended(self):
        """The depth-(D+1) table, grown from this one by one shell.

        Equal to ``QuotientGraph(ctx, D + 1, max_orbits)``.  It shares the
        tree context (so the reduction caches), the orbit objects and the
        seed keys with this table, and copies the two orbit dicts, so this
        table does not change; its interior is listed afresh.
        """
        graph = copy.copy(self)
        graph.depth = self.depth + 1
        graph._interior = None
        graph.edge_orbits = dict(self.edge_orbits)
        graph.vertex_orbits = dict(self.vertex_orbits)
        graph._grow(self.frontier, self.depth)
        return graph

    # -- construction -------------------------------------------------------
    def _new_edge(self, key, i, w0, depth, parent=None, sigma=None):
        """Register the orbit of a key not in the table, with representative w0(e_i)."""
        if len(self.edge_orbits) >= self.max_orbits:
            raise ResourceBoundError(f"edge orbit table exceeded {self.max_orbits} entries")
        orbit = self.edge_orbits[key] = self.tree.edge_orbit(key, i, w0, depth)
        orbit.parent, orbit.sigma = parent, sigma
        return orbit

    def _register_vertex(self, edge, j, depth):
        """The orbit of w0(v_j) for the w0 of the edge orbit ``edge``, registered with that representative if new."""
        key = self.tree.vertex_key(*self.tree._row(edge.w0), j)
        vorbit = self.vertex_orbits.get(key)
        if vorbit is None:
            vorbit = self.vertex_orbits[key] = VertexOrbit(key, j, edge, depth, self.tree.star(edge.w0, j))
            self.tree.vertex_stabilizer(vorbit)
        return vorbit

    def _seed(self):
        """Register the stable seed orbits at depth 0; returns them."""
        ctx, tree = self.ctx, self.tree
        jmat = Mat2.j_matrix(ctx.fq)
        seeds = []
        for c, d in ctx.label_pairs():
            w = ctx.h_matrix(c, d) * jmat
            key = (0, tree._normal_form(*tree._row(w), 0)[0])
            if key in self.edge_orbits:
                raise AssertionError(f"stable seeds collide: ({c},{d}) repeats orbit {key}")
            orbit = self._new_edge(key, 0, w, 0)
            if not orbit.stable:
                raise AssertionError(f"seed orbit {orbit.key} is not stable")
            orbit.label = (c, d)
            self.seed_keys[(c.coeffs, d.coeffs)] = orbit.key
            seeds.append(orbit)
        return seeds

    def _grow(self, frontier, depth):
        """Search from ``frontier``, the edge orbits new at ``depth``, out to self.depth.

        Each endpoint's star is read from its vertex orbit's representative
        w (the star of any vertex of the orbit meets the same edge orbits),
        and a new edge orbit takes w0 = w sigma, both rows of w stepped on
        packed ints (_star_matrix), and w's orbit as parent.  The vertices
        of the last shell are registered too, and that shell is kept as
        ``self.frontier`` for :meth:`extended`.
        """
        while frontier and depth < self.depth:
            depth += 1
            next_frontier = []
            for orbit in frontier:
                for j in (orbit.i, orbit.i + 1):
                    vorbit = self._register_vertex(orbit, j, depth - 1)
                    for key, i, _, x, _ in vorbit.star:
                        if key not in self.edge_orbits:
                            w0 = _star_matrix(vorbit.w0, j, x)
                            next_frontier.append(self._new_edge(key, i, w0, depth, vorbit.edge, (j, x)))
            frontier = next_frontier
        for orbit in frontier:
            for j in (orbit.i, orbit.i + 1):
                self._register_vertex(orbit, j, self.depth)
        self.frontier = frontier

    # -- lookups ---------------------------------------------------------------
    def classify(self, e):
        """(orbit-or-None, key, sign, witness-or-None) for an oriented edge."""
        return self._lookup(*self.tree.reduce_edge(e))

    def classify_images(self, transports, keys):
        """[[classify(apply_edge(xi, orbit.rep)) for the orbit of each key] for each xi in transports],
        with every parent in ``keys``.

        All transports walk the orbits in one depth order on packed ints, each image reduced
        from its parent's under the same xi: gamma_P xi w0(P) = h_P, so gamma_P xi w0 = h_P sigma,
        and Euclid's gamma' on it gives gamma = gamma' gamma_P, whose first column, replayed mod
        t^n, keys the image.  The witness gamma^-1 = w_P gamma'^-1 is the link (w_P's link, ops of
        gamma'), multiplied out only when read, each link once per walk (chain_witness).  A seed's xi w0 is g R for its
        Hecke coset representative R (GroupContext.hecke_coset): h = R, sigma = 1, and g ends its chain.
        """
        tree, ctx, orbits = self.tree, self.ctx, self.edge_orbits
        fq, mask, normal_form, witness, known = ctx.fq, tree._mask, tree._normal_form, tree.chain_witness, {}
        xis = [(xi.a.x, xi.b.x, xi.c.x, xi.d.x) for xi in transports]
        dets = [int_axpy(fq, int_mul(fq, a, d), int_neg(fq, b), c) for a, b, c, d in xis]
        degs = [_deg(m) for m in dets]
        walks, images = {}, {}
        for orbit in sorted((orbits[key] for key in keys), key=lambda o: o.depth):
            if orbit.parent is None:
                sigma, starts = (0, None), []
                for g, m in zip(xis, dets):
                    gamma, h = ctx.hecke_coset(g, orbit.w0, m)
                    starts.append((h, (gamma[2] & mask, gamma[3] & mask), gamma))
            elif orbit.parent.key in walks:
                sigma, starts = orbit.sigma, walks[orbit.parent.key]
            else:
                raise AssertionError(f"orbit {orbit.key} is transported without its parent")
            walk = walks[orbit.key] = []
            got = images[orbit.key] = []
            for (h, (c, d), link), deg_det in zip(starts, degs):
                ops, i, sign, h = tree.reduce_state(h, sigma, orbit.i, deg_det)
                # gamma's first column (a, c) from gamma_P's, (d, -c) for w_P's row (c, d)
                a, c = d, int_neg(fq, c)
                for op in ops:
                    a, c = (int_axpy(fq, a, op & mask, c) & mask, c) if op else (int_neg(fq, c), a)
                row, link = (int_neg(fq, c), a), (link, ops)
                walk.append((h, row, link))
                nf = normal_form(*row, i)
                key = (i, nf[0])
                found = orbits.get(key)
                got.append((found, key, sign, None if found is None else Deferred(witness, link, nf, found, known)))
        return [[images[key][t] for key in keys] for t in range(len(xis))]

    def _lookup(self, key, i, sign, w, nf):
        orbit = self.edge_orbits.get(key)
        if orbit is None:
            return None, key, sign, None
        return orbit, key, sign, Deferred(self.tree.edge_witness, w, nf, orbit)

    def star(self, vorbit):
        """classify of each of the q + 1 edges into vorbit.rep, in TreeContext.star order.

        The keys are read off the representative's row, and each witness
        is deferred with the star step w0 sigma it reads (_star_matrix).
        """
        return [
            self._lookup(key, i, sign, Deferred(_star_matrix, vorbit.w0, vorbit.j, x), nf)
            for key, i, sign, x, nf in vorbit.star
        ]

    def interior_vertex_orbits(self):
        """Vertex orbits whose whole star classifies into the table.

        Listed once per table; every call returns the same list.
        """
        if self._interior is None:
            self._interior = [
                vorbit
                for _, vorbit in sorted(self.vertex_orbits.items())
                if all(key in self.edge_orbits for key, *_ in vorbit.star)
            ]
        return self._interior

    # -- exports ---------------------------------------------------------------
    def to_json_dict(self):
        edges = []
        for key in sorted(self.edge_orbits):
            o = self.edge_orbits[key]
            row = self.tree._row(o.w0)  # rep = w0(e_i) runs from w0(v_i) to w0(v_(i+1))
            edges.append(
                {
                    "key": _key_json(key),
                    "depth": o.depth,
                    "stable": bool(o.stable),
                    "label": [list(o.label[0].coeffs), list(o.label[1].coeffs)]
                    if o.label
                    else None,
                    "stab_order": o.stab_order,
                    "origin": _key_json(self.tree.vertex_key(*row, o.i)),
                    "terminus": _key_json(self.tree.vertex_key(*row, o.i + 1)),
                }
            )
        vertices = []
        for key in sorted(self.vertex_orbits):
            v = self.vertex_orbits[key]
            vertices.append(
                {
                    "key": _key_json(key),
                    "depth": v.depth,
                    "stab_order": v.stab_order,
                }
            )
        return {
            "q": self.ctx.q,
            "n": self.ctx.n,
            "depth": self.depth,
            "orientation": "each orbit stores one representative; the reverse orbit carries sign -1",
            "edge_orbits": edges,
            "vertex_orbits": vertices,
        }

    def to_dot(self):
        data = self.to_json_dict()
        lines = [
            "graph quotient {",
            f'  label="Gamma_1(t^{self.ctx.n}) quotient, q={self.ctx.q}, depth {self.depth}";',
            "  node [shape=circle, fontsize=10];",
        ]
        for v in data["vertex_orbits"]:
            name = _dot_name(v["key"])
            lines.append(f'  "{name}" [label="{name}\\nstab {v["stab_order"]}"];')
        for e in data["edge_orbits"]:
            o, t = _dot_name(e["origin"]), _dot_name(e["terminus"])
            if e["stable"]:
                lbl = f'[{",".join("".join(map(str, c)) or "0" for c in e["label"])}]'
                lines.append(
                    f'  "{o}" -- "{t}" [color=red, penwidth=2.0, label="{lbl}"];'
                )
            else:
                lines.append(f'  "{o}" -- "{t}" [color=gray40];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _key_json(key):
    head, row = key
    return {"i": head, "row": [list(row[0]), list(row[1])]}


def _dot_name(k):
    """The DOT node name of a key as _key_json gives it."""
    return f"i{k['i']}|" + "|".join("".join(map(str, part)) or "0" for part in k["row"])

