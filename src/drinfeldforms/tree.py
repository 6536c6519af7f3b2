"""The Bruhat-Tits tree of SL_2(K_infinity) and its Gamma_1(t^n) orbits.

Vertices are lattice classes in canonical coordinates (r, s mod pi^r O),
pi = 1/t: the class of the lattice spanned by the rows (pi^r, s), (0, 1).
The tail stores the finitely many expansion terms of s below pi^r, so
vertex equality is an exact tuple comparison.  The standard apartment is
v_i = (-i, 0), and e_i is the oriented edge from v_i to v_{i+1}.

The action runs over A, never over K: every matrix that acts has entries
in A and a nonzero determinant, the lattice matrix is scaled by t^L to
the integral t^L (pi^r, s; 0, 1), the new r is read off polynomial
degrees, and the new tail is read off one division of polynomials, with
no reduction of the fraction, so acting pays no gcd.

Reduction to the apartment is Euclid's algorithm on an exact fraction
num/den representing s: the quotient of one division is the polynomial
part of s, killed by a translation in SL_2(A), and the remainder is
inverted through J = (0 -1; 1 0), each a row operation on the accumulated
matrix.  Each inversion strictly decreases r, so the walk terminates.
Orbits of Gamma_1(t^n) are canonicalized through
the finite double coset Gamma_1(t^n)bar \\ SL_2(A_n) / Sbar_i, where S_i is
the apartment stabilizer (a b; 0 a^{-1}), deg b <= i: the left coset is
determined by the bottom row mod t^n, and the orbit key is the
lexicographically least right translate of that row.  That translate is a
normal form, computed coefficient by coefficient with no enumeration of
Sbar_i: a scales the first nonzero coefficient of c to 1, and b clears the
coefficients of d from that position on as far as its degree allows.  At
v_0, whose stabilizer is SL_2(F_q), the key is the least of the q + 1
normal forms of row rho over coset representatives rho of SL_2(F_q)/Sbar_0.

Every classification also produces an exact witness in SL_2(A)
transporting the stored representative to the input; its lift in S_i is
read off the two normal forms, and the product is multiplied out only
when an entry is read (the trivial action on V_2 reads none).  Since SL_2
preserves the parity of r, an orbit never contains an edge and its
reversal, and orientation is carried as an explicit sign.

The classes of Sbar_i fixing a bottom row are translations (1, t^s b'; 0, 1)
in closed form; they give the edge stabilizers, the vertex stabilizers off
v_0, and Gamma_1(t)-stability (the same test at level 1).  Only the
SL_2(F_q) classes at v_0 are scanned, by comparing the bottom row of
w_bar sigma_bar with that of w_bar.
"""

import copy
from itertools import islice

from .errors import ResourceBoundError
from .mat2 import DeferredProduct, Mat2
from .rings import Poly, graded_polys, poly_gcd, tail_to_ratfunc

POS_SIGN = 1
NEG_SIGN = -1

# default bound on the number of edge orbits in one table
MAX_ORBITS = 200000


class Vertex:
    """Canonical lattice class (r, s mod pi^r O)."""

    __slots__ = ("r", "tail")

    def __init__(self, r, tail=()):
        self.r = r
        self.tail = tuple(tail)

    @staticmethod
    def standard(i):
        """v_i, the class of O(pi^i, 0) + O(0, 1): coordinates (-i, 0)."""
        return Vertex(-i, ())

    def parent(self):
        """The neighbor one level up (ball of one size larger)."""
        r = self.r - 1
        return Vertex(r, tuple((e, c) for e, c in self.tail if e < r))

    def child(self, code):
        """The neighbor refining this ball with next digit ``code``."""
        if code:
            return Vertex(self.r + 1, self.tail + ((self.r, code),))
        return Vertex(self.r + 1, self.tail)

    def neighbors(self, fq):
        out = [self.parent()]
        out.extend(self.child(c) for c in fq.elements())
        return out

    def apartment_index(self):
        """i with self == v_i, or None."""
        return -self.r if not self.tail else None

    def __eq__(self, other):
        return isinstance(other, Vertex) and self.r == other.r and self.tail == other.tail

    def __hash__(self):
        return hash((self.r, self.tail))

    def __repr__(self):
        i = self.apartment_index()
        if i is not None:
            return f"v_{i}"
        return f"Vertex(r={self.r}, tail={self.tail})"


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


def is_adjacent(u, v):
    if u.r == v.r + 1:
        u, v = v, u
    if v.r != u.r + 1:
        return False
    below = tuple((e, c) for e, c in v.tail if e < u.r)
    rest = tuple(e for e, _ in v.tail if e >= u.r)
    return below == u.tail and all(e == u.r for e in rest)


def apply_vertex(g, v, fq):
    """Canonical form of g applied to v; g is 2x2 over A, det != 0.

    Works over A: with s = num / t^E and L = max(E, r, 0), the lattice
    matrix t^L (pi^r, s; 0, 1) is integral, and so is its product m with g.
    Then r' = v_inf(det m) - 2 min(v_inf(c), v_inf(d)) comes from degrees,
    and the tail of s' = b/d (or a/c when deg c > deg d) is read off one
    division, with no reduction of the fraction.
    """
    return _act(g, _det_degree(g), v, fq)


def apply_edge(g, e, fq):
    deg_det = _det_degree(g)
    return Edge(_act(g, deg_det, e.origin, fq), _act(g, deg_det, e.terminus, fq))


def _det_degree(g):
    det = g.det()
    if det.is_zero():
        raise ZeroDivisionError("singular matrix acting on the tree")
    return det.degree


def _act(g, deg_det, v, fq):
    """apply_vertex for a g whose determinant has degree ``deg_det``."""
    s = tail_to_ratfunc(fq, v.tail)
    big_e = s.den.degree
    level = max(big_e, v.r, 0)
    top = s.num.shift(level - big_e)
    c = g.c.shift(level - v.r)
    d = g.c * top + g.d.shift(level)
    deg_det += 2 * level - v.r
    if c.degree <= d.degree:
        rp = 2 * d.degree - deg_det
        return Vertex(rp, _tail(g.a * top + g.b.shift(level), d, rp))
    rp = 2 * c.degree - deg_det
    return Vertex(rp, _tail(g.a.shift(level - v.r), c, rp))


def _tail(num, den, r):
    """The canonical tail of num/den below pi^r: its expansion terms of exponent < r.

    With m = max(r - 1, 0), the coefficient of t^k in the quotient of
    num t^m by den is the coefficient of pi^(m - k) in num/den, and every
    exponent below r is at most m.
    """
    m = max(r - 1, 0)
    quo = divmod(num.shift(m), den)[0].coeffs
    low = m + 1 - r  # the exponent m - k is below r exactly when k >= low
    return tuple((m - k, quo[k]) for k in range(len(quo) - 1, low - 1, -1) if quo[k])


def _translated(g, b):
    """(1, b; 0, 1) g, by one row operation."""
    return Mat2(g.a + b * g.c, g.b + b * g.d, g.c, g.d)


def _inverted(g):
    """J g = (-c, -d; a, b), by a row swap."""
    return Mat2(-g.c, -g.d, g.a, g.b)


def reduce_vertex(v, fq):
    """(gamma, j) with gamma in SL_2(A) and gamma(v) = v_j, j >= 0.

    Euclid's algorithm on s = num/den, an exact representative of the
    tail: the polynomial part of s (the expansion terms of exponent <= 0,
    less those in pi^r O) is killed by a translation, and the fractional
    part rem/den, of valuation v = deg den - deg rem, is inverted through
    J, which drops r by 2v.  The walk stops when the fractional part lies
    in pi^r O.  Since -1/s mod pi^(r - 2v) depends only on s mod pi^r, any
    exact representative gives the same translations.
    """
    gamma = Mat2.identity_poly(fq)
    r = v.r
    s = tail_to_ratfunc(fq, v.tail)
    num, den = s.num, s.den
    while True:
        quo, rem = divmod(num, den)
        # the terms of degree < 1 - r are exponents >= r, inside pi^r O
        low = max(1 - r, 0)
        b = quo.high(low) if low else quo
        if b:
            gamma = _translated(gamma, -b)
        drop = den.degree - rem.degree
        if drop >= r:
            if r <= 0:
                return gamma, -r
            return _inverted(gamma), r
        r -= 2 * drop
        num, den = -den, rem
        gamma = _inverted(gamma)


def reduce_edge(e, fq):
    """(gamma, i, sign) with gamma in SL_2(A), gamma(e) = sign * e_i, i >= 0."""
    gamma, j = reduce_vertex(e.origin, fq)
    term = apply_vertex(gamma, e.terminus, fq)
    if term.r == -j - 1:
        if term.tail:
            raise AssertionError("non-adjacent edge endpoints")
        return gamma, j, POS_SIGN
    if term.r != -j + 1:
        raise AssertionError("non-adjacent edge endpoints")
    code = 0
    for exp, c in term.tail:
        if exp == -j:
            code = c
        elif c:
            raise AssertionError("non-adjacent edge endpoints")
    if code:
        gamma = _translated(gamma, Poly.constant(fq, fq.neg(code)).shift(j))
    if j == 0:
        return _inverted(gamma), 0, POS_SIGN
    return gamma, j - 1, NEG_SIGN


def vertex_zero_stabilizer(fq):
    """All of SL_2(F_q) as constant matrices."""
    out = []
    for a in fq.elements():
        for b in fq.elements():
            for c in fq.elements():
                for d in fq.elements():
                    if fq.sub(fq.mul(a, d), fq.mul(b, c)) == 1:
                        out.append(
                            Mat2(
                                Poly.constant(fq, a),
                                Poly.constant(fq, b),
                                Poly.constant(fq, c),
                                Poly.constant(fq, d),
                            )
                        )
    return out


def parabolic_fixed_end(delta):
    """Fixed point on P^1(K) of a nontrivial element with trace 2.

    Solves ker(delta - 1) for a column eigenvector (x : y); returned
    normalized as a coprime pair with monic y (or ("infinity")).
    """
    fq = delta.a.fq
    one = Poly.one(fq)
    bm = delta.b
    am1 = delta.a - one
    if not bm.is_zero() or not am1.is_zero():
        x, y = -bm, am1
    else:
        x, y = one - delta.d, delta.c
    if x.is_zero() and y.is_zero():
        raise ValueError("identity element has no unique fixed end")
    if y.is_zero():
        return "infinity"
    g = poly_gcd(x, y)
    x, y = x.divexact(g), y.divexact(g)
    lead = fq.inv(y.leading())
    return (x.scale(lead), y.scale(lead))


class EdgeOrbit:
    """One Gamma_1(t^n)-orbit of oriented edges (up to sign)."""

    __slots__ = (
        "key",
        "i",
        "w0",
        "w0_inv",
        "rep",
        "depth",
        "stable",
        "label",
        "stab_class_elements",
        "stab_order",
        "nf",
    )

    def __init__(self, key, i, w0, rep, depth):
        self.key = key
        self.i = i
        self.w0 = w0
        self.w0_inv = w0.inverse_unimodular()
        self.rep = rep
        self.depth = depth
        self.stable = None
        self.label = None
        self.stab_class_elements = None
        self.stab_order = None
        self.nf = None


class VertexOrbit:
    __slots__ = ("key", "j", "w0", "rep", "depth", "stab_order")

    def __init__(self, key, j, w0, rep, depth):
        self.key = key
        self.j = j
        self.w0 = w0
        self.rep = rep
        self.depth = depth
        self.stab_order = None


class EdgeClass:
    """Classification result for one oriented edge (spec-facing)."""

    __slots__ = ("stable", "label", "apartment_index", "sign", "witness", "cusp_end")

    def __init__(self, stable, label, apartment_index, sign, witness, cusp_end):
        self.stable = stable
        self.label = label
        self.apartment_index = apartment_index
        self.sign = sign
        self.witness = witness
        self.cusp_end = cusp_end

    def __repr__(self):
        if self.stable:
            lbl = f"({self.label[0]},{self.label[1]})"
            return f"Stable{{{lbl}, sign={self.sign:+d}}}"
        return f"Unstable{{i={self.apartment_index}, sign={self.sign:+d}, end={self.cusp_end}}}"


class TreeContext:
    """Per-(q, n) classification machinery with caching."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.fq = ctx.fq
        self.n = ctx.n
        self._sl2fq = None
        self._classify_cache = {}
        self._vreduce_cache = {}
        self.e0 = Edge.standard(0)

    def sl2fq(self):
        """SL_2(F_q) as (class mod t^n, constant lift) pairs: the classes of Stab(v_0)."""
        if self._sl2fq is None:
            self._sl2fq = [
                (m.mod_tn(self.n), m) for m in vertex_zero_stabilizer(self.fq)
            ]
        return self._sl2fq

    # -- keys ----------------------------------------------------------------
    def _normal_form(self, c, d, i):
        """(row, a, b): the least right translate of the bottom row (c, d) under S_i.

        c and d are coefficient tuples, read mod t^n.  row is
        (c, d) (a, b; 0, a^-1) mod t^n as stripped coefficient tuples, the
        least of all such translates as tuples; b is a tuple of codes.  The
        translate is (a c, b c + a^-1 d).  With v = v_t(c) < n, a sets the
        coefficient of c at v to 1, the least nonzero code, and b_0, b_1, ...
        in turn clear the coefficients v, v + 1, ... of the second entry,
        as far as deg b <= min(i, n - 1) and t^n allow.  With c = 0 mod t^n,
        d is a unit, a sets its constant coefficient to 1 and b does nothing.
        """
        fq, n = self.fq, self.n
        mul, add, neg, inv = fq._mul, fq._add, fq._neg, fq._inv
        c = c[:n] + (0,) * (n - len(c))
        d = d[:n] + (0,) * (n - len(d))
        v = next((p for p, x in enumerate(c) if x), n)
        if v == n:
            a = d[0]
            return ((), _strip([mul[inv[a]][x] for x in d])), a, ()
        a = inv[c[v]]
        row_d = [mul[c[v]][x] for x in d]  # a^-1 d, as a^-1 = c_v
        b = []
        for j in range(min(i, n - 1 - v) + 1):
            bj = mul[a][neg[row_d[v + j]]]
            b.append(bj)
            if bj:
                times = mul[bj]
                for p in range(v + j, n):
                    row_d[p] = add[row_d[p]][times[c[p - j]]]
        return (_strip([mul[a][x] for x in c]), _strip(row_d)), a, tuple(b)

    def vertex_key(self, w, j):
        if j:
            return (j, self._normal_form(w.c.coeffs, w.d.coeffs, j)[0])
        # SL_2(F_q) is the union of the cosets rho Sbar_0 over
        # rho = (1, 0; x, 1) and J, and row rho is (c + x d, d) or (d, -c)
        rows = [(w.c + w.d.scale(x), w.d) for x in self.fq.elements()]
        rows.append((w.d, -w.c))
        return (0, min(self._normal_form(c.coeffs, d.coeffs, 0)[0] for c, d in rows))

    # -- reductions with caching ---------------------------------------------
    def reduce_edge(self, e):
        """(key, i, sign, w, nf): w(sign * e_i) = e, and nf the normal form of w's row."""
        got = self._classify_cache.get(e)
        if got is None:
            gamma, i, sign = reduce_edge(e, self.fq)
            w = gamma.inverse_unimodular()
            nf = self._normal_form(w.c.coeffs, w.d.coeffs, i)
            got = ((i, nf[0]), i, sign, w, nf)
            self._classify_cache[e] = got
            self._classify_cache[Edge(e.terminus, e.origin)] = (got[0], i, -sign, w, nf)
        return got

    def reduce_vertex(self, v):
        got = self._vreduce_cache.get(v)
        if got is None:
            gamma, j = reduce_vertex(v, self.fq)
            w = gamma.inverse_unimodular()
            got = (self.vertex_key(w, j), j, w)
            self._vreduce_cache[v] = got
        return got

    # -- witnesses -------------------------------------------------------------
    def edge_witness(self, w, nf, orbit):
        """delta in Gamma_1(t^n) with delta * (orbit.w0) in w * S_i, as a deferred product.

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
        lift_b = Poly(fq, [add[mul[a0][x]][neg[mul[a][y]]] for x, y in zip(b, b0)])
        ratio = mul[a][inv[a0]]
        lift = Mat2(Poly.constant(fq, ratio), lift_b, Poly.zero(fq), Poly.constant(fq, inv[ratio]))
        return DeferredProduct(w, lift, orbit.w0_inv)

    # -- stabilizers -------------------------------------------------------------
    def edge_stabilizer(self, orbit):
        """Fill in the normal form and the Gamma_1(t^n)-stabilizer data of the representative."""
        if orbit.stab_order is not None:
            return
        w0 = orbit.w0
        orbit.nf = self._normal_form(w0.c.coeffs, w0.d.coeffs, orbit.i)
        lifts = self._stab_lifts(w0.c, orbit.i, self.n)
        orbit.stab_class_elements = [DeferredProduct(w0, lift, orbit.w0_inv) for lift in lifts]
        orbit.stab_order = self._stab_order(len(lifts), orbit.i)
        # Gamma_1(t)-stability is the same test at level 1 against the
        # constant apartment stabilizer S_0 (only i = 0 reductions can be stable)
        orbit.stable = orbit.i == 0 and not self._stab_lifts(w0.c, 0, 1)

    def edge_stab_generators(self, orbit):
        """Exact stabilizer elements in Gamma_1(t^n) (class lifts + kernel), deferred."""
        self.edge_stabilizer(orbit)
        gens = list(orbit.stab_class_elements)
        for j in self._kernel_degrees(orbit.i):
            u = Mat2.translation(Poly.t_power(self.fq, self.n + j))
            gens.append(DeferredProduct(orbit.w0, u, orbit.w0_inv))
        return gens

    def vertex_stab_elements(self, w, j):
        """Nontrivial Gamma_1(t^n)-stabilizer elements of the vertex w(v_j).

        Returns (class_elements, kernel_degrees): the kernel part is the
        unipotent family w u(t^(n+deg)) w^{-1}, always in the stabilizer.
        """
        w_inv = w.inverse_unimodular()
        lifts = self._vertex_stab_lifts(w, j)
        return [DeferredProduct(w, lift, w_inv) for lift in lifts], self._kernel_degrees(j)

    def vertex_stabilizer(self, vorbit):
        """Set the stabilizer order of the representative; no element is formed."""
        lifts = self._vertex_stab_lifts(vorbit.w0, vorbit.j)
        vorbit.stab_order = self._stab_order(len(lifts), vorbit.j)

    def _vertex_stab_lifts(self, w, j):
        if j == 0:
            return self._passing_lifts(w.mod_tn(self.n))
        return self._stab_lifts(w.c, j, self.n)

    def _stab_lifts(self, c, i, level):
        """Lifts of the nontrivial classes of Sbar_i mod t^level fixing a bottom row (c, d).

        (c, d) (a, b; 0, a^-1) = (c, d) forces a = 1 (from a c = c if
        v = v_t(c) < level, else from a^-1 d = d with d a unit) and
        t^(level - v) | b, reading v = level when c = 0 mod t^level.  So the
        classes are (1, t^(level - v) b'; 0, 1) with b' != 0 and
        deg b' <= min(i, level - 1) - (level - v), in graded_polys order,
        which is the order of the b when Stab(SL_2(A), e_i) is enumerated as
        (a, b; 0, a^-1) with b running over graded_polys.
        """
        shift = level - min(c.vt(), level)
        free = min(i, level - 1) - shift + 1
        return [
            Mat2.translation(b.shift(shift)) for b in islice(graded_polys(self.fq, free), 1, None)
        ]

    def _passing_lifts(self, wbar):
        """Lifts of the nontrivial classes of SL_2(F_q) fixing the bottom row of wbar mod t^n.

        wbar sigma_bar has wbar's bottom row exactly when the conjugate
        wbar sigma_bar wbar^{-1} is (1, *; 0, 1) mod t^n: its determinant is
        1, so a bottom row (0, 1) forces a = 1.
        """
        row = (wbar.c.poly.coeffs, wbar.d.poly.coeffs)
        return [
            lift
            for sb, lift in self.sl2fq()
            if self._row_key(wbar.c, wbar.d, sb) == row and not self._is_identity_bar_lift(lift)
        ]

    def _row_key(self, wbar_c, wbar_d, sigma_bar):
        # bottom row (c, d) * sigma_bar
        c = wbar_c * sigma_bar.a + wbar_d * sigma_bar.c
        d = wbar_c * sigma_bar.b + wbar_d * sigma_bar.d
        return (c.poly.coeffs, d.poly.coeffs)

    def _stab_order(self, classes, i):
        """|Stab| from the number of passing nontrivial classes and the kernel of reduction."""
        return (classes + 1) * self.fq.q ** len(self._kernel_degrees(i))

    def _kernel_degrees(self, i):
        """The deg <= i - n: u(t^(n+deg)) lies in S_i and is trivial mod t^n."""
        return list(range(i - self.n + 1))

    def _is_identity_bar_lift(self, lift):
        return lift.a.is_one() and lift.b.is_zero() and lift.c.is_zero() and lift.d.is_one()


def _strip(coeffs):
    """Coefficient tuple without trailing zeros."""
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


class QuotientGraph:
    """Depth-truncated table of Gamma_1(t^n)-orbits of edges and vertices.

    Seeded with the stable representatives h_{(c,d)} J e_0 at depth 0 and
    grown by breadth-first search over the literal tree incidence, with
    every encountered edge canonicalized.  The search goes shell by shell,
    so :meth:`extended` grows the depth-(D+1) table from this one by one
    more shell instead of building it again.
    """

    def __init__(self, ctx, depth, max_orbits=MAX_ORBITS):
        self.ctx = ctx
        self.tree = TreeContext(ctx)
        self.depth = depth
        self.max_orbits = max_orbits
        self.edge_orbits = {}
        self.vertex_orbits = {}
        self.seed_keys = {}
        self._grow(self._seed(), 0)

    def extended(self):
        """The depth-(D+1) table, grown from this one by one shell.

        Equal to ``QuotientGraph(ctx, D + 1, max_orbits)``.  It shares the
        tree context (so the reduction caches), the orbit objects and the
        seed keys with this table, and copies the two orbit dicts, so this
        table does not change.
        """
        graph = copy.copy(self)
        graph.depth = self.depth + 1
        graph.edge_orbits = dict(self.edge_orbits)
        graph.vertex_orbits = dict(self.vertex_orbits)
        graph._grow(self.frontier, self.depth)
        return graph

    # -- construction -------------------------------------------------------
    def _register_edge(self, e, depth):
        key, i, sign, w, _ = self.tree.reduce_edge(e)
        orbit = self.edge_orbits.get(key)
        if orbit is None:
            if len(self.edge_orbits) >= self.max_orbits:
                raise ResourceBoundError(
                    f"edge orbit table exceeded {self.max_orbits} entries"
                )
            rep = apply_edge(w, Edge.standard(i), self.ctx.fq)
            orbit = EdgeOrbit(key, i, w, rep, depth)
            self.edge_orbits[key] = orbit
            self.tree.edge_stabilizer(orbit)
            return orbit, True
        return orbit, False

    def _register_vertex(self, v, depth):
        key, j, w = self.tree.reduce_vertex(v)
        orbit = self.vertex_orbits.get(key)
        if orbit is None:
            rep = apply_vertex(w, Vertex.standard(j), self.ctx.fq)
            orbit = VertexOrbit(key, j, w, rep, depth)
            self.vertex_orbits[key] = orbit
            self.tree.vertex_stabilizer(orbit)
            return orbit, True
        return orbit, False

    def _seed(self):
        """Register the stable seed orbits at depth 0; returns them."""
        ctx = self.ctx
        fq = ctx.fq
        jmat = Mat2.j_matrix(fq)
        seeds = []
        for c, d in ctx.label_pairs():
            seed = apply_edge(ctx.h_matrix(c, d) * jmat, self.tree.e0, fq)
            orbit, is_new = self._register_edge(seed, 0)
            if not is_new:
                raise AssertionError(
                    f"stable seeds collide: ({c},{d}) repeats orbit {orbit.key}"
                )
            orbit.label = (c, d)
            self.seed_keys[(c.coeffs, d.coeffs)] = orbit.key
            seeds.append(orbit)
        for orbit in seeds:
            if not orbit.stable:
                raise AssertionError(f"seed orbit {orbit.key} is not stable")
        return seeds

    def _grow(self, frontier, depth):
        """Search from ``frontier``, the edge orbits new at ``depth``, out to self.depth.

        The vertices of the last shell are registered too, and that shell
        is kept as ``self.frontier`` for :meth:`extended`.
        """
        fq = self.ctx.fq
        while frontier and depth < self.depth:
            depth += 1
            next_frontier = []
            for orbit in frontier:
                for v in (orbit.rep.origin, orbit.rep.terminus):
                    self._register_vertex(v, depth - 1)
                    for u in v.neighbors(fq):
                        e = Edge(u, v)
                        new_orbit, is_new = self._register_edge(e, depth)
                        if is_new:
                            next_frontier.append(new_orbit)
            frontier = next_frontier
        for orbit in frontier:
            for v in (orbit.rep.origin, orbit.rep.terminus):
                self._register_vertex(v, self.depth)
        self.frontier = frontier

    # -- lookups ---------------------------------------------------------------
    def classify(self, e):
        """(orbit-or-None, key, sign, witness-or-None) for an oriented edge."""
        key, i, sign, w, nf = self.tree.reduce_edge(e)
        orbit = self.edge_orbits.get(key)
        if orbit is None:
            return None, key, sign, None
        delta = self.tree.edge_witness(w, nf, orbit)
        return orbit, key, sign, delta

    def in_edges(self, vorbit):
        """The q+1 literal tree edges with terminus at the orbit representative."""
        v = vorbit.rep
        return [Edge(u, v) for u in v.neighbors(self.ctx.fq)]

    def interior_vertex_orbits(self):
        """Vertex orbits whose whole star classifies into the table."""
        out = []
        for key in sorted(self.vertex_orbits):
            vorbit = self.vertex_orbits[key]
            if all(
                self.tree.reduce_edge(e)[0] in self.edge_orbits
                for e in self.in_edges(vorbit)
            ):
                out.append(vorbit)
        return out

    # -- exports ---------------------------------------------------------------
    def to_json_dict(self):
        edges = []
        for key in sorted(self.edge_orbits):
            o = self.edge_orbits[key]
            edges.append(
                {
                    "key": _key_json(key),
                    "depth": o.depth,
                    "stable": bool(o.stable),
                    "label": [list(o.label[0].coeffs), list(o.label[1].coeffs)]
                    if o.label
                    else None,
                    "stab_order": o.stab_order,
                    "origin": _key_json(self.tree.reduce_vertex(o.rep.origin)[0]),
                    "terminus": _key_json(self.tree.reduce_vertex(o.rep.terminus)[0]),
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


def _dot_name(key_json_or_key):
    k = key_json_or_key if isinstance(key_json_or_key, dict) else _key_json(key_json_or_key)
    row = k["row"]
    return f"i{k['i']}|" + "|".join("".join(map(str, part)) or "0" for part in row)


def classify_edge(ctx, e, graph=None):
    """Spec-facing classification with stability, label, and cusp end."""
    if graph is None:
        graph = QuotientGraph(ctx, depth=0)
    tree = graph.tree
    orbit, key, sign, delta = graph.classify(e)
    if orbit is None:
        # beyond the table: register on the fly from this edge's reduction
        _, i, _, w, nf = tree.reduce_edge(e)
        orbit = EdgeOrbit(key, i, w, apply_edge(w, Edge.standard(i), ctx.fq), None)
        tree.edge_stabilizer(orbit)
        delta = tree.edge_witness(w, nf, orbit)
    if orbit.stable:
        return EdgeClass(True, orbit.label, orbit.i, sign, delta, None)
    # cusp end: the fixed end of a nontrivial parabolic stabilizing one of
    # the input edge's own vertices (origin preferred)
    end = None
    for v in (e.origin, e.terminus):
        _, j, w = tree.reduce_vertex(v)
        passing, kernel = tree.vertex_stab_elements(w, j)
        elt = None
        if passing:
            elt = passing[0]
        elif kernel:
            elt = w * Mat2.translation(Poly.t_power(ctx.fq, ctx.n + kernel[0])) * w.inverse_unimodular()
        if elt is not None:
            end = parabolic_fixed_end(elt)
            break
    return EdgeClass(False, None, orbit.i, sign, delta, end)

