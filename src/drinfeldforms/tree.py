"""The Bruhat-Tits tree of SL_2(K_infinity) and its Gamma_1(t^n) orbits.

Vertices are lattice classes in canonical coordinates (r, s mod pi^r O),
pi = 1/t: the class of the lattice spanned by the rows (pi^r, s), (0, 1).
The tail stores the finitely many expansion terms of s below pi^r, so
vertex equality is an exact tuple comparison.  The standard apartment is
v_i = (-i, 0), and e_i is the oriented edge from v_i to v_{i+1}.

The action runs over A, never over K: a matrix over K is first scaled to
one over A (a scalar moves no lattice class), the lattice matrix is
scaled by t^L to the integral t^L (pi^r, s; 0, 1), the new r is read off
polynomial degrees, and the new tail is the expansion of an unreduced
quotient of polynomials, so acting by a matrix over A pays no gcd.

Reduction to the apartment alternates killing the polynomial part of s by
a translation in SL_2(A) and inverting through J = (0 -1; 1 0); each
inversion strictly decreases r, so the walk terminates.  Orbits of
Gamma_1(t^n) are canonicalized through the finite double coset
Gamma_1(t^n)bar \\ SL_2(A_n) / Sbar_i, where S_i is the apartment
stabilizer (a b; 0 a^{-1}), deg b <= i: the left coset is determined by
the bottom row mod t^n, and the orbit key is the lexicographically least
right translate of that row.  Every classification also produces an exact
witness in SL_2(A) transporting the stored representative to the input;
since SL_2 preserves the parity of r, an orbit never contains an edge and
its reversal, and orientation is carried as an explicit sign.

Stabilizers, Gamma_1(t)-stability and witnesses use one comparison: the
bottom row of w_bar sigma_bar against that of w0_bar (a witness) or of
w_bar itself (a stabilizer class).
"""

import copy

from .errors import ResourceBoundError
from .mat2 import Mat2
from .rings import (
    Poly,
    RatFunc,
    graded_polys,
    laurent_tail,
    poly_gcd,
    tail_to_ratfunc,
)

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


def _integral(g):
    """g itself over A, or the scalar multiple of g over K with denominators cleared."""
    if not isinstance(g.a, RatFunc):
        return g
    den = g.a.den
    for x in (g.b, g.c, g.d):
        den = den * x.den.divexact(poly_gcd(den, x.den))
    return Mat2(*(x.num * den.divexact(x.den) for x in g.entries()))


def apply_vertex(g, v, fq):
    """Canonical form of g applied to v; g is 2x2 over A or K, det != 0.

    Works over A: with s = num / t^E and L = max(E, r, 0), the lattice
    matrix t^L (pi^r, s; 0, 1) is integral, and so is its product m with g
    (a scalar multiple of g changes no lattice class).  Then
    r' = v_inf(det m) - 2 min(v_inf(c), v_inf(d)) comes from degrees, and s'
    is b/d (or a/c when deg c > deg d), expanded without reduction.
    """
    g = _integral(g)
    det = g.det()
    if det.is_zero():
        raise ZeroDivisionError("singular matrix acting on the tree")
    s = tail_to_ratfunc(fq, v.tail)
    big_e = s.den.degree
    level = max(big_e, v.r, 0)
    top = s.num.shift(level - big_e)
    bottom = Poly.t_power(fq, level)
    c = g.c.shift(level - v.r)
    d = g.c * top + g.d * bottom
    deg_det = det.degree + 2 * level - v.r
    if c.degree <= d.degree:
        rp = 2 * d.degree - deg_det
        quot = RatFunc(g.a * top + g.b * bottom, d, reduce=False)
    else:
        rp = 2 * c.degree - deg_det
        quot = RatFunc(g.a.shift(level - v.r), c, reduce=False)
    return Vertex(rp, laurent_tail(quot, rp))


def apply_edge(g, e, fq):
    return Edge(apply_vertex(g, e.origin, fq), apply_vertex(g, e.terminus, fq))


def reduce_vertex(v, fq):
    """(gamma, j) with gamma in SL_2(A) and gamma(v) = v_j, j >= 0.

    Alternates translations (killing expansion terms of non-positive pi
    exponent, i.e. the polynomial part of s) and inversions through J;
    each inversion drops r by at least 2.
    """
    gamma = Mat2.identity_poly(fq)
    jmat = Mat2.j_matrix(fq)
    r, tail = v.r, v.tail
    while True:
        poly_part = [(e, c) for e, c in tail if e <= 0]
        if poly_part:
            b = Poly.zero(fq)
            for e, c in poly_part:
                b = b + Poly.constant(fq, c).shift(-e)
            gamma = Mat2.translation(-b) * gamma
            tail = tuple((e, c) for e, c in tail if e > 0)
        if not tail:
            if r <= 0:
                return gamma, -r
            return jmat * gamma, r
        vmin = tail[0][0]
        # 1 <= vmin < r is guaranteed by the canonical tail
        s = tail_to_ratfunc(fq, tail)
        r = r - 2 * vmin
        tail = laurent_tail(RatFunc(-s.den, s.num, reduce=False), r)
        gamma = jmat * gamma


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
        gamma = Mat2.translation(-Poly.constant(fq, code).shift(j)) * gamma
    if j == 0:
        return Mat2.j_matrix(fq) * gamma, 0, POS_SIGN
    return gamma, j - 1, NEG_SIGN


class ApartmentStabilizer:
    """Stab(SL_2(A), e_i) = {(a, b; 0, a^{-1}) : a in F_q^x, deg b <= i}.

    For i >= 1 this is also Stab(SL_2(A), v_i); Stab(SL_2(A), v_0) is the
    larger SL_2(F_q), handled by :func:`vertex_zero_stabilizer`.
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
        self._sbar_cache = {}
        self._sl2fq = None
        self._classify_cache = {}
        self._vreduce_cache = {}
        self.e0 = Edge.standard(0)

    # -- stabilizer class enumerations -------------------------------------
    def sbar(self, i, level=None):
        """Mod t^level classes (default t^n) of the apartment stabilizer S_i.

        Returns a list of (sigma_bar as Mat2 over A_level, canonical lift in
        A), in the order of :meth:`ApartmentStabilizer.elements` and cached
        by the effective degree cap min(i, level - 1).
        """
        level = level or self.n
        cap = min(i, level - 1)
        got = self._sbar_cache.get((cap, level))
        if got is None:
            got = [(m.mod_tn(level), m) for m in ApartmentStabilizer(self.fq, cap).elements()]
            self._sbar_cache[(cap, level)] = got
        return got

    def sl2fq(self):
        if self._sl2fq is None:
            self._sl2fq = [
                (m.mod_tn(self.n), m) for m in vertex_zero_stabilizer(self.fq)
            ]
        return self._sl2fq

    def vertex_sbar(self, j):
        return self.sl2fq() if j == 0 else self.sbar(j)

    # -- keys ----------------------------------------------------------------
    def _row_key(self, wbar_c, wbar_d, sigma_bar):
        # bottom row (c, d) * sigma_bar
        c = wbar_c * sigma_bar.a  # sigma_bar.c is 0 for triangular ones
        if not sigma_bar.c.is_zero():
            c = c + wbar_d * sigma_bar.c
        d = wbar_c * sigma_bar.b + wbar_d * sigma_bar.d
        return (c.poly.coeffs, d.poly.coeffs)

    def edge_key(self, w, i):
        wbar = w.mod_tn(self.n)
        rows = [self._row_key(wbar.c, wbar.d, sb) for sb, _ in self.sbar(i)]
        return (i, min(rows))

    def vertex_key(self, w, j):
        wbar = w.mod_tn(self.n)
        rows = [self._row_key(wbar.c, wbar.d, sb) for sb, _ in self.vertex_sbar(j)]
        return (j, min(rows))

    # -- reductions with caching ---------------------------------------------
    def reduce_edge(self, e):
        got = self._classify_cache.get(e)
        if got is None:
            gamma, i, sign = reduce_edge(e, self.fq)
            w = gamma.inverse_unimodular()
            key = self.edge_key(w, i)
            got = (key, i, sign, w)
            self._classify_cache[e] = got
            rev = (key, i, -sign, w)
            self._classify_cache[Edge(e.terminus, e.origin)] = rev
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
    def edge_witness(self, w, orbit):
        """delta in Gamma_1(t^n) with delta * (orbit.w0) in w * S_i."""
        wbar = w.mod_tn(self.n)
        w0bar = orbit.w0.mod_tn(self.n)
        target = (w0bar.c.poly.coeffs, w0bar.d.poly.coeffs)
        for sb, lift in self.sbar(orbit.i):
            if self._row_key(wbar.c, wbar.d, sb) == target:
                delta = w * lift * orbit.w0_inv
                return delta
        raise AssertionError("witness search failed: edge not in claimed orbit")

    # -- stabilizers -------------------------------------------------------------
    def edge_stabilizer(self, orbit):
        """Fill in the Gamma_1(t^n)-stabilizer data of the orbit representative."""
        if orbit.stab_order is not None:
            return
        passing = self._passing_lifts(orbit.w0.mod_tn(self.n), self.sbar(orbit.i))
        orbit.stab_class_elements = [orbit.w0 * lift * orbit.w0_inv for lift in passing]
        orbit.stab_order = self._stab_order(passing, orbit.i)
        # Gamma_1(t)-stability is the same test at level 1 against the
        # constant apartment stabilizer S_0 (only i = 0 reductions can be stable)
        orbit.stable = orbit.i == 0 and not self._passing_lifts(
            orbit.w0.mod_tn(1), self.sbar(0, level=1)
        )

    def edge_stab_generators(self, orbit):
        """Exact stabilizer elements in Gamma_1(t^n) (class lifts + kernel)."""
        self.edge_stabilizer(orbit)
        gens = list(orbit.stab_class_elements)
        for j in self._kernel_degrees(orbit.i):
            u = Mat2.translation(Poly.t_power(self.fq, self.n + j))
            gens.append(orbit.w0 * u * orbit.w0_inv)
        return gens

    def vertex_stab_elements(self, w, j):
        """Nontrivial Gamma_1(t^n)-stabilizer elements of the vertex w(v_j).

        Returns (class_elements, kernel_degrees): the kernel part is the
        unipotent family w u(t^(n+deg)) w^{-1}, always in the stabilizer.
        """
        w_inv = w.inverse_unimodular()
        passing = self._passing_lifts(w.mod_tn(self.n), self.vertex_sbar(j))
        return [w * lift * w_inv for lift in passing], self._kernel_degrees(j)

    def vertex_stabilizer(self, vorbit):
        """Set the stabilizer order of the representative; no element is formed."""
        passing = self._passing_lifts(vorbit.w0.mod_tn(self.n), self.vertex_sbar(vorbit.j))
        vorbit.stab_order = self._stab_order(passing, vorbit.j)

    def _passing_lifts(self, wbar, classes):
        """Lifts of the nontrivial classes sigma_bar with wbar sigma_bar wbar^{-1} in Gamma_1bar.

        wbar and the classes are reduced mod the same t^m.  The conjugate is
        (1, *; 0, 1) mod t^m exactly when wbar sigma_bar has wbar's bottom
        row: its determinant is 1, so a bottom row (0, 1) forces a = 1.
        """
        row = (wbar.c.poly.coeffs, wbar.d.poly.coeffs)
        return [
            lift
            for sb, lift in classes
            if self._row_key(wbar.c, wbar.d, sb) == row and not self._is_identity_bar_lift(lift)
        ]

    def _stab_order(self, passing, i):
        """|Stab| from the passing nontrivial classes and the kernel of reduction."""
        return (len(passing) + 1) * self.fq.q ** len(self._kernel_degrees(i))

    def _kernel_degrees(self, i):
        """The deg <= i - n: u(t^(n+deg)) lies in S_i and is trivial mod t^n."""
        return list(range(i - self.n + 1))

    def _is_identity_bar_lift(self, lift):
        return lift.a.is_one() and lift.b.is_zero() and lift.c.is_zero() and lift.d.is_one()


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
        key, i, sign, w = self.tree.reduce_edge(e)
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
        key, i, sign, w = self.tree.reduce_edge(e)
        orbit = self.edge_orbits.get(key)
        if orbit is None:
            return None, key, sign, None
        delta = self.tree.edge_witness(w, orbit)
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
        _, i, _, w = tree.reduce_edge(e)
        orbit = EdgeOrbit(key, i, w, apply_edge(w, Edge.standard(i), ctx.fq), None)
        tree.edge_stabilizer(orbit)
        delta = tree.edge_witness(w, orbit)
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

