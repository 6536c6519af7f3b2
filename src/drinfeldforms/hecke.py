"""Operator matrices on the cocycle model and the ordinary-part checks.

Operators transport along the rule (T c)(e) = sum_xi xi^{-1} . c(xi e)
over the usual coset matrices: xi_{t,beta} for U_t, the xi_{m,beta}
together with xi_{m,diamond} for T_m at m prime to t, and eta_{a,diamond}
for the diamond action.  Each transported image xi e of a safe orbit
representative e = w0(e_i) is classified once, in one walk of all the
operator's transports on packed ints: a seed's from the Hecke coset
representative R of xi w0 = g R, any other's from its parent's reduced
image, each state in at most two row operations and once per tree
context.  Its block is the orientation sign times act(xi^{-1}) act(delta)
for the witness delta, multiplied out from its chain only when the block
reads it, and on V_2 the sign alone.  The transport table sums the blocks
per (safe key, image key), on V_2 a signed count mod p, and all basis
cocycles are read through it at once: a safe row's image is the blocks
applied to the basis rows of :class:`Coordinates`, on V_2 one axpy per
table entry, and its entries at the stable rows, where the basis is the
unit basis, are the operator's rows.  Every safe row is checked exactly,
once per operator; an image edge beyond the table is a ReachError.  An
operator is kept as its columns, each a vector of the space's ring, the
ring its coordinates lie in: F_q at weight 2 and A = F_q[t] above.  The
image chain's basis can have denominators, so the chain and checks (c)
and (d) read the columns lifted to K (:func:`over_field`).  The writer
(:func:`operator_chunks`) reads the rows off the columns one at a time.

The ordinary certificate recasts ordinariness t-adically: with
r = q^(n-1) and chi the characteristic polynomial of U_t,

  (a) (X-1)^r divides chi exactly; chi_plus = chi / (X-1)^r;
  (b) chi_plus has no t-adic unit root (Newton count 0; at weight 2 the
      coefficients lie in F_q, so this says chi_plus = X^(d-r));
  (c) (U_t - 1) chi_plus(U_t) = 0, so U_t is the identity on the
      slope-zero part, which is exactly the image of chi_plus(U_t);
  (d) (T - 1) chi_plus(U_t) = 0 for every requested Hecke operator.

Each Hecke flag is True exactly when (d) holds; a False flag comes with a
note.  The theorem is that every Hecke operator is the identity on the
ordinary part, so one acting there as any other scalar fails (d).

Over either field the checks run on U's Fitting image im U^N, of
dimension s, found by :func:`image_chain` with an echelon basis B and the
s x s restriction U|im, which is invertible.  U is nilpotent on
ker U^N, so chi = X^(d-s) charpoly(U|im), and Berkowitz runs at s x s;
(a) and (b) are read off chi as above.  With g = charpoly(U|im) /
(X-1)^r, chi_plus = X^(d-s) g, and U^(d-s) maps the space onto im U^N,
where it is invertible, so chi_plus(U) has the image of B g(U|im).  Hence

  (c) holds exactly when U y = y for each column y of B g(U|im), since
      U B = B U|im and B has independent columns, and
  (d) holds exactly when T y = y for the same y, both by mat-vecs on
      the ring's vectors.

These are equivalences: every flag, a false one included, is the one the
projector chi_plus(U_t) on the whole space gives, and that projector is
never formed.
"""

from .cocycles import Coordinates
from .errors import ReachError, UsageError
from .linalg import DictRing, Matrix, UPoly, charpoly, eliminate, extend_echelon, newton_slope_zero_count
from .rings import Poly, RatFunc, graded_polys, poly_is_irreducible
from .serialize import canonical_json_dumps, matrix_chunks
from .tree import apply_edge

# operator images are read and checked only on orbits at least this many
# levels inside the truncation depth: deeper images can leave the table
SAFE_MARGIN = 4


class OperatorMatrix:
    """A named operator in the chosen cocycle basis, over the space's ring.

    Column j, the image of basis cocycle j, is a vector of the ring
    adapter (linalg).  ``chain`` keeps :func:`image_chain` once it has run,
    and ``terms`` the columns' nonzero (i, entry) once :meth:`apply_all` has.
    """

    __slots__ = ("name", "ctx", "k", "ring", "cols", "chain", "terms")

    def __init__(self, name, ctx, k, ring, cols):
        self.name = name
        self.ctx = ctx
        self.k = k
        self.ring = ring
        self.cols = cols
        self.chain = None
        self.terms = None

    @property
    def size(self):
        return len(self.cols)

    def apply_all(self, vectors):
        """[M v for v in vectors], on the vectors' coordinate slices: one axpy per nonzero entry of M."""
        ring = self.ring
        if self.terms is None:
            self.terms = [list(ring.terms(col)) for col in self.cols]
        slices = ring.transpose(vectors, self.size)
        out = [ring.vector(())] * self.size
        for terms, s in zip(self.terms, slices):
            if s:
                for i, x in terms:
                    out[i] = ring.axpy(out[i], x, s)
        return ring.transpose(out, len(vectors))

    def commutes(self, other):
        """Whether self other = other self, column by column."""
        return self.apply_all(other.cols) == other.apply_all(self.cols)

    def text_rows(self, text):
        """The rows, read one at a time off the columns, each an iterable of text(entry)."""
        return self.ring.text_rows(self.ring.transpose(self.cols, self.size), self.size, text)


class HeckeEngine:
    """Operator assembly on a frozen CocycleSpace."""

    def __init__(self, space):
        self.space = space
        self.ctx = space.ctx
        self.k = space.k
        self.coords = Coordinates(space, max(0, space.depth - SAFE_MARGIN))
        self._cache = {}

    # -- generic assembly --------------------------------------------------
    def _assemble(self, name, transports):
        got = self._cache.get(name)
        if got is not None:
            return got
        space = self.space
        fq = self.ctx.fq
        graph = space.graph
        vk = space.vk
        ring = space.ring
        acts = vk.inverse_acts(transports)
        keys = self.coords.keys_needed  # a parent is shallower, so it is safe too
        # (T c)(safe rep) = sum of block . c(key2): the table is (key, key2) -> summed block
        table = {}
        for xi, act, images in zip(transports, acts, graph.classify_images(transports, keys)):
            for key, (found, key2, sign, delta) in zip(keys, images):
                if found is None:
                    e2 = apply_edge(xi, graph.edge_orbits[key].rep, fq)
                    raise ReachError(f"edge beyond the depth-{space.depth} table: {e2}")
                block = vk.signed_block(sign, delta, act)
                prev = table.get((key, key2))
                table[key, key2] = block if prev is None else prev + block
        # the image at (key, r) holds (T c_j)(key)[r] = sum_s block[r][s] c_j(key2)[s] at j
        image = space.read_blocks(table, space.basis_rows)
        got = OperatorMatrix(name, self.ctx, self.k, ring, self.coords.coords(image))
        self._cache[name] = got
        return got

    # -- the operators -------------------------------------------------------
    def u_t(self):
        ctx = self.ctx
        transports = [
            ctx.xi_beta(ctx.t, Poly.constant(ctx.fq, b)) for b in ctx.fq.elements()
        ]
        return self._assemble("Ut", transports)

    def t_m(self, m):
        ctx = self.ctx
        check_operator_argument("Tm", m)
        transports = [ctx.xi_beta(m, beta) for beta in graded_polys(ctx.fq, int(m.degree))]
        transports.append(ctx.xi_diamond(m))
        return self._assemble(f"Tm({m})", transports)

    def diamond(self, alpha):
        """Diamond operator of a unit alpha of A_n, given by any lift to A."""
        lift = alpha.truncate(self.ctx.n)
        check_operator_argument("Diamond", lift)
        eta = self.ctx.eta_diamond(lift)
        return self._assemble(f"Diamond({lift})", [eta])


def check_operator_argument(kind, p):
    """Raise UsageError unless p is an argument of the operator ``kind``.

    T_m ("Tm") takes m monic irreducible and prime to t, and the diamond
    operator ("Diamond") a unit of A_n, given by a lift prime to t.
    """
    if kind == "Tm" and not (p.is_monic() and p.vt() == 0 and poly_is_irreducible(p)):
        raise UsageError(f"Tm needs a monic irreducible polynomial prime to t, got {p}")
    if kind == "Diamond" and p.vt() != 0:
        raise UsageError(f"Diamond needs a unit of A_n, got {p}")


def operator_chunks(fmt, ops, certificate=None):
    """The operators in ``fmt`` (json, csv or latex), chunk by chunk; JSON is canonical_json_dumps
    of the payload (the certificate if given) with each operator's "entries" spliced in."""
    matrices = (matrix_chunks(fmt, op.text_rows) for op in ops)
    if fmt != "json":
        for op, chunks in zip(ops, matrices):
            yield f"{'#' if fmt == 'csv' else '%'} {op.name}\n"
            yield from chunks
        return
    heads = [{"name": op.name, "q": op.ctx.q, "n": op.ctx.n, "k": op.k, "size": op.size, "entries": "\0"} for op in ops]
    payload = {"operators": heads}
    if certificate is not None:
        payload["certificate"] = certificate.to_json_dict()
    head, *tails = canonical_json_dumps(payload).split('"\\u0000"')  # each "entries", in order
    yield head
    for chunks, tail in zip(matrices, tails):
        yield from chunks
        yield tail


# -- weight-2 closed form for the diamond action ------------------------------


def diamond_label_map(ctx, a):
    """The index permutation (c, d) -> ((1+ta)^{-1} c, (1+ta)^{-1} (d-a)).

    Arithmetic happens in A_{n-1}, on lifts of degree < n - 1; for n = 1
    that is the zero ring A_0, and the label set is the point (0, 0).
    """
    nm1 = ctx.n - 1
    alpha_inv = (ctx.one + ctx.t * a).inverse_mod(nm1)
    out = {}
    for c, d in ctx.label_pairs():
        c2 = (alpha_inv * c).truncate(nm1)
        d2 = (alpha_inv * (d - a)).truncate(nm1)
        out[(c.coeffs, d.coeffs)] = (c2.coeffs, d2.coeffs)
    return out


def diamond_permutation_matrix(space, a):
    """The columns of the closed-form diamond matrix on the weight-2 delta basis."""
    if space.k != 2:
        raise UsageError("the closed form applies to weight 2 only")
    ctx = space.ctx
    ring = space.ring
    labels = [(c.coeffs, d.coeffs) for c, d in ctx.label_pairs()]
    index = {lbl: i for i, lbl in enumerate(labels)}
    perm = diamond_label_map(ctx, a)
    return [ring.from_terms([(index[perm[lbl]], ring.one)]) for lbl in labels]


def verify_freeness(ctx):
    """Fixed-point-freeness and orbit sizes of the diamond label action.

    Every nontrivial element of 1 + tA_n must move every label; the orbits
    then all have size q^(n-1) and the delta basis splits into q^(n-1)
    free orbits, so the weight-2 space is a free module of rank q^(n-1)
    over the group ring of 1 + tA_n.
    """
    labels = [(c.coeffs, d.coeffs) for c, d in ctx.label_pairs()]
    fixed = []
    perms = []
    for a in ctx.labels:
        perm = diamond_label_map(ctx, a)
        perms.append(perm)
        if not a.is_zero():
            for lbl in labels:
                if perm[lbl] == lbl:
                    fixed.append({"a": str(a), "label": [list(lbl[0]), list(lbl[1])]})
    # orbit partition under the whole group
    seen = set()
    orbits = []
    for lbl in labels:
        if lbl in seen:
            continue
        orbit = {perm[lbl] for perm in perms}
        seen |= orbit
        orbits.append(len(orbit))
    r = ctx.ordinary_rank()
    ok_sizes = all(size == r for size in orbits) and len(orbits) == r
    return {
        "lemma": "diamond-freeness",
        "params": {"q": ctx.q, "n": ctx.n},
        "status": not fixed and ok_sizes,
        "orbits": len(orbits),
        "orbit_sizes": sorted(orbits),
        "rank": r,
        "witness": fixed or None,
    }


# -- ordinary certificate ------------------------------------------------------


class OrdinaryCertificate:
    __slots__ = ("ctx", "k", "r", "chi", "chi_plus", "flags", "hecke_flags", "notes")

    def __init__(self, ctx, k, r, chi, chi_plus, flags, hecke_flags, notes):
        self.ctx = ctx
        self.k = k
        self.r = r
        self.chi = chi
        self.chi_plus = chi_plus
        self.flags = flags
        self.hecke_flags = hecke_flags
        self.notes = notes

    def valid(self):
        return all(self.flags.values()) and all(self.hecke_flags.values())

    def to_json_dict(self):
        return {
            "q": self.ctx.q,
            "n": self.ctx.n,
            "k": self.k,
            "ordinary_rank": self.r,
            "charpoly": str(self.chi),
            "charpoly_nonordinary_factor": str(self.chi_plus),
            "flags": self.flags,
            "hecke": dict(self.hecke_flags),
            "notes": self.notes,
        }


def ordinary_certificate(ut, heckes=()):
    """Run checks (a)-(d) for a U_t operator and Hecke operators on U's Fitting image."""
    ctx = ut.ctx
    d = ut.size
    r = ctx.ordinary_rank()
    notes = []
    # U is nilpotent on ker U^N, of dimension d - s
    _, basis, u_im = image_chain(ut)
    ring = u_im.ring
    s = len(basis)
    chi = UPoly(ring, [ring.zero] * (d - s) + charpoly(u_im).coeffs)
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
    if ok_div:
        # chi_plus = X^(d-s) g, and U^(d-s) maps the space onto im U^N,
        # where U is invertible: chi_plus(U) has the image of B g(U|im)
        g = UPoly(ring, chi_plus.coeffs[d - s :])
        stable = [_combine(ring, zip(col, basis)) for col in g.eval_matrix(u_im).transpose().rows]
    fixed = [ok_div and over_field(op).apply_all(stable) == stable for op in (ut, *heckes)]
    flags["unipotence_kill"] = fixed[0]
    hecke_flags = {}
    for op, ok in zip(heckes, fixed[1:]):
        hecke_flags[op.name] = ok
        if not ok:
            notes.append(f"{op.name} is not the identity on the ordinary part")
    return OrdinaryCertificate(ctx, ut.k, r, chi, chi_plus, flags, hecke_flags, notes)


def nilpotency_diagnostics(ut):
    """Nilpotency data of U_t on the complement of the ordinary part.

    The square-vanishing subspace of cuspforms is not modeled directly
    (that would need cusp expansions); the nilpotent block of U_t
    computed here is the indirect witness that U_t kills it eventually.

    The data is read off the ranks of :func:`image_chain`, cut at
    j = d - r.  Ranks never increase and stay fixed once they repeat, so
    ker U^(d-r) has dimension d minus the last rank kept, and U^j kills it
    exactly when rank U^j reaches that rank: the nilpotency index is the
    first such j.  The status holds when the block has dimension d - r and
    nilpotency index at most d - r.
    """
    ctx = ut.ctx
    d = ut.size
    r = ctx.ordinary_rank()
    ranks = image_chain(ut)[0][: max(d - r, 0) + 1]
    dim_nilp = d - ranks[-1]
    index = ranks.index(ranks[-1])
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


# -- the image chain on the ring's vectors ------------------------------------
#
# A vector is in its ring adapter's format (linalg): a packed int over F_q,
# a dict over K.  Its leading coordinate is its highest nonzero one.


def over_field(op):
    """Over A, the operator with its columns lifted to K, where the chain's basis lies; over a field, itself."""
    if not isinstance(op.ring.one, Poly):
        return op
    cols = [{i: RatFunc.from_poly(x) for i, x in col.items()} for col in op.cols]
    return OperatorMatrix(op.name, op.ctx, op.k, DictRing(RatFunc.zero(op.ctx.fq), RatFunc.one(op.ctx.fq)), cols)


def image_chain(op):
    """U's image chain, run until the rank repeats, for an operator U.

    U is applied to an echelon basis of im U^(j-1), all at once on its
    coordinate slices (one axpy per entry of U, :meth:`OperatorMatrix.apply_all`),
    and the images are re-eliminated into an echelon basis of im U^j
    (:func:`linalg.extend_echelon`).  The ranks never increase, and once rank U^N = rank U^(N+1) every later image is
    im U^N, the Fitting image, on which U is invertible.

    Returns (ranks, basis, restriction): ranks[j] = rank U^j up to the
    first repeat; an echelon basis of im U^N, each vector 1 at its own
    leading coordinate and the leading coordinates distinct; and U|im,
    the s x s Matrix of U on that basis (s = len(basis)), over :func:`over_field`'s
    field.  The chain runs once per operator and is kept in ``op.chain``.
    """
    if op.chain is not None:
        return op.chain
    u = over_field(op)
    ring = u.ring
    echelon = {i: ring.from_terms([(i, ring.one)]) for i in range(op.size)}
    ranks = [len(echelon)]
    while True:
        images = u.apply_all(list(echelon.values()))
        nxt = {}
        for w in images:
            extend_echelon(ring, nxt, w)
        ranks.append(len(nxt))
        if ranks[-1] == ranks[-2]:
            break
        echelon = nxt
    # U b_j lies in span(basis): its coordinates are the multiples eliminate clears
    position = {top: i for i, top in enumerate(echelon)}
    rows = [[ring.zero] * len(echelon) for _ in echelon]
    for j, w in enumerate(images):
        for top, c in eliminate(ring, echelon, w)[1]:
            rows[position[top]][j] = c
    op.chain = ranks, list(echelon.values()), Matrix(ring, rows)
    return op.chain


def _combine(ring, terms):
    """sum c v over the (c, v) of ``terms`` with c nonzero."""
    out = ring.vector(())
    for c, v in terms:
        if c:
            out = ring.axpy(out, c, v)
    return out

