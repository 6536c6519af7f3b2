"""Operator matrices on the cocycle model and the ordinary-part checks.

Operators transport along the rule (T c)(e) = sum_xi xi^{-1} . c(xi e)
over the usual coset matrices: xi_{t,beta} for U_t, the xi_{m,beta}
together with xi_{m,diamond} for T_m at m prime to t, and eta_{a,diamond}
for the diamond action.  Each transported image xi e of a safe orbit
representative e is classified once, into a transport table that sends
e to {orbit key: block}, the block being the orientation sign times
act(xi^{-1}) act(delta) for the witness delta (a 1x1 identity on V_2) and
blocks landing on one orbit summed.  Every basis cocycle's values on
the safe representatives are then a sparse combination of its stored
vectors.  Their coordinates are the values at the stable rows, where the
basis is the unit basis, with exact consistency checks on every safe
row; an image edge beyond the table is a ReachError.  A matrix is
over the space's ring, the ring its coordinates lie in: F_q at weight 2,
so products, commutators and the certificate run over F_q there, and
K = F_q(t) above.

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
"""

from .cocycles import Coordinates
from .errors import ReachError, UsageError
from .linalg import Matrix, UPoly, charpoly, kernel_basis, newton_slope_zero_count
from .rings import Poly, Residue, graded_polys, poly_is_irreducible
from .serialize import entry_json
from .tree import apply_edge

# operator images are read and checked only on orbits at least this many
# levels inside the truncation depth: deeper images can leave the table
SAFE_MARGIN = 4


class OperatorMatrix:
    """A named operator in the chosen cocycle basis, over the space's ring."""

    __slots__ = ("name", "ctx", "k", "matrix")

    def __init__(self, name, ctx, k, matrix):
        self.name = name
        self.ctx = ctx
        self.k = k
        self.matrix = matrix

    @property
    def size(self):
        return self.matrix.nrows

    def __mul__(self, other):
        return OperatorMatrix(
            f"{self.name}*{other.name}", self.ctx, self.k, self.matrix * other.matrix
        )

    def commutator(self, other):
        return self.matrix * other.matrix - other.matrix * self.matrix

    def charpoly(self):
        return charpoly(self.matrix)

    def to_json_dict(self):
        return {
            "name": self.name,
            "q": self.ctx.q,
            "n": self.ctx.n,
            "k": self.k,
            "size": self.size,
            "entries": [[entry_json(x) for x in row] for row in self.matrix.rows],
        }


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
        acts = [space.vk.act_of_inverse(xi) for xi in transports]
        # the transport table key -> {orbit key: block} does not depend on
        # the cocycle: (T c)(rep) = sum of block . c(orbit key)
        table = {}
        for key in self.coords.keys_needed:
            rep = graph.edge_orbits[key].rep
            row = {}
            for pos, xi in enumerate(transports):
                e2 = apply_edge(xi, rep, fq)
                orbit, key2, sign, delta = graph.classify(e2)
                if orbit is None:
                    raise ReachError(f"edge beyond the depth-{space.depth} table: {e2}")
                block = acts[pos] * space.vk.act(delta)
                if sign == -1:
                    block = -block
                prev = row.get(key2)
                row[key2] = block if prev is None else prev + block
            table[key] = row
        zero = space.zero_vector()
        cols = []
        for cocycle in space.basis:
            values = {}
            for key, row in table.items():
                total = zero
                for key2, block in row.items():
                    stored = cocycle.get(key2)
                    if stored is not None:
                        total = [a + b for a, b in zip(total, block.apply(stored))]
                values[key] = tuple(total)
            cols.append(self.coords.coords(values))
        d = space.dim
        matrix = Matrix(space.ring, [[cols[j][i] for j in range(d)] for i in range(d)])
        got = OperatorMatrix(name, self.ctx, self.k, matrix)
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
        if m.vt() == 0 and poly_is_irreducible(m) and m.is_monic():
            pass
        else:
            raise UsageError(f"T_m needs a monic irreducible m prime to t, got {m}")
        transports = [ctx.xi_beta(m, beta) for beta in graded_polys(ctx.fq, int(m.degree))]
        transports.append(ctx.xi_diamond(m))
        return self._assemble(f"Tm({m})", transports)

    def diamond(self, alpha):
        """Diamond operator of a unit alpha of A_n (Residue or Poly lift)."""
        ctx = self.ctx
        if isinstance(alpha, Residue):
            lift = alpha.lift()
        else:
            lift = alpha.truncate(ctx.n)
        if lift.vt() != 0:
            raise UsageError(f"diamond needs a unit of A_n, got {lift}")
        eta = ctx.eta_diamond(lift)
        return self._assemble(f"Diamond({lift})", [eta])


# -- weight-2 closed form for the diamond action ------------------------------


def diamond_label_map(ctx, a):
    """The index permutation (c, d) -> ((1+ta)^{-1} c, (1+ta)^{-1} (d-a)).

    Arithmetic happens in A_{n-1}; for n = 1 the label set is a point.
    """
    if ctx.n == 1:
        z = ctx.labels[0]
        return {(z.coeffs, z.coeffs): (z.coeffs, z.coeffs)}
    nm1 = ctx.n - 1
    alpha_inv = Residue(nm1, ctx.one + ctx.t * a).inverse()
    out = {}
    for c, d in ctx.label_pairs():
        c2 = alpha_inv * Residue(nm1, c)
        d2 = alpha_inv * Residue(nm1, d - a)
        out[(c.coeffs, d.coeffs)] = (c2.lift().coeffs, d2.lift().coeffs)
    return out


def diamond_permutation_matrix(space, a):
    """The closed-form diamond matrix on the weight-2 delta basis."""
    if space.k != 2:
        raise UsageError("the closed form applies to weight 2 only")
    ctx = space.ctx
    ring = space.ring
    labels = [(c.coeffs, d.coeffs) for c, d in ctx.label_pairs()]
    index = {lbl: i for i, lbl in enumerate(labels)}
    perm = diamond_label_map(ctx, a)
    d = len(labels)
    rows = [[ring.zero] * d for _ in range(d)]
    for j, lbl in enumerate(labels):
        rows[index[perm[lbl]]][j] = ring.one
    return Matrix(ring, rows)


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
    """Run checks (a)-(d) for a U_t matrix and a list of Hecke operators."""
    ctx = ut.ctx
    ring = ut.matrix.ring
    d = ut.size
    r = ctx.ordinary_rank()
    notes = []
    chi = charpoly(ut.matrix)
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
    proj = chi_plus.eval_matrix(ut.matrix) if ok_div else None
    ident = Matrix.identity(ring, d)
    flags["unipotence_kill"] = proj is not None and ((ut.matrix - ident) * proj).is_zero()
    hecke_flags = {}
    for op in heckes:
        ok = proj is not None and ((op.matrix - ident) * proj).is_zero()
        hecke_flags[op.name] = ok
        if not ok:
            notes.append(f"{op.name} is not the identity on the ordinary part")
    return OrdinaryCertificate(ctx, ut.k, r, chi, chi_plus, flags, hecke_flags, notes)


def nilpotency_diagnostics(ut):
    """Nilpotency data of U_t on the complement of the ordinary part.

    The square-vanishing subspace of cuspforms is not modeled directly
    (that would need cusp expansions); the nilpotent block of U_t
    computed here is the indirect witness that U_t kills it eventually.
    The status holds when that block has dimension d - r and nilpotency
    index at most d - r.
    """
    ctx = ut.ctx
    d = ut.size
    r = ctx.ordinary_rank()
    power = ut.matrix ** max(d - r, 0)
    basis = kernel_basis(power) if d - r > 0 else []
    dim_nilp = len(basis)
    index = 0
    vecs = [list(v) for v in basis]
    while vecs and any(any(x for x in v) for v in vecs):
        index += 1
        vecs = [ut.matrix.apply(v) for v in vecs]
        if index > d:
            raise AssertionError("nilpotency index exceeded the space dimension")
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
