"""Harmonic cocycles of level Gamma_1(t^n) as finite exact linear algebra.

A weight-k cocycle is a V_k-valued function on oriented edges that sums to
zero over the edges into every vertex, is odd under reversal, and is
Gamma_1(t^n)-equivariant.  Equivariance makes it a function on edge orbits;
with values declared zero beyond the quotient-graph depth D (orbit
multiplicities along the cusp rays are divisible by q, so true solutions
die out in characteristic p), the space becomes the exact kernel of the
harmonicity rows at every vertex orbit whose full star lies in the table.

Every weight runs one code path over the blocks of VkAction.  On the
trivial V_2 over F_q a harmonicity entry is a signed count of star edges
mod p.  Above weight 2 the blocks are (k-1)x(k-1) matrices over
A = F_q[t], and so are the solve, on pivots that are units of A, and its
basis.  A single value, ``evaluate``, is read on the same blocks: the
stored tuple through the summed signed block of its witness.  Two gates
guard the truncation: the dimension must equal (k-1) q^(2(n-1)), and
re-solving at depth D+1 must give the same dimension.  The re-solve runs on the depth-D table grown by one shell
(``QuotientGraph.extended``), not on a second build, and reuses each
interior vertex orbit's rows, kept in (orbit key, component) terms.
Whether it also spans the same cocycles is recorded as ``depth_stable``.

A stored value must also be fixed by the representative's
Gamma_1(t^n)-stabilizer, and no row imposes that: the rows
(act(delta) - 1) x = 0 for its generators are left out.  Leaving rows
out can only enlarge the kernel, and the two gates accept only the
expected dimension, so a system on which such a row binds ends in
DimensionMismatchError or StabilityError; it never yields a different
basis that passes.  The invariance of the stored values, on which a
witness defined only up to the stabilizer relies, is thus a consequence
of harmonicity and the gates, and the tests check it.

The solver eliminates the stable columns h_{(c,d)} J e_0 last, so they are
its free columns and the basis it returns is the unit basis on the stable
(orbit, component) rows: each cocycle is 1 at one of them and 0 at the
others.  That is checked after every solve.  For weight 2 it is the delta
basis indexed by A_{n-1}^2, put into label order: the unique cocycle taking
value 1 at one stable representative and 0 at the others.
"""

from functools import cached_property

from .errors import DimensionMismatchError, ReachError, StabilityError
from .fq import FqElem
from .linalg import DictRing, FqRing, Matrix, sparse_kernel
from .rings import Poly
from .tree import MAX_ORBITS, Edge, QuotientGraph


def depth_default(n, k):
    """Default truncation depth: 2n+3 at weight <= 3, growing with k.

    Truncated supports die roughly (k-1)/((p-1)e) unipotent-averaging
    levels past the stable core, so higher weight needs more margin.
    """
    return 2 * n + 1 + max(2, k - 1)


class VkAction:
    """Matrices of the dual action of GL_2(K) on V_k = H_{k-2}^dual.

    substitution(g) is the matrix of P(X, Y) -> P((X, Y) g) on the
    monomial basis X^(k-2-j) Y^j of H_{k-2}; the action of g on V_k is
    substitution(g^{-1})^T, and the action of g^{-1} is substitution(g)^T.

    The solve and the assembly sum :meth:`signed_block` over the images
    meeting one column and read the sum through :meth:`summed`.  V_2 is
    trivial over F_q: a signed block is the sign itself, with no witness
    or transport read, and a sum is the 1x1 block of the count mod p.
    Above weight 2 the blocks are (k-1)x(k-1) Matrices over A = F_q[t].
    """

    def __init__(self, fq, k):
        if k < 2:
            raise ValueError("weight must be >= 2")
        self.fq = fq
        self.k = k
        self.ring = FqRing(fq) if k == 2 else DictRing(Poly.zero(fq), Poly.one(fq))
        self._cache = {}
        self.trivial = self.dim == 1  # V_2, on which every element acts as the identity
        self._trivial = Matrix.identity(self.ring, 1) if self.trivial else None
        self._counts = [Matrix(self.ring, [[FqElem(fq, c)]]) for c in range(fq.p)] if self.trivial else None

    @property
    def dim(self):
        return self.k - 1

    def substitution(self, g):
        """The substitution matrix of g, over A for g over A."""
        key = ("S",) + tuple(g.entries())
        got = self._cache.get(key)
        if got is not None:
            return got
        m = self.k - 2
        zero = self.ring.zero
        # (X, Y) g = (a X + c Y, b X + d Y) row-vector convention
        img_x = [g.a, g.c]  # coefficients on (X, Y)
        img_y = [g.b, g.d]
        # forms of degree m represented by Y-degree coefficient lists
        cols = []
        for j in range(m + 1):
            form = [self.ring.one]
            for _ in range(m - j):
                form = _form_mul(zero, form, img_x)
            for _ in range(j):
                form = _form_mul(zero, form, img_y)
            cols.append(form)
        got = Matrix(self.ring, zip(*cols))
        self._cache[key] = got
        return got

    def act(self, g):
        """Matrix of omega -> g . omega on V_k, for g over A with det 1.

        The inverse of such a g is its adjugate, so the block stays over A.
        """
        if self.trivial:
            return self._trivial
        if not g.det().is_one():
            raise ValueError(f"VkAction.act needs det 1 over A, got det {g.det()}")
        return self.substitution(g.adjugate()).transpose()

    def act_of_inverse(self, g):
        """Matrix of omega -> g^{-1} . omega on V_k (no inversion needed)."""
        if self.trivial:
            return self._trivial
        return self.substitution(g).transpose()

    def inverse_acts(self, gs):
        """act_of_inverse(g) for each g, the left factors of :meth:`signed_block` (None on V_2)."""
        return [None] * len(gs) if self.trivial else [self.act_of_inverse(g) for g in gs]

    def signed_block(self, sign, delta, left=None):
        """sign * left * act(delta), the block of one image with witness delta
        (left omitted: the identity); on V_2 the integer sign."""
        if self.trivial:
            return sign
        block = self.act(delta) if left is None else left * self.act(delta)
        return -block if sign == -1 else block

    def summed(self, block):
        """The block a sum of signed blocks applies: on V_2 that of the count mod p."""
        return self._counts[block % self.fq.p] if self.trivial else block


def _form_mul(zero, form, lin):
    """Multiply a binary form (Y-degree coefficients) by a linear form."""
    out = [zero] * (len(form) + 1)
    a, b = lin  # a X + b Y
    for i, c in enumerate(form):
        if c:
            if a:
                out[i] = out[i] + c * a
            if b:
                out[i + 1] = out[i + 1] + c * b
    return out


class CocycleSpace:
    """The solved space C^har_k(Gamma_1(t^n)) on a depth-D quotient graph."""

    def __init__(self, ctx, k, depth=None, max_orbits=MAX_ORBITS):
        self.ctx = ctx
        self.k = k
        self.depth = depth if depth is not None else depth_default(ctx.n, k)
        self.expected_dim = (k - 1) * ctx.dim_weight2()
        self.vk = VkAction(ctx.fq, k)
        self.ring = self.vk.ring
        self.graph = QuotientGraph(ctx, self.depth, max_orbits=max_orbits)
        # the stable representatives h_{(c,d)} J e_0, in label order
        self.stable_keys = [
            self.graph.seed_keys[(c.coeffs, d.coeffs)] for c, d in ctx.label_pairs()
        ]
        orbit_rows = {}  # each interior vertex orbit's harmonicity rows, for both solves
        basis, keys = self._solve(self.graph, orbit_rows)
        if len(basis) != self.expected_dim:
            raise DimensionMismatchError(
                f"dim C^har_{k}(Gamma_1(t^{ctx.n})) at depth {self.depth}: "
                f"got {len(basis)}, expected {self.expected_dim}"
            )
        units = self._unit_rows(basis)
        # support gate: solutions must die out before the boundary shells,
        # otherwise the zero-beyond-D convention is corrupting values
        self.support_radius = max(
            (self.graph.edge_orbits[key].depth for c in basis for key in c),
            default=0,
        )
        if self.support_radius > self.depth - 2:
            raise StabilityError(
                f"cocycle support reaches depth {self.support_radius} of a "
                f"depth-{self.depth} table: increase the depth"
            )
        # the depth-(D+1) re-solve: its dimension is gated here, and whether
        # it spans the same cocycles is kept.  Both bases are unit bases on
        # the stable rows, so the spans agree exactly when the cocycles at
        # each unit row agree.
        basis2, _ = self._solve(self.graph.extended(), orbit_rows)
        if len(basis2) != self.expected_dim:
            raise StabilityError(
                f"depth {self.depth} vs {self.depth + 1}: dimensions "
                f"{len(basis)} vs {len(basis2)}"
            )
        units2 = self._unit_rows(basis2)
        self.depth_stable = dict(zip(units, basis)) == dict(zip(units2, basis2))
        self.orbit_keys = keys
        self.basis = basis
        # the stable (key, component) row at which each basis cocycle is 1
        self.unit_rows = units
        if k == 2:
            self._to_delta_basis()

    # -- the linear system ---------------------------------------------------
    def _solve(self, graph, orbit_rows):
        comp = self.k - 1
        ring = self.ring
        keys = sorted(graph.edge_orbits)
        col_of = {key: i * comp for i, key in enumerate(keys)}
        # deepest columns first: elimination then sweeps inward along rays.
        # The stable columns come last, so they are the free ones.
        stable = set(self.stable_keys)
        col_order = []
        for key in sorted(keys, key=lambda kk: (kk in stable, -graph.edge_orbits[kk].depth, kk)):
            base = col_of[key]
            col_order.extend(range(base, base + comp))
        rows = []
        for vorbit in graph.interior_vertex_orbits():
            if vorbit.key not in orbit_rows:
                orbit_rows[vorbit.key] = self._harmonicity_rows(graph, vorbit)
            rows.extend({col_of[key] + s: x for key, s, x in row} for row in orbit_rows[vorbit.key])
        basis = []
        for vec in sparse_kernel(rows, len(keys) * comp, ring, col_order=col_order):
            entry = {}
            for col, x in vec.items():
                entry.setdefault(keys[col // comp], [ring.zero] * comp)[col % comp] = x
            basis.append({key: tuple(v) for key, v in entry.items()})
        return basis, keys

    def _harmonicity_rows(self, graph, vorbit):
        """The rows of harmonicity at an interior vertex orbit, as (orbit key, component, entry) terms."""
        comp = self.k - 1
        vk = self.vk
        blocks = {}
        for orbit, key, sign, delta in graph.star(vorbit):
            if orbit is None:
                raise AssertionError("interior vertex star left the table")
            block = vk.signed_block(sign, delta)
            prev = blocks.get(key)
            blocks[key] = block if prev is None else prev + block
        blocks = [(key, vk.summed(block).rows) for key, block in blocks.items()]
        rows = ([(key, s, mat[r][s]) for key, mat in blocks for s in range(comp) if mat[r][s]] for r in range(comp))
        return [row for row in rows if row]

    def _unit_rows(self, basis):
        """The stable (key, component) row at which each basis cocycle is 1.

        A basis that is not the unit basis on the stable rows means that
        evaluation there is not injective on the solved space.
        """
        stable = set(self.stable_keys)
        units = []
        for c in basis:
            hits = [(key, s, x) for key, v in c.items() if key in stable for s, x in enumerate(v) if x]
            if len(hits) != 1 or hits[0][2] != self.ring.one:
                raise DimensionMismatchError(
                    "the solved basis is not the unit basis on the stable representatives"
                )
            units.append(hits[0][:2])
        if len(set(units)) != len(units):
            raise DimensionMismatchError(
                "two solved cocycles are 1 at the same stable representative"
            )
        return units

    # -- weight-2 delta basis ---------------------------------------------------
    def _to_delta_basis(self):
        """Put the unit basis into label order: cocycle j is 1 at stable_keys[j] (_unit_rows)."""
        by_unit = dict(zip(self.unit_rows, self.basis))
        self.basis = [by_unit[(key, 0)] for key in self.stable_keys]
        self.unit_rows = [(key, 0) for key in self.stable_keys]

    # -- evaluation ----------------------------------------------------------------
    def zero_vector(self):
        return tuple(self.ring.zero for _ in range(self.k - 1))

    def evaluate(self, cocycle, e):
        """Value of one cocycle (dict orbit-key -> tuple) at an oriented edge: its stored value through
        the signed block of the witness, or zero off its support or the table; :meth:`sum_values`
        sums values over edges as ring vectors."""
        orbit, key, sign, delta = self.graph.classify(e)
        v = None if orbit is None else cocycle.get(key)
        if v is None:
            return self.zero_vector()
        return tuple(self.vk.summed(self.vk.signed_block(sign, delta)).apply(v))

    @cached_property
    def basis_terms(self):
        return self.terms(self.basis)

    @cached_property
    def basis_rows(self):
        return {row: self.ring.from_terms(t) for row, t in self.basis_terms.items()}

    def terms(self, cocycles):
        """{(key, s): the nonzero (j, c_j(key)[s])} over ``cocycles``, which :meth:`rows` holds as ring vectors;
        ``basis_terms`` and ``basis_rows`` are those of the basis, formed on first read (``dims`` reads neither)."""
        terms = {}
        for j, c in enumerate(cocycles):
            for key, v in c.items():
                for s, x in enumerate(v):
                    if x:
                        terms.setdefault((key, s), []).append((j, x))
        return terms

    def rows(self, cocycles):
        return {row: self.ring.from_terms(t) for row, t in self.terms(cocycles).items()}

    def read_blocks(self, blocks, rows):
        """{(tag, r): the sum of summed(block)[r][s] rows[(key, s)] over ``blocks`` {(tag, key): block}}."""
        ring, zero, image = self.ring, self.ring.vector(()), {}
        for (tag, key), block in blocks.items():
            for r, entries in enumerate(self.vk.summed(block).rows):
                for s, x in enumerate(entries):
                    b = rows.get((key, s))
                    if x and b is not None:
                        image[tag, r] = ring.axpy(image.get((tag, r), zero), x, b)
        return image

    def sum_values(self, edges, rows):
        """The sum over ``edges`` of the values of the cocycles of ``rows`` (:meth:`rows`), as k - 1 ring
        vectors: the signed blocks of each orbit key summed, then read through its rows."""
        comp, blocks = self.k - 1, {}
        for f in edges:
            orbit, key, sign, delta = self.graph.classify(f)
            if orbit is not None and any((key, s) in rows for s in range(comp)):
                block = self.vk.signed_block(sign, delta)
                blocks[0, key] = block if (0, key) not in blocks else blocks[0, key] + block
        image = self.read_blocks(blocks, rows)
        return [image.get((0, r), self.ring.vector(())) for r in range(comp)]

    def predecessor_sum(self, e, rows):
        """sum_values over the q edges feeding o(e) other than -e: by harmonicity at o(e) the value at
        e, and asserting the equality is the executable form of the source-sum identity."""
        return self.sum_values([Edge(u, e.origin) for u in e.origin.neighbors(self.ctx.fq) if u != e.terminus], rows)

    def harmonicity_residual(self, v):
        """sum_values of the basis over the edges into a literal tree vertex."""
        return self.sum_values([Edge(u, v) for u in v.neighbors(self.ctx.fq)], self.basis_rows)

    @property
    def dim(self):
        return len(self.basis)


class Coordinates:
    """Coordinates of operator images in the solved basis, with consistency.

    An image maps safe (orbit, component) rows to vectors of the space's
    ring: at (key, s) coordinate j is (T c_j)(key)[s] for basis cocycle
    c_j, and a missing row is zero.  ``row_terms`` is the space's
    ``basis_terms``: the nonzero (j, c_j(key)[s]) of the basis itself at
    every row some cocycle is nonzero at.  The basis is the unit basis on
    the stable rows, so row i of T's matrix is the image at cocycle i's
    unit row, and every row on orbits of depth at most ``safe_depth`` is
    then verified exactly.
    """

    def __init__(self, space, safe_depth):
        self.space = space
        orbits = space.graph.edge_orbits
        stable = set(space.stable_keys)
        self.keys_needed = space.stable_keys + [
            key for key in sorted(orbits) if key not in stable and orbits[key].depth <= safe_depth
        ]
        self.safe_rows = [(key, s) for key in self.keys_needed for s in range(space.k - 1)]
        self.row_terms = space.basis_terms

    def coords(self, image):
        """The columns of an operator from its image, every safe row verified.

        Its rows are the image at the unit rows; at each safe row the image
        must equal the basis row's combination of them.
        """
        ring = self.space.ring
        zero = ring.vector(())
        rows = [image.get(row, zero) for row in self.space.unit_rows]
        for row in self.safe_rows:
            got = zero
            for i, c in self.row_terms.get(row, ()):
                got = ring.axpy(got, c, rows[i])
            if got != image.get(row, zero):
                raise ReachError(
                    "operator image is inconsistent with the basis at row %s, "
                    "component %d: truncation depth too small" % row
                )
        return ring.transpose(rows, len(rows))
