"""Congruence subgroups of SL_2(A) at the prime t, and their bookkeeping.

Provides the membership test for Gamma_1(t^n), a deterministic section
of SL_2(A) -> SL_2(A_n), the coset representatives h_{(c,d)} of
Gamma_1(t^n) \\ Gamma_1(t), the auxiliary Hecke matrices
xi_{m,beta} / xi_{m,diamond} / eta_{a,diamond}, cusp enumeration with
widths, the genus and dimension formulas, and executable checks of the
coset congruences that drive the Hecke computation at the cusps.

A class of A_n = A/(t^n) is held as its lift of degree < n, a Poly: sums
stay such lifts, products are cut back with ``truncate(n)`` and units are
inverted with ``inverse_mod(n)``.  A_0 is the zero ring, so at n = 1 the
labels A_{n-1} are the one class 0 with no special case.
"""

from functools import lru_cache

from .fq import field
from .mat2 import Mat2, packed_product
from .rings import Poly, graded_polys, int_axpy, int_divmod, int_inverse_mod, int_mul, int_neg, packed


def is_gamma1(gamma, n):
    """Exact test gamma = (1 *; 0 1) mod t^n, for gamma in SL_2(A)."""
    _require_unimodular(gamma)
    return _unipotent_mod(gamma, n)


def _unipotent_mod(gamma, n):
    """gamma = (1 *; 0 1) mod t^n: the low n bytes of a and d read 1, and those of c read 0."""
    mask = (1 << 8 * n) - 1
    return gamma.a.x & mask == 1 and not gamma.c.x & mask and gamma.d.x & mask == 1


def _require_unimodular(gamma):
    if not gamma.det().is_one():
        raise ValueError(f"matrix has det {gamma.det()}, expected 1")


def _bezout(c, d):
    """(a1, b1) = (d^-1 mod c, (a1 d - 1)/c), so a1 d - b1 c = 1; None unless c, d are coprime.

    c = 0 is coprime to d only for a constant d, and there (a1, b1) = (d^-1, 0).
    """
    fq = d.fq
    if not c:
        return (d.inverse(), c) if d.degree == 0 else None
    a1 = int_inverse_mod(fq, d.x, c.x)
    if a1 is None:
        return None
    a1 = packed(fq, a1)
    return a1, (a1 * d - Poly.one(fq)).divexact(c)


def lift_sl2(gbar, n):
    """Deterministic lift of gbar in SL_2(A_n) to SL_2(A).

    gbar is a Mat2 over A read modulo t^n: each entry stands for its class,
    whose lift of degree < n is taken.  The bottom row is lifted to a
    coprime pair congruent to the input row (adding t^n * z with z
    enumerated degree-first); the top row is the Bezout pair of d^-1 mod c,
    corrected by lambda * (bottom row) to match the required congruence,
    with lambda the canonical degree < n representative.
    """
    fq = gbar.a.fq
    det = gbar.det().truncate(n)
    if not det.is_one():
        raise ValueError(f"matrix has det {det} != 1 mod t^{n}")
    tn = Poly.t_power(fq, n)
    abar, bbar, cbar, dbar = (x.truncate(n) for x in gbar.entries())
    d = dbar or tn
    for z in graded_polys(fq):
        c = cbar + tn * z
        pair = _bezout(c, d)
        if pair is not None:
            break
    a1, b1 = pair  # a1*d - b1*c = 1
    # congruence defect (abar - a1, bbar - b1) is a multiple of (c, d) mod t^n;
    # u*c + v*d = 1 for (u, v) = (-b1, a1), and lambda mod t^n is the same
    # for every such pair
    lam = (a1 * (bbar - b1) - b1 * (abar - a1)) % tn
    a = a1 + lam * c
    b = b1 + lam * d
    out = Mat2(a, b, c, d)
    if not out.det().is_one():
        raise AssertionError("lift has wrong determinant")
    for got, want in ((a, abar), (b, bbar), (c, cbar), (d, dbar)):
        if (got - want).truncate(n):
            raise AssertionError("lift has wrong reduction")
    return out


class GroupContext:
    """Shared data for one (q, n): enumerations, h-matrices, Hecke matrices."""

    def __init__(self, q, n):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.q = q
        self.n = n
        self.fq = field(q)
        self.t = Poly.t(self.fq)
        self.one = Poly.one(self.fq)
        self.labels = list(graded_polys(self.fq, n - 1))  # A_{n-1}
        # 1 + tA_n, order q^(n-1), by the lifts 1 + ta of degree < n
        self.theta = [self.one + self.t * a for a in self.labels]
        self._h_cache = {}
        self._eta_cache = {}

    # -- labels ------------------------------------------------------------
    def label_pairs(self):
        return [(c, d) for c in self.labels for d in self.labels]

    # -- h matrices ----------------------------------------------------------
    def h_bar(self, c, d):
        """(1/(1+td), 0; tc, 1+td) in SL_2(A_n), for c, d in A_{n-1}, by lifts of degree < n."""
        upd = self.one + self.t * d
        return Mat2(upd.inverse_mod(self.n), Poly.zero(self.fq), self.t * c, upd)

    def h_matrix(self, c, d):
        """The chosen lift of h_bar(c, d) in Gamma_1(t); memoized and exact."""
        key = (c.coeffs, d.coeffs)
        got = self._h_cache.get(key)
        if got is None:
            got = lift_sl2(self.h_bar(c, d), self.n)
            if not is_gamma1(got, 1):
                raise AssertionError("h-matrix lift left Gamma_1(t)")
            self._h_cache[key] = got
        return got

    # -- Hecke matrices -------------------------------------------------------
    def xi_beta(self, m, beta):
        """(1, beta; 0, m) with deg(beta) < deg(m)."""
        if beta.degree >= m.degree:
            raise ValueError("beta must have degree < deg(m)")
        return Mat2(self.one, beta, Poly.zero(self.fq), m)

    def eta_diamond(self, a):
        """eta in SL_2(A) with eta = (* *; 0 a) mod t^n, canonical choice.

        a is a polynomial prime to t; the lift of diag(a^{-1}, a) mod t^n.
        """
        if a.vt() != 0:
            raise ValueError(f"{a} is not prime to t")
        abar = a.truncate(self.n)
        key = abar.coeffs
        got = self._eta_cache.get(key)
        if got is None:
            zero = Poly.zero(self.fq)
            got = lift_sl2(Mat2(abar.inverse_mod(self.n), zero, zero, abar), self.n)
            self._eta_cache[key] = got
        return got

    def xi_diamond(self, m):
        """eta_{m,diamond} * diag(m, 1); det = m."""
        eta = self.eta_diamond(m)
        return Mat2(eta.a * m, eta.b, eta.c * m, eta.d)

    def hecke_coset(self, xi, w, m):
        """(gamma, r) with xi w = gamma r: gamma in SL_2(A) and r its Hecke coset representative, both packed.

        xi and m = det xi, prime or 1, are packed, w is in SL_2(A), and xi w
        is one packed product.  r is (1, beta; 0, m) with deg beta < deg m,
        or (m, 0; 0, 1), the identity when m = 1 (Serre, Trees, II.1).  The
        rows of xi w span r's row lattice, so mod m they span the line of
        (0, 1) when m divides the first column (a, c) of xi w, and else that
        of (1, beta): beta is b/a mod m, or d/c when a = 0 mod m.  gamma is
        then (a/m, b; c/m, d) or (a, (b - beta a)/m; c, (d - beta c)/m),
        each division exact.
        """
        fq = self.fq
        a, b, c, d = x = packed_product(fq, xi, w)
        if m == 1:  # the diamond's eta
            return x, (1, 0, 0, 1)
        (qa, ra), (qc, rc) = int_divmod(fq, a, m), int_divmod(fq, c, m)
        if not (ra or rc):
            return (qa, b, qc, d), (m, 0, 0, 1)
        num, res = (b, ra) if ra else (d, rc)
        beta = int_divmod(fq, int_mul(fq, num, int_inverse_mod(fq, res, m)), m)[1]
        minus = int_neg(fq, beta)
        (qb, rb), (qd, rd) = int_divmod(fq, int_axpy(fq, b, minus, a), m), int_divmod(fq, int_axpy(fq, d, minus, c), m)
        if rb or rd:
            raise AssertionError("xi w is not in SL_2(A) times its coset representative")
        return (a, qb, c, qd), (1, beta, 0, m)

    # -- cusps and dimensions ---------------------------------------------
    def cusps(self):
        """Duplicate-free cusp records, infinity-type then zero-type."""
        out = []
        nm1 = self.n - 1
        for c in self.labels:
            m = min(c.vt(), nm1)
            # classes of d modulo c*A_{n-1} = t^m * A_{n-1}: reps of degree < m
            for d in graded_polys(self.fq, m):
                out.append(CuspRecord("infinity", (c, d), nm1 - m))
        for d in self.labels:
            out.append(CuspRecord("zero", (d,), self.n))
        return out

    def cusp_count(self):
        return len(self.cusps())

    def genus(self):
        q, n = self.q, self.n
        if n == 1:
            return 0
        return 1 + q ** (2 * n - 2) - (n + 1) * q ** (n - 1) + (n - 1) * q ** (n - 2)

    def dim_weight2(self):
        return self.q ** (2 * (self.n - 1))

    def dim_sk(self, k):
        """(k-1)(g - 1 + h); the identity g - 1 + h = q^(2(n-1)) is asserted."""
        if k < 2:
            raise ValueError("k must be >= 2")
        g, h = self.genus(), self.cusp_count()
        if g - 1 + h != self.dim_weight2():
            raise AssertionError(
                f"genus/cusp identity failed: g={g}, h={h}, expected g-1+h={self.dim_weight2()}"
            )
        return (k - 1) * (g - 1 + h)

    def ordinary_rank(self):
        return self.q ** (self.n - 1)


class CuspRecord:
    """A cusp of the level-t^n curve with its width exponent."""

    __slots__ = ("kind", "label", "width_exponent")

    def __init__(self, kind, label, width_exponent):
        self.kind = kind
        self.label = label
        self.width_exponent = width_exponent

    def __eq__(self, other):
        return (
            isinstance(other, CuspRecord)
            and self.kind == other.kind
            and self.label == other.label
            and self.width_exponent == other.width_exponent
        )

    def __repr__(self):
        lbl = ",".join(str(p) for p in self.label)
        return f"Cusp({self.kind}; {lbl}; width t^{self.width_exponent})"


@lru_cache(maxsize=None)
def group_context(q, n):
    return GroupContext(q, n)


# -- coset congruence checks ------------------------------------------------


def in_gamma1_coset(lhs, rhs, n):
    """Whether lhs lies in Gamma_1(t^n) rhs, for 2x2 matrices over A, det rhs != 0.

    The quotient lhs rhs^{-1} = lhs adj(rhs) / det(rhs) is formed by exact
    division over A; a nonzero remainder means it is not integral, so not
    in SL_2(A).
    """
    det = rhs.det()
    entries = []
    for x in (lhs * rhs.adjugate()).entries():
        quo, rem = divmod(x, det)
        if not rem.is_zero():
            return False
        entries.append(quo)
    gamma = Mat2(*entries)
    return gamma.det().is_one() and _unipotent_mod(gamma, n)


def verify_xi_congruences(q, n):
    """Check the three coset congruences for xi_beta against every h_{(c,d)}.

    For beta in F_q and (c, d) in A_{n-1}^2:
      (1) xi_beta h_{(c,d)}          in Gamma_1(t^n) h_{(tc, d-beta*c)} xi_beta
      (2) xi_beta h_{(c,d)} J        in Gamma_1(t^n) h_{(b^{-1}(1+td), d-beta*c)}
                                        (1 0; 0 t)(beta -1; 0 beta^{-1}),  beta != 0
      (3) xi_0 h_{(c,d)} J           in Gamma_1(t^n) h_{(tc, d)} J (t 0; 0 1)
    Each membership is decided over A by :func:`in_gamma1_coset`.
    """
    ctx = group_context(q, n)
    fq, t, one = ctx.fq, ctx.t, ctx.one
    zero = Poly.zero(fq)
    jmat = Mat2.j_matrix(fq)
    failures = []
    checked = 0
    nm1 = n - 1
    for beta_code in fq.elements():
        beta = Poly.constant(fq, beta_code)
        xi = ctx.xi_beta(t, beta)
        for c in ctx.labels:
            for d in ctx.labels:
                xih = xi * ctx.h_matrix(c, d)
                # (1)
                rhs = ctx.h_matrix((t * c).truncate(nm1), (d - beta * c).truncate(nm1)) * xi
                checked += 1
                if not in_gamma1_coset(xih, rhs, n):
                    failures.append({"item": 1, "beta": str(beta), "c": str(c), "d": str(d)})
                if beta_code != 0:
                    # (2)
                    binv = Poly.constant(fq, fq.inv(beta_code))
                    rhs = (
                        ctx.h_matrix(
                            (binv * (one + t * d)).truncate(nm1), (d - beta * c).truncate(nm1)
                        )
                        * Mat2.diag(one, t)
                        * Mat2(beta, -one, zero, binv)
                    )
                    item = 2
                else:
                    # (3)
                    rhs = ctx.h_matrix((t * c).truncate(nm1), d) * jmat * Mat2.diag(t, one)
                    item = 3
                checked += 1
                if not in_gamma1_coset(xih * jmat, rhs, n):
                    failures.append({"item": item, "beta": str(beta), "c": str(c), "d": str(d)})
    return {
        "lemma": "xi-coset-congruence",
        "params": {"q": q, "n": n},
        "status": not failures,
        "checked": checked,
        "witness": failures or None,
    }


def verify_diamond_congruence(q, n):
    """eta_{a,diamond} h_{(c,d)} in Gamma_1(t^n) h_{((1+ta)c, a+d+tad)} for all a, c, d.

    Each membership is decided over A by :func:`in_gamma1_coset`.
    """
    ctx = group_context(q, n)
    t, one, nm1 = ctx.t, ctx.one, n - 1
    failures = []
    checked = 0
    for a in ctx.labels:
        eta = ctx.eta_diamond((one + t * a).truncate(n))
        for c in ctx.labels:
            for d in ctx.labels:
                rhs = ctx.h_matrix(
                    ((one + t * a) * c).truncate(nm1), (a + d + t * a * d).truncate(nm1)
                )
                checked += 1
                if not in_gamma1_coset(eta * ctx.h_matrix(c, d), rhs, n):
                    failures.append({"a": str(a), "c": str(c), "d": str(d)})
    return {
        "lemma": "diamond-coset-congruence",
        "params": {"q": q, "n": n},
        "status": not failures,
        "checked": checked,
        "witness": failures or None,
    }


def distinct_coset_check(q, n):
    """h h'^{-1} not in Gamma_1(t^n) for all distinct label pairs."""
    ctx = group_context(q, n)
    hs = [ctx.h_matrix(c, d) for c, d in ctx.label_pairs()]
    for i, h in enumerate(hs):
        for j, hp in enumerate(hs):
            if i < j and is_gamma1(h * hp.adjugate(), n):
                return False
    return True
