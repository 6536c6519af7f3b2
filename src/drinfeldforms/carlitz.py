"""Carlitz module polynomials, Goss polynomials, and the u-expansion checks.

The Carlitz action sends t to Z -> tZ + Z^q; Phi_a is the additive
polynomial of the action of a, a ``linalg.UPoly`` over A whose coefficient
i is that on Z^(q^i).  Additive polynomials compose by :func:`compose`,
f o g gathering f_i g_j^(q^i) on Z^(q^(i+j)).  The
m-torsion exponential is e(z) = m^{-1} Phi_m(z), and the Goss polynomials
G_{i,m} express the power sums of 1/(z - lambda) over lambda in the
m-torsion as polynomials in u = 1/e(z):

    sum_i G_i(u) w^{i-1} = u / (1 - u * e(w)).

Two independent routes compute them: the classical recursion
G_i = X*(G_{i-1} + sum_j alpha_j G_{i-q^j}) with G_1 = X, and coefficient
extraction from the generating identity, G_i(X) = sum_j [w^{i-1}](e(w)^j)
X^{j+1}.  Tests pin them against each other; the engine's certificates
check the scaling and integrality facts the Hecke computations rely on:

  (1) G_1(mX) = mX;
  (2) G_i(mX) lies in m*A[X] with no linear term, for i >= 2;
  (3) u(mz) = u^{q^r} / (1 + c_{r-1} u^{q^r - q^{r-1}} + ... + m u^{q^r - 1}),
      the c_j those of Phi_m, expands over A with order >= 2 in u;

together with the one-level pullback

    t*u / (1 + t^l * beta * zeta * u)  in  t*u*A[beta, zeta][[u]],

whose geometric expansion is carried out over A[y], y = beta*zeta: beta
and zeta enter only through their product, so each coefficient is a
``linalg.UPoly`` in y over A, and the expansion exists over A exactly when
the denominator's constant term is a unit of A.
Every u-series here is a ``linalg.UPoly`` truncated to its precision:
the oracle's powers of e(w), and the two expansions, each a power of u
times a ``series_inverse`` of its denominator.  K = F_q(t) is kept where
alpha_r = 1/m is a real denominator: the recursion and the oracle.  Items
(1) and (2) are read over A off G_i's own coefficients g_j: G_1 = X, and
for i >= 2, g_0 = g_1 = 0 and den(g_j) divides m^(j-1).
A caller checking one m hands Phi_m, the alpha_i and the G_i down, so each
is computed once.
"""

from .linalg import DictRing, UPoly
from .rings import Poly, RatFunc, poly_is_irreducible


def compose(f, g):
    """f o g for additive polynomials over A: Z^(q^(i+j)) gathers f_i * g_j^(q^i)."""
    q = f.ring.one.fq.q
    out = [f.ring.zero] * max(len(f.coeffs) + len(g.coeffs) - 1, 0)
    for i, fi in enumerate(f.coeffs):
        if fi:
            for j, gj in enumerate(g.coeffs):
                if gj:
                    out[i + j] = out[i + j] + fi * (gj ** (q ** i))
    return UPoly(f.ring, out)


def carlitz_phi(a):
    """The additive polynomial Phi_a of the Carlitz action of a in A \\ {0}: a UPoly over A
    whose coefficient i is that of Z^(q^i)."""
    if a.is_zero():
        raise ValueError("the Carlitz action is defined for nonzero a")
    fq = a.fq
    ring = DictRing(Poly.zero(fq), Poly.one(fq))  # A
    phi_t = UPoly(ring, [Poly.t(fq), ring.one])
    # Horner in t: Phi_{sum a_i t^i} = sum a_i Phi_t^(o i)
    result = UPoly.zero(ring)
    power = UPoly.one(ring)  # Phi_t^(o 0) = Z
    for i, code in enumerate(a.coeffs):
        if i > 0:
            power = compose(phi_t, power)
        if code:
            result = result + _upoly_scale(power, Poly.constant(fq, code))
    return result


def exp_coeffs(m, phi=None):
    """Coefficients alpha_i of Z^(q^i) in m^{-1} Phi_m(Z), as elements of K; ``phi`` is Phi_m if known.

    For monic irreducible m of degree r these satisfy alpha_i in A for
    i < r and alpha_r = 1/m; this is exactly testable and tested.
    """
    phi = carlitz_phi(m) if phi is None else phi
    minv = RatFunc(Poly.one(m.fq), m)
    return [RatFunc.from_poly(c) * minv for c in phi.coeffs]


def torsion_exponential(m, alphas=None):
    """e(w) = m^{-1} Phi_m(w) as a dense coefficient list over K (deg q^r); ``alphas`` is exp_coeffs(m) if known."""
    fq = m.fq
    q = fq.q
    alphas = exp_coeffs(m) if alphas is None else alphas
    deg = q ** (len(alphas) - 1)
    dense = [RatFunc.zero(fq) for _ in range(deg + 1)]
    for i, alpha in enumerate(alphas):
        dense[q ** i] = alpha
    return dense


def goss_polynomials(m, imax, alphas=None):
    """G_1..G_imax for the m-torsion lattice, by the classical recursion; ``alphas`` is exp_coeffs(m) if known.

    G_1 = X, G_i = 0 for i <= 0, and for i >= 2
    G_i = X * (G_{i-1} + alpha_1 G_{i-q} + alpha_2 G_{i-q^2} + ...).
    """
    _require_monic_irreducible(m)
    if imax < 1:
        raise ValueError("imax must be >= 1")
    fq = m.fq
    q = fq.q
    ring = DictRing(RatFunc.zero(fq), RatFunc.one(fq))  # K
    alphas = exp_coeffs(m) if alphas is None else alphas
    x = UPoly.x(ring)
    gs = {1: x}
    for i in range(2, imax + 1):
        acc = gs.get(i - 1, UPoly.zero(ring))
        j = 1
        while q ** j < i:
            if j < len(alphas):
                prev = gs.get(i - q ** j)
                if prev is not None:
                    acc = acc + _upoly_scale(prev, alphas[j])
            j += 1
        gs[i] = x * acc
    return [gs[i] for i in range(1, imax + 1)]


def goss_polynomials_oracle(m, imax, alphas=None):
    """Independent route: G_i(X) = sum_j [w^{i-1}](e(w)^j) * X^{j+1}; ``alphas`` is exp_coeffs(m) if known.

    Only coefficient arithmetic on e(w) = m^{-1} Phi_m(w); no roots are
    ever enumerated.
    """
    _require_monic_irreducible(m)
    fq = m.fq
    ring = DictRing(RatFunc.zero(fq), RatFunc.one(fq))  # K
    e = UPoly(ring, torsion_exponential(m, alphas)).truncate(imax)
    # powers of e(w) truncated to degree imax - 1
    powers = [UPoly.one(ring)]
    for _ in range(1, imax):
        powers.append((powers[-1] * e).truncate(imax))
    return [
        UPoly(ring, [ring.zero] + [power.coeff(i - 1) for power in powers[:i]])
        for i in range(1, imax + 1)
    ]


def _upoly_scale(p, c):
    return UPoly(p.ring, [c * a for a in p.coeffs])


def _require_monic_irreducible(m):
    if not m.is_monic() or not poly_is_irreducible(m):
        raise ValueError(f"{m} is not monic irreducible over F_{m.fq.q}")


def verify_coeff_scaling(m, imax, precision, phi=None, gs=None):
    """Certificates for the torsion-scaling facts (1)-(3) above.

    ``phi`` is Phi_m and ``gs`` is goss_polynomials(m, imax), if known.
    Returns a report dict; ``status`` is True only if every item holds.
    """
    _require_monic_irreducible(m)
    fq = m.fq
    q = fq.q
    r = int(m.degree)
    if precision < q ** r + 2:
        raise ValueError(f"precision {precision} too small: need >= q^deg(m) + 2 = {q ** r + 2}")
    phi = carlitz_phi(m) if phi is None else phi
    gs = goss_polynomials(m, imax, exp_coeffs(m, phi)) if gs is None else gs

    # (1) G_1(mX) = mX, that is G_1 = X
    item1 = gs[0] == UPoly.x(gs[0].ring)

    # (2) G_i(mX) in m*A[X], no linear term, for 2 <= i <= imax: with
    # G_i = sum g_j X^j, g_0 = g_1 = 0 and every g_j m^(j-1) in A, that is
    # den(g_j) | m^(j-1)
    item2_witness = None
    for i in range(2, imax + 1):
        g = gs[i - 1]
        if g.coeff(0) or g.coeff(1):
            item2_witness = {"i": i, "reason": "nonzero constant or linear term"}
            break
        power = m  # m^(j-1)
        for j, c in enumerate(g.coeffs[2:], 2):
            if c and power % c.den:
                item2_witness = {"i": i, "coefficient": str(c * RatFunc.from_poly(m ** j))}
                break
            power = power * m
        if item2_witness is not None:
            break
    item2 = item2_witness is None

    # (3) u(mz) = u^{q^r} / (1 + c_{r-1} u^{q^r-q^{r-1}} + ... + m u^{q^r-1})
    # to precision over A: u^{q^r} times the inverse of the denominator mod
    # u^(precision - q^r), which exists over A when its constant term is a unit
    ring = DictRing(Poly.zero(fq), Poly.one(fq))  # A
    qr = q ** r
    den = [ring.one] + [ring.zero] * (qr - 1)
    for j in range(0, r):
        den[qr - q ** j] = phi.coeff(j)  # c_0 = m
    try:
        inverse = UPoly(ring, den).series_inverse(precision - qr)
        order = UPoly(ring, [ring.zero] * qr + inverse.coeffs).order()
    except ZeroDivisionError:
        order = None  # no expansion over A
    item3 = order is not None and order >= 2

    status = bool(item1 and item2 and item3)
    return {
        "lemma": "torsion-scaling",
        "params": {"q": q, "m": str(m), "imax": imax, "precision": precision},
        "status": status,
        "items": {
            "linear-goss-scaling": bool(item1),
            "higher-goss-scaling": bool(item2),
            "pullback-order": bool(item3),
        },
        "witness": item2_witness,
        "pullback_order": order,
    }


def _beta_zeta_str(c):
    """c in A[y], y = beta*zeta, written as its terms (a_k)*beta^k*zeta^k, k ascending."""
    powers = ["", "*beta*zeta"] + [f"*beta^{k}*zeta^{k}" for k in range(2, len(c.coeffs))]
    return " + ".join(f"({a}){powers[k]}" for k, a in enumerate(c.coeffs) if a) or "0"


def verify_uniformizer_pullback(fq, l, precision, constant=None):
    """Certificate for the one-level uniformizer pullback expansion.

    Expands t*u / (c + t^l * beta * zeta * u), c = ``constant`` (a Poly,
    1 by default), as a u-series over A[y], y = beta * zeta, and certifies:
    order exactly 1, leading coefficient t, and every coefficient in
    A[beta, zeta], that is, the expansion ran over A, which it does when c
    is a unit of A; otherwise there is no series and every item is false.
    Specializing beta = 0 must collapse the series to t*u exactly.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    if precision < 2:
        raise ValueError("precision must be >= 2")
    base = DictRing(Poly.zero(fq), Poly.one(fq))  # A
    ring = DictRing(UPoly.zero(base), UPoly.one(base))  # A[y]
    t = UPoly(base, [Poly.t(fq)])
    tu = UPoly(ring, [ring.zero, t])
    c = UPoly(base, [Poly.one(fq) if constant is None else constant])
    tl_y = UPoly(base, [base.zero, Poly.t_power(fq, l)])
    # to precision: t*u times the inverse of the denominator mod u^(precision - 1),
    # which exists over A exactly when c is a unit of A; without it the zero
    # series fails the other items
    try:
        series = tu * UPoly(ring, [c, tl_y]).series_inverse(precision - 1)
        in_ring = True
    except ZeroDivisionError:
        series, in_ring = UPoly.zero(ring), False
    lead_ok = series.order() == 1 and series.coeff(1) == t
    # beta = 0 sends y to 0: keep each coefficient's constant term in y
    beta_zero_ok = UPoly(ring, [x.truncate(1) for x in series.coeffs]) == tu
    status = bool(lead_ok and in_ring and beta_zero_ok)
    return {
        "lemma": "uniformizer-pullback",
        "params": {"q": fq.q, "l": l, "precision": precision},
        "status": status,
        "items": {
            "order-one-leading-t": bool(lead_ok),
            "coefficients-in-ring": bool(in_ring),
            "beta-zero-specialization": bool(beta_zero_ok),
        },
        "sample_terms": [_beta_zeta_str(series.coeff(i)) for i in range(min(4, precision))],
    }
