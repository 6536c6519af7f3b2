"""Truncated power series in one variable u over pluggable coefficient rings.

Used for the u-expansion identities behind the Hecke-compatibility checks:
series over K for the torsion-scaling expansion, and series over the
polynomial ring A[beta, zeta] (beta, zeta formal symbols) for the
uniformizer-pullback expansion.  All arithmetic is exact up to the stated
precision.
"""

from .rings import Poly


class USeries:
    """sum coeffs[i] * u^i, exact for i < prec."""

    __slots__ = ("ring", "coeffs", "prec")

    def __init__(self, ring, coeffs, prec):
        coeffs = list(coeffs)[:prec]
        while len(coeffs) < prec:
            coeffs.append(ring.zero)
        self.ring = ring
        self.coeffs = coeffs
        self.prec = prec

    @staticmethod
    def zero(ring, prec):
        return USeries(ring, [], prec)

    @staticmethod
    def one(ring, prec):
        return USeries(ring, [ring.one], prec)

    @staticmethod
    def u_power(ring, k, prec):
        c = [ring.zero] * prec
        if k < prec:
            c[k] = ring.one
        return USeries(ring, c, prec)

    def order(self):
        for i, c in enumerate(self.coeffs):
            if not _zero(c):
                return i
        return None  # zero to precision

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < self.prec else self.ring.zero

    def __add__(self, other):
        prec = min(self.prec, other.prec)
        return USeries(self.ring, [self.coeffs[i] + other.coeffs[i] for i in range(prec)], prec)

    def __sub__(self, other):
        prec = min(self.prec, other.prec)
        return USeries(self.ring, [self.coeffs[i] - other.coeffs[i] for i in range(prec)], prec)

    def __neg__(self):
        return USeries(self.ring, [-c for c in self.coeffs], self.prec)

    def __mul__(self, other):
        prec = min(self.prec, other.prec)
        out = [self.ring.zero] * prec
        for i, a in enumerate(self.coeffs[:prec]):
            if _zero(a):
                continue
            for j in range(prec - i):
                b = other.coeffs[j]
                if not _zero(b):
                    out[i + j] = out[i + j] + a * b
        return USeries(self.ring, out, prec)

    def inverse(self):
        """Inverse of a series with unit constant term."""
        c0 = self.coeffs[0]
        if _zero(c0):
            raise ZeroDivisionError("series has zero constant term")
        inv0 = _unit_inverse(self.ring, c0)
        out = [inv0]
        for k in range(1, self.prec):
            s = self.ring.zero
            for j in range(1, k + 1):
                a = self.coeff(j)
                if not _zero(a) and not _zero(out[k - j]):
                    s = s + a * out[k - j]
            out.append(-(inv0 * s))
        return USeries(self.ring, out, self.prec)

    def shift(self, k):
        """Multiply by u^k."""
        return USeries(self.ring, [self.ring.zero] * k + self.coeffs, self.prec)

    def __eq__(self, other):
        prec = min(self.prec, other.prec)
        return self.coeffs[:prec] == other.coeffs[:prec]

    def __repr__(self):
        terms = [f"({c})*u^{i}" for i, c in enumerate(self.coeffs) if not _zero(c)]
        return " + ".join(terms) if terms else "O(u^%d)" % self.prec


def _zero(c):
    return not c


def _unit_inverse(ring, c):
    inv = getattr(c, "inverse", None)
    if inv is not None:
        return inv()
    return ring.one / c


class SymPoly:
    """Element of A[beta, zeta]: dict {(beta_exp, zeta_exp): Poly}."""

    __slots__ = ("fq", "terms")

    def __init__(self, fq, terms=None):
        self.fq = fq
        self.terms = {}
        if terms:
            for key, p in terms.items():
                if not p.is_zero():
                    self.terms[key] = p

    @staticmethod
    def from_poly(p):
        return SymPoly(p.fq, {(0, 0): p})

    @staticmethod
    def symbol(fq, name):
        key = (1, 0) if name == "beta" else (0, 1)
        return SymPoly(fq, {key: Poly.one(fq)})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for key, p in other.terms.items():
            q = out.get(key)
            s = p if q is None else p + q
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        return SymPoly(self.fq, out)

    def __neg__(self):
        return SymPoly(self.fq, {k: -p for k, p in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for (i1, j1), p in self.terms.items():
            for (i2, j2), q in other.terms.items():
                key = (i1 + i2, j1 + j2)
                prod = p * q
                cur = out.get(key)
                s = prod if cur is None else cur + prod
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
        return SymPoly(self.fq, out)

    def inverse(self):
        """Inverse of a unit constant (a single degree-0 monomial in A^x)."""
        if list(self.terms.keys()) != [(0, 0)]:
            raise ZeroDivisionError("only scalar constants are invertible in A[beta, zeta]")
        p = self.terms[(0, 0)]
        if p.degree != 0:
            raise ZeroDivisionError(f"{p} is not a unit of A")
        return SymPoly(self.fq, {(0, 0): Poly.constant(self.fq, self.fq.inv(p.constant_coeff()))})

    def substitute_beta_zero(self):
        """Set beta = 0 (drop every monomial with a positive beta exponent)."""
        return SymPoly(self.fq, {k: p for k, p in self.terms.items() if k[0] == 0})

    def coefficients_in_A(self):
        """True: every monomial coefficient is an honest element of A."""
        return all(isinstance(p, Poly) for p in self.terms.values())

    def __eq__(self, other):
        return isinstance(other, SymPoly) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, j), p in sorted(self.terms.items()):
            sym = ""
            if i:
                sym += f"*beta^{i}" if i > 1 else "*beta"
            if j:
                sym += f"*zeta^{j}" if j > 1 else "*zeta"
            parts.append(f"({p}){sym}")
        return " + ".join(parts)


class SymRing:
    """Adapter for USeries coefficients in A[beta, zeta]."""

    def __init__(self, fq):
        self.fq = fq
        self.zero = SymPoly(fq)
        self.one = SymPoly.from_poly(Poly.one(fq))
