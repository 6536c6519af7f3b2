"""Carlitz module polynomials and Goss polynomials, with the exact
certificates used by the Hecke analysis at the cusps.

The recursion route and the generating-function oracle are computed
independently and compared, then the scaling certificates are printed.
"""

from drinfeldforms import (
    Poly,
    carlitz_phi,
    exp_coeffs,
    field,
    goss_polynomials,
    goss_polynomials_oracle,
    verify_coeff_scaling,
    verify_uniformizer_pullback,
)

fq = field(2)
t, one = Poly.t(fq), Poly.one(fq)

print("Carlitz action, coefficients on Z^[q^i]:")
for a in (t, t * t, t * t + t + one):
    terms = [f"({c})*Z^q^{i}" for i, c in enumerate(carlitz_phi(a).coeffs) if c]
    print(f"  Phi_{a} -> {' + '.join(terms)}")

m = t * t + t + one
print(f"\nm = {m}: exponential coefficients alpha_i of m^-1 Phi_m:")
for i, alpha in enumerate(exp_coeffs(m)):
    print(f"  alpha_{i} = {alpha}")

print("\nGoss polynomials for the t-torsion (q = 2), recursion vs oracle:")
for i, (g, go) in enumerate(zip(goss_polynomials(t, 6), goss_polynomials_oracle(t, 6)), start=1):
    marker = "ok" if g == go else "MISMATCH"
    print(f"  G_{i} = {g}   [{marker}]")

print("\nScaling certificate for m = t+1, i <= 4, precision 64:")
rep = verify_coeff_scaling(t + one, 4, 64)
for name, ok in rep["items"].items():
    print(f"  {name}: {ok}")

print("\nUniformizer pullback at one level (l = 1), beta and zeta formal:")
rep = verify_uniformizer_pullback(fq, 1, 5)
print(f"  order-1 with leading t, coefficients in A[beta, zeta]: {rep['status']}")
print(f"  first terms: {rep['sample_terms']}")
