"""The headline computation: Hecke triviality on the ordinary part.

For level Gamma_1(t^n) the weight-k cuspform space has dimension
(k-1) q^(2(n-1)); its ordinary part (slope-zero part of U_t) has dimension
q^(n-1), U_t and every T_m act on it as the identity, and the weight-2
space is a free module of rank q^(n-1) over the group ring of 1 + tA_n
through the diamond operators.  This script verifies all of that exactly
for q = 2, n = 2.
"""

from drinfeldforms import (
    CocycleSpace,
    HeckeEngine,
    Poly,
    field,
    group_context,
    nilpotency_diagnostics,
    ordinary_certificate,
    verify_freeness,
)

q, n, k = 2, 2, 2
ctx = group_context(q, n)
fq = ctx.fq
space = CocycleSpace(ctx, k)
print(f"dim C^har_{k}(Gamma_1(t^{n})) = {space.dim}  (expected {ctx.dim_sk(k)})")
print(f"cusps h = {ctx.cusp_count()}, genus g = {ctx.genus()}, ordinary rank r = {ctx.ordinary_rank()}")

engine = HeckeEngine(space)
ut = engine.u_t()
m = Poly.t(fq) + Poly.one(fq)
tm = engine.t_m(m)
cert = ordinary_certificate(ut, [tm])
print("\nU_t in the delta basis:")
for row in ut.text_rows(str):
    print("  [" + ", ".join(row) + "]")
print(f"charpoly(U_t) = {cert.chi}  (= X^2 (X-1)^2 in characteristic 2)")

dia = engine.diamond(ctx.one + ctx.t)
print(f"\n[<1+t>, U_t] = 0: {dia.commutes(ut)}")
print(f"[<1+t>, T_(t+1)] = 0: {dia.commutes(tm)}")

print("\nordinary certificate:")
for name, ok in cert.flags.items():
    print(f"  {name}: {ok}")
for name, ok in cert.hecke_flags.items():
    print(f"  identity on ordinary part, {name}: {ok}")

print("\nfreeness of the diamond action on the delta basis:")
rec = verify_freeness(ctx)
print(f"  {rec['orbits']} orbits of sizes {rec['orbit_sizes']} (rank {rec['rank']}): {rec['status']}")

diag = nilpotency_diagnostics(ut)
print(
    f"\nnonordinary block: dimension {diag['nilpotent_dimension']}, "
    f"nilpotency index {diag['nilpotency_index']}"
)
print(diag["note"])
