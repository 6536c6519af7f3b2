"""A tour of the exact coefficient tower: F_q, A = F_q[t], A_n = A/(t^n),
K = F_q(t), and valuations at the place at infinity (uniformizer pi = 1/t)."""

from drinfeldforms import Poly, RatFunc, field, newton_slope_zero_count
from drinfeldforms.linalg import DictRing, UPoly

fq = field(4)
print(f"F_4 = F_2[x]/(modulus), modulus coefficients {fq.modulus}")
a, b = 2, 3  # codes: x and x+1
print(f"codes {a} * {b} = {fq.mul(a, b)}  (x * (x+1) = x^2 + x = 1 here)")

fq = field(3)
t = Poly.t(fq)
one = Poly.one(fq)

p = t ** 3 + t.scale(2) + one
print(f"\nin F_3[t]:  p = {p}, degree {p.degree}, v_t(p) = {p.vt()}")
print(f"deg(0) sentinel: {Poly.zero(fq).degree}")

x = RatFunc(t ** 3, one + t)
print(f"\nv_t(t^3/(1+t)) = {x.vt()}")
# a class of A_n is its lift of degree < n, a Poly; products are truncated
u = one + t
print(f"the class of t+t^3 in A/(t^2): {(t + t ** 3).truncate(2)}")
print(f"v_t of the class of t+t^2 in A/(t^2), cap 2: {min((t + t * t).truncate(2).vt(), 2)}")
print(f"(1+t)^-1 mod t^3 = {u.inverse_mod(3)}, check: {(u * u.inverse_mod(3)).truncate(3)}")

print("\nvaluations at infinity, v_inf = deg(den) - deg(num):")
for rf in (RatFunc(one, t - one), RatFunc(t * t + one, t)):
    print(f"  v_inf({rf}) = {rf.den.degree - rf.num.degree}")

ring = DictRing(RatFunc.zero(fq), RatFunc.one(fq))  # K
xx = UPoly.x(ring)
f = xx * xx - UPoly(ring, [ring.zero, RatFunc.from_poly(t)]) - UPoly(ring, [RatFunc.from_poly(t ** 3)])
print(f"\nNewton slope-zero count of X^2 - tX - t^3: {newton_slope_zero_count(f)}")
print("(both roots have positive t-adic valuation: slopes 1 and 2)")
