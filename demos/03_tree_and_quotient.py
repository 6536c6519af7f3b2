"""Walking the Bruhat-Tits tree: canonical vertices, reduction to the
standard apartment, orbit classification, and the quotient graph."""

from drinfeldforms import (
    Edge,
    Mat2,
    Poly,
    QuotientGraph,
    Vertex,
    apply_edge,
    apply_vertex,
    field,
    group_context,
    reduce_edge,
)

fq = field(2)
t, one = Poly.t(fq), Poly.one(fq)

print("standard apartment: v_i = class of the lattice O(pi^i,0) + O(0,1)")
g = Mat2.diag(t, one)  # diag(pi^{-1}, 1)
print(f"  diag(t, 1) v_0 = {apply_vertex(g, Vertex.standard(0), fq)}")
print(f"  diag(t, 1) e_0 = {apply_edge(g, Edge.standard(0), fq)}")

j = Mat2.j_matrix(fq)
je0 = apply_edge(j, Edge.standard(0), fq)
print(f"  J e_0 = {je0}  (the stable direction at level t)")

e = apply_edge(Mat2.translation(t * t + one) * j, Edge.standard(2), fq)
gamma, i, sign = reduce_edge(e, fq)
print(f"\na wandering edge reduces to sign {sign:+d}, apartment index {i}")
print(f"  witness gamma = {gamma}")

for n in (1, 2):
    ctx = group_context(2, n)
    graph = QuotientGraph(ctx, depth=3)
    stable = [o for o in graph.edge_orbits.values() if o.stable]
    print(
        f"\nGamma_1(t^{n}) quotient to depth 3: {len(graph.edge_orbits)} edge orbits, "
        f"{len(graph.vertex_orbits)} vertex orbits, {len(stable)} stable"
    )
    orbit, key, sign, _ = graph.classify(Edge.standard(1))
    kind = "stable" if orbit.stable else "unstable"
    print(f"  e_1 classifies with sign {sign:+d}, {kind}, orbit key {key}")

print("\nDOT export of the level-t quotient (stable edge in red):\n")
print(QuotientGraph(group_context(2, 1), depth=3).to_dot())
