"""Exact models of Drinfeld cuspform spaces of level Gamma_1(t^n).

The package realizes the weight-k cuspform space as Gamma_1(t^n)-
equivariant harmonic cocycles on the Bruhat-Tits tree of SL_2(F_q((1/t))),
entirely in exact arithmetic over F_q[t] and F_q(t).  It computes the U_t,
T_m and diamond operator matrices, and certifies that the ordinary subspace has
dimension q^(n-1) with every Hecke operator acting on it as the identity,
together with the supporting torsion-scaling, coset-congruence, counting
and freeness facts.
"""

from .cocycles import CocycleSpace, VkAction, depth_default
from .fq import Fq, FqElem, field
from .groups import (
    CuspRecord,
    GroupContext,
    group_context,
    is_gamma1,
    lift_sl2,
    verify_diamond_congruence,
    verify_xi_congruences,
)
from .hecke import (
    HeckeEngine,
    OperatorMatrix,
    OrdinaryCertificate,
    diamond_label_map,
    diamond_permutation_matrix,
    nilpotency_diagnostics,
    ordinary_certificate,
    verify_freeness,
)
from .carlitz import (
    carlitz_phi,
    exp_coeffs,
    goss_polynomials,
    goss_polynomials_oracle,
    verify_coeff_scaling,
    verify_uniformizer_pullback,
)
from .linalg import (
    FqRing,
    Matrix,
    UPoly,
    charpoly,
    newton_slope_zero_count,
)
from .mat2 import Mat2
from .rings import (
    Poly,
    RatFunc,
    poly_gcd,
    poly_is_irreducible,
)
from .tree import (
    Edge,
    QuotientGraph,
    Vertex,
    apply_edge,
    apply_vertex,
    reduce_edge,
)

__version__ = "0.1.0"
