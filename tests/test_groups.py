import random

import pytest

from drinfeldforms.fq import field
from drinfeldforms.groups import (
    distinct_coset_check,
    group_context,
    in_gamma1_coset,
    is_gamma0p,
    is_gamma1,
    lift_sl2,
    verify_diamond_congruence,
    verify_xi_congruences,
)
from drinfeldforms.mat2 import Mat2
from drinfeldforms.rings import Poly, Residue
from oracles import inverse_k


def test_membership_examples():
    fq = field(2)
    t, one, zero = Poly.t(fq), Poly.one(fq), Poly.zero(fq)
    ident = Mat2.identity_poly(fq)
    for n in (1, 2, 3):
        assert is_gamma1(ident, n)
    assert is_gamma1(Mat2(one, one, zero, one), 2)
    low = Mat2(one, zero, t, one)
    assert is_gamma1(low, 1) and not is_gamma1(low, 2)
    assert is_gamma0p(low, 1) and not is_gamma0p(low, 2)
    # diag(1+t, ...) is Gamma_0^p but not Gamma_1 at n = 2
    g = lift_sl2(Mat2(Residue(2, one + t), Residue.zero(fq, 2), Residue.zero(fq, 2), Residue(2, one + t).inverse()))
    assert is_gamma0p(g, 2) and not is_gamma1(g, 2)
    with pytest.raises(ValueError):
        is_gamma1(Mat2(t, zero, zero, one), 1)  # det != 1


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (3, 2)])
def test_lift_sl2_randomized(q, n):
    fq = field(q)
    rng = random.Random(q * n)
    tn = Poly.t_power(fq, n)
    for _ in range(25):
        # random SL_2(A_n) element built from unipotents and units
        m = Mat2.identity_poly(fq)
        for _ in range(4):
            b = Poly(fq, [rng.randrange(q) for _ in range(rng.randrange(1, n + 1))])
            if rng.random() < 0.5:
                m = m * Mat2.translation(b)
            else:
                m = m * Mat2(Poly.one(fq), Poly.zero(fq), b, Poly.one(fq))
        mbar = m.mod_tn(n)
        lifted = lift_sl2(mbar)
        assert lifted.det().is_one()
        for got, want in zip(lifted.entries(), m.entries()):
            assert ((got - want) % tn).is_zero()


def test_lift_sl2_det_guard():
    fq = field(2)
    t, one, zero = Poly.t(fq), Poly.one(fq), Poly.zero(fq)
    bad = Mat2(Residue(2, one + t), Residue(2, zero), Residue(2, zero), Residue(2, one))
    with pytest.raises(ValueError):
        lift_sl2(bad)


def test_h_matrix_examples():
    ctx = group_context(2, 2)
    fq = ctx.fq
    one, zero, t = ctx.one, Poly.zero(fq), ctx.t
    # (0, 0): reduction mod t^n is the identity
    h00 = ctx.h_matrix(zero, zero)
    assert ((h00.a - one) % Poly.t_power(fq, 2)).is_zero()
    # (1, 0): congruent to (1 0; t 1) mod t^2
    h10 = ctx.h_matrix(one, zero)
    hb = ctx.h_bar(one, zero)
    tn = Poly.t_power(fq, 2)
    for got, want in zip(h10.entries(), (e.lift() for e in hb.entries())):
        assert ((got - want) % tn).is_zero()
    # every h lies in Gamma_1(t)
    for c, d in ctx.label_pairs():
        assert is_gamma1(ctx.h_matrix(c, d), 1)


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2)])
def test_h_matrices_in_distinct_cosets(q, n):
    assert distinct_coset_check(q, n)


def test_xi_eta_examples():
    ctx = group_context(2, 2)
    fq = ctx.fq
    t, one, zero = ctx.t, ctx.one, Poly.zero(fq)
    xi = ctx.xi_beta(t, zero)
    assert xi.entries() == (one, zero, zero, t)
    with pytest.raises(ValueError):
        ctx.xi_beta(t, t)  # deg beta must be < deg m
    eta = ctx.eta_diamond(one)
    assert eta == Mat2.identity_poly(fq)
    xd = ctx.xi_diamond(t + one)
    assert xd.det() == t + one
    # eta has the required congruence column mod t^n
    eta2 = ctx.eta_diamond(one + t)
    tn = Poly.t_power(fq, 2)
    assert (eta2.c % tn).is_zero()
    assert ((eta2.d - (one + t)) % tn).is_zero()
    with pytest.raises(ValueError):
        ctx.eta_diamond(t)


def test_cusp_counts_and_widths():
    c1 = group_context(2, 1)
    cusps1 = c1.cusps()
    assert len(cusps1) == 2
    assert {c.kind for c in cusps1} == {"infinity", "zero"}
    c22 = group_context(2, 2)
    assert c22.cusp_count() == 5
    # widths: infinity-type n-1-bar_vt(c), zero-type n
    for cusp in c22.cusps():
        if cusp.kind == "zero":
            assert cusp.width_exponent == 2
        else:
            c = cusp.label[0]
            m = Residue(1, c).bar_vt()
            assert cusp.width_exponent == 1 - m


def test_genus_values():
    assert group_context(2, 1).genus() == 0
    assert group_context(2, 2).genus() == 0
    assert group_context(2, 3).genus() == 5
    assert group_context(3, 2).genus() == 2


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
def test_euler_identity(q, n):
    ctx = group_context(q, n)
    assert ctx.genus() - 1 + ctx.cusp_count() == q ** (2 * (n - 1))


def test_dim_sk_examples():
    assert group_context(2, 1).dim_sk(2) == 1
    assert group_context(2, 2).dim_sk(2) == 4
    assert group_context(2, 2).dim_sk(3) == 8
    assert group_context(3, 1).dim_sk(5) == 4
    with pytest.raises(ValueError):
        group_context(2, 1).dim_sk(1)


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_xi_congruences(q, n):
    rep = verify_xi_congruences(q, n)
    assert rep["status"], rep["witness"]


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_diamond_congruence(q, n):
    rep = verify_diamond_congruence(q, n)
    assert rep["status"], rep["witness"]


def _k_to_poly(mk):
    """A Mat2 over K as one over A, or None if an entry is not integral."""
    entries = []
    for x in mk.entries():
        if not x.is_zero() and not x.is_poly():
            return None
        entries.append(x.num if x.den.is_one() else Poly.zero(x.fq))
    return Mat2(*entries)


def in_gamma1_coset_over_k(lhs, rhs, n):
    """The coset test through K = F_q(t), kept as the oracle for the one over A."""
    gamma = _k_to_poly(lhs.to_k() * inverse_k(rhs.to_k()))
    return gamma is not None and gamma.det().is_one() and is_gamma1(gamma, n)


def _rand_sl2(fq, rng, steps=4):
    m = Mat2.identity_poly(fq)
    for _ in range(steps):
        b = Poly(fq, [rng.randrange(fq.q) for _ in range(rng.randrange(1, 3))])
        m = m * (Mat2.translation(b) if rng.random() < 0.5 else Mat2.j_matrix(fq))
    return m


def _rand_gamma1(fq, n, rng):
    """A word in (1 b; 0 1) and (1 0; t^n c 1), so in Gamma_1(t^n)."""
    one, zero, tn = Poly.one(fq), Poly.zero(fq), Poly.t_power(fq, n)
    m = Mat2.identity_poly(fq)
    for _ in range(3):
        b = Poly(fq, [rng.randrange(fq.q) for _ in range(rng.randrange(1, 3))])
        m = m * Mat2.translation(b) * Mat2(one, zero, tn * b, one)
    return m


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (3, 2), (4, 2), (2, 3)])
def test_coset_test_over_a_matches_k_oracle(q, n):
    fq = field(q)
    rng = random.Random(q * 10 + n)
    t, one = Poly.t(fq), Poly.one(fq)
    # right factors of det 1, t and t^2, as in the xi congruences
    dets = [Mat2.identity_poly(fq), Mat2.diag(one, t), Mat2.diag(t, one), Mat2.diag(t, t)]
    seen = set()
    for trial in range(90):
        rhs = _rand_sl2(fq, rng) * dets[rng.randrange(len(dets))]
        kind = trial % 3
        if kind == 0:
            lhs = _rand_gamma1(fq, n, rng) * rhs
        elif kind == 1:
            lhs = _rand_sl2(fq, rng) * rhs
        else:
            lhs = _rand_sl2(fq, rng) * dets[rng.randrange(len(dets))] * _rand_sl2(fq, rng)
        got = in_gamma1_coset(lhs, rhs, n)
        assert got == in_gamma1_coset_over_k(lhs, rhs, n)
        integral = _k_to_poly(lhs.to_k() * inverse_k(rhs.to_k())) is not None
        seen.add((got, integral))
    # members, integral non-members and non-integral quotients all occur
    assert seen == {(True, True), (False, True), (False, False)}


def test_coset_test_rejects_each_failure():
    fq = field(3)
    t, one, zero = Poly.t(fq), Poly.one(fq), Poly.zero(fq)
    rhs = _rand_sl2(fq, random.Random(5)) * Mat2.diag(one, t)
    # quotient (1 1/t; 0 1): not integral, though its entrywise
    # polynomial part is the identity
    assert not in_gamma1_coset(Mat2(one, one, zero, t), Mat2.diag(one, t), 2)
    # integral quotients of det t and det 2
    assert not in_gamma1_coset(Mat2.diag(t, one) * rhs, rhs, 1)
    assert not in_gamma1_coset(Mat2.diag(Poly.constant(fq, 2), one) * rhs, rhs, 1)
    # (1 0; t 1) has det 1 and lies in Gamma_1(t) but not in Gamma_1(t^2)
    low = Mat2(one, zero, t, one)
    assert in_gamma1_coset(low * rhs, rhs, 1)
    assert not in_gamma1_coset(low * rhs, rhs, 2)
    assert in_gamma1_coset(Mat2(one, zero, t * t, one) * rhs, rhs, 2)


def test_theta_size():
    for q, n in ((2, 1), (2, 2), (2, 3), (3, 2)):
        ctx = group_context(q, n)
        assert len(ctx.theta) == q ** (n - 1)
        assert all(alpha.is_unit() for alpha in ctx.theta)
