import random

import pytest

from drinfeldforms.fq import FqElem, field
from drinfeldforms.linalg import (
    FqRing,
    KRing,
    Matrix,
    UPoly,
    charpoly,
    kernel_basis,
    newton_slope_zero_count,
    sparse_kernel,
)
from drinfeldforms.rings import Poly, RatFunc
from oracles import bareiss_kernel, bareiss_pivots, bareiss_rank


def cofactor_det(rows, ring):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    s = ring.zero
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * cofactor_det(minor, ring)
        s = s + term if j % 2 == 0 else s - term
    return s


def test_charpoly_identity():
    K = KRing(field(2))
    x = UPoly.x(K)
    assert charpoly(Matrix.identity(K, 2)) == (x - UPoly.one(K)) ** 2


def test_rank_zero_matrix():
    K = KRing(field(2))
    zero = Matrix.zeros(K, 3, 3)
    assert bareiss_rank(zero) == 0
    assert kernel_basis(zero) == Matrix.identity(K, 3).rows  # the unit basis


def test_kernel_example():
    fq = field(2)
    K = KRing(fq)
    t = RatFunc.from_poly(Poly.t(fq))
    m = Matrix(K, [[K.one, t], [t, t * t]])
    kb = kernel_basis(m)
    assert len(kb) == 1
    v = kb[0]
    assert all(x.is_zero() for x in m.apply(v))
    # proportional to (t, -1)
    assert v[0] * (-K.one) == v[1] * t


@pytest.mark.parametrize("q", [2, 3])
def test_charpoly_against_cofactor_oracle(q):
    fq = field(q)
    FR = FqRing(fq)
    rng = random.Random(q * 13)

    class UR:
        zero = UPoly.zero(FR)
        one = UPoly.one(FR)

    for n in (1, 2, 3, 4):
        for _ in range(5):
            rows = [[FqElem(fq, rng.randrange(q)) for _ in range(n)] for _ in range(n)]
            cp = charpoly(Matrix(FR, rows))
            xi_m = [
                [
                    UPoly(FR, [-rows[i][j], FR.one]) if i == j else UPoly(FR, [-rows[i][j]])
                    for j in range(n)
                ]
                for i in range(n)
            ]
            assert cp == cofactor_det(xi_m, UR)
            assert cp.is_monic() and cp.degree == n


def test_charpoly_over_k_with_poly_entries():
    fq = field(3)
    K = KRing(fq)
    t = RatFunc.from_poly(Poly.t(fq))
    m = Matrix(K, [[t, K.one], [K.zero, t * t]])
    cp = charpoly(m)
    x = UPoly.x(K)
    lin = lambda c: UPoly(K, [-c, K.one])
    assert cp == lin(t) * lin(t * t)


def test_kernel_rank_image_random_consistency():
    fq = field(3)
    K = KRing(fq)
    rng = random.Random(6)
    for _ in range(20):
        m = Matrix(
            K,
            [
                [
                    RatFunc.from_poly(Poly(fq, [rng.randrange(3) for _ in range(rng.randrange(3))]))
                    for _ in range(4)
                ]
                for _ in range(3)
            ],
        )
        r = bareiss_rank(m)
        kb = kernel_basis(m)
        assert r + len(kb) == 4
        for v in kb:
            assert all(x.is_zero() for x in m.apply(v))


def rand_k_matrix(fq, rng, nrows, ncols):
    """Random K entries with small numerators and denominators."""

    def entry():
        num = Poly(fq, [rng.randrange(fq.q) for _ in range(rng.randrange(3))])
        den = Poly(fq, [rng.randrange(fq.q) for _ in range(rng.randrange(2))] + [1])
        return RatFunc(num, den)

    return Matrix(KRing(fq), [[entry() for _ in range(ncols)] for _ in range(nrows)])


def test_newton_slope_zero_count_examples():
    fq = field(2)
    K = KRing(fq)
    t = RatFunc.from_poly(Poly.t(fq))
    x = UPoly.x(K)
    one = UPoly.one(K)
    f = x * x * (x - one) * (x - one)
    assert newton_slope_zero_count(f) == 2
    assert newton_slope_zero_count(x ** 3) == 0
    f2 = x * x - UPoly(K, [K.zero, t]) - UPoly(K, [t ** 3])
    assert newton_slope_zero_count(f2) == 0
    with pytest.raises(ValueError):
        newton_slope_zero_count(x - UPoly(K, [K.one / t]))
    with pytest.raises(ValueError):
        newton_slope_zero_count(UPoly(K, [K.one, K.one, t]))  # not monic


def test_newton_count_against_hull_oracle():
    # lower convex hull oracle on finite-valuation points
    fq = field(3)
    K = KRing(fq)
    t = RatFunc.from_poly(Poly.t(fq))
    rng = random.Random(8)

    def hull_zero_slopes(vals):
        pts = [(i, v) for i, v in enumerate(vals) if v is not None]
        # walk from the rightmost point (degree, 0) taking maximal slopes
        pts.sort()
        hull = [pts[-1]]
        rest = pts[:-1]
        while rest:
            best = None
            for p in rest:
                slope = (hull[-1][1] - p[1]) / (hull[-1][0] - p[0])
                if best is None or slope > best_slope or (slope == best_slope and p[0] < best[0]):
                    best, best_slope = p, slope
            hull.append(best)
            rest = [p for p in rest if p[0] < best[0]]
        zero = 0
        for (i1, v1), (i0, v0) in zip(hull, hull[1:]):
            if (v0 - v1) / (i0 - i1) == 0:
                zero += i1 - i0
        return zero

    for _ in range(40):
        deg = rng.randrange(1, 6)
        coeffs = []
        vals = []
        for i in range(deg):
            if rng.random() < 0.25:
                coeffs.append(K.zero)
                vals.append(None)
            else:
                v = rng.randrange(0, 4)
                c = t ** v
                coeffs.append(c)
                vals.append(v)
        coeffs.append(K.one)
        vals.append(0)
        f = UPoly(K, coeffs)
        assert newton_slope_zero_count(f) == hull_zero_slopes(vals)


def test_sparse_kernel_matches_dense():
    fq = field(2)
    FR = FqRing(fq)
    rng = random.Random(3)
    for _ in range(25):
        nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 6)
        dense_rows = [[FqElem(fq, rng.randrange(2)) for _ in range(ncols)] for _ in range(nrows)]
        m = Matrix(FR, dense_rows)
        sparse_rows = [
            {j: x for j, x in enumerate(row) if x} for row in dense_rows
        ]
        kb_sparse = sparse_kernel(sparse_rows, ncols, FR)
        kb_dense = bareiss_kernel(m)
        assert len(kb_sparse) == len(kb_dense)
        for v in kb_sparse:
            assert all(x.is_zero() for x in m.apply(v))
    fq3 = field(3)
    for _ in range(15):
        nrows, ncols = rng.randrange(1, 5), rng.randrange(1, 5)
        m = rand_k_matrix(fq3, rng, nrows, ncols)
        sparse_rows = [{j: x for j, x in enumerate(row) if x} for row in m.rows]
        order = list(range(ncols))
        rng.shuffle(order)
        kb_sparse = sparse_kernel(sparse_rows, ncols, m.ring, col_order=order)
        assert len(kb_sparse) == len(bareiss_kernel(m)) == ncols - bareiss_rank(m)
        for v in kb_sparse:
            assert all(x.is_zero() for x in m.apply(v))


def _kernel_case(ring, rng):
    """A random matrix up to 6x6, often of low rank, with some rows and
    columns zeroed."""
    nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 7)
    if rng.random() < 0.5:
        inner = rng.randrange(1, 4)
        left = Matrix(ring, [[_sparse_entry(ring, rng) for _ in range(inner)] for _ in range(nrows)])
        right = Matrix(ring, [[_sparse_entry(ring, rng) for _ in range(ncols)] for _ in range(inner)])
        rows = (left * right).rows
    else:
        rows = [[_sparse_entry(ring, rng) for _ in range(ncols)] for _ in range(nrows)]
    zero_rows = {i for i in range(nrows) if rng.random() < 0.2}
    zero_cols = {j for j in range(ncols) if rng.random() < 0.2}
    rows = [
        [ring.zero if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    return Matrix(ring, rows)


def _assert_kernel_of(m, kb):
    """kb is a basis of the right kernel of m, checked against the oracle."""
    ncols = m.ncols
    assert len(kb) == len(bareiss_kernel(m)) == ncols - bareiss_rank(m)
    for v in kb:
        assert len(v) == ncols
        assert all(not x for x in m.apply(v))
    if kb:
        assert bareiss_rank(Matrix(m.ring, kb)) == len(kb)


KERNEL_RINGS = [FqRing(field(q)) for q in (2, 3, 4, 9)] + [KRing(field(3))]


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=["F2", "F3", "F4", "F9", "K3"])
def test_single_elimination_kernels_match_the_bareiss_oracle(ring):
    rng = random.Random(ring.fq.q * 7 + isinstance(ring, KRing))
    seen_zero_row = seen_zero_col = seen_kernel = False
    for _ in range(60):
        m = _kernel_case(ring, rng)
        kb = kernel_basis(m)
        _assert_kernel_of(m, kb)
        # each vector is 1 at its own free column and 0 at the other free ones
        pivots = bareiss_pivots(m)
        free = [c for c in range(m.ncols) if c not in pivots]
        assert [[v[f] for f in free] for v in kb] == Matrix.identity(ring, len(free)).rows
        sparse_rows = [{j: x for j, x in enumerate(row) if x} for row in m.rows]
        order = list(range(m.ncols))
        rng.shuffle(order)
        _assert_kernel_of(m, sparse_kernel(sparse_rows, m.ncols, ring, col_order=order))
        _assert_kernel_of(m, sparse_kernel(sparse_rows, m.ncols, ring))
        seen_zero_row |= any(all(not x for x in row) for row in m.rows)
        seen_zero_col |= any(all(not x for x in col) for col in zip(*m.rows))
        seen_kernel |= bool(kb)
    assert seen_zero_row and seen_zero_col and seen_kernel


def dense_product(m, other):
    """Every pair of entries tested, summed in k order: the oracle for Matrix.__mul__."""
    cols = list(zip(*other.rows))
    return [
        [sum((a * b for a, b in zip(row, col) if a and b), m.ring.zero) for col in cols]
        for row in m.rows
    ]


def _sparse_entry(ring, rng):
    if rng.random() < 0.6:
        return ring.zero
    fq = ring.fq
    if isinstance(ring, FqRing):
        return FqElem(fq, rng.randrange(1, fq.q))
    return RatFunc(Poly(fq, [rng.randrange(2) for _ in range(3)]), Poly(fq, [1, rng.randrange(2)]))


def test_row_sparse_product_matches_the_dense_one():
    rng = random.Random(5)
    for ring in (FqRing(field(3)), FqRing(field(4)), KRing(field(2))):
        for _ in range(30):
            n, k, m = rng.randrange(1, 6), rng.randrange(1, 6), rng.randrange(1, 6)
            a = Matrix(ring, [[_sparse_entry(ring, rng) for _ in range(k)] for _ in range(n)])
            b = Matrix(ring, [[_sparse_entry(ring, rng) for _ in range(m)] for _ in range(k)])
            assert (a * b).rows == dense_product(a, b)


def test_shape_mismatch():
    K = KRing(field(2))
    with pytest.raises(ValueError):
        Matrix.identity(K, 2) * Matrix.identity(K, 3)
    with pytest.raises(ValueError):
        Matrix(K, [[K.one], [K.one, K.zero]])
