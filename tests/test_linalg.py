import random

import pytest

from drinfeldforms.fq import FqElem, field
from drinfeldforms.linalg import (
    DictRing,
    FqRing,
    Matrix,
    UPoly,
    charpoly,
    eliminate,
    newton_slope_zero_count,
    sparse_kernel,
)
from drinfeldforms.errors import StabilityError
from drinfeldforms.rings import Poly, RatFunc
from oracles import bareiss_kernel, bareiss_pivots, bareiss_rank, k_ring


def _dense(vecs, ncols, ring):
    """sparse_kernel's dict vectors written out as dense lists."""
    return [[v.get(c, ring.zero) for c in range(ncols)] for v in vecs]


def dense_kernel(m):
    """sparse_kernel on the rows of a dense Matrix, written out as dense lists."""
    rows = [{c: x for c, x in enumerate(row) if x} for row in m.rows]
    return _dense(sparse_kernel(rows, m.ncols, m.ring), m.ncols, m.ring)


def reduced_bareiss_kernel(m):
    """The Bareiss kernel rescaled to be 1 at its own free column: with the
    free columns 0 at the other free ones, this basis is unique."""
    free = [c for c in range(m.ncols) if c not in bareiss_pivots(m)]
    return [[x / v[f] for x in v] for v, f in zip(bareiss_kernel(m), free)]


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
    K = k_ring(field(2))
    x = UPoly.x(K)
    assert charpoly(Matrix.identity(K, 2)) == (x - UPoly.one(K)) ** 2


def test_rank_zero_matrix():
    K = k_ring(field(2))
    zero = Matrix.zeros(K, 3, 3)
    assert bareiss_rank(zero) == 0
    assert dense_kernel(zero) == Matrix.identity(K, 3).rows  # the unit basis


def test_kernel_example():
    fq = field(2)
    K = k_ring(fq)
    t = RatFunc.from_poly(Poly.t(fq))
    m = Matrix(K, [[K.one, t], [t, t * t]])
    kb = dense_kernel(m)
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
    K = k_ring(fq)
    t = RatFunc.from_poly(Poly.t(fq))
    m = Matrix(K, [[t, K.one], [K.zero, t * t]])
    cp = charpoly(m)
    x = UPoly.x(K)
    lin = lambda c: UPoly(K, [-c, K.one])
    assert cp == lin(t) * lin(t * t)


def test_kernel_rank_image_random_consistency():
    fq = field(3)
    K = k_ring(fq)
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
        kb = dense_kernel(m)
        assert r + len(kb) == 4
        for v in kb:
            assert all(x.is_zero() for x in m.apply(v))


def rand_k_matrix(fq, rng, nrows, ncols):
    """Random K entries with small numerators and denominators."""

    def entry():
        num = Poly(fq, [rng.randrange(fq.q) for _ in range(rng.randrange(3))])
        den = Poly(fq, [rng.randrange(fq.q) for _ in range(rng.randrange(2))] + [1])
        return RatFunc(num, den)

    return Matrix(k_ring(fq), [[entry() for _ in range(ncols)] for _ in range(nrows)])


def test_newton_slope_zero_count_examples():
    fq = field(2)
    K = k_ring(fq)
    t = RatFunc.from_poly(Poly.t(fq))
    x = UPoly.x(K)
    one = UPoly.one(K)
    f = x * x * (x - one) * (x - one)
    assert newton_slope_zero_count(f) == 2
    assert newton_slope_zero_count(x ** 3) == 0
    f2 = x * x - UPoly(K, [K.zero, t]) - UPoly(K, [t * t * t])
    assert newton_slope_zero_count(f2) == 0
    with pytest.raises(ValueError):
        newton_slope_zero_count(x - UPoly(K, [K.one / t]))
    with pytest.raises(ValueError):
        newton_slope_zero_count(UPoly(K, [K.one, K.one, t]))  # not monic


def test_newton_count_against_hull_oracle():
    # lower convex hull oracle on finite-valuation points
    fq = field(3)
    K = k_ring(fq)
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
                c = RatFunc.from_poly(Poly.t_power(fq, v))
                coeffs.append(c)
                vals.append(v)
        coeffs.append(K.one)
        vals.append(0)
        f = UPoly(K, coeffs)
        assert newton_slope_zero_count(f) == hull_zero_slopes(vals)


def test_sparse_kernel_reads_its_vectors_off_pivot_rows_scaled_to_one():
    # rows whose leads (their first columns visited) are distinct and not 1,
    # so no row is eliminated on the way in: each vector is read off the
    # pivot rows as scaled, 1 at its free column, then the pivots in visit order
    f3 = field(3)
    F = FqRing(f3)
    one, two = FqElem(f3, 1), FqElem(f3, 2)
    rows = [{0: two, 2: one}, {1: two, 2: two}]
    assert [list(v.items()) for v in sparse_kernel(rows, 3, F)] == [[(2, one), (0, one), (1, two)]]
    assert [list(v.items()) for v in sparse_kernel(rows, 3, F, col_order=[1, 0, 2])] == [[(2, one), (1, two), (0, one)]]
    fq = field(2)
    K = k_ring(fq)
    t = RatFunc.from_poly(Poly.t(fq))
    assert sparse_kernel([{0: t, 1: K.one}], 2, K) == [{1: K.one, 0: -(K.one / t)}]
    assert sparse_kernel([{0: t, 1: K.one}], 2, K, col_order=[1, 0]) == [{0: K.one, 1: -t}]
    # the same rows over A: column 0 leads with t, which has no inverse in
    # A, so no kernel vector is formed; the order that leads with 1 solves
    A = DictRing(Poly.zero(fq), Poly.one(fq))
    with pytest.raises(StabilityError, match="pivot at column 0 is t, not a unit"):
        sparse_kernel([{0: Poly.t(fq), 1: A.one}], 2, A)
    assert sparse_kernel([{0: Poly.t(fq), 1: A.one}], 2, A, col_order=[1, 0]) == [{0: A.one, 1: -Poly.t(fq)}]


def test_eliminate_raises_on_an_echelon_row_not_leading_with_1():
    # a row leading with 2 leaves the lead of w - c row at c (1 - 2) != 0,
    # which eliminate would clear again and again; it raises instead
    f3 = field(3)
    F = FqRing(f3)
    one, two = FqElem(f3, 1), FqElem(f3, 2)
    with pytest.raises(AssertionError, match="at coordinate 1 does not lead with 1"):
        eliminate(F, {1: F.vector([one, two])}, F.vector([F.zero, one]))
    K = k_ring(f3)
    t = RatFunc.from_poly(Poly.t(f3))
    with pytest.raises(AssertionError, match="at coordinate 1 does not lead with 1"):
        eliminate(K, {1: {0: t, 1: K.one + K.one}}, {0: K.one, 1: t})


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
        kb_sparse = _dense(sparse_kernel(sparse_rows, ncols, FR), ncols, FR)
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
        kb_sparse = _dense(sparse_kernel(sparse_rows, ncols, m.ring, col_order=order), ncols, m.ring)
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


KERNEL_RINGS = [FqRing(field(q)) for q in (2, 3, 4, 9)] + [k_ring(field(3))]


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=["F2", "F3", "F4", "F9", "K3"])
def test_single_elimination_kernels_match_the_bareiss_oracle(ring):
    rng = random.Random(ring.one.fq.q * 7 + isinstance(ring, DictRing))
    seen_zero_row = seen_zero_col = seen_kernel = False
    for _ in range(60):
        m = _kernel_case(ring, rng)
        kb = dense_kernel(m)
        _assert_kernel_of(m, kb)
        # each vector is 1 at its own free column and 0 at the other free ones
        pivots = bareiss_pivots(m)
        free = [c for c in range(m.ncols) if c not in pivots]
        assert [[v[f] for f in free] for v in kb] == Matrix.identity(ring, len(free)).rows
        sparse_rows = [{j: x for j, x in enumerate(row) if x} for row in m.rows]
        order = list(range(m.ncols))
        rng.shuffle(order)
        kb_ordered = sparse_kernel(sparse_rows, m.ncols, ring, col_order=order)
        _assert_kernel_of(m, _dense(kb_ordered, m.ncols, ring))
        _assert_kernel_of(m, _dense(sparse_kernel(sparse_rows, m.ncols, ring), m.ncols, ring))
        seen_zero_row |= any(all(not x for x in row) for row in m.rows)
        seen_zero_col |= any(all(not x for x in col) for col in zip(*m.rows))
        seen_kernel |= bool(kb)
    assert seen_zero_row and seen_zero_col and seen_kernel


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=["F2", "F3", "F4", "F9", "K3"])
def test_sparse_kernel_vectors_hold_no_zero_and_densify_to_kernel_basis(ring):
    rng = random.Random(ring.one.fq.q * 11 + isinstance(ring, DictRing))
    seen_fill = False
    for _ in range(60):
        m = _kernel_case(ring, rng)
        sparse_rows = [{j: x for j, x in enumerate(row) if x} for row in m.rows]
        kb = sparse_kernel(sparse_rows, m.ncols, ring)
        assert all(x for v in kb for x in v.values())
        assert _dense(kb, m.ncols, ring) == reduced_bareiss_kernel(m)
        seen_fill |= any(len(v) > 1 for v in kb)
    assert seen_fill


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
    fq = ring.one.fq
    if isinstance(ring, FqRing):
        return FqElem(fq, rng.randrange(1, fq.q))
    return RatFunc(Poly(fq, [rng.randrange(2) for _ in range(3)]), Poly(fq, [1, rng.randrange(2)]))


def test_row_sparse_product_matches_the_dense_one():
    rng = random.Random(5)
    for ring in (FqRing(field(3)), FqRing(field(4)), k_ring(field(2))):
        for _ in range(30):
            n, k, m = rng.randrange(1, 6), rng.randrange(1, 6), rng.randrange(1, 6)
            a = Matrix(ring, [[_sparse_entry(ring, rng) for _ in range(k)] for _ in range(n)])
            b = Matrix(ring, [[_sparse_entry(ring, rng) for _ in range(m)] for _ in range(k)])
            assert (a * b).rows == dense_product(a, b)


def test_apply_matches_the_sum_from_zero():
    # each row's sum starts at its first nonzero term, not at 0; the
    # values are those of summing every term onto the ring's zero
    rng = random.Random(9)
    for ring in (FqRing(field(3)), FqRing(field(4)), k_ring(field(2)), k_ring(field(3))):
        seen_zero_row = False
        for _ in range(30):
            n, k = rng.randrange(1, 6), rng.randrange(1, 6)
            m = Matrix(ring, [[_sparse_entry(ring, rng) for _ in range(k)] for _ in range(n)])
            vec = [_sparse_entry(ring, rng) for _ in range(k)]
            want = [sum((a * x for a, x in zip(row, vec)), ring.zero) for row in m.rows]
            assert m.apply(vec) == want
            seen_zero_row |= any(not x for x in want)
        assert seen_zero_row


@pytest.mark.parametrize(
    "ring",
    [FqRing(field(2)), FqRing(field(3)), FqRing(field(4)), k_ring(field(2)), k_ring(field(3))],
    ids=["F2", "F3", "F4", "K2", "K3"],
)
def test_vector_adapters_match_dense_lists(ring):
    # vector, terms, from_terms, lead, axpy and transpose against the same
    # operations on lists: no zero entry is ever kept, the lead is the
    # highest nonzero coordinate, and axpy leaves its inputs as they were
    rng = random.Random(31)

    def dense(v, d):
        out = [ring.zero] * d
        for i, x in ring.terms(v):
            assert x and not out[i]
            out[i] = x
        return out

    assert not ring.vector(()) and not ring.vector([ring.zero] * 3)
    for _ in range(40):
        d = rng.randrange(1, 9)
        a = [_sparse_entry(ring, rng) for _ in range(d)]
        b = [_sparse_entry(ring, rng) for _ in range(d)]
        c = _sparse_entry(ring, rng) or ring.one
        w, v = ring.vector(a), ring.vector(b)
        assert dense(w, d) == a and dense(v, d) == b
        if any(a):
            top = max(i for i, x in enumerate(a) if x)
            assert ring.lead(w) == (top, a[top])
        got = ring.axpy(w, c, v)
        assert dense(got, d) == [x + c * y for x, y in zip(a, b)]
        assert dense(w, d) == a and dense(v, d) == b
        assert not ring.axpy(v, -ring.one, v) and ring.axpy(v, -ring.one, v) == ring.vector(())
        assert ring.from_terms(ring.terms(w)) == w and ring.from_terms(()) == ring.vector(())
        m = rng.randrange(0, 5)
        rows = [[_sparse_entry(ring, rng) for _ in range(d)] for _ in range(m)]
        cols = ring.transpose([ring.vector(row) for row in rows], d)
        assert [dense(col, m) for col in cols] == [[row[j] for row in rows] for j in range(d)]


def test_shape_mismatch():
    K = k_ring(field(2))
    with pytest.raises(ValueError):
        Matrix.identity(K, 2) * Matrix.identity(K, 3)
    with pytest.raises(ValueError):
        Matrix(K, [[K.one], [K.one, K.zero]])


def _series_rings():
    f3, f4 = field(3), field(4)
    # A[y] over F_3: UPolys in y over A, as the pullback's coefficients are
    base = DictRing(Poly.zero(f3), Poly.one(f3))
    ay = DictRing(UPoly.zero(base), UPoly.one(base))
    t = UPoly(base, [Poly.t(f3)])
    y = UPoly(base, [base.zero, base.one])

    def ay_coeff(rng):
        return rng.choice([ay.zero, ay.one, t, t * y, y, -(t * t * y * y)])

    def k_coeff(rng):
        return RatFunc(Poly(f3, [rng.randrange(3) for _ in range(3)]), Poly(f3, [rng.randrange(1, 3), 1]))

    return [
        (FqRing(f4), lambda rng: FqElem(f4, rng.randrange(4)), FqElem(f4, 3)),
        (k_ring(f3), k_coeff, RatFunc(Poly.one(f3), Poly(f3, [1, 1]))),
        (ay, ay_coeff, -ay.one),
    ]


@pytest.mark.parametrize("ring,coeff,unit", _series_rings(), ids=["F4", "K3", "A3[y]"])
def test_series_inverse_times_f_is_one_mod_x_n(ring, coeff, unit):
    rng = random.Random(23)
    one = UPoly.one(ring)
    for deg, n in [(0, 1), (0, 5), (2, 6), (5, 3), (6, 6), (3, 1)]:
        coeffs = [unit] + [coeff(rng) for _ in range(deg)]
        while not coeffs[-1]:
            coeffs[-1] = coeff(rng)
        f = UPoly(ring, coeffs)
        assert f.degree == deg
        g = f.series_inverse(n)
        assert g.degree < n
        assert (f * g).truncate(n) == one
        assert (g * f).truncate(n) == one
    # deg f = 0: the inverse of the constant, and mod X^0 every series is 0
    assert UPoly(ring, [unit]).series_inverse(4) == UPoly(ring, [unit.inverse()])
    assert UPoly(ring, [unit]).series_inverse(0) == UPoly.zero(ring)


def test_series_inverse_needs_a_unit_constant_term():
    K = k_ring(field(2))
    with pytest.raises(ZeroDivisionError):
        UPoly(K, [K.zero, K.one]).series_inverse(3)
    with pytest.raises(ZeroDivisionError):
        UPoly.zero(K).series_inverse(3)
    base = DictRing(Poly.zero(field(2)), Poly.one(field(2)))
    ay = DictRing(UPoly.zero(base), UPoly.one(base))
    # t is not a unit of A, so 1/(t + X) has no expansion in A[y][[X]],
    # nor has 1/(y + X)
    for c in (UPoly(base, [Poly.t(field(2))]), UPoly.x(base)):
        with pytest.raises(ZeroDivisionError):
            UPoly(ay, [c, ay.one]).series_inverse(2)
    with pytest.raises(ZeroDivisionError):
        UPoly(ay, [ay.zero, ay.one]).series_inverse(2)


def test_truncate_and_order():
    fq = field(3)
    F = FqRing(fq)
    one, two = FqElem(fq, 1), FqElem(fq, 2)
    f = UPoly(F, [F.zero, F.zero, one, F.zero, two])
    assert f.order() == 2
    assert f.truncate(5) == f and f.truncate(9) == f
    assert f.truncate(4) == UPoly(F, [F.zero, F.zero, one])
    # the terms below degree 2 are all zero
    assert f.truncate(2) == UPoly.zero(F) and f.truncate(0) == UPoly.zero(F)
    assert UPoly.zero(F).order() is None
    assert UPoly.zero(F).truncate(3) == UPoly.zero(F)
    assert UPoly.one(F).order() == 0
