import random

import pytest

from drinfeldforms.fq import Fq, FqElem, field
from oracles import field_tables


def test_prime_power_factorization():
    assert (field(2).p, field(2).e) == (2, 1)
    assert (field(4).p, field(4).e) == (2, 2)
    assert (field(9).p, field(9).e) == (3, 2)
    assert (field(8).p, field(8).e) == (2, 3)
    with pytest.raises(ValueError):
        Fq(6)
    with pytest.raises(ValueError):
        Fq(1)


def test_modulus_is_deterministic_and_standard():
    # lexicographically least irreducible: x^2+x+1 over F_2, x^2+1 over F_3
    assert field(4).modulus == (1, 1, 1)
    assert field(9).modulus == (1, 0, 1)
    assert field(8).modulus == (1, 1, 0, 1)
    # degree >= 4 moduli need the trial-division branch of the test
    assert field(16).modulus == (1, 1, 0, 0, 1)
    assert field(81).modulus == (2, 1, 0, 0, 1)
    assert field(32).modulus == (1, 0, 1, 0, 0, 1)
    assert field(64).modulus == (1, 1, 0, 0, 0, 0, 1)
    assert field(25).modulus == (2, 0, 1)
    assert field(27).modulus == (1, 2, 0, 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_field_axioms_randomized(q):
    fq = field(q)
    rng = random.Random(q * 17)
    for _ in range(200):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert fq.add(a, b) == fq.add(b, a)
        assert fq.mul(a, b) == fq.mul(b, a)
        assert fq.add(fq.add(a, b), c) == fq.add(a, fq.add(b, c))
        assert fq.mul(fq.mul(a, b), c) == fq.mul(a, fq.mul(b, c))
        assert fq.mul(a, fq.add(b, c)) == fq.add(fq.mul(a, b), fq.mul(a, c))
        assert fq.add(a, fq.neg(a)) == 0
        if a:
            assert fq.mul(a, fq.inv(a)) == 1


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_characteristic(q):
    fq = field(q)
    for a in fq.elements():
        acc = 0
        for _ in range(fq.p):
            acc = fq.add(acc, a)
        assert acc == 0


def test_elem_wrappers():
    fq = field(3)
    a, b = fq.elem(2), fq.elem(2)
    assert (a + b).code == 1
    assert (a * b).code == 1
    assert (-a).code == 1
    assert (a / b).code == 1
    assert a.inverse().code == 2
    assert a == b and hash(a) == hash(b)
    with pytest.raises(ZeroDivisionError):
        fq.elem(0).inverse()


def test_from_int_reduces():
    fq = field(3)
    assert fq.from_int(5) == 2
    assert fq.from_int(-1) == 2


NON_PRIME_QS = [4, 8, 16, 32, 64, 128, 256, 9, 27, 81, 243, 25, 125, 49, 121, 169]


@pytest.mark.parametrize("q", NON_PRIME_QS)
def test_extension_field_tables_match_the_tuple_oracle(q):
    fq = field(q)
    assert (fq._add, fq._mul, fq._neg) == field_tables(fq)
    assert all(fq._mul[a][fq._inv[a]] == 1 for a in fq.nonzero())
