import operator
import random
import time

import pytest

from weiersem import FiniteField, InputError, default_modulus
from weiersem.fields import _is_irreducible, is_prime, power


def test_gf2_characteristic():
    F = FiniteField(2)
    assert (F.one() + F.one()).rep == 0


def test_gf8_modulus_is_least():
    # t^3 + t + 1 beats t^3 + t^2 + 1 in the integer-encoding order
    assert FiniteField(2, 3).modulus == (1, 1, 0, 1)
    assert default_modulus(2, 2) == (1, 1, 1)
    assert default_modulus(3, 2) == (1, 0, 1)


def test_gf8_generator_product():
    F = FiniteField(2, 3)
    t = F.from_rep(F.p)
    assert t * t ** 2 == t + F.one()


def test_gf7_inverse():
    F = FiniteField(7)
    assert F(3).inverse() == F(5)


def test_inverse_of_zero_raises():
    F = FiniteField(5)
    with pytest.raises(ZeroDivisionError):
        F.zero().inverse()


def test_field_mismatch_raises():
    a = FiniteField(5)(2)
    b = FiniteField(7)(2)
    with pytest.raises(ValueError):
        a + b


def test_order_limit():
    with pytest.raises(InputError):
        FiniteField(2, 21)
    # k is checked before p ** k is formed, which would not finish
    start = time.perf_counter()
    with pytest.raises(InputError):
        FiniteField(2, 10 ** 10)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("p", [2 ** 61 - 1, 10 ** 40 + 1])
def test_order_limit_before_primality(p):
    """A characteristic above the limit is rejected before trial division,
    which would not finish on it."""
    start = time.perf_counter()
    with pytest.raises(InputError, match="exceeds the desk-scale limit"):
        FiniteField(p)
    assert time.perf_counter() - start < 1


def test_composite_characteristic_rejected():
    with pytest.raises(InputError, match="characteristic 4 is not prime"):
        FiniteField(4)


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (7, 1), (2, 4), (5, 2)])
def test_field_axioms_random(p, k):
    F = FiniteField(p, k)
    rng = random.Random(1000 * p + k)
    for _ in range(300):
        a, b, c = (F.from_rep(rng.randrange(F.order)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == F.zero()
        if a.rep:
            assert a * a.inverse() == F.one()
            assert (a ** (F.order - 1)) == F.one()


def test_coeff_vector_roundtrip():
    F = FiniteField(3, 2)
    for rep in range(F.order):
        e = F.from_rep(rep)
        assert F.encode(e.coeffs) == rep


def test_log_tables_match_raw_mul():
    F = FiniteField(2, 4)
    for a in range(F.order):
        for b in range(F.order):
            assert F.mul(a, b) == F._raw_mul(a, b)


def _raw_mul_walk(F):
    """(g, exp, log) by the schoolbook `_raw_mul`: the least g of order
    q - 1 and one walk of its powers; the oracle for the table builder."""
    q = F.order
    primes = [l for l in range(2, q) if (q - 1) % l == 0 and is_prime(l)]
    g = next(g for g in range(2, q)
             if all(power(g, (q - 1) // l, F._raw_mul, 1) != 1
                    for l in primes))
    exp, log = [], [0] * q
    x = 1
    for i in range(q - 1):
        exp.append(x)
        log[x] = i
        x = F._raw_mul(x, g)
    return g, exp, log


@pytest.mark.parametrize("k", range(2, 17))
def test_char2_tables_match_raw_mul_walk(k):
    """The shift-XOR walk builds the same generator, exp and log tables as
    the `_raw_mul` walk."""
    F = FiniteField(2, k)
    g, exp, log = _raw_mul_walk(F)
    assert F.generator_rep == g
    assert F._exp == exp + exp
    assert F._log == log


@pytest.mark.parametrize("p,k,generator", [
    (2, 2, 2), (3, 2, 4), (2, 4, 2), (2, 8, 3), (2, 12, 3), (13, 4, 17),
    (2, 16, 3), (3, 10, 34),
])
def test_generator_rep_pinned(p, k, generator):
    """The least rep of multiplicative order q - 1, as a full cycle walk
    finds it."""
    assert FiniteField(p, k).generator_rep == generator


def test_embedding_prime_to_extension():
    F2 = FiniteField(2)
    F8 = FiniteField(2, 3)
    emb = F2.embedding_into(F8)
    assert emb(0) == 0 and emb(1) == 1


def test_embedding_respects_arithmetic():
    F4 = FiniteField(2, 2)
    F16 = FiniteField(2, 4)
    emb = F4.embedding_into(F16)
    for a in range(4):
        for b in range(4):
            assert emb(F4.mul(a, b)) == F16.mul(emb(a), emb(b))
            assert emb(F4.add(a, b)) == F16.add(emb(a), emb(b))


def test_no_embedding_when_degrees_incompatible():
    from weiersem import PreconditionError
    with pytest.raises(PreconditionError):
        FiniteField(2, 2).embedding_into(FiniteField(2, 3))


def test_format_rep():
    F8 = FiniteField(2, 3)
    assert F8.format_rep(0) == "0"
    assert F8.format_rep(1) == "1"
    assert F8.format_rep(2) == "t"
    assert F8.format_rep(5) == "t^2+1"


@pytest.mark.parametrize("p,k", [(7, 1), (2, 3), (3, 2), (257, 2)])
def test_element_operators_match_rep_operations(p, k):
    """Each operator, and its form with the int on the left, is the field's
    rep operation; GF(257^2) has no log tables."""
    F = FiniteField(p, k)
    rng = random.Random(p * k)
    for _ in range(50):
        a, b = rng.randrange(F.order), rng.randrange(1, F.order)
        n = rng.randrange(-3 * p, 3 * p)
        x, y, c = F.from_rep(a), F.from_rep(b), F.from_int(n)
        assert (x + y).rep == (y + x).rep == F.add(a, b)
        assert (x - y).rep == F.sub(a, b)
        assert (x * y).rep == (y * x).rep == F.mul(a, b)
        assert (x / y).rep == F.div(a, b)
        assert (x + n).rep == (n + x).rep == F.add(a, c)
        assert (x - n).rep == F.sub(a, c)
        assert (n - x).rep == F.sub(c, a)
        assert (x * n).rep == (n * x).rep == F.mul(a, c)
        assert (n / y).rep == F.div(c, b)
        if c:
            assert (x / n).rep == F.div(a, c)
        assert bool(x) == (a != 0)
        assert repr(x) == F.format_rep(a)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(F.one(), "x")
        with pytest.raises(TypeError):
            op("x", F.one())
        with pytest.raises(ValueError):
            op(F.one(), FiniteField(5).one())


def _mobius(n):
    result, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    return -result if n > 1 else result


@pytest.mark.parametrize("p,k", [(2, k) for k in range(1, 7)]
                         + [(3, k) for k in range(1, 5)]
                         + [(5, k) for k in range(1, 4)])
def test_rabin_test_matches_gauss_count(p, k):
    """The monic irreducibles of degree k over GF(p) number
    (1/k) * sum over d | k of mobius(d) * p^(k/d)."""
    expected = sum(_mobius(d) * p ** (k // d)
                   for d in range(1, k + 1) if k % d == 0) // k
    accepted = 0
    for v in range(p ** k):
        low = [(v // p ** i) % p for i in range(k)]
        accepted += _is_irreducible(low + [1], p)
    assert accepted == expected


@pytest.mark.parametrize("p,k,modulus", [
    (2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1)),
    (2, 16, (1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
    (3, 5, (1, 2, 0, 0, 0, 1)),
    (3, 12, (2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
    (13, 4, (2, 0, 0, 0, 1)),
])
def test_default_modulus_pinned(p, k, modulus):
    assert default_modulus(p, k) == modulus


def test_default_modulus_degree_one():
    # a linear polynomial is irreducible; the least one is t itself
    assert default_modulus(5, 1) == (0, 1) == FiniteField(5).modulus


def _divides(g, f, p):
    """Whether the monic g divides f over GF(p) (coefficients low first)."""
    r = list(f)
    for i in reversed(range(len(f) - len(g) + 1)):
        c = r[i + len(g) - 1]
        for j, gj in enumerate(g):
            r[i + j] = (r[i + j] - c * gj) % p
    return not any(r)


def _least_irreducible(p, k):
    """Every monic of degree k in encoding order, each trial-divided by
    every monic of degree 1..k//2: the first without a factor."""
    def monic(d, v):
        return [(v // p ** i) % p for i in range(d)] + [1]
    for v in range(p ** k):
        f = monic(k, v)
        if not any(_divides(monic(d, w), f, p)
                   for d in range(1, k // 2 + 1) for w in range(p ** d)):
            return tuple(f)


def test_default_modulus_matches_full_search():
    cases = [(p, k) for p in range(2, 1 << 10) if is_prime(p)
             for k in range(1, 11) if p ** k <= 1 << 10]
    assert (2, 10) in cases and (31, 2) in cases and (1021, 1) in cases
    for p, k in cases:
        assert default_modulus(p, k) == _least_irreducible(p, k), (p, k)
