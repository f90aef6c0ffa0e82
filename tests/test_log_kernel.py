"""Field arithmetic and the log-domain kernel against digit-wise arithmetic.

Every kind of field (prime, characteristic 2 with tables, odd p with Zech
tables, and no tables above LOG_TABLE_LIMIT) binds its own add, sub, neg,
mul, inv and pow_rep when it is built.  Fields with log tables add through
the Zech table (odd p), multiply coefficient lists (`_list_mul`) on whole
byte rows (characteristic 2, order up to 256) or by exp lookups over
hoisted logs, and evaluate by Horner over logs
(`UniPoly.eval_rep`).  The oracle here works on the base-p digits of the
reps and reduces products by the modulus itself, so it shares no table
and no bound operation with the code under test.
"""

import random
from itertools import zip_longest

import pytest

from weiersem import FiniteField, UniPoly
from weiersem.fields import LOG_TABLE_LIMIT
from weiersem.polynomials import _list_mul


def _decode(rep, p, k):
    digits = []
    for _ in range(k):
        digits.append(rep % p)
        rep //= p
    return digits


def _encode(digits, p):
    rep = 0
    for d in reversed(digits):
        rep = rep * p + d % p
    return rep


def _add(F, a, b):
    return _encode([x + y for x, y in zip(_decode(a, F.p, F.k),
                                          _decode(b, F.p, F.k))], F.p)


def _sub(F, a, b):
    return _encode([x - y for x, y in zip(_decode(a, F.p, F.k),
                                          _decode(b, F.p, F.k))], F.p)


def _neg(F, a):
    return _encode([-x for x in _decode(a, F.p, F.k)], F.p)


def _mul(F, a, b):
    """Schoolbook product of the digit vectors, reduced by the modulus."""
    p, k, mod = F.p, F.k, F.modulus
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(_decode(a, p, k)):
        for j, y in enumerate(_decode(b, p, k)):
            prod[i + j] += x * y
    for d in range(2 * k - 2, k - 1, -1):
        top = prod[d]
        for i in range(k + 1):
            prod[d - k + i] -= top * mod[i]
    return _encode(prod[:k], p)


def _pow(F, a, e):
    """a^e for e >= 0 by repeated squaring over the oracle's product."""
    out = 1
    while e:
        if e & 1:
            out = _mul(F, out, a)
        a, e = _mul(F, a, a), e >> 1
    return out


# prime, characteristic 2 and odd p with tables, and both without tables
@pytest.mark.parametrize("p,k", [(7, 1), (101, 1), (2, 4), (3, 4), (257, 2),
                                 (2, 17)])
def test_bound_operations_match_digit_oracle(p, k):
    """add, sub, neg, mul, inv and pow_rep of every kind of field, on seeded
    pairs; above LOG_TABLE_LIMIT the single elements are sampled too."""
    F = FiniteField(p, k)
    q = F.order
    assert (F._log is None) == (k == 1 or q > LOG_TABLE_LIMIT)
    rng = random.Random(f"kinds:{p}^{k}")
    pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
    pairs += [(0, 0), (0, 1), (1, 0), (q - 1, q - 1)]
    pairs += [(a, _neg(F, a)) for a, _ in pairs[:50]]
    for a, b in pairs:
        assert F.add(a, b) == _add(F, a, b), (F, a, b)
        assert F.sub(a, b) == _sub(F, a, b), (F, a, b)
        assert F.mul(a, b) == _mul(F, a, b), (F, a, b)
    singles = (range(q) if q <= LOG_TABLE_LIMIT else
               [0, 1, p, q - 1] + [rng.randrange(q) for _ in range(100)])
    for a in singles:
        assert F.neg(a) == _neg(F, a), (F, a)
        e = rng.choice([0, 1, 2, q - 2, q - 1, q, rng.randrange(3 * q)])
        assert F.pow_rep(a, e) == _pow(F, a, e), (F, a, e)
        if a:
            assert _mul(F, F.inv(a), a) == 1, (F, a)
            assert _mul(F, F.pow_rep(a, -e), _pow(F, a, e)) == 1, (F, a, e)
            assert F.pow_rep(a, -1) == F.inv(a)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(ZeroDivisionError):
        F.pow_rep(0, -1)


def test_elements_of_equal_fields_combine():
    """Two separately built GF(3^2) are one field: their elements combine,
    each operator running the left operand's field's bound operation."""
    F, G = FiniteField(3, 2), FiniteField(3, 2)
    assert F is not G and F == G and hash(F) == hash(G)
    for a in range(F.order):
        for b in range(G.order):
            x, y = F.from_rep(a), G.from_rep(b)
            assert (x + y).rep == (y + x).rep == _add(F, a, b)
            assert (x - y).rep == _sub(F, a, b)
            assert (x * y).rep == (y * x).rep == _mul(F, a, b)
            if b:
                assert _mul(F, (x / y).rep, b) == a
    assert {F.one(), G.one()} == {F.one()}


def _check_add_sub_neg(F, pairs):
    for a, b in pairs:
        assert F.add(a, b) == _add(F, a, b), (F, a, b)
        assert F.sub(a, b) == _sub(F, a, b), (F, a, b)
    for a in range(F.order):
        assert F.neg(a) == _neg(F, a), (F, a)


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (7, 2)])
def test_zech_every_pair(p, k):
    F = FiniteField(p, k)
    assert F._zech is not None
    _check_add_sub_neg(F, ((a, b) for a in range(F.order)
                           for b in range(F.order)))


@pytest.mark.parametrize("p,k", [(3, 4), (5, 3), (3, 10)])
def test_zech_seeded_pairs(p, k):
    F = FiniteField(p, k)
    assert F._zech is not None
    rng = random.Random(f"zech:{p}^{k}")
    q = F.order
    pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(20000)]
    # a + (-a) = 0 is the one sum without a Zech entry
    pairs += [(a, _neg(F, a)) for a, _ in pairs[:200]] + [(0, 0), (1, q - 1)]
    _check_add_sub_neg(F, pairs)


def test_characteristic_two_has_no_zech_table():
    F = FiniteField(2, 4)
    assert F._log is not None and F._zech is None
    assert all(F.add(a, b) == a ^ b == F.sub(a, b)
               for a in range(16) for b in range(16))


def _operand(rng, q, length):
    """Coefficients with zeros inside and, now and then, at either end."""
    out = [rng.randrange(q) if rng.random() < 0.7 else 0
           for _ in range(length)]
    end = rng.randrange(4)
    if end == 1:
        out[0] = 0
    elif end == 2:
        out[-1] = 0
    return out


def _product(F, a, b):
    """a*b by the oracle's digit product: each pair's product (one `_mul`
    per distinct pair) added digit by digit, reduced mod p at the end."""
    p, k = F.p, F.k
    digits = {}
    sums = [[0] * k for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    d = digits.get((x, y))
                    if d is None:
                        d = digits[x, y] = _decode(_mul(F, x, y), p, k)
                    s = sums[i + j]
                    for t in range(k):
                        s[t] += d[t]
    out = [_encode(s, p) for s in sums]
    while out and out[-1] == 0:
        out.pop()
    return out


def _multiply_add(F, full, c, trunc):
    """c + full, cut to trunc terms when given, without trailing zeros."""
    want = [_add(F, x, y) for x, y in zip_longest(full, c, fillvalue=0)]
    if trunc is not None:
        want = want[:trunc]
    while want and want[-1] == 0:
        want.pop()
    return want


def test_byte_row_tables_exactly_in_characteristic_two_up_to_256():
    """Tables exactly for p = 2, 2 <= k <= 8: one 256-byte table per rep x,
    x*y at y < q and zero past q, against every y up to q = 32 and against
    0, 1, q - 1 and a seeded sample of y above."""
    rng = random.Random("byte-rows")
    for p, k in [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7),
                 (2, 8), (2, 9), (2, 10), (2, 16), (2, 17), (3, 1), (3, 2),
                 (3, 5), (5, 3), (7, 2), (257, 2)]:
        F = FiniteField(p, k)
        assert (F._byte_rows is not None) == (p == 2 and 2 <= k <= 8), F
        if F._byte_rows is None:
            continue
        q = F.order
        ys = range(q) if q <= 32 else sorted(
            {0, 1, q - 1} | set(rng.sample(range(q), 24)))
        assert len(F._byte_rows) == q
        for x, table in enumerate(F._byte_rows):
            assert len(table) == 256 and not any(table[q:]), (F, x)
            for y in ys:
                assert table[y] == _mul(F, x, y), (F, x, y)


# GF(2^k) up to k = 8 multiply on whole byte rows; GF(2^9), GF(2^10) and
# odd p run the loop over logs
@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (2, 4), (2, 8), (2, 9),
                                 (2, 10), (3, 2), (5, 2), (3, 4)])
def test_list_mul_log_branch(p, k):
    """c + a*b, full and truncated, for an empty addend, one shorter and
    one longer than a*b; operands of up to 40 entries, a pair of about 300
    whose shorter one repeats a few scalars (each distinct row is cached
    once and reused), and the top rep q - 1 at both ends of both."""
    F = FiniteField(p, k)
    assert F._log is not None
    q = F.order
    rng = random.Random(f"list_mul:{p}^{k}")
    cases = []
    for la in range(1, 41):
        cases.append((_operand(rng, q, la),
                      _operand(rng, q, rng.randrange(1, 41))))
    pool = [rng.randrange(1, q) for _ in range(5)]
    repeated = [rng.choice(pool) if rng.random() < 0.7 else 0
                for _ in range(300)]
    assert sum(map(bool, repeated)) > len(set(repeated) - {0})
    cases.append((repeated, _operand(rng, q, 310)))
    top = q - 1
    cases.append(([top] + _operand(rng, q, 20) + [top], [top, 0, 0, top]))
    for a, b in cases:
        full = _product(F, a, b)
        n = len(a) + len(b) - 1
        for c in ([], _operand(rng, q, max(n // 2, 1)),
                  _operand(rng, q, n + rng.randrange(1, 10))):
            for trunc in (None, 1, rng.randrange(1, n + 1), n - 1, n):
                want = _multiply_add(F, full, c, trunc)
                assert _list_mul(a, b, F, trunc, c) == want, (F, a, b, c,
                                                              trunc)
                assert _list_mul(b, a, F, trunc, c) == want, (F, a, b, c,
                                                              trunc)


@pytest.mark.parametrize("p,k", [(2, 4), (3, 2), (5, 2)])
def test_eval_rep_log_branch(p, k):
    F = FiniteField(p, k)
    rng = random.Random(f"eval:{p}^{k}")
    for length in range(0, 9):
        coeffs = _operand(rng, F.order, length) if length else []
        poly = UniPoly(F, coeffs)
        for x in range(F.order):
            want = 0
            for c in reversed(coeffs):
                want = _add(F, _mul(F, want, x), c)
            assert poly.eval_rep(x) == want, (F, coeffs, x)


@pytest.mark.parametrize("p,k", [(257, 2), (2, 17)])
def test_kernels_without_tables(p, k):
    """_list_mul and eval_rep over fields with no log tables, where they run
    on the field's bound add and mul, against the same oracle."""
    F = FiniteField(p, k)
    assert F._log is None
    rng = random.Random(f"no-tables:{p}^{k}")
    for la in range(1, 13):
        a = _operand(rng, F.order, la)
        b = _operand(rng, F.order, rng.randrange(1, 13))
        full = _product(F, a, b)
        n = len(a) + len(b) - 1
        c = _operand(rng, F.order, rng.randrange(1, n + 2))
        for trunc in (None, 1, rng.randrange(1, n + 1)):
            want = full if trunc is None else full[:trunc]
            while want and want[-1] == 0:
                want = want[:-1]
            assert _list_mul(a, b, F, trunc) == want, (F, a, b, trunc)
        want = [_add(F, x, y) for x, y in
                zip(full + [0] * len(c), c + [0] * len(full))]
        while want and want[-1] == 0:
            want.pop()
        assert _list_mul(a, b, F, None, c) == want, (F, a, b, c)
        poly = UniPoly(F, a)
        for x in [0, 1, F.order - 1] + [rng.randrange(F.order)
                                         for _ in range(5)]:
            value = 0
            for coeff in reversed(a):
                value = _add(F, _mul(F, value, x), coeff)
            assert poly.eval_rep(x) == value, (F, a, x)
