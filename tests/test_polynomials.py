import random
from itertools import zip_longest

import pytest

from conftest import kronecker_path, slot_width
from weiersem import (BiPoly, FiniteField, InconsistencyError, NEG_INF,
                      UniPoly, am_sequence, approximate_root,
                      normalize_degree, parse_field, parse_poly, resultant_y)
from weiersem import polynomials
from weiersem.fields import power
from weiersem.polynomials import (_KRONECKER_CUTOFF, _NEWTON_CUTOFF,
                                  _kronecker_mul, _list_mul)


def _random_bipoly(rng, field, dx, dy, density=0.7):
    terms = {}
    for i in range(dx + 1):
        for j in range(dy + 1):
            if rng.random() < density:
                terms[(i, j)] = rng.randrange(field.order)
    return BiPoly(field, terms)


def test_substitution_matches_golden_model(gf2):
    F = parse_poly("Y^8+Y^2+X^3", gf2)
    expected = parse_poly("Y^9+Y^8+X*Y^6+X^2*Y^3+Y^2+X^3", gf2)
    assert F.substitute_x(3) == expected


def test_divmod_single_step(gf2):
    q, r = parse_poly("Y^2+X", gf2).divmod_y(BiPoly.y(gf2))
    assert q == BiPoly.y(gf2)
    assert r == BiPoly.x(gf2)


def test_substitution_roundtrip_odd_char():
    F7 = FiniteField(7)
    x = BiPoly.x(F7)
    assert x.substitute_x(1, +1).substitute_x(1, -1) == x


def test_substitution_roundtrip_random():
    rng = random.Random(5)
    for p in (2, 5):
        F = FiniteField(p)
        for _ in range(15):
            P = _random_bipoly(rng, F, 3, 3)
            k = rng.randint(1, 3)
            assert P.substitute_x(k, +1).substitute_x(k, -1) == P


def test_divmod_reconstruction_random(gf2):
    """q*g + r = f through the sparse product, with deg_Y r < deg_Y g, for
    random dividends, the zero dividend and dividends of lower Y-degree
    than g, over prime and extension fields."""
    rng = random.Random(6)
    for field in (gf2, FiniteField(5), FiniteField(2, 2)):
        for _ in range(20):
            dy = rng.randint(1, 3)
            g_low = _random_bipoly(rng, field, 2, 1)
            g = BiPoly.monomial(field, 0, dy) + \
                BiPoly(field, {k: v for k, v in g_low.terms.items() if k[1] < dy})
            for f in (_random_bipoly(rng, field, 3, 5), BiPoly.zero(field),
                      _random_bipoly(rng, field, 3, dy - 1)):
                q, r = f.divmod_y(g)
                assert q * g + r == f
                assert r.is_zero() or r.deg_y < g.deg_y
                if f.is_zero() or f.deg_y < dy:
                    assert (q, r) == (BiPoly.zero(field), f)
        f = _random_bipoly(rng, field, 3, 5)
        assert f.divmod_y(BiPoly.one(field)) == (f, BiPoly.zero(field))


def test_divmod_requires_monic(gf2):
    g = parse_poly("X*Y+1", gf2)
    with pytest.raises(ValueError):
        parse_poly("Y^2", gf2).divmod_y(g)


def test_resultant_golden_degrees(gf2, golden_model):
    F = golden_model.equation
    assert resultant_y(F, BiPoly.y(gf2)).degree == 3
    F2 = parse_poly("Y^3+Y^2+Y+X+1", gf2)
    assert resultant_y(F, F2).degree == 8


def test_resultant_common_factor_is_neg_inf(golden_model):
    F = golden_model.equation
    res = resultant_y(F, F)
    assert res.is_zero()
    assert res.degree == NEG_INF


def test_resultant_multiplicativity_random():
    rng = random.Random(7)
    for p in (2, 5, 7):
        F = FiniteField(p)
        for _ in range(25):
            a = _random_bipoly(rng, F, 2, 2)
            b = _random_bipoly(rng, F, 1, 2)
            c = _random_bipoly(rng, F, 2, 1)
            if a.is_zero() or b.is_zero() or c.is_zero():
                continue
            assert resultant_y(a, b * c) == resultant_y(a, b) * resultant_y(a, c)


def _sylvester_resultant(fc, gc, field):
    """Determinant of the Sylvester matrix over the field (independent
    oracle for specialized resultants)."""
    n, m = len(fc) - 1, len(gc) - 1
    if n < 0 or m < 0:
        return 0
    size = n + m
    if size == 0:
        return 1
    rows = []
    for r in range(m):
        row = [0] * size
        for i, c in enumerate(reversed(fc)):
            row[r + i] = c
        rows.append(row)
    for r in range(n):
        row = [0] * size
        for i, c in enumerate(reversed(gc)):
            row[r + i] = c
        rows.append(row)
    det = 1
    for col in range(size):
        piv = None
        for r in range(col, size):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = field.neg(det)
        det = field.mul(det, rows[col][col])
        inv = field.inv(rows[col][col])
        for r in range(col + 1, size):
            if rows[r][col]:
                c = field.mul(rows[r][col], inv)
                rows[r] = [field.sub(x, field.mul(c, y))
                           for x, y in zip(rows[r], rows[col])]
    return det


def _lifted_values(P, E, e):
    """The Y-coefficients of P, lifted to E by e, as values at each x of E."""
    cols = P.lift(E, e).rows
    return [[UniPoly(E, c).eval_rep(x) for c in cols]
            for x in range(E.order)]


# (field, field to check in, [(deg_X f, deg_Y f, deg_X g, deg_Y g)]): small
# pairs at every point of GF(101), and pairs with a long subresultant chain
# at every point of an extension field, so that GF(2) gives 256 checks
_SYLVESTER_CASES = [
    (FiniteField(101), None, [(2, 3, 2, 3)] * 10),
    (FiniteField(2), FiniteField(2, 8), [(8, 20, 8, 6), (9, 22, 8, 9)]),
    (FiniteField(5), FiniteField(5, 3), [(8, 20, 8, 7), (10, 21, 9, 10)]),
]


def test_resultant_against_sylvester_specialization():
    """For f monic in Y, Res_Y(f, g)(x0) equals the Sylvester determinant
    of the specialized univariate pair whenever deg_Y is preserved."""
    for field, E, shapes in _SYLVESTER_CASES:
        rng = random.Random(f"sylvester:{field!r}")
        E = E or field
        e = field.embedding_into(E)
        for dxf, dyf, dxg, dyg in shapes:
            f = BiPoly.monomial(field, 0, dyf + 1) + \
                _random_bipoly(rng, field, dxf, dyf)
            g = _random_bipoly(rng, field, dxg, dyg)
            if g.is_zero():
                continue
            res = UniPoly(E, [e(c) for c in resultant_y(f, g).coeffs])
            checks = 0
            for x0, fc, gc in zip(range(E.order), _lifted_values(f, E, e),
                                  _lifted_values(g, E, e)):
                while gc and gc[-1] == 0:
                    gc.pop()
                if len(gc) - 1 != g.deg_y:
                    continue  # degree drop: specialization formula not direct
                assert res.eval_rep(x0) == _sylvester_resultant(fc, gc, E)
                checks += 1
            assert checks > 2


def test_unipoly_gcd_and_divmod():
    F = FiniteField(7)
    rng = random.Random(9)
    for _ in range(30):
        a = UniPoly(F, [rng.randrange(7) for _ in range(rng.randint(1, 6))])
        b = UniPoly(F, [rng.randrange(7) for _ in range(rng.randint(1, 6))])
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        if not a.is_zero():
            g = a.gcd(b)
            assert a.divmod(g)[1].is_zero()
            assert b.divmod(g)[1].is_zero()
            assert g.lc == 1


def test_zero_degree_sentinel(gf2):
    assert UniPoly.zero(gf2).degree == NEG_INF
    assert BiPoly.zero(gf2).total_degree == NEG_INF
    assert UniPoly.zero(gf2).degree < 0


def test_repr_roundtrip(gf2):
    rng = random.Random(10)
    F8 = FiniteField(2, 3)
    for field in (gf2, F8):
        for _ in range(20):
            P = _random_bipoly(rng, field, 3, 3, density=0.5)
            if P.is_zero():
                continue
            assert parse_poly(repr(P), field) == P


def _naive_product(a, b, field):
    """The double loop over the nonzero coefficients of a and b."""
    out = [0] * (len(a) + len(b) - 1)
    nb = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in nb:
                out[i + j] = field.add(out[i + j], field.mul(ai, bj))
    return out


@pytest.mark.parametrize("p,k,la,lb", [
    (5, 1, 4, 5),      # 20 < _KRONECKER_CUTOFF: schoolbook
    (5, 1, 9, 12),     # 108 >= _KRONECKER_CUTOFF: packed big-integer path
    (2, 3, 9, 12),     # log tables
    (3, 2, 9, 12),
    # all ones: a*b fits a 1-byte Kronecker slot (255), c + a*b does not
    (2, 1, 255, 255),
])
def test_list_mul_against_double_loop(p, k, la, lb):
    F = FiniteField(p, k)
    assert (la * lb >= _KRONECKER_CUTOFF) == (la >= 9)
    rng = random.Random(100 * p + la)
    n = la + lb - 1
    # the 255-long case is there for its all-ones trial alone
    for trial in range(10 if la < 255 else 1):
        if trial == 0:             # the largest coefficients of GF(p)
            a, b = [p - 1] * la, [p - 1] * lb
        else:
            a = [rng.randrange(F.order) for _ in range(la)]
            b = [rng.randrange(F.order) for _ in range(lb)]
            a[-1] = b[-1] = 0      # trailing zeros in, none out
        full = _naive_product(a, b, F)
        # addend c: empty, shorter than, as long as and longer than a*b
        for lc in (0, n // 2, n, n + 5):
            c = ([p - 1] * lc if trial == 0 else
                 [rng.randrange(F.order) for _ in range(lc)])
            total = [F.add(x, y) for x, y in zip_longest(full, c, fillvalue=0)]
            for trunc in (None, *range(len(total) + 2)):
                expected = total[:trunc]
                while expected and expected[-1] == 0:
                    expected.pop()
                assert _list_mul(a, b, F, trunc, c) == expected
                if not c:
                    assert _list_mul(a, b, F, trunc) == expected


def _ring_map_fields():
    return [FiniteField(7), FiniteField(2, 2), FiniteField(3, 2)]


@pytest.mark.parametrize("field", _ring_map_fields(), ids=repr)
def test_shear_is_a_ring_map(field):
    """P.shear_y(lam)(x, y) == P(x, y + lam*x) at every point."""
    rng = random.Random(field.order)
    points = [(x, y) for x in range(field.order) for y in range(field.order)]
    for lam in range(field.order):
        P = _random_bipoly(rng, field, 3, 4)
        S = P.shear_y(lam)
        for x, y in points:
            assert S.eval_rep(x, y) == \
                P.eval_rep(x, field.add(y, field.mul(lam, x)))


@pytest.mark.parametrize("field", _ring_map_fields(), ids=repr)
def test_substitute_x_is_a_ring_map(field):
    """P.substitute_x(k, sign)(x, y) == P(x + sign*y^k, y) at every point."""
    rng = random.Random(field.order + 1)
    points = [(x, y) for x in range(field.order) for y in range(field.order)]
    for k in (1, 2, 3):
        for sign in (+1, -1):
            P = _random_bipoly(rng, field, 4, 3)
            S = P.substitute_x(k, sign)
            for x, y in points:
                shift = field.pow_rep(y, k)
                moved = field.add(x, shift) if sign > 0 else field.sub(x, shift)
                assert S.eval_rep(x, y) == P.eval_rep(moved, y)


def _naive_eval(P, x, y):
    """sum c * x^i * y^j over the terms; the oracle for eval_rep."""
    f = P.field
    acc = 0
    for (i, j), c in P.terms.items():
        acc = f.add(acc, f.mul(c, f.mul(f.pow_rep(x, i), f.pow_rep(y, j))))
    return acc


@pytest.mark.parametrize("field", _ring_map_fields(), ids=repr)
def test_eval_rep_against_naive_sum(field):
    """specialize_x followed by Horner in Y, and eval_rep, equal the naive
    term sum at every point."""
    rng = random.Random(f"eval:{field!r}")
    polys = [BiPoly.zero(field)] + [
        _random_bipoly(rng, field, rng.randint(0, 6), rng.randint(0, 6),
                       density=rng.choice([0.2, 0.7])) for _ in range(6)]
    for P in polys:
        for x in range(field.order):
            Px = P.specialize_x(x)
            for y in range(field.order):
                expected = _naive_eval(P, x, y)
                assert field.horner(Px, y) == expected
                assert P.eval_rep(x, y) == expected


@pytest.mark.parametrize("B, E", [(FiniteField(2), FiniteField(2, 3)),
                                  (FiniteField(2, 2), FiniteField(2, 4)),
                                  (FiniteField(3, 2), FiniteField(3, 4))],
                         ids=repr)
def test_lift_is_a_homomorphism(B, E):
    """P.lift(E, e)(e(x), e(y)) == e(P(x, y)) at every base-field point."""
    e = B.embedding_into(E)
    rng = random.Random(f"lift:{B!r}:{E!r}")
    for _ in range(4):
        P = _random_bipoly(rng, B, 4, 4)
        L = P.lift(E, e)
        assert L.field == E and set(L.terms) == set(P.terms)
        for x in range(B.order):
            for y in range(B.order):
                assert L.eval_rep(e(x), e(y)) == e(P.eval_rep(x, y))


def _schoolbook_divmod(a, b, field):
    """Long division of coefficient lists (b with a nonzero top
    coefficient); the oracle for UniPoly.divmod."""
    r = list(a)
    inv = field.inv(b[-1])
    q = [0] * max(len(a) - len(b) + 1, 0)
    for d in range(len(q) - 1, -1, -1):
        c = field.mul(r[d + len(b) - 1], inv)
        q[d] = c
        for i, bi in enumerate(b):
            r[d + i] = field.sub(r[d + i], field.mul(c, bi))
    return q, r[:len(b) - 1]


def _random_unipoly(rng, field, length):
    cs = [rng.randrange(field.order) for _ in range(length - 1)]
    return UniPoly(field, cs + [rng.randrange(1, field.order)])


def _whole_rows(field):
    """The Newton gate's field rule, written out: prime fields, or
    characteristic 2 with q <= 256."""
    return field.k == 1 or (field.p == 2 and field.order <= 256)


# (quotient length, divisor length): products below and at or above
# _NEWTON_CUTOFF, long and short divisors, a constant divisor
_DIVMOD_SHAPES = [(1, 1), (3, 5), (20, 20), (1, 200), (200, 1), (16, 64),
                  (64, 16), (2, 512), (40, 90), (150, 150), (333, 7)]


@pytest.mark.parametrize("field", [FiniteField(2), FiniteField(5),
                                   FiniteField(101), FiniteField(2, 4),
                                   FiniteField(3, 2)], ids=repr)
def test_divmod_against_schoolbook(field, monkeypatch):
    """Newton division (prime fields and GF(2^k) of q <= 256 above the
    cutoff) and the schoolbook loop (below it, and every other GF(p^k))
    both agree with long division."""
    inverses = []
    ser_inv = polynomials._ser_inv

    def counted(a, f, prec):
        inverses.append(prec)
        return ser_inv(a, f, prec)

    monkeypatch.setattr(polynomials, "_ser_inv", counted)
    assert {n * lb >= _NEWTON_CUTOFF for n, lb in _DIVMOD_SHAPES} == {True,
                                                                      False}
    rng = random.Random(f"divmod:{field!r}")
    for n, lb in _DIVMOD_SHAPES:
        for _ in range(3):
            a = _random_unipoly(rng, field, n + lb - 1)
            b = _random_unipoly(rng, field, lb)
            calls = len(inverses)
            q, r = a.divmod(b)
            newton = _whole_rows(field) and n * lb >= _NEWTON_CUTOFF
            assert len(inverses) - calls == (1 if newton else 0)
            eq, er = _schoolbook_divmod(list(a.coeffs), list(b.coeffs), field)
            assert q == UniPoly(field, eq)
            assert r == UniPoly(field, er)
            assert q * b + r == a
            assert r.degree < b.degree
            if n > 1:   # a dividend shorter than the divisor
                assert b.divmod(a) == (UniPoly.zero(field), b)


# (divisor length, longest row length): one-row quotient length times the
# divisor length below and at or above _NEWTON_CUTOFF, a constant divisor
_ROWS_SHAPES = [(5, 40), (1, 30), (33, 70), (60, 80), (7, 300), (300, 320)]


@pytest.mark.parametrize("field", [FiniteField(2), FiniteField(5),
                                   FiniteField(101), FiniteField(2, 2),
                                   FiniteField(2, 3), FiniteField(2, 8),
                                   FiniteField(2, 9), FiniteField(3, 2)],
                         ids=repr)
def test_divmod_rows_against_schoolbook(field, monkeypatch):
    """Each (q, r) of one multi-row `_divmod_rows` call equals long
    division of its row, for empty rows, rows shorter than b and rows of
    mixed length; over GF(p) and GF(2^k) of q <= 256 from _NEWTON_CUTOFF
    on, each call builds exactly one series inverse, and otherwise none
    (GF(2^9) and GF(3^2) stay schoolbook)."""
    inverses = []
    ser_inv = polynomials._ser_inv

    def counted(a, f, prec):
        inverses.append(prec)
        return ser_inv(a, f, prec)

    monkeypatch.setattr(polynomials, "_ser_inv", counted)
    assert {(top - lb + 1) * lb >= _NEWTON_CUTOFF
            for lb, top in _ROWS_SHAPES} == {True, False}
    rng = random.Random(f"divmod-rows:{field!r}")
    for lb, top in _ROWS_SHAPES:
        b = list(_random_unipoly(rng, field, lb).coeffs)
        lengths = [0, top, max(lb - 1, 0), 1, lb, rng.randint(1, top), top]
        rows = [list(_random_unipoly(rng, field, k).coeffs) if k else []
                for k in lengths]
        inverses.clear()
        out = polynomials._divmod_rows(rows, b, field)
        assert len(out) == len(rows)
        for c, (q, r) in zip(rows, out):
            eq, er = _schoolbook_divmod(c, b, field)
            assert (q, r) == (eq, list(UniPoly(field, er).coeffs))
        newton = _whole_rows(field) and (top - lb + 1) * lb >= _NEWTON_CUTOFF
        assert inverses == ([top - lb + 1] if newton else [])


@pytest.mark.parametrize("p", [2, 5])
def test_exact_div_raises_above_cutoff(p):
    field = FiniteField(p)
    rng = random.Random(p)
    b = _random_unipoly(rng, field, 90)
    c = _random_unipoly(rng, field, 60)
    assert 60 * 90 >= _NEWTON_CUTOFF
    assert (b * c).exact_div(b) == c
    off = UniPoly(field, [0] * rng.randrange(89) + [1])
    with pytest.raises(InconsistencyError, match="inexact"):
        (b * c + off).exact_div(b)


# GF(257^2) is above LOG_TABLE_LIMIT, so it takes the schoolbook branch
_LINEAR_FIELDS = [FiniteField(2), FiniteField(5), FiniteField(101),
                  FiniteField(2, 4), FiniteField(3, 2), FiniteField(257, 2)]
# both sides of _KRONECKER_CUTOFF for an operand times a constant
_LINEAR_LENGTHS = [*range(8), 63, 64, 200]


@pytest.mark.parametrize("field", _LINEAR_FIELDS, ids=repr)
def test_unipoly_sub_against_coefficientwise(field):
    """+, binary and unary - and scale agree with coefficient-wise field
    operations."""
    rng = random.Random(f"sub:{field!r}")
    for la in _LINEAR_LENGTHS:
        a = [rng.randrange(field.order) for _ in range(la)]
        A = UniPoly(field, a)
        for lb in _LINEAR_LENGTHS:
            b = [rng.randrange(field.order) for _ in range(lb)]
            B = UniPoly(field, b)
            n = max(la, lb)
            a0, b0 = a + [0] * (n - la), b + [0] * (n - lb)
            assert A + B == UniPoly(field, [field.add(x, y)
                                            for x, y in zip(a0, b0)])
            assert A - B == UniPoly(field, [field.sub(x, y)
                                            for x, y in zip(a0, b0)])
        assert A - A == UniPoly.zero(field)
        assert -A == UniPoly(field, [field.neg(x) for x in a])
        for c in (0, 1, field.neg(1), rng.randrange(field.order)):
            assert A.scale(c) == UniPoly(field, [field.mul(x, c) for x in a])


@pytest.mark.parametrize("field", _LINEAR_FIELDS, ids=repr)
def test_ser_inv_times_unit_is_one(field):
    """_ser_inv(a, f, prec) * a = 1 mod X^prec, for units a longer and
    shorter than prec."""
    rng = random.Random(f"ser_inv:{field!r}")
    for prec in (1, 2, 63, 64, 65, 300):
        for la in (1, prec + 5):
            a = [rng.randrange(1, field.order)] + \
                [rng.randrange(field.order) for _ in range(la - 1)]
            g = polynomials._ser_inv(a, field, prec)
            assert len(g) <= prec
            assert _list_mul(a, g, field, prec) == [1]


@pytest.mark.parametrize("field", [FiniteField(2), FiniteField(5),
                                   FiniteField(2, 2)], ids=repr)
def test_prem_by_monic_divisor_is_the_remainder(field):
    """The remainder of `divmod_y`, taken by `_prem`, equals the
    per-coefficient pseudo-remainder loop for divisors monic in Y."""
    rng = random.Random(f"prem:{field!r}")
    for _ in range(30):
        f = _random_bipoly(rng, field, 4, rng.randint(0, 7))
        dy = rng.randint(1, 4)
        low = _random_bipoly(rng, field, 3, dy - 1)
        g = BiPoly.monomial(field, 0, dy) + low
        assert f.divmod_y(g)[1].rows == \
            _prem_per_coefficient(f.rows, g.rows, field)


def _prem_per_coefficient(f, g, field):
    """The pseudo-remainder one UniPoly Y-coefficient at a time: the oracle
    for the whole-row `_prem`."""
    f = [UniPoly(field, c) for c in f]
    g = [UniPoly(field, c) for c in g]
    df, dg = len(f) - 1, len(g) - 1
    r = list(f)
    if df >= dg:
        lcg = g[dg]
        n = df - dg + 1
        while r and len(r) - 1 >= dg:
            dr = len(r) - 1
            lcr, shift = r[dr], dr - dg
            r = [r[i] * lcg - (lcr * g[i - shift] if i >= shift else
                               UniPoly.zero(field)) for i in range(dr)]
            while r and r[-1].is_zero():
                r.pop()
            n -= 1
        r = [c * lcg ** n for c in r]
    return [list(c.coeffs) for c in r]


def _random_rows(rng, field, dy, dx, top):
    """dy + 1 Y-coefficients of X-length at most dx, about a quarter of the
    lower ones zero, the top one `top` or random."""
    def row():
        return list(_random_unipoly(rng, field, rng.randint(1, dx)).coeffs)
    return ([row() if rng.random() < 0.75 else [] for _ in range(dy)]
            + [top or row()])


# (deg_Y f, deg_Y g, X-length bound): products below and above
# _KRONECKER_CUTOFF, a g constant in Y, an f of lower degree than g
_PREM_SHAPES = [(3, 2, 2), (6, 0, 3), (2, 4, 3), (12, 5, 8), (30, 9, 24)]


def test_prem_against_per_coefficient_loop(monkeypatch):
    """The whole-row `_prem` equals the per-coefficient loop for monic and
    non-monic divisors, over every kind of field, at every Kronecker slot
    width."""
    widths, products = set(), []
    kronecker = polynomials._kronecker_mul

    def recorded(a, b, p, n_out, c=()):
        widths.add(slot_width(len(a), len(b), p, bool(c)))
        return kronecker(a, b, p, n_out, c)

    list_mul = polynomials._list_mul

    def sized(a, b, field, trunc=None, c=()):
        if field.k == 1:
            products.append(len(a) * len(b) >= _KRONECKER_CUTOFF)
        return list_mul(a, b, field, trunc, c)

    monkeypatch.setattr(polynomials, "_kronecker_mul", recorded)
    monkeypatch.setattr(polynomials, "_list_mul", sized)
    for field in (FiniteField(2), FiniteField(5), FiniteField(101),
                  FiniteField(1048573), FiniteField(2, 2), FiniteField(3, 2)):
        rng = random.Random(f"prem-rows:{field!r}")
        for dyf, dyg, dx in _PREM_SHAPES:
            for top in ([1], None):
                f = _random_rows(rng, field, dyf, dx, None)
                g = _random_rows(rng, field, dyg, dx, top)
                assert polynomials._prem(f, g, field)[1] == \
                    _prem_per_coefficient(f, g, field)
    assert widths == {1, 2, 4, 8}
    assert set(products) == {True, False}


# (field, divisor length, longest quotient length): the shared inverse over
# GF(p) from _NEWTON_CUTOFF on, and the fallbacks below it and over GF(p^k)
_QUOTIENT_CASES = [(FiniteField(2), 40, 40), (FiniteField(5), 33, 60),
                   (FiniteField(101), 60, 20), (FiniteField(5), 6, 8),
                   (FiniteField(3, 2), 12, 15)]


@pytest.mark.parametrize("field, lb, n", _QUOTIENT_CASES,
                         ids=lambda v: repr(v) if isinstance(v, FiniteField)
                         else str(v))
def test_exact_quotients_raise_on_one_inexact_coefficient(field, lb, n,
                                                         monkeypatch):
    """`_exact_quotients` returns every quotient, and raises when exactly
    one coefficient is not a multiple of b, wherever it stands, for b with
    and without a constant term.  Over GF(p) from _NEWTON_CUTOFF on, each
    call builds one series inverse."""
    inverses = []
    ser_inv = polynomials._ser_inv

    def counted(a, f, prec):
        inverses.append(prec)
        return ser_inv(a, f, prec)

    monkeypatch.setattr(polynomials, "_ser_inv", counted)
    shared = field.k == 1 and n * lb >= _NEWTON_CUTOFF
    rng = random.Random(f"quotients:{field!r}:{lb}")
    for constant in (True, False):
        b = _random_unipoly(rng, field, lb)
        b = UniPoly(field, [rng.randrange(1, field.order) if constant else 0]
                    + list(b.coeffs[1:]))
        qs = [_random_unipoly(rng, field, k) if k else UniPoly.zero(field)
              for k in (n, 1, n // 2, 0, n)]
        chs = [list((q * b).coeffs) for q in qs]
        inverses.clear()
        assert polynomials._exact_quotients(chs, list(b.coeffs), field) == \
            [list(q.coeffs) for q in qs]
        assert inverses == ([n] if shared else [])
        short = list(_random_unipoly(rng, field, lb - 1).coeffs)
        for i in range(len(chs)):
            for bad in (_list_mul([1], [0] * rng.randrange(len(chs[i]) + 1)
                                  + [1], field, None, chs[i]), short):
                with pytest.raises(InconsistencyError, match="inexact"):
                    polynomials._exact_quotients(
                        chs[:i] + [bad] + chs[i + 1:], list(b.coeffs), field)


# (p, len a, len b, operands): every slot width, the largest coefficient
# min(len)*(p-1)^2 (plus p-1 for an addend) at both sides of each byte
# bound, and every pack and unpack path.  p = 2 and 3 reach the 4-byte slot
# only from 65536 and 16384 coefficients: those operands are sparse.
_KRONECKER_CASES = [
    (2, 40, 70, "random"), (2, 255, 260, "max"), (2, 256, 256, "max"),
    (2, 300, 320, "random"), (2, 65536, 65536, "sparse"),
    (3, 63, 64, "max"), (3, 64, 80, "max"), (3, 200, 230, "random"),
    (3, 16384, 16384, "sparse"),
    (7, 7, 20, "max"), (7, 40, 50, "random"),
    (101, 4, 30, "max"), (101, 40, 60, "random"),
    (127, 4, 30, "max"), (127, 3, 50, "random"), (127, 30, 40, "random"),
    (131, 3, 40, "max"), (131, 30, 40, "random"),
    (251, 1, 70, "max"), (251, 20, 30, "random"),
    (257, 1, 70, "max"), (257, 20, 30, "random"),
    (1048573, 20, 30, "random"), (1048573, 9, 9, "max"),
]


def test_kronecker_cases_cover_every_slot_width():
    widths = {slot_width(la, lb, p) for p, la, lb, _ in _KRONECKER_CASES}
    assert widths == {1, 2, 4, 8}


def test_kronecker_cases_cover_every_path():
    paths = {kronecker_path(la, lb, p, addend)
             for p, la, lb, _ in _KRONECKER_CASES for addend in (False, True)}
    assert paths == {("bytes", "one plane"), ("strided", "one plane"),
                     ("strided", "plane sum"), ("strided", "array"),
                     ("array", "array")}
    # the byte sum at its edge: two planes of p = 127 sum to 252
    assert kronecker_path(4, 30, 127) == ("strided", "plane sum")


def _kronecker_operand(rng, p, n, kind):
    if kind == "max":
        return [p - 1] * n
    if kind == "random":
        return [rng.randrange(p) for _ in range(n)]
    out = [0] * n      # sparse: a few nonzero entries, the top one among them
    for i in rng.sample(range(n - 1), 8) + [n - 1]:
        out[i] = rng.randrange(1, p)
    return out


@pytest.mark.parametrize("p,la,lb,kind", _KRONECKER_CASES)
def test_kronecker_mul_against_double_loop(p, la, lb, kind):
    """c + a*b cut to n_out equals the double loop, for an addend c that is
    empty, shorter than, as long as and longer than a*b, and n_out 1, half
    of a*b, all of it and all of c."""
    field = FiniteField(p)
    rng = random.Random(f"kron:{p}:{la}:{lb}")
    a = _kronecker_operand(rng, p, la, kind)
    b = _kronecker_operand(rng, p, lb, kind)
    full = _naive_product(a, b, field)
    n = len(full)
    # the sparse operands are long: an empty addend and the longest only
    for lc in ((0, n // 2, n, n + 5) if kind != "sparse" else (0, n + 5)):
        c = _kronecker_operand(rng, p, lc, kind) if lc else []
        total = [field.add(x, y) for x, y in zip_longest(full, c, fillvalue=0)]
        outs = (1, n // 2, n, lc) if kind != "sparse" else (n, lc)
        for n_out in sorted(set(outs) - {0}):
            assert _kronecker_mul(a, b, p, n_out, c) == total[:n_out]


def _accumulate(out, key, value, field):
    """out[key] += value in a term dict, dropping a key whose sum vanishes."""
    s = field.add(out.get(key, 0), value)
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def _dict_sum(a, b, field):
    """The sum of two {(i, j): rep} term dicts: the oracle for BiPoly +."""
    out = dict(a)
    for k, v in b.items():
        _accumulate(out, k, v, field)
    return out


def _dict_product(a, b, field):
    """The product of two term dicts, one term pair at a time: the oracle
    for the row product `_rows_mul`."""
    out = {}
    for (i1, j1), x in a.items():
        for (i2, j2), y in b.items():
            _accumulate(out, (i1 + i2, j1 + j2), field.mul(x, y), field)
    return out


def _dict_power(a, e, field):
    out = {(0, 0): 1}
    for _ in range(e):
        out = _dict_product(out, a, field)
    return out


def _assert_row_invariant(P):
    """No row ends in a zero, and the top row is nonempty."""
    assert all(row[-1] for row in P.rows if row)
    assert not P.rows or P.rows[-1]


def _sparse_in_y(rng, field):
    """Y^m + c*X^7 plus a few random terms, m >= 100: the shape of the
    normalized Y^m+X^7 models."""
    m = rng.randint(100, 130)
    terms = {(0, m): 1, (7, 0): rng.randrange(1, field.order)}
    for _ in range(4):
        terms[(rng.randint(0, 3), rng.randint(0, m))] = \
            rng.randrange(field.order)
    return BiPoly(field, terms)


# GF(2^17) has no log tables: its products take the schoolbook loop
_ROW_FIELDS = [FiniteField(2), FiniteField(5), FiniteField(101),
               FiniteField(2, 2), FiniteField(3, 2), FiniteField(2, 17)]


@pytest.mark.parametrize("field", _ROW_FIELDS, ids=repr)
def test_row_arithmetic_against_term_dicts(field, monkeypatch):
    """+, -, *, scale, **, both derivatives, swap_xy and lift on rows equal
    the term-dict sum and product, on dense operands, on operands sparse
    in Y of deg_Y >= 100 and on zero; every result keeps the row
    invariant.  Over GF(p) the laid products fall on both sides of
    _KRONECKER_CUTOFF."""
    f = field
    rng = random.Random(f"rows:{field!r}")
    assert BiPoly.from_y_coeffs(f, [[1, 0], []]) == BiPoly.one(f)
    assert BiPoly.from_y_coeffs(f, [[1, 0], []]).rows == [[1]]
    operands = [BiPoly.zero(f), BiPoly.one(f)]
    operands += [_random_bipoly(rng, f, rng.randint(0, 4), rng.randint(0, 4),
                                density=rng.choice([0.3, 0.7]))
                 for _ in range(5)]
    operands += [_sparse_in_y(rng, f) for _ in range(2)]
    sizes = []
    list_mul = polynomials._list_mul

    def sized(a, b, fld, trunc=None, c=()):
        sizes.append(len(a) * len(b) >= _KRONECKER_CUTOFF)
        return list_mul(a, b, fld, trunc, c)

    def check(P, terms):
        _assert_row_invariant(P)
        assert P.terms == terms
        assert P == BiPoly(P.field, terms)

    for A in operands:
        a = A.terms
        for B in operands:
            b = B.terms
            check(A + B, _dict_sum(a, b, f))
            check(A - B, _dict_sum(a, {k: f.neg(v) for k, v in b.items()}, f))
            monkeypatch.setattr(polynomials, "_list_mul", sized)
            AB = A * B
            monkeypatch.setattr(polynomials, "_list_mul", list_mul)
            check(AB, _dict_product(a, b, f))
        for c in (0, 1, f.neg(1), rng.randrange(1, f.order)):
            check(A.scale(c), {k: f.mul(v, c) for k, v in a.items() if c})
        for e in ((0, 1, 2) if A.deg_y > 50 else (0, 1, 2, 3)):
            check(A ** e, _dict_power(a, e, f))
        check(A.derivative_x(), _dict_sum({}, {
            (i - 1, j): f.mul(f.from_int(i), v)
            for (i, j), v in a.items() if i}, f))
        check(A.derivative_y(), _dict_sum({}, {
            (i, j - 1): f.mul(f.from_int(j), v)
            for (i, j), v in a.items() if j}, f))
        check(A.swap_xy(), {(j, i): v for (i, j), v in a.items()})
    if f.k == 1:
        assert set(sizes) == {True, False}
    # lift from GF(p) into GF(p^k), or from GF(p) into GF(p^2)
    B, E = (FiniteField(f.p), f) if f.k > 1 else (f, FiniteField(f.p, 2))
    e = B.embedding_into(E)
    for P in [BiPoly.zero(B), _random_bipoly(rng, B, 3, 3),
              _sparse_in_y(rng, B)]:
        L = P.lift(E, e)
        _assert_row_invariant(L)
        assert L.field == E
        assert L.terms == {k: e(v) for k, v in P.terms.items()}


def _approximate_root_by_full_powers(F, d):
    """Descending-coefficient elimination on term dicts, each step reading
    the Y^(m-j) coefficient of the whole F - G^d: the oracle for the
    row-truncated `approximate_root`."""
    f = F.field
    m = F.deg_y
    e = m // d
    inv_d = f.inv(f.from_int(d))
    G = {(0, e): 1}
    for j in range(1, e + 1):
        Gd = power(G, d, lambda a, b: _dict_product(a, b, f), {(0, 0): 1})
        diff = _dict_sum(F.terms, {k: f.neg(v) for k, v in Gd.items()}, f)
        for (i, jj), c in diff.items():
            if jj == m - j:
                G[(i, e - j)] = f.mul(c, inv_d)
    return G


def _check_approximate_root(F, d, G):
    """G equals the full-power oracle and deg_Y (F - G^d) < m - e, the
    latter on term dicts."""
    f = F.field
    m = F.deg_y
    assert G.terms == _approximate_root_by_full_powers(F, d)
    Gd = power(G.terms, d, lambda a, b: _dict_product(a, b, f), {(0, 0): 1})
    diff = _dict_sum(F.terms, {k: f.neg(v) for k, v in Gd.items()}, f)
    assert max((j for _, j in diff), default=-1) < m - m // d


# (field, d, e): d > p and e >= p among them, d never a multiple of p
_ROOT_CASES = [(FiniteField(2), 3, 2), (FiniteField(2), 5, 3),
               (FiniteField(3), 4, 3), (FiniteField(3), 2, 5),
               (FiniteField(5), 6, 5), (FiniteField(5), 3, 2),
               (FiniteField(2, 2), 3, 4), (FiniteField(3, 2), 4, 3)]


@pytest.mark.parametrize("field, d, e", _ROOT_CASES,
                         ids=lambda v: repr(v) if isinstance(v, FiniteField)
                         else str(v))
def test_approximate_root_against_full_powers(field, d, e):
    """On seeded monic F of deg_Y d*e, dense and sparse in X, the rows
    truncated to j + 1 at step j give the root of the full-power
    elimination."""
    rng = random.Random(f"approximate-root:{field!r}:{d}:{e}")
    for density in (0.2, 0.6):
        for _ in range(3):
            F = BiPoly.monomial(field, 0, d * e) + \
                _random_bipoly(rng, field, 3, d * e - 1, density)
            _check_approximate_root(F, d, approximate_root(F, d))


# the curves of the benchmark's `analyze` workload
_ANALYZE_CURVES = [("GF(2)", f"Y^{m}+X^7") for m in (100, 150, 200, 250, 300)
                   ] + [("GF(5)", "Y^200+X^7")]


def test_am_sequence_roots_against_full_powers():
    """Every approximate root that `am_sequence` returns for the analyze
    curves equals the full-power elimination."""
    checked = 0
    for field, curve in _ANALYZE_CURVES:
        model = normalize_degree(parse_poly(curve, parse_field(field)))
        F = model.equation
        for root in am_sequence(model).roots[2:]:
            _check_approximate_root(F, F.deg_y // root.deg_y, root)
            checked += 1
    assert checked >= len(_ANALYZE_CURVES)
