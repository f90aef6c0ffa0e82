import random
from itertools import zip_longest

import pytest

from weiersem import (BiPoly, FiniteField, InconsistencyError, NEG_INF,
                      UniPoly, parse_poly, resultant_y)
from weiersem import polynomials
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
    cols = P.lift(E, e).y_coeffs()
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
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
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
                assert Px.eval_rep(y) == expected
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


# (quotient length, divisor length): products below and at or above
# _NEWTON_CUTOFF, long and short divisors, a constant divisor
_DIVMOD_SHAPES = [(1, 1), (3, 5), (20, 20), (1, 200), (200, 1), (16, 64),
                  (64, 16), (2, 512), (40, 90), (150, 150), (333, 7)]


@pytest.mark.parametrize("field", [FiniteField(2), FiniteField(5),
                                   FiniteField(101), FiniteField(3, 2)],
                         ids=repr)
def test_divmod_against_schoolbook(field, monkeypatch):
    """Newton division (prime fields above the cutoff) and the schoolbook
    loop (below it, and every GF(p^k)) both agree with long division."""
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
            newton = field.k == 1 and n * lb >= _NEWTON_CUTOFF
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
                                   FiniteField(3, 2)], ids=repr)
def test_divmod_rows_against_schoolbook(field, monkeypatch):
    """Each (q, r) of one multi-row `_divmod_rows` call equals long
    division of its row, for empty rows, rows shorter than b and rows of
    mixed length; over GF(p) from _NEWTON_CUTOFF on, each call builds
    exactly one series inverse, and otherwise none."""
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
        newton = field.k == 1 and (top - lb + 1) * lb >= _NEWTON_CUTOFF
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
        assert f.divmod_y(g)[1].y_coeffs() == \
            _prem_per_coefficient(f.y_coeffs(), g.y_coeffs(), field)


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
        widths.add(_slot_width(len(a), len(b), p, bool(c)))
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


def _slot_width(la, lb, p, addend=False):
    bound = min(la, lb) * (p - 1) ** 2 + (p - 1 if addend else 0)
    return min(w for w in (1, 2, 4, 8) if bound < 256 ** w)


# (p, len a, len b, operands): every slot width, and the largest
# coefficient min(len)*(p-1)^2 at both sides of the 1-byte bound
_KRONECKER_CASES = [
    (2, 40, 70, "random"), (2, 255, 260, "max"), (2, 256, 256, "max"),
    (2, 300, 320, "random"), (101, 4, 30, "max"), (101, 40, 60, "random"),
    (1048573, 20, 30, "random"), (1048573, 9, 9, "max"),
]


def test_kronecker_cases_cover_every_slot_width():
    widths = {_slot_width(la, lb, p) for p, la, lb, _ in _KRONECKER_CASES}
    assert widths == {1, 2, 4, 8}


@pytest.mark.parametrize("p,la,lb,kind", _KRONECKER_CASES)
def test_kronecker_mul_against_double_loop(p, la, lb, kind):
    field = FiniteField(p)
    rng = random.Random(f"kron:{p}:{la}:{lb}")
    if kind == "max":
        a, b = [p - 1] * la, [p - 1] * lb
    else:
        a = [rng.randrange(p) for _ in range(la)]
        b = [rng.randrange(p) for _ in range(lb)]
    full = _naive_product(a, b, field)
    for n_out in (1, len(full) // 2, len(full)):
        assert _kronecker_mul(a, b, p, n_out) == full[:n_out]
