import random

import pytest

from weiersem import (BiPoly, FiniteField, InconsistencyError,
                      PreconditionError, branch, normalize_degree,
                      parse_field, parse_poly, parse_rational, parametrize,
                      valuation, valuation_by_resultant)
from weiersem.branch import _ser_horner, _ser_ord
from weiersem.errors import PrecisionCeilingError
from weiersem.polynomials import _KRONECKER_CUTOFF, _list_mul, _ser_inv

F5 = parse_field("GF(5)")
F7 = parse_field("GF(7)")


@pytest.fixture(scope="module")
def cusp_model():
    return normalize_degree(parse_poly("Y^2+X^3", F5))


@pytest.fixture(scope="module")
def cusp_param(cusp_model):
    return parametrize(cusp_model)


def test_cusp_coordinate_valuations(cusp_model, cusp_param):
    assert -valuation(cusp_param, BiPoly.x(F5)).order == 2
    assert -valuation(cusp_param, BiPoly.y(F5)).order == 3
    # cross-check against the resultant backend
    assert valuation_by_resultant(cusp_model, BiPoly.x(F5)) == 2
    assert valuation_by_resultant(cusp_model, BiPoly.y(F5)) == 3


def test_line_valuations():
    model = normalize_degree(parse_poly("Y-X", F7))
    param = parametrize(model)
    assert -valuation(param, BiPoly.x(F7)).order == 1
    assert -valuation(param, BiPoly.y(F7)).order == 1


def test_golden_coordinate_valuations(golden_param, gf2):
    assert -valuation(golden_param, BiPoly.y(gf2)).order == 3
    assert -valuation(golden_param, BiPoly.x(gf2)).order == 9


def test_golden_h1_h2_values(golden_param, gf2):
    n1, d1 = parse_rational("Y+Y^7 / X+Y^3", gf2)
    v1 = valuation(golden_param, n1, d1)
    assert v1.order == -13
    n2, d2 = parse_rational("Y+Y^7 / X*Y^2+X*Y+X+Y^5+Y^4+Y^3", gf2)
    v2 = valuation(golden_param, n2, d2)
    assert v2.order == -7


def test_constant_valuation(golden_param, gf2):
    v = valuation(golden_param, BiPoly.one(gf2))
    assert v.order == 0
    assert v.leading.rep == 1


def test_resultant_backend_golden(golden_model, golden_seq, gf2):
    F2poly = golden_seq.roots[2]
    assert valuation_by_resultant(golden_model, F2poly) == 8
    assert valuation_by_resultant(golden_model, BiPoly.one(gf2)) == 0
    xy = BiPoly.x(gf2) * BiPoly.y(gf2)
    assert valuation_by_resultant(golden_model, xy) == 12


def test_resultant_backend_rejects_common_factor(golden_model):
    with pytest.raises(PreconditionError):
        valuation_by_resultant(golden_model, golden_model.equation)


def test_am_roots_match_deltas(golden_param, golden_seq):
    for root, delta in zip(golden_seq.roots, golden_seq.delta):
        assert -valuation(golden_param, root).order == delta


def _random_poly(rng, field, dx, dy):
    terms = {}
    for i in range(dx + 1):
        for j in range(dy + 1):
            if rng.random() < 0.6:
                terms[(i, j)] = rng.randrange(field.order)
    return BiPoly(field, terms)


def test_backend_agreement_random(golden_model, golden_param, cusp_model,
                                  cusp_param, gf2):
    rng = random.Random(2024)
    for model, param, field in ((golden_model, golden_param, gf2),
                                (cusp_model, cusp_param, F5)):
        checked = 0
        while checked < 40:
            g = _random_poly(rng, field, 3, 3)
            if g.is_zero() or g.divmod_y(model.equation)[1].is_zero():
                continue
            try:
                r = valuation_by_resultant(model, g)
            except PreconditionError:
                continue
            assert -valuation(param, g).order == r
            checked += 1


def test_additivity_and_ultrametric(golden_param, gf2):
    rng = random.Random(99)
    field = gf2
    for _ in range(20):
        f = _random_poly(rng, field, 2, 3)
        g = _random_poly(rng, field, 2, 3)
        if f.is_zero() or g.is_zero():
            continue
        vf = valuation(golden_param, f)
        vg = valuation(golden_param, g)
        prod = valuation(golden_param, f * g)
        assert prod.order == vf.order + vg.order
        assert prod.leading == vf.leading * vg.leading
        s = f + g
        if not s.is_zero():
            vs = valuation(golden_param, s)
            assert vs.order >= min(vf.order, vg.order)
            if vf.order != vg.order:
                assert vs.order == min(vf.order, vg.order)


def test_zero_function_rejected(golden_model, golden_param):
    with pytest.raises(PreconditionError):
        valuation(golden_param, golden_model.equation)


def test_denominator_divisible_rejected(golden_model, golden_param, gf2):
    with pytest.raises(PreconditionError):
        valuation(golden_param, BiPoly.one(gf2), golden_model.equation)


def test_precision_stability(cusp_model):
    param = parametrize(cusp_model)
    v1 = valuation(param, BiPoly.x(F5) * BiPoly.y(F5))
    param.refine(64)
    v2 = valuation(param, BiPoly.x(F5) * BiPoly.y(F5))
    assert v1 == v2


def _pad(a, prec):
    """The series a as exactly prec coefficients: cut, or zero-filled."""
    return list(a[:prec]) + [0] * (prec - len(a))


def test_refinement_extends_prefix(cusp_model):
    p1 = parametrize(cusp_model)
    start = p1.precision
    u1, v1 = _pad(p1.u, start), _pad(p1.v, start)
    p1.refine(start + 40)
    assert _pad(p1.u, start) == u1
    assert _pad(p1.v, start) == v1
    assert p1.precision >= start + 40


# the six curves of the benchmark pipeline workloads, then a chart-y curve
SERIES_CURVES = [
    ("GF(2^2)", "Y^2+Y+X^3"),
    ("GF(3^2)", "Y^3+Y+X^4"),
    ("GF(2^4)", "Y^4+Y+X^5"),
    ("GF(2)", "Y^8+Y^2+X^3"),
    ("GF(3)", "Y^9+X^10+X^2"),
    ("GF(2)", "Y^16+X^5+X^3+1"),
    ("GF(2^2)", "X^5+Y^3+[t]"),
]


@pytest.mark.parametrize("field_text, curve, precision", [
    curve + (None,) for curve in SERIES_CURVES] + [
    ("GF(2)", "Y^8+Y^2+X^3", 400),        # refined past the start 4*9^2
])
def test_series_within_precision(field_text, curve, precision):
    """u and v carry at most `precision` coefficients, at the start and
    after a refine to `precision` if one is given; the pole order of v(t)
    is the total degree D of the model (Bezout: the line at infinity meets
    the curve D times, all at the one place P)."""
    model = normalize_degree(parse_poly(curve, parse_field(field_text)))
    param = parametrize(model)
    if precision is not None:
        param.refine(precision)
        assert param.precision == precision
    assert len(param.u) <= param.precision
    assert len(param.v) <= param.precision
    assert param.pole_order == int(model.equation.total_degree)


@pytest.mark.parametrize("field_text, curve", SERIES_CURVES)
def test_start_precision_exceeds_pole_order(monkeypatch, field_text, curve):
    """The start precision max(min(4*D^2, ceiling), D + 1) exceeds the
    pole order D: a ceiling of D stops the expansion at the one ceiling
    check, one of D + 1 suffices."""
    model = normalize_degree(parse_poly(curve, parse_field(field_text)))
    D = int(model.equation.total_degree)
    monkeypatch.setattr(branch, "PRECISION_CEILING", D)
    with pytest.raises(PrecisionCeilingError,
                       match=rf"needs precision {D + 1} beyond the ceiling "
                             rf"{D}$"):
        parametrize(model)
    monkeypatch.setattr(branch, "PRECISION_CEILING", D + 1)
    param = parametrize(model)
    assert (param.precision, param.pole_order) == (D + 1, D)


# the nonzero entries among the first D + 1 coefficients of u and v, and
# (order, leading rep) of eight seeded probes of bidegree <= (3, 3)
SERIES_PIN = {
    ('GF(2^2)', 'Y^2+Y+X^3'): ({6: 1}, {9: 1},
        [(-36, 3), (-36, 3), (-33, 3), (-36, 1), (-33, 2), (-27, 3), (-33, 2), (-36, 1)]),
    ('GF(3^2)', 'Y^3+Y+X^4'): ({4: 1}, {8: 2},
        [(-36, 1), (-32, 7), (-28, 6), (-32, 1), (-32, 2), (-36, 4), (-36, 4), (-36, 7)]),
    ('GF(2^4)', 'Y^4+Y+X^5'): ({10: 1}, {15: 1},
        [(-55, 7), (-60, 8), (-45, 13), (-60, 5), (-50, 9), (-55, 10), (-55, 9), (-55, 9)]),
    ('GF(2)', 'Y^8+Y^2+X^3'): ({6: 1, 7: 1, 8: 1, 9: 1}, {9: 1},
        [(-33, 1), (-30, 1), (-30, 1), (-27, 1), (-27, 1), (-33, 1), (-33, 1), (-33, 1)]),
    ('GF(3)', 'Y^9+X^10+X^2'): ({10: 1}, {20: 2},
        [(-80, 1), (-90, 1), (-29, 2), (-70, 1), (-90, 2), (-80, 1), (-90, 2), (-80, 2)]),
    ('GF(2)', 'Y^16+X^5+X^3+1'): ({20: 1}, {25: 1},
        [(-85, 1), (-90, 1), (-85, 1), (-50, 1), (-85, 1), (-90, 1), (-85, 1), (-85, 1)]),
    ('GF(2^2)', 'X^5+Y^3+[t]'): ({2: 1}, {5: 1},
        [(-21, 1), (-21, 3), (-19, 2), (-19, 2), (-19, 3), (-15, 2), (-18, 3), (-24, 1)]),
}


@pytest.mark.parametrize("field_text, curve", SERIES_CURVES)
def test_parametrization_pin(field_text, curve):
    """The leading series coefficients and the probe valuations of each
    SERIES_CURVES branch are pinned: how the chart, the blowup steps and
    the Newton expansion are oriented must not change them."""
    field = parse_field(field_text)
    model = normalize_degree(parse_poly(curve, field))
    param = parametrize(model)
    D = param.pole_order
    u_pin, v_pin, probes_pin = SERIES_PIN[(field_text, curve)]
    assert {i: c for i, c in enumerate(param.u[:D + 1]) if c} == u_pin
    assert {i: c for i, c in enumerate(param.v[:D + 1]) if c} == v_pin
    rng = random.Random(curve)
    probes = []
    for _ in range(8):
        g = _random_poly(rng, field, 3, 3)
        if g.is_zero() or g.divmod_y(model.equation)[1].is_zero():
            continue
        v = valuation(param, g)
        probes.append((v.order, v.leading.rep))
    assert probes == probes_pin


def _reference_newton_solve(param, prec):
    """The Newton loop with a fresh full-length inverse of G_s(s) at every
    doubling, read at full length too: s <- s - G(s)/G_s(s) mod t^cur."""
    field = param.field
    rows = param._Gterm.rows
    drows = param._Gterm.derivative_y().rows
    s = []
    cur = 1
    while cur < prec:
        cur = min(2 * cur, prec)
        g_at = _ser_horner(rows, s, field, cur)
        gs_at = _ser_horner(drows, s, field, cur)
        corr = _list_mul(g_at, _ser_inv(gs_at, field, cur), field, cur)
        s = _list_mul(corr, [field.neg(1)], field, cur, s)
    return [0, 1], s


@pytest.mark.parametrize("field_text, curve", SERIES_CURVES)
def test_newton_against_full_length_inverse(monkeypatch, field_text, curve):
    """The Newton expansion, which lifts 1/G_s(s) by one Newton-inverse
    step to the half length each doubling reads, gives u and v equal entry
    for entry to the loop that inverts G_s(s) afresh at full length: at
    the start precision, and after a refine to a length that is not a
    power of two."""
    model = normalize_degree(parse_poly(curve, parse_field(field_text)))
    param = parametrize(model)
    monkeypatch.setattr(branch.BranchParam, "_newton_solve",
                        _reference_newton_solve)
    ref = parametrize(model)
    assert (param.u, param.v) == (ref.u, ref.v)
    target = param.precision + 3 * param.pole_order
    param.refine(target)
    ref.refine(target)
    assert param.precision == ref.precision == target
    assert (param.u, param.v) == (ref.u, ref.v)


def _full_pullback_reading(param, g):
    """(order, leading rep) of g along the branch from its pullback at the
    full precision: the order of the series of v^d * g, less d*D."""
    field, D = param.field, param.pole_order
    d = int(g.total_degree)
    series = param._pullback(g, param.precision)
    o = _ser_ord(series)
    return o - d * D, field.div(series[o], field.pow_rep(param.v[D], d))


def _reduced_probe(rng, field, m, d):
    """A seeded polynomial of total degree d whose monomials have
    deg_Y < m = deg_Y F, so that reduction mod F leaves it as it is."""
    dy = rng.randint(0, min(m - 1, d))
    terms = {(i, j): rng.randrange(field.order)
             for i in range(d + 1) for j in range(min(m - 1, d - i) + 1)
             if rng.random() < 0.3}
    terms[(d - dy, dy)] = rng.randrange(1, field.order)
    return BiPoly(field, terms)


@pytest.mark.parametrize("field_text, curve", [
    ("GF(2^2)", "Y^2+Y+X^3"),
    ("GF(3^2)", "Y^3+Y+X^4"),
    ("GF(2)", "Y^8+Y^2+X^3"),
    ("GF(7)", "Y^3+X^5+2*X"),
    ("GF(2^2)", "X^5+Y^3+[t]"),       # chart y
])
def test_truncated_pullback_against_full_precision(field_text, curve):
    """valuation reads the pullback of g to d*D + 1 terms only.  On seeded
    probes of total degree up to 4*D - 1, where d*D + 1 nears the start
    precision 4*D^2, on a power of X or Y, and on quotients of probes, its
    (order, leading) equals the reading of the pullback at full precision,
    and for the polynomial probes the order is minus the resultant
    degree."""
    field = parse_field(field_text)
    model = normalize_degree(parse_poly(curve, field))
    F = model.equation
    param = parametrize(model)
    D, start = param.pole_order, param.precision
    m = len(F.rows) - 1
    rng = random.Random(f"{field_text}:{curve}")

    def probe(d):
        return _reduced_probe(rng, field, m, d)

    top = 4 * D - 1
    # first a reduced power of the coordinate of least pole order, whose
    # first nonzero pullback term lies deepest into the d*D + 1 terms read
    x, y = BiPoly.x(field), BiPoly.y(field)
    low_y = valuation(param, y).order > valuation(param, x).order
    low = y ** min(m - 1, top) if low_y else x ** top
    for g in [low] + [probe(d) for d in [top] + [rng.randint(1, top)
                                                 for _ in range(3)]]:
        v = valuation(param, g)
        assert (v.order, v.leading.rep) == _full_pullback_reading(param, g)
        try:
            r = valuation_by_resultant(model, g)
        except PreconditionError:
            continue
        assert -v.order == r
    for _ in range(3):
        num, den = probe(rng.randint(1, top)), probe(rng.randint(1, top))
        v = valuation(param, num, den)
        (on, cn), (od, cd) = (_full_pullback_reading(param, num),
                              _full_pullback_reading(param, den))
        assert (v.order, v.leading.rep) == (on - od, field.div(cn, cd))
    assert param.precision == start     # no probe made the branch refine


@pytest.mark.parametrize("field_text, curve", SERIES_CURVES)
def test_valuation_at_the_ceiling(monkeypatch, field_text, curve):
    """A valuation of degree d asks for the d*D + 1 terms it reads and no
    more.  On seeded probes, a ceiling of exactly d*D + 1 suffices, with
    the reading of the branch at the default ceiling and minus the
    resultant degree, and a ceiling of d*D stops it.  A valuation past
    the precision refines once: to twice the precision, or else to the
    ceiling."""
    field = parse_field(field_text)
    model = normalize_degree(parse_poly(curve, field))
    full, default = parametrize(model), branch.PRECISION_CEILING
    D, start = full.pole_order, full.precision
    m = len(model.equation.rows) - 1
    rng = random.Random(f"ceiling:{field_text}:{curve}")
    for d in [1, rng.randint(2, D), rng.randint(D + 1, 4 * D - 1)]:
        g = _reduced_probe(rng, field, m, d)
        monkeypatch.setattr(branch, "PRECISION_CEILING", d * D + 1)
        param = parametrize(model)
        v = valuation(param, g)
        assert param.precision == d * D + 1
        assert (v.order, v.leading.rep) == _full_pullback_reading(full, g)
        assert -v.order == valuation_by_resultant(model, g)
        monkeypatch.setattr(branch, "PRECISION_CEILING", d * D)
        with pytest.raises(PrecisionCeilingError,
                           match=rf"needs precision {d * D + 1} beyond the "
                                 rf"ceiling {d * D}$"):
            valuation(parametrize(model), g)
    refines = []
    monkeypatch.setattr(branch.BranchParam, "refine",
                        lambda self, p, refine=branch.BranchParam.refine:
                        (refines.append(p), refine(self, p)))
    x_4d = BiPoly.x(field) ** (4 * D)       # reads 4*D^2 + 1 > start terms
    for ceiling, grown in [(default, 2 * start), (start + D, start + D)]:
        monkeypatch.setattr(branch, "PRECISION_CEILING", ceiling)
        param = parametrize(model)
        refines.clear()
        v = valuation(param, x_4d)
        assert refines == [grown] and param.precision == grown
        assert v.order == 4 * D * valuation(full, BiPoly.x(field)).order


def test_parametrization_annihilates_equation(golden_model, golden_param):
    """Substituting the series into the local equation vanishes to the
    working precision (checked internally; re-assert via the public API by
    refining, which revalidates)."""
    golden_param.refine(golden_param.precision + 8)


def test_precision_ceiling(monkeypatch, cusp_model):
    monkeypatch.setattr(branch, "PRECISION_CEILING", 32)
    param = parametrize(cusp_model)
    big = BiPoly.x(F5) ** 11   # reads 11 * 3 + 1 > 32 series terms
    with pytest.raises(PreconditionError):
        valuation(param, big)


def test_precision_clamped_at_ceiling(monkeypatch, cusp_model):
    """X^12 reads 12*3 + 1 = 37 terms; doubling from the start 4*3^2 = 36
    would ask for 72, so the refinement stops at the ceiling 40 instead."""
    monkeypatch.setattr(branch, "PRECISION_CEILING", 40)
    param = parametrize(cusp_model)
    assert param.precision == 36
    assert valuation(param, BiPoly.x(F5) ** 11).order == -22
    assert param.precision == 36        # X^11 reads 34 terms: no refine
    assert valuation(param, BiPoly.x(F5) ** 12).order == -24
    assert param.precision == 40


def test_non_reduced_curve_refused():
    """(Y + 2*X^3)^2 over GF(5) has a double component: the blowup chain
    never reaches a smooth point and runs out of its guard, which a reduced
    curve cannot do."""
    model = normalize_degree(parse_poly("Y^2+4*X^3*Y+4*X^6", F5))
    with pytest.raises(PreconditionError, match="the curve is not reduced"):
        parametrize(model)


def test_multibranch_detected():
    # Y^2 - X^2*(X+1) has two branches through its node; the degree form
    # Y^2 - X^3 ... over GF(7) the curve Y^2-X^2 has two points at infinity
    model_eq = parse_poly("Y^2-X^2+1", F7)
    with pytest.raises(PreconditionError):
        parametrize(normalize_degree(model_eq))


def _check_against_resultants(field, curve, seed):
    model = normalize_degree(parse_poly(curve, field))
    param = parametrize(model)
    rng = random.Random(seed)
    probes = [BiPoly.x(field), BiPoly.y(field)] + \
        [_random_poly(rng, field, 2, 2) for _ in range(10)]
    for g in probes:
        if g.is_zero() or g.divmod_y(model.equation)[1].is_zero():
            continue
        try:
            r = valuation_by_resultant(model, g)
        except PreconditionError:
            continue
        assert -valuation(param, g).order == r
    return model, param


def test_extension_field_parametrization():
    # the generic (non-Kronecker) series path over GF(4)
    F4 = parse_field("GF(2^2)")
    model, param = _check_against_resultants(F4, "Y^3+[t]*X^2", 4)
    assert -valuation(param, BiPoly.x(F4)).order == 3
    assert -valuation(param, BiPoly.y(F4)).order == 2
    assert valuation_by_resultant(model, BiPoly.x(F4)) == 3
    assert valuation_by_resultant(model, BiPoly.y(F4)) == 2
    # blowups over an odd-characteristic extension field
    F9 = parse_field("GF(3^2)")
    _, param = _check_against_resultants(F9, "Y^3+Y+X^4", 9)
    assert param._steps
    # the chart-y local equation over an extension field
    _, param = _check_against_resultants(F4, "X^5+Y^3+[t]", 5)
    assert param.chart == "y"


# -- the Horner kernel against term-by-term evaluation -----------------------

def _padded_mul(a, b, field, prec):
    """The product of a and b as exactly prec coefficients."""
    return _pad(_list_mul(a[:prec], b[:prec], field, prec), prec)


def _naive_powers(x, field, prec, n):
    """[x^0, ..., x^n] by repeated series products, each padded to prec."""
    powers = [_pad([1], prec)]
    for _ in range(n):
        powers.append(_padded_mul(powers[-1], x, field, prec))
    return powers


def _random_series(rng, field, length, density=0.6):
    return [rng.randrange(field.order) if rng.random() < density else 0
            for _ in range(length)]


@pytest.mark.parametrize("field", [FiniteField(7), FiniteField(2, 2),
                                   FiniteField(3, 2)], ids=repr)
@pytest.mark.parametrize("prec", [5, 20])
def test_ser_horner_against_naive(field, prec):
    # 5*5 < _KRONECKER_CUTOFF <= 20*20: both _list_mul paths over GF(7)
    assert (prec * prec >= _KRONECKER_CUTOFF) == (prec == 20)
    rng = random.Random(31 * prec + field.order)
    # chunks of b = ceil(sqrt(rows)) rows: every chunk shape, full and with
    # a short last chunk, and the single-row Horner case
    for rows in (0, 1, 2, 3, 4, 5, 8, 9, 10, 24, 25, 26, 40):
        for _ in range(2):
            # coefficient series shorter and longer than prec, some empty
            coeffs = [_random_series(rng, field, rng.randrange(2 * prec + 3))
                      for _ in range(rows)]
            x = _random_series(rng, field, rng.randrange(1, prec + 4))
            expected = [0] * prec
            for c, xj in zip(coeffs, _naive_powers(x, field, prec, rows)):
                term = _padded_mul(c, xj, field, prec)
                expected = [field.add(s, t) for s, t in zip(expected, term)]
            got = _ser_horner(coeffs, x, field, prec)
            assert len(got) <= prec
            assert _pad(got, prec) == expected


@pytest.mark.parametrize("field_text, curve", [
    ("GF(2)", "Y^8+Y^2+X^3"),         # blowups, then Newton
    ("GF(5)", "Y^2+X^3"),
    ("GF(2^2)", "X^5+Y^3+[t]"),       # chart y
])
def test_local_equation_check_fires(monkeypatch, field_text, curve):
    """A wrong low-order coefficient of the Newton series cannot slip
    through: the full-precision local-equation check rejects it."""
    field = parse_field(field_text)
    model = normalize_degree(parse_poly(curve, field))
    solve = branch.BranchParam._newton_solve

    def flipped(self, prec):
        t_series, s = solve(self, prec)
        s = list(s)
        s[1] = field.add(s[1], 1)
        return t_series, s

    monkeypatch.setattr(branch.BranchParam, "_newton_solve", flipped)
    with pytest.raises(InconsistencyError,
                       match="parametrization does not annihilate the "
                             "local equation"):
        parametrize(model)


@pytest.mark.parametrize("field_text, curve", [
    ("GF(2)", "Y^8+Y^2+X^3"),
    ("GF(5)", "Y^2+X^3"),
    ("GF(2^2)", "X^5+Y^3+[t]"),
])
def test_pole_order_check_fires(monkeypatch, field_text, curve):
    """A parametrization in t^2 in place of t still annihilates the local
    equation, but its v(t) has order 2*D, not the total degree D: the
    Bezout check rejects it."""
    field = parse_field(field_text)
    model = normalize_degree(parse_poly(curve, field))
    solve = branch.BranchParam._newton_solve

    def in_t_squared(self, prec):
        _, s = solve(self, prec)
        s2 = [0] * (2 * len(s))
        s2[::2] = s
        return [0, 0, 1], s2[:prec]

    monkeypatch.setattr(branch.BranchParam, "_newton_solve", in_t_squared)
    with pytest.raises(InconsistencyError,
                       match=r"v\(t\) does not have order "
                             rf"{int(model.equation.total_degree)}, "):
        parametrize(model)
