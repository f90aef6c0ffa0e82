import random

import pytest

from weiersem import (BiPoly, FiniteField, InconsistencyError, InputError,
                      PreconditionError, branch, normalize_degree,
                      parse_field, parse_poly, parse_rational, parametrize,
                      valuation, valuation_by_resultant)
from weiersem.branch import (DEFAULT_PRECISION_CEILING, _ser_horner,
                             precision_ceiling)
from weiersem.polynomials import _KRONECKER_CUTOFF, _list_mul

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


@pytest.mark.parametrize("precision", [4, 9])
def test_low_start_precision_refines(golden_model, golden_param, golden_seq,
                                     precision):
    """A start precision at or below the pole order of v (9 on the golden
    curve) doubles until v(t) shows, instead of failing."""
    param = parametrize(golden_model, precision=precision)
    assert param.pole_order == golden_param.pole_order == 9
    for root in golden_seq.roots:
        assert valuation(param, root) == valuation(golden_param, root)


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
    param = parametrize(cusp_model, precision=16)
    v1 = valuation(param, BiPoly.x(F5) * BiPoly.y(F5))
    param.refine(64)
    v2 = valuation(param, BiPoly.x(F5) * BiPoly.y(F5))
    assert v1 == v2


def _pad(a, prec):
    """The series a as exactly prec coefficients: cut, or zero-filled."""
    return list(a[:prec]) + [0] * (prec - len(a))


def test_refinement_extends_prefix(cusp_model):
    p1 = parametrize(cusp_model, precision=12)
    u1, v1 = _pad(p1.u, 12), _pad(p1.v, 12)
    p1.refine(40)
    assert _pad(p1.u, 12) == u1
    assert _pad(p1.v, 12) == v1
    assert p1.precision >= 40


@pytest.mark.parametrize("field_text, curve, precision", [
    ("GF(2^2)", "Y^2+Y+X^3", None),
    ("GF(3^2)", "Y^3+Y+X^4", None),
    ("GF(2^4)", "Y^4+Y+X^5", None),
    ("GF(2)", "Y^8+Y^2+X^3", None),
    ("GF(3)", "Y^9+X^10+X^2", None),
    ("GF(2)", "Y^16+X^5+X^3+1", None),
    ("GF(2^2)", "X^5+Y^3+[t]", None),     # chart y
    ("GF(2)", "Y^8+Y^2+X^3", 9),          # refined past the pole order
])
def test_series_within_precision(field_text, curve, precision):
    """u and v carry at most `precision` coefficients."""
    field = parse_field(field_text)
    param = parametrize(normalize_degree(parse_poly(curve, field)), precision)
    assert len(param.u) <= param.precision
    assert len(param.v) <= param.precision


def test_parametrization_annihilates_equation(golden_model, golden_param):
    """Substituting the series into the local equation vanishes to the
    working precision (checked internally; re-assert via the public API by
    refining, which revalidates)."""
    golden_param.refine(golden_param.precision + 8)


def test_precision_ceiling(monkeypatch, cusp_model):
    monkeypatch.setenv("WEIERSTRASS_PRECISION_CEILING", "32")
    param = parametrize(cusp_model, precision=16)
    big = BiPoly.x(F5) ** 11   # needs 11 * 3 + 4 > 32 series terms
    with pytest.raises(PreconditionError):
        valuation(param, big)


def test_precision_clamped_at_ceiling(monkeypatch, cusp_model):
    """X^11 needs 37 terms; doubling from 16 would ask for 64, so the
    refinement stops at the ceiling 40 instead."""
    monkeypatch.setenv("WEIERSTRASS_PRECISION_CEILING", "40")
    param = parametrize(cusp_model, precision=16)
    assert valuation(param, BiPoly.x(F5) ** 11).order == -22
    assert param.precision == 40


@pytest.mark.parametrize("value", ["abc", "-5", "0", "1.5", "0x40"])
def test_precision_ceiling_rejects_malformed(monkeypatch, cusp_model, value):
    monkeypatch.setenv("WEIERSTRASS_PRECISION_CEILING", value)
    with pytest.raises(InputError, match="WEIERSTRASS_PRECISION_CEILING"):
        precision_ceiling()
    with pytest.raises(InputError):
        parametrize(cusp_model)


def test_precision_ceiling_accepted_values(monkeypatch):
    monkeypatch.setenv("WEIERSTRASS_PRECISION_CEILING", "1")
    assert precision_ceiling() == 1
    monkeypatch.setenv("WEIERSTRASS_PRECISION_CEILING", "")
    assert precision_ceiling() == DEFAULT_PRECISION_CEILING
    monkeypatch.delenv("WEIERSTRASS_PRECISION_CEILING")
    assert precision_ceiling() == DEFAULT_PRECISION_CEILING


def test_multibranch_detected():
    # Y^2 - X^2*(X+1) has two branches through its node; the degree form
    # Y^2 - X^3 ... over GF(7) the curve Y^2-X^2 has two points at infinity
    model_eq = parse_poly("Y^2-X^2+1", F7)
    with pytest.raises(PreconditionError):
        parametrize(normalize_degree(model_eq))


def _check_against_resultants(field, curve, precision, seed):
    model = normalize_degree(parse_poly(curve, field))
    param = parametrize(model, precision=precision)
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
    model, param = _check_against_resultants(F4, "Y^3+[t]*X^2", 48, 4)
    assert -valuation(param, BiPoly.x(F4)).order == 3
    assert -valuation(param, BiPoly.y(F4)).order == 2
    assert valuation_by_resultant(model, BiPoly.x(F4)) == 3
    assert valuation_by_resultant(model, BiPoly.y(F4)) == 2
    # blowups over an odd-characteristic extension field
    F9 = parse_field("GF(3^2)")
    _, param = _check_against_resultants(F9, "Y^3+Y+X^4", 48, 9)
    assert param._steps
    # the chart-y local equation over an extension field
    _, param = _check_against_resultants(F4, "X^5+Y^3+[t]", None, 5)
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
        parametrize(model, precision=32)
