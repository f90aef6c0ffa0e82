import pytest

from weiersem import (BiPoly, InputError, parse_field, parse_generators,
                      parse_poly, parse_rational)
from weiersem.fields import ORDER_LIMIT
from weiersem.polynomials import DEGREE_LIMIT


def test_parse_field_specs():
    assert parse_field("GF(2)").order == 2
    assert parse_field("GF(2^3)").order == 8
    assert parse_field("GF( 5 )").order == 5


@pytest.mark.parametrize("bad", ["GF(4)", "GF(6)", "GF", "GF(2^0)", "F(2)"])
def test_parse_field_rejects(bad):
    with pytest.raises(InputError):
        parse_field(bad)


def test_parse_plain_poly(gf2):
    P = parse_poly("Y^8 + Y^2 + X^3", gf2)
    assert P.terms == {(0, 8): 1, (0, 2): 1, (3, 0): 1}


def test_signs_and_coefficients():
    F7 = parse_field("GF(7)")
    P = parse_poly("Y^2 - 3*X*Y + 2*X^2 + 1", F7)
    assert P.coeff(1, 1) == 4  # -3 mod 7
    assert P.coeff(2, 0) == 2
    assert P.coeff(0, 0) == 1


def test_extension_coefficients():
    F8 = parse_field("GF(2^3)")
    P = parse_poly("[t^2+1]*X*Y^3 + [t]*Y + 1", F8)
    assert P.coeff(1, 3) == 5
    assert P.coeff(0, 1) == 2
    assert P.coeff(0, 0) == 1


def test_coefficient_reduction_into_field(gf2):
    assert parse_poly("2*X + 3", gf2) == parse_poly("1", gf2)


def test_whitespace_insignificant(gf2):
    assert parse_poly(" Y ^ 2 + X ", gf2) == parse_poly("Y^2+X", gf2)


def test_rational_split(gf2):
    num, den = parse_rational("Y+Y^7 / X+Y^3", gf2)
    assert num == parse_poly("Y+Y^7", gf2)
    assert den == parse_poly("X+Y^3", gf2)


def test_rational_default_denominator(gf2):
    num, den = parse_rational("X^2", gf2)
    assert den == BiPoly.one(gf2)


@pytest.mark.parametrize("bad", ["", "X^", "X+*Y", "Z+1", "[t^9+1]*X", "X//Y"])
def test_parse_poly_rejects(bad):
    F8 = parse_field("GF(2^3)")
    with pytest.raises(InputError):
        if "/" in bad:
            parse_rational(bad, F8)
        else:
            parse_poly(bad, F8)


def test_parse_poly_degree_limit(gf2):
    L = DEGREE_LIMIT
    assert parse_poly(f"X^{L}+Y^{L}", gf2).total_degree == L
    assert parse_poly(f"Y^00{L}", gf2).deg_y == L
    for bad in (f"X^{L + 1}+Y", f"Y^{L + 1}", f"X^{L}*X", "X^600*X^600",
                "Y^99999999999999999999+X^3", "Y^" + "9" * 5000):
        with pytest.raises(InputError, match=f"degree limit {L}$"):
            parse_poly(bad, gf2)


def test_parse_generators():
    assert parse_generators("9,3,8") == [9, 3, 8]
    with pytest.raises(InputError):
        parse_generators("9,0,8")
    with pytest.raises(InputError):
        parse_generators("a,b")


def test_parse_generators_grammar_and_cap():
    assert parse_generators(" 3 , 4 ,") == [3, 4]
    assert parse_generators(f"{ORDER_LIMIT},3") == [ORDER_LIMIT, 3]
    for bad in ("\u0663,\u0664", "1_0,3", " +4, 3", "-3,4", "3 4", "3.0,4"):
        with pytest.raises(InputError, match="bad generator list"):
            parse_generators(bad)
    for bad in (f"{ORDER_LIMIT + 1},{ORDER_LIMIT + 2}", "3," + "9" * 5000,
                "0" * 5000 + "1048577"):
        with pytest.raises(InputError, match="at most 2\\^20"):
            parse_generators(bad)
