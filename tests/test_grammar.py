"""Properties of the one sum-of-products grammar: repr round trips, literals
of any length, ASCII digits, bracketed products in t and field elements."""

import random

import pytest

from weiersem import (BiPoly, FiniteField, InputError, UniPoly, parse_field,
                      parse_poly)
from weiersem.parsing import parse_element, parse_rational

FIELDS = [FiniteField(2), FiniteField(7), FiniteField(101), FiniteField(2, 3),
          FiniteField(3, 2), FiniteField(5, 2), FiniteField(2, 8)]
NINES = "9" * 5000


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_repr_roundtrip_random(field):
    rng = random.Random(field.order)
    for _ in range(300):
        terms = {(rng.randrange(12), rng.randrange(12)): rng.randrange(field.order)
                 for _ in range(rng.randrange(1, 8))}
        P = BiPoly(field, terms)
        assert parse_poly(repr(P), field) == P


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_unipoly_repr_roundtrip(field):
    rng = random.Random(field.order + 1)
    for _ in range(100):
        coeffs = [rng.randrange(field.order) for _ in range(rng.randrange(9))]
        P = UniPoly(field, coeffs)
        assert parse_poly(repr(P), field) == \
            BiPoly(field, {(e, 0): c for e, c in enumerate(coeffs)})
    assert repr(UniPoly.zero(field)) == "0"
    assert parse_poly("0", field).is_zero()


@pytest.mark.parametrize("field", [FiniteField(2), FiniteField(101),
                                   FiniteField(3, 2)], ids=repr)
def test_long_coefficient_literal_is_reduced(field):
    c = (pow(10, 5000, field.p) - 1) % field.p     # NINES mod p
    P = parse_poly(f"{NINES}*Y^3+X^2+1", field)
    assert P.coeff(0, 3) == c
    assert parse_poly("0" * 4999 + "12", field) == \
        parse_poly(str(12 % field.p), field)


def test_long_literals_in_brackets_and_exponents():
    F4 = parse_field("GF(2^2)")
    assert parse_poly(f"[{NINES}*t]*Y", F4) == parse_poly("[t]*Y", F4)
    for bad in (f"[t^{NINES}]*Y^3+X^2+1", f"X^{NINES}", f"Y^{'0' * 5000}851"):
        with pytest.raises(InputError):
            parse_poly(bad, F4)
    assert parse_poly(f"Y^{'0' * 5000}3", F4) == parse_poly("Y^3", F4)


@pytest.mark.parametrize("spec", [f"GF({NINES})", f"GF(2^{NINES})",
                                  "GF(1048583)", "GF(2^21)", "GF(3^13)"])
def test_field_spec_above_the_order_limit(spec):
    with pytest.raises(InputError, match="desk-scale limit 2"):
        parse_field(spec)


@pytest.mark.parametrize("text", ["Y^3+X^2+١", "X²+Y", "Y^٣",
                                  "[١]*X", "１*X"])
def test_non_ascii_digits_rejected(text):
    with pytest.raises(InputError,
                       match="unexpected character|missing exponent"):
        parse_poly(text, parse_field("GF(2^2)"))


def test_non_ascii_field_digits_rejected():
    with pytest.raises(InputError, match="bad field spec"):
        parse_field("GF(٣)")


def test_bracket_is_the_same_product_grammar():
    F27 = parse_field("GF(3^3)")
    same = [("[tt]", "[t^2]"), ("[2t]", "[2*t]"), ("[t2]", "[2*t]"),
            ("[2*2]", "[1]"), ("[t*t-t]", "[t^2+2*t]"), ("[064t]", "[t]")]
    for a, b in same:
        assert parse_poly(a + "*X", F27) == parse_poly(b + "*X", F27)
    for bad in ("[*t]", "[2*]", "[0*-t]", "[t*t*t]", "[[t]]", "[t", "t]",
                "[X]", "[t/2]"):
        with pytest.raises(InputError):
            parse_poly(bad, F27)


@pytest.mark.parametrize("field", [FiniteField(7), FiniteField(2, 3),
                                   FiniteField(3, 2)], ids=repr)
def test_parse_element_reads_every_formatted_element(field):
    for rep in range(field.order):
        text = field.format_rep(rep)
        assert parse_element(text, field) == rep
        assert parse_element(f"[{text}]", field) == rep


def test_parse_element_rejects_non_elements():
    F8 = parse_field("GF(2^3)")
    assert parse_element("[t]*t+1", F8) == parse_element("t^2+1", F8)
    for bad in ("X", "t^3", "t*t*t", "", "1/t", "[t]^2"):
        with pytest.raises(InputError):
            parse_element(bad, F8)


def test_rational_split_errors():
    F2 = parse_field("GF(2)")
    for bad in ("X/Y/X", "X/0", "X/", "/X", "X/[1"):
        with pytest.raises(InputError):
            parse_rational(bad, F2)
