"""FieldElement equality and hashing agree, and the one square-and-multiply
ladder gives the powers of every type that uses it."""

import operator
import pickle

import pytest

from weiersem import BiPoly, FiniteField, UniPoly
from weiersem.fields import FieldElement, power


@pytest.mark.parametrize("field", [FiniteField(5), FiniteField(2, 2),
                                   FiniteField(3, 2)], ids=repr)
def test_equal_to_int_implies_equal_hash(field):
    for rep in range(field.order):
        e = field.from_rep(rep)
        for n in range(-10, 11):
            if e == n:
                assert hash(e) == hash(n)
                assert 0 <= n < field.p and rep == n


def test_int_and_element_collapse_in_a_set():
    F5 = FiniteField(5)
    assert len({FieldElement(F5, 3), 3}) == 1
    assert FieldElement(F5, 3) != 8 and FieldElement(F5, 3) != -2
    assert FieldElement(F5, 3) == F5(8)       # ints still coerce in F(n)


def test_power_multiplication_sequence():
    calls = []

    def mul(a, b):
        calls.append((a, b))
        return a * b

    assert power(3, 13, mul, 1) == 3 ** 13
    # bits of 13 = 1101, low to high: multiply on bits 0, 2, 3; square
    # after every bit but the top one
    assert calls == [(1, 3), (3, 3), (9, 9), (3, 81), (81, 81),
                     (243, 6561)]
    assert power("x", 0, operator.add, "one") == "one"


@pytest.mark.parametrize("field", [FiniteField(7), FiniteField(3, 2)],
                         ids=repr)
def test_power_matches_repeated_products(field):
    u = UniPoly(field, [1, field.order - 1, 2])
    b = BiPoly(field, {(1, 0): 1, (0, 2): field.order - 1, (0, 0): 1})
    pu, pb = UniPoly.one(field), BiPoly.one(field)
    for e in range(9):
        assert u ** e == pu and b ** e == pb
        pu, pb = pu * u, pb * b
    for rep in range(1, field.order):
        assert power(rep, field.order - 1, field._raw_mul, 1) == 1


@pytest.mark.parametrize("field", [FiniteField(5), FiniteField(2, 3),
                                   FiniteField(3, 2), FiniteField(257, 2)],
                         ids=repr)
def test_field_pickles_with_its_arithmetic(field):
    """A field, its elements and polynomials survive pickling: the copy is
    an equal field that binds the same arithmetic again."""
    copy = pickle.loads(pickle.dumps(field))
    assert copy == field and hash(copy) == hash(field)
    a, b = 2, field.order - 1
    assert copy.mul(a, b) == field.mul(a, b)
    assert copy.add(a, b) == field.add(a, b)
    assert copy.inv(b) == field.inv(b)
    u = UniPoly(field, [1, 2, field.order - 1])
    assert pickle.loads(pickle.dumps(u)) == u
    x = field.from_rep(a)
    assert pickle.loads(pickle.dumps(x)) * x == x * x
