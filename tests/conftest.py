import math
import os
import random

import pytest

from weiersem import (am_sequence, normalize_degree, parametrize, parse_field,
                      parse_poly, parse_rational, semigroup_at_infinity,
                      triangulate)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def pytest_configure(config):
    """Child interpreters (the console-script test) import the package from
    the checkout, as the `pythonpath` setting lets this one."""
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))


GOLDEN_BASIS_LINES = [
    "Y+Y^7 / X+Y^3",
    "Y+Y^7 / X*Y^2+X*Y+X+Y^5+Y^4+Y^3",
    "X^2+Y^6 / Y^2+Y+1",
    "Y^7+Y^6+Y^5+Y^4+Y^3+Y^2 / X+Y^3",
]


@pytest.fixture(scope="session")
def gf2():
    return parse_field("GF(2)")


@pytest.fixture(scope="session")
def golden_model(gf2):
    return normalize_degree(parse_poly("Y^8+Y^2+X^3", gf2))


@pytest.fixture(scope="session")
def golden_seq(golden_model):
    return am_sequence(golden_model)


@pytest.fixture(scope="session")
def golden_param(golden_model):
    return parametrize(golden_model)


@pytest.fixture(scope="session")
def golden_basis(gf2):
    return [parse_rational(line, gf2) for line in GOLDEN_BASIS_LINES]


@pytest.fixture(scope="session")
def golden_report(golden_seq, golden_basis, golden_param):
    s_inf = semigroup_at_infinity(golden_seq)
    return triangulate(s_inf, golden_seq.roots, golden_basis, golden_param)


def random_semigroup_gens(rng, max_mult=12, max_genus=25):
    """Deterministic rejection sampling of generator lists."""
    while True:
        e0 = rng.randint(2, max_mult)
        gens = [e0] + [rng.randint(e0 + 1, e0 + 25)
                       for _ in range(rng.randint(1, 4))]
        if math.gcd(*gens) != 1:
            continue
        from weiersem import NumericalSemigroup
        S = NumericalSemigroup.from_generators(gens)
        if S.genus <= max_genus:
            return gens, S


def scaled_member(value, gens):
    """Membership in <gens> for a not necessarily coprime generator list,
    by the Dijkstra Apery array of the scaled generators: the oracle for
    the telescopic check."""
    from weiersem import NumericalSemigroup
    g = math.gcd(*gens)
    if value % g:
        return False
    scaled = [x // g for x in gens]
    return (value // g) in NumericalSemigroup.from_generators(scaled)


def random_telescopic(rng):
    """Random telescopic generator sequence (delta_0, ..., delta_h), built
    and checked with the Dijkstra oracle only."""
    while True:
        h = rng.randint(1, 3)
        ns = [rng.choice([2, 2, 3]) for _ in range(h)]
        d = [1]
        for n in reversed(ns):
            d.insert(0, d[0] * n)
        delta0 = d[0]
        gens = [delta0]
        ok = True
        for i in range(1, h + 1):
            target = None
            for _ in range(40):
                cand = d[i] * rng.randint(2, 12)
                if math.gcd(cand, d[i - 1]) != d[i]:
                    continue
                if scaled_member(ns[i - 1] * cand, gens):
                    target = cand
                    break
            if target is None:
                ok = False
                break
            gens.append(target)
        if ok:
            return gens


def slot_width(la, lb, p, addend=False):
    """Bytes of the `_kronecker_mul` slot for these lengths over GF(p)."""
    bound = min(la, lb) * (p - 1) ** 2 + (p - 1 if addend else 0)
    return min(w for w in (1, 2, 4, 8) if bound < 256 ** w)


def kronecker_path(la, lb, p, addend=False):
    """(pack, unpack) path `_kronecker_mul` takes: reps of p < 256 pack
    as bytes, into the low byte of wider slots by a strided copy, and
    unpack by one translate of the low byte plane (p = 2, or 1-byte slots)
    or by a sum of translated planes while their count times p-1 is below
    256; every other slot goes through an array."""
    width = slot_width(la, lb, p, addend)
    if p >= 256:
        return "array", "array"
    pack = "bytes" if width == 1 else "strided"
    planes = 1 if p == 2 else width
    if planes * (p - 1) >= 256:
        return pack, "array"
    return pack, "one plane" if planes == 1 else "plane sum"
