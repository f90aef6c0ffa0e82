"""Acceptance criteria, one test per criterion, each printing a PASS line
(run with `pytest -s tests/test_acceptance.py` to see them live)."""

import random
import time

import pytest

from weiersem import (BiPoly, FiniteField, HypothesisError,
                      NumericalSemigroup, TelescopicStructure, am_sequence,
                      build_code, enumerate_points, normalize_degree,
                      one_branch_criterion, parametrize, parse_field,
                      parse_poly, parse_rational, semigroup_at_infinity,
                      triangulate, valuation, valuation_by_resultant)

from conftest import GOLDEN_BASIS_LINES, random_semigroup_gens, \
    random_telescopic


def _report(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_criterion_1_golden_end_to_end():
    t0 = time.monotonic()
    gf2 = parse_field("GF(2)")
    model = normalize_degree(parse_poly("Y^8+Y^2+X^3", gf2))
    assert model.subst_k == 3
    seq = am_sequence(model)
    assert seq.h == 2
    assert seq.delta == (9, 3, 8)
    assert repr(seq.roots[2]) == "Y^3+Y^2+Y+X+1"
    assert one_branch_criterion(seq).one_branch
    s_inf = semigroup_at_infinity(seq)
    param = parametrize(model)
    basis = [parse_rational(line, gf2) for line in GOLDEN_BASIS_LINES]
    report = triangulate(s_inf, seq.roots, basis, param)
    assert set(report.added_values) == {13, 7, 10, 4}
    assert report.added_values == (13, 7, 10, 4)
    assert sorted(report.gamma.gaps()) == [1, 2, 5]
    assert report.genus == 3
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(1, f"golden curve end to end: k=3, h=2, delta=(9,3,8), "
               f"added {{13,7,10,4}}, gaps {{1,2,5}} in {elapsed:.2f}s")


def test_criterion_2_negative_golden_and_counter_semigroup():
    gf2 = parse_field("GF(2)")
    with pytest.raises(HypothesisError):
        normalize_degree(parse_poly("Y^8+Y+X^10+X^3", gf2))
    # CLI surface returns exit code 2 for the same input
    import io

    from weiersem.cli import run
    code = run(["curve", "analyze", "--field", "GF(2)",
                "--curve", "Y^8+Y+X^10+X^3"], out=io.StringIO())
    assert code == 2
    S = NumericalSemigroup.from_generators([8, 10, 12, 13])
    res = S.q0_m0()
    assert S.conductor == 28
    assert res.q0 == 25
    _report(2, "counterexample rejected with the hypothesis diagnostic "
               "(exit 2); <8,10,12,13> has c=28, q0=25")


def test_criterion_3_symmetric_example_sweep():
    t0 = time.monotonic()
    cases = [
        ([9, 12, 15, 17, 20, 23, 25, 28], 32, 25, 38),
        ([6, 8, 10, 17, 19], 22, 19, 24),
        ([8, 10, 12, 13], 28, 25, 31),
        ([6, 10, 15], 30, 29, 30),
    ]
    notes = []
    for gens, c_paper, q0_paper, threshold_paper in cases:
        S = NumericalSemigroup.from_generators(gens)
        res = S.q0_m0()
        assert S.conductor == c_paper, gens
        assert res.q0 == q0_paper, gens
        # oracle: last element of S where [@] fails
        limit = 4 * S.genus + 4
        fails = [m for m in S.elements(limit)
                 if S.feng_rao_bruteforce(m) != S.min_formula_rhs(m)]
        oracle_threshold = (max(fails) + 1) if fails else 0
        if res.m0 in S:
            assert oracle_threshold == res.m0 + 1, gens
        else:
            # m_0 is a gap; the formula is vacuous between the last failing
            # element and m_0, so the oracle threshold may sit lower
            assert oracle_threshold <= res.m0 + 1, gens
        if res.m0 + 1 != threshold_paper:
            notes.append(
                f"<{','.join(map(str, gens))}>: computed threshold "
                f"{res.m0 + 1} (oracle {oracle_threshold}) vs printed "
                f"{threshold_paper}")
            assert gens == [8, 10, 12, 13]      # the known discrepancy only
            assert res.m0 + 1 == 30 and oracle_threshold == 30
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    note = ("; ".join(notes)) if notes else "all thresholds agree"
    _report(3, f"(c, q0) match on all four semigroups in {elapsed:.2f}s; {note}")


def test_criterion_4_oracle_equivalence_suite():
    t0 = time.monotonic()
    rng = random.Random(20260810)
    symmetric_seen = 0
    for _ in range(50):
        gens, S = random_semigroup_gens(rng)
        g = S.genus
        for m in S.elements(4 * g + 2 * S.e):
            nu = S.nu(m)
            assert nu == S.nu_bruteforce(m), (gens, m)
            fr = S.feng_rao(m)
            assert fr == S.feng_rao_bruteforce(m), (gens, m)
            if m > 0:
                assert 2 <= nu <= m + 1 and 2 <= fr <= m + 1
            if m >= S.conductor:
                assert nu == m + 1 - 2 * g + S.gap_pair_count(m)
            if m >= 4 * g - 1:
                assert nu == m + 1 - 2 * g
                assert fr == m + 1 - 2 * g
            assert fr >= m + 1 - 2 * g
        if S.is_symmetric():
            symmetric_seen += 1
            c = S.conductor
            for m in range(c, 2 * c - 1):
                assert S.feng_rao_symmetric(m) == S.feng_rao(m), (gens, m)
            for e in S.elements(3 * c):
                if e:
                    assert S.feng_rao(2 * g - 1 + e) == e, (gens, e)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(4, f"50 seeded semigroups, zero violations "
               f"({symmetric_seen} symmetric) in {elapsed:.2f}s")


def test_criterion_5_telescopic_suite():
    rng = random.Random(50505)
    for _ in range(20):
        gens = random_telescopic(rng)
        T = TelescopicStructure(gens)
        S_piv = NumericalSemigroup.from_generators(gens, pivot=gens[0])
        assert tuple(T.apery()) == S_piv.apery, gens
        S = NumericalSemigroup.from_generators(gens)
        for m in S.elements(2 * S.genus + 2 * S.e + 4):
            lam = T.repr_of(m)
            assert sum(l * g for l, g in zip(lam, gens)) == m
    rng2 = random.Random(61616)
    for _ in range(50):
        gens, S = random_semigroup_gens(rng2)
        b = rng2.randint(1, S.conductor + S.e + 4)
        A = S.adjoin_with_trace(b)[0]
        R = NumericalSemigroup.from_generators(list(gens) + [b], pivot=S.e)
        assert A.apery == R.apery, (gens, b)
    _report(5, "20 telescopic semigroups and 50 adjunctions, zero violations")


def _find_degree5_one_branch_curve(field):
    """Deterministic search for a singular one-branch curve of degree 5."""
    for c3 in range(7):
        for c2 in range(7):
            for c1 in range(7):
                if not (c3 or c2 or c1):
                    continue
                terms = {(0, 5): 1}
                if c3:
                    terms[(3, 0)] = c3
                if c2:
                    terms[(2, 0)] = c2
                if c1:
                    terms[(1, 0)] = c1
                F = BiPoly(field, terms)
                try:
                    model = normalize_degree(F)
                    seq = am_sequence(model)
                except Exception:
                    continue
                if not one_branch_criterion(seq).one_branch:
                    continue
                S = semigroup_at_infinity(seq).numerical()
                if S.genus > 0:
                    return model, seq
    raise AssertionError("search found no degree-5 one-branch curve")


def test_criterion_6_valuation_backend_agreement():
    rng = random.Random(606060)
    gf2 = parse_field("GF(2)")
    gf5 = parse_field("GF(5)")
    gf7 = parse_field("GF(7)")
    golden = normalize_degree(parse_poly("Y^8+Y^2+X^3", gf2))
    cusp = normalize_degree(parse_poly("Y^2+X^3", gf5))
    deg5, deg5_seq = _find_degree5_one_branch_curve(gf7)
    assert int(deg5.equation.total_degree) == 5
    curves = [(golden, gf2), (cusp, gf5), (deg5, gf7)]
    for model, field in curves:
        param = parametrize(model)
        seq = am_sequence(model)
        for root, delta in zip(seq.roots, seq.delta):
            assert -valuation(param, root).order == delta
            assert valuation_by_resultant(model, root) == delta
        checked = 0
        while checked < 100:
            terms = {}
            for i in range(rng.randint(0, 3) + 1):
                for j in range(rng.randint(0, 3) + 1):
                    if rng.random() < 0.6:
                        terms[(i, j)] = rng.randrange(field.order)
            g = BiPoly(field, terms)
            if g.is_zero() or g.divmod_y(model.equation)[1].is_zero():
                continue
            try:
                r = valuation_by_resultant(model, g)
            except Exception:
                continue
            assert -valuation(param, g).order == r, (model.equation, g)
            checked += 1
    _report(6, f"series and resultant valuations agree on 100 random "
               f"polynomials per curve; degree-5 curve: {deg5.equation}")


def test_criterion_7_riemann_roch_desk_check():
    t0 = time.monotonic()
    gf2 = parse_field("GF(2)")
    model = normalize_degree(parse_poly("Y^8+Y^2+X^3", gf2))
    seq = am_sequence(model)
    s_inf = semigroup_at_infinity(seq)
    param = parametrize(model)
    basis = [parse_rational(line, gf2) for line in GOLDEN_BASIS_LINES]
    report = triangulate(s_inf, seq.roots, basis, param)
    gf8 = FiniteField(2, 3)
    table = report.table
    dens = []
    seen = set()
    for fn in list(table.slots) + [table.h_e]:
        if fn.den.total_degree and fn.den not in seen:
            seen.add(fn.den)
            dens.append(fn.den)
    points = enumerate_points(model, gf8, avoid=dens)
    n = len(points)
    g = report.genus
    assert n > 2 * g - 1, "no m satisfies 2g-2 < m < n"
    checked = []
    for m in range(2 * g - 1, n):
        spec = build_code(table, points, m)
        assert spec.rank == m + 1 - g, m
        assert spec.k == n - m + g - 1, m
        checked.append(m)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(7, f"n = {n} points over GF(8); rank = m+1-g and "
               f"k = n-m+g-1 for m in {checked} in {elapsed:.2f}s")
