import random

import pytest

from weiersem import (BiPoly, InconsistencyError, PreconditionError,
                      ValuedFunction, l_basis, parse_field, parse_poly,
                      reduce_step, semigroup_at_infinity, triangulate,
                      valuation)
from weiersem.polynomials import _exact_quotients
from weiersem.weierstrass import _strip_common_content, _x_content


def test_golden_added_values(golden_report):
    assert golden_report.added_values == (13, 7, 10, 4)
    assert golden_report.s == 4


def test_golden_gamma(golden_report):
    assert sorted(golden_report.gamma.gaps()) == [1, 2, 5]
    assert golden_report.genus == 3
    assert golden_report.gamma.conductor == 6
    assert str(golden_report.gamma) == "<3,4>"


def test_golden_reduction_trace(golden_report):
    assert [g.value for g in golden_report.reduced] == [13, 7, 10, 4]


def test_genus_bookkeeping(golden_report):
    s_p = golden_report.s_p.numerical()
    assert golden_report.genus == s_p.genus - golden_report.s


def test_h4_reduces_13_10_4(golden_seq, golden_param, golden_basis,
                            golden_report):
    """Replay the reduction of the last basis element step by step against
    the table state reached after the first three escapes."""
    from weiersem import FunctionTable
    s_inf = semigroup_at_infinity(golden_seq)
    table = FunctionTable(s_inf, golden_seq.roots, golden_param)
    for num, den in golden_basis[:3]:
        val = valuation(golden_param, num, den)
        fn = ValuedFunction(num, den, -val.order, val.leading.rep)
        assert not table.contains(fn.value)   # each escapes immediately
        table.update_slot(fn.value, fn)
    num, den = golden_basis[3]
    val = valuation(golden_param, num, den)
    g = ValuedFunction(num, den, -val.order, val.leading.rep)
    assert g.value == 13
    g = reduce_step(g, table)
    assert g.value == 10
    g = reduce_step(g, table)
    assert g.value == 4
    with pytest.raises(PreconditionError):
        reduce_step(g, table)   # 4 escaped: not reducible further
    # matches the one-shot result
    assert golden_report.reduced[3].value == 4


def test_smooth_model_triangulates_trivially():
    from weiersem import (am_sequence, normalize_degree, parametrize,
                          parse_field)
    F7 = parse_field("GF(7)")
    model = normalize_degree(parse_poly("Y-X", F7))
    seq = am_sequence(model)
    s_inf = semigroup_at_infinity(seq)
    param = parametrize(model)
    rep = triangulate(s_inf, seq.roots, [], param)
    assert rep.s == 0
    assert rep.added_values == ()
    assert rep.gamma.genus == 0


def test_function_for_values(golden_report, gf2):
    table = golden_report.table
    f0 = table.function_for(0)
    assert f0.num == BiPoly.one(gf2) and f0.value == 0
    f12 = table.function_for(12)
    assert f12.num == BiPoly.x(gf2) * BiPoly.y(gf2)
    assert f12.value == 12
    f4 = table.function_for(4)
    assert f4.value == 4
    with pytest.raises(PreconditionError):
        table.function_for(5)    # a gap of Gamma
    with pytest.raises(PreconditionError):
        table.function_for(-1)


def test_table_revalidates_under_oracle(golden_report, golden_param):
    """-v(h_i * h_e^l) = a_i + l*e for a sweep of (i, l)."""
    table = golden_report.table
    for i in range(table.e):
        for l in (0, 1, 2):
            r = table.slots[i].value + l * table.e
            fn = table.function_for(r)   # function_for checks the oracle
            assert fn.value == r


def test_l_basis_golden(golden_report):
    basis = l_basis(golden_report.table, 10)
    values = [f.value for f in basis]
    assert values == [0, 3, 4, 6, 7, 8, 9, 10]
    assert len(basis) == 10 + 1 - golden_report.genus


def test_l_basis_m0(golden_report):
    basis = l_basis(golden_report.table, 0)
    assert len(basis) == 1 and basis[0].value == 0


def test_l_basis_dimension_sweep(golden_report):
    g = golden_report.genus
    gamma = golden_report.gamma
    for m in range(2 * g - 1, 2 * g + 11):
        basis = l_basis(golden_report.table, m)
        assert len(basis) == m + 1 - g
        values = [f.value for f in basis]
        assert values == sorted(set(values))   # strictly increasing


def test_inconsistent_basis_detected(golden_seq, golden_basis, golden_param):
    """Duplicating a basis element makes it linearly dependent; the
    triangulation must fail with the cardinality diagnostic."""
    s_inf = semigroup_at_infinity(golden_seq)
    bad = list(golden_basis) + [golden_basis[0]]
    with pytest.raises(InconsistencyError):
        triangulate(s_inf, golden_seq.roots, bad, golden_param)


def test_element_of_coordinate_ring_detected(golden_seq, golden_basis,
                                             golden_param, gf2):
    """Padding the basis with X (already in the coordinate ring) makes the
    declared size 5 unreachable; the dependent element reduces to zero."""
    s_inf = semigroup_at_infinity(golden_seq)
    bad = list(golden_basis) + [(BiPoly.x(gf2), BiPoly.one(gf2))]
    with pytest.raises(InconsistencyError):
        triangulate(s_inf, golden_seq.roots, bad, golden_param)


def test_second_pipeline_genus_invariant():
    """A second full pipeline: the cusp Y^2 + X^3 over GF(5) is smooth in
    the affine plane, so its Weierstrass semigroup equals S_P."""
    from weiersem import (am_sequence, normalize_degree, parametrize,
                          parse_field)
    F5 = parse_field("GF(5)")
    model = normalize_degree(parse_poly("Y^2+X^3", F5))
    seq = am_sequence(model)
    s_inf = semigroup_at_infinity(seq)
    rep = triangulate(s_inf, seq.roots, [], parametrize(model))
    assert rep.gamma.genus == 1
    assert sorted(rep.gamma.gaps()) == [1]


def test_cuspidal_cubic_pipeline():
    """Y^2 - X^3 over GF(7) has an affine cusp of delta 1; the basis
    element Y/X (integral since (Y/X)^2 = X) fills the gap 1 and the
    Weierstrass semigroup is all of N (the curve is rational)."""
    from weiersem import (am_sequence, normalize_degree, parametrize,
                          parse_field, parse_rational)
    F7 = parse_field("GF(7)")
    model = normalize_degree(parse_poly("Y^2-X^3", F7))
    seq = am_sequence(model)
    s_inf = semigroup_at_infinity(seq)
    param = parametrize(model)
    rep = triangulate(s_inf, seq.roots, [parse_rational("Y / X", F7)], param)
    assert rep.added_values == (1,)
    assert rep.gamma.genus == 0
    basis = l_basis(rep.table, 5)
    assert [f.value for f in basis] == [0, 1, 2, 3, 4, 5]


def test_reduction_with_nonunit_coefficient_ratio():
    """Odd characteristic: the basis element Y/X + 3X^2 + 5X of the
    cuspidal cubic reduces twice, each step cancelling a leading
    coefficient that is not 1, before escaping at pole order 1."""
    from weiersem import (am_sequence, normalize_degree, parametrize,
                          parse_field, parse_rational, valuation)
    F7 = parse_field("GF(7)")
    model = normalize_degree(parse_poly("Y^2-X^3", F7))
    seq = am_sequence(model)
    s_inf = semigroup_at_infinity(seq)
    param = parametrize(model)
    num, den = parse_rational("Y + 3*X^3 + 5*X^2 / X", F7)
    v = valuation(param, num, den)
    assert (-v.order, v.leading.rep) == (4, 3)
    rep = triangulate(s_inf, seq.roots, [(num, den)], param)
    assert rep.added_values == (1,)
    assert rep.reduced[0].value == 1
    assert rep.gamma.genus == 0


def test_multi_gap_escape_and_early_stop():
    """Y^3 - X^7 over GF(5): the affine cusp has delta 6.  Ordering the
    basis smallest-value-first makes a single escape cover four gaps of
    one residue class at once (2, 5, 8, 11), the next covers (1, 4), and
    the remaining four dependent elements are skipped by the early stop."""
    from weiersem import (am_sequence, normalize_degree, parametrize,
                          parse_field, parse_rational)
    F5 = parse_field("GF(5)")
    model = normalize_degree(parse_poly("Y^3-X^7", F5))
    seq = am_sequence(model)
    assert seq.delta == (3, 7)
    s_inf = semigroup_at_infinity(seq)
    assert sorted(s_inf.numerical().gaps()) == [1, 2, 4, 5, 8, 11]
    param = parametrize(model)
    basis = [parse_rational(s, F5) for s in
             ("Y^2 / X^4", "Y / X^2", "Y / X", "Y^2 / X^3",
              "Y^2 / X^2", "Y^2 / X")]
    rep = triangulate(s_inf, seq.roots, basis, param)
    assert rep.added_values == (2, 5, 8, 11, 1, 4)
    assert [g.value for g in rep.reduced] == [2, 1]   # two escapes only
    assert rep.gamma.genus == 0
    assert rep.gamma.gaps() == []
    # every value now has a verified function
    for r in range(0, 14):
        assert rep.table.function_for(r).value == r


def _report_for(field, curve):
    from weiersem import (am_sequence, normalize_degree, parametrize,
                          parse_field)
    F = parse_field(field)
    model = normalize_degree(parse_poly(curve, F))
    seq = am_sequence(model)
    return seq, triangulate(semigroup_at_infinity(seq), seq.roots, [],
                            parametrize(model))


@pytest.mark.parametrize("case", ["golden", "herm-gf4", "herm-gf16"])
def test_function_for_rule_matches_definition(case, golden_seq,
                                              golden_report):
    """For r in S_P, function_for(r) is the AM power product
    prod F_k^lambda_k with lambda = repr_of(r), built here from the roots
    directly; l_basis is function_for over the elements of Gamma."""
    if case == "golden":
        seq, report = golden_seq, golden_report
    elif case == "herm-gf4":
        seq, report = _report_for("GF(2^2)", "Y^2+Y+X^3")
    else:
        seq, report = _report_for("GF(2^4)", "Y^4+Y+X^5")
    table = report.table
    field = table.oracle.field
    tel = report.s_p
    S_P = tel.numerical()
    lcs = [valuation(table.oracle, F).leading.rep for F in seq.roots]
    bound = 4 * S_P.genus + 2 * table.e
    for r in S_P.elements(bound):
        lam = tel.repr_of(r)
        num = BiPoly.one(field)
        lc = 1
        for F, c, l in zip(seq.roots, lcs, lam):
            num = num * F ** l
            lc = field.mul(lc, field.pow_rep(c, l))
        fn = table.function_for(r)
        assert (fn.num, fn.den, fn.lc, fn.value) == \
            (num, BiPoly.one(field), lc, r), (case, r)
    for m in (0, report.gamma.conductor, bound):
        assert l_basis(table, m) == \
            [table.function_for(r) for r in report.gamma.elements(m)]


def _strip_by_both_contents(num, den):
    """_strip_common_content as the gcd of both X-contents, taken always."""
    g = _x_content(num).gcd(_x_content(den))
    if g.degree >= 1:
        f = num.field
        num, den = (BiPoly.from_y_coeffs(f, _exact_quotients(
            P.rows, g.coeffs, f)) for P in (num, den))
    return num, den


@pytest.mark.parametrize("field_text", ["GF(2)", "GF(5)", "GF(2^2)",
                                        "GF(3^2)"])
def test_strip_common_content_matches_both_contents(field_text):
    field = parse_field(field_text)
    rng = random.Random(field.order)

    def rand(dx, dy):
        return BiPoly(field, {(i, j): rng.randrange(field.order)
                              for i in range(dx + 1) for j in range(dy + 1)
                              if rng.random() < 0.6})

    def x_factor():
        out = BiPoly.one(field)
        for _ in range(rng.randrange(3)):
            out = out * BiPoly(field, {(1, 0): 1,
                                       (0, 0): rng.randrange(field.order)})
        return out

    kinds = {"one": 0, "unit": 0, "content": 0}
    for _ in range(60):
        common = x_factor()
        num = common * x_factor() * rand(2, 3)
        kind = rng.choice(list(kinds))
        if kind == "one":
            den = BiPoly.one(field)
        elif kind == "unit":
            den = BiPoly(field, {(0, 0): rng.randrange(1, field.order)})
        else:
            den = common * x_factor() * rand(2, 2)
        if num.is_zero() or den.is_zero():
            continue
        kinds[kind] += 1
        assert _strip_common_content(num, den) == \
            _strip_by_both_contents(num, den)
    assert min(kinds.values()) > 0
