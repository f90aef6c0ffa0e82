import itertools
import random
from bisect import bisect_right
from types import SimpleNamespace

import pytest

from weiersem import (FiniteField, PreconditionError, am_sequence,
                      bidim_syndrome, build_code, distance_bound_table,
                      enumerate_points, in_code, known_syndromes,
                      min_distance_exact, normalize_degree, parametrize,
                      parse_field, parse_poly, semigroup_at_infinity,
                      triangulate)
from weiersem.codes import (_forward_eliminate, _nullspace, _reduced_basis,
                            _values)


@pytest.fixture(scope="module")
def gf8():
    return FiniteField(2, 3)


@pytest.fixture(scope="module")
def golden_points(golden_model, golden_report, gf8):
    return enumerate_points(golden_model, gf8,
                            avoid=golden_report.table.denominators())


def test_point_enumeration(golden_model, golden_points, gf8):
    # the golden curve has one x per y over GF(8) (cubing is a bijection),
    # 8 affine points of which 2 are singular
    assert len(golden_points) == 6
    base = golden_model.field
    F = golden_model.equation.lift(gf8, base.embedding_into(gf8))
    for x, y in golden_points.points:
        assert F.eval_rep(x, y) == 0


def test_singular_points_excluded(golden_model, gf8):
    all_pts = enumerate_points(golden_model, gf8, include_singular=True)
    smooth = enumerate_points(golden_model, gf8)
    assert len(all_pts) == 8
    assert len(smooth) == 6
    assert set(all_pts.points) - set(smooth.points) == {(0, 0), (1, 1)}


def test_riemann_roch_window(golden_report, golden_points):
    g = golden_report.genus
    n = len(golden_points)
    assert n > 2 * g - 1
    for m in range(2 * g - 1, n):
        spec = build_code(golden_report.table, golden_points, m)
        assert spec.rank == m + 1 - g
        assert spec.k == n - m + g - 1


def test_m0_all_ones_row(golden_report, golden_points):
    spec = build_code(golden_report.table, golden_points, 0)
    assert spec.row_values == (0,)
    assert all(x == 1 for x in spec.matrix[0])
    assert spec.k == len(golden_points) - 1


def test_zero_word_in_code(golden_report, golden_points):
    spec = build_code(golden_report.table, golden_points, 4)
    assert in_code(spec, [0] * spec.n)


def test_matrix_row_not_in_dual(golden_report, golden_points):
    spec = build_code(golden_report.table, golden_points, 4)
    row = list(spec.matrix[-1])
    assert any(s for _, s in known_syndromes(spec, row))


def test_dual_consistency(golden_report, golden_points, gf8):
    spec = build_code(golden_report.table, golden_points, 5)
    null = _nullspace([list(r) for r in spec.matrix], gf8)
    assert len(null) == spec.k
    for vec in null:
        assert in_code(spec, vec)


def test_syndrome_length_mismatch(golden_report, golden_points):
    from weiersem import InputError
    spec = build_code(golden_report.table, golden_points, 4)
    with pytest.raises(InputError):
        known_syndromes(spec, [0] * (spec.n + 1))


def test_bidim_syndrome_spot_values(golden_report, golden_points, gf8):
    """s_(i,j)(e) for a weight-2 error against direct summation."""
    table = golden_report.table
    base = table.oracle.field
    embed = base.embedding_into(gf8)
    err = [0] * len(golden_points)
    err[0] = 3
    err[2] = 5
    for i, j in ((3, 3), (3, 4), (0, 6)):
        fi = table.function_for(i)
        fj = table.function_for(j)
        fi_num, fi_den = fi.num.lift(gf8, embed), fi.den.lift(gf8, embed)
        fj_num, fj_den = fj.num.lift(gf8, embed), fj.den.lift(gf8, embed)
        expected = 0
        for ek, (x, y) in zip(err, golden_points.points):
            if not ek:
                continue
            vi = gf8.div(fi_num.eval_rep(x, y), fi_den.eval_rep(x, y))
            vj = gf8.div(fj_num.eval_rep(x, y), fj_den.eval_rep(x, y))
            expected = gf8.add(expected, gf8.mul(ek, gf8.mul(vi, vj)))
        assert bidim_syndrome(table, golden_points, err, i, j) == expected


def test_improved_restricts_rows(golden_report, golden_points):
    std = build_code(golden_report.table, golden_points, 7)
    impr = build_code(golden_report.table, golden_points, 7, improved=True)
    assert impr.row_values == (0, 3, 6)       # S_P rows only
    assert std.row_values == (0, 3, 4, 6, 7)
    assert impr.rank <= std.rank              # evaluation image shrinks
    assert set(impr.row_values) <= set(std.row_values)


def test_improved_equals_standard_when_sets_agree(golden_report,
                                                  golden_points):
    # below the first added value (4), Gamma and S_P agree on [0, m]
    std = build_code(golden_report.table, golden_points, 3)
    impr = build_code(golden_report.table, golden_points, 3, improved=True)
    assert std.row_values == impr.row_values
    assert std.k == impr.k


def test_distance_bounds_table(golden_report):
    gamma = golden_report.gamma
    g = golden_report.genus
    rows = distance_bound_table(golden_report.table, range(0, 4 * g + 6))
    for row in rows:
        assert row["delta_fr"] >= row["d_star"]
        assert row["gain"] == row["delta_fr"] - row["d_star"]
        if row["m"] >= 4 * g - 1:
            assert row["gain"] == 0
    # symmetric-semigroup spot value: Gamma = {0,3,4,6,...} has c = 6 = 2g,
    # so delta_FR(2g - 1 + e_0) = e_0
    assert gamma.is_symmetric()
    e0 = gamma.multiplicity
    target = [r for r in rows if r["m"] == 2 * g - 1 + e0]
    assert target and target[0]["delta_fr"] == e0


def test_pole_at_point_is_named(golden_model, golden_report, gf8):
    pts = enumerate_points(golden_model, gf8)   # no denominator filtering
    table = golden_report.table
    values = [f.value for f in
              [table.function_for(r) for r in golden_report.gamma.elements(7)]]
    # over GF(8) the table denominators never vanish on smooth points of
    # this curve, so the unfiltered set must behave identically
    spec = build_code(table, pts, 7)
    assert spec.n == 6


def test_min_distance_exact_respects_fr_bound(golden_report, golden_points):
    gamma = golden_report.gamma
    for m in (4, 5):
        spec = build_code(golden_report.table, golden_points, m)
        if spec.k == 0:
            continue
        d = min_distance_exact(spec)
        assert d >= spec.fr_bound    # d(m) >= delta_FR(m')
        assert d >= spec.d_star or spec.d_star <= 0


def test_pole_error_names_the_point(golden_model, golden_report):
    """All GF(4)-points of this curve are singular, with both X+Y^3 and
    Y^2+Y+1 vanishing; forcing them into the evaluation set must fail with
    a message naming the offending point."""
    gf4 = FiniteField(2, 2)
    smooth = enumerate_points(golden_model, gf4)
    assert len(smooth) == 0
    pts = enumerate_points(golden_model, gf4, include_singular=True)
    assert len(pts) == 4
    with pytest.raises(PreconditionError) as err:
        build_code(golden_report.table, pts, 7)
    assert "pole at point #" in str(err.value)


def test_feng_rao_equality_exactly_where_predicted(golden_report):
    """Above the conductor, delta_FR(m) = m+1-2g holds exactly when
    D(m) = 0."""
    gamma = golden_report.gamma
    g = gamma.genus
    for m in gamma.elements(4 * g + 6):
        if m < gamma.conductor:
            continue
        equality = gamma.feng_rao(m) == m + 1 - 2 * g
        assert equality == (gamma.gap_pair_count(m) == 0), m


def test_hermitian_code_over_gf4():
    """The classic one-point construction on Y^2+Y+X^3 over GF(4): eight
    smooth affine points, genus 1, rank m+1-g throughout the window."""
    from weiersem import (am_sequence, normalize_degree, parametrize,
                          parse_field, parse_poly, semigroup_at_infinity,
                          triangulate)
    F4 = parse_field("GF(2^2)")
    model = normalize_degree(parse_poly("Y^2+Y+X^3", F4))
    seq = am_sequence(model)
    s_inf = semigroup_at_infinity(seq)
    rep = triangulate(s_inf, seq.roots, [], parametrize(model))
    assert rep.genus == 1
    pts = enumerate_points(model, F4)
    assert len(pts) == 8
    for m in range(2, 8):
        if m not in rep.gamma:
            continue
        spec = build_code(rep.table, pts, m)
        assert spec.rank == m + 1 - 1
        assert spec.k == 8 - m
        d = min_distance_exact(spec) if spec.k and 4 ** spec.k <= 1 << 22 \
            else None
        if d is not None:
            assert d >= spec.fr_bound


def test_min_distance_gates():
    F2 = FiniteField(2)
    from weiersem.codes import CodeSpec
    spec = CodeSpec(m=0, n=30, k=2, rank=1, d_star=0, m_prime=1, fr_bound=1,
                    t_correct=0, genus=0, row_values=(0,), ranks=(1,),
                    matrix=((1,) * 30,), field=F2, improved=False,
                    points=((0, 0),) * 30)
    with pytest.raises(PreconditionError):
        min_distance_exact(spec)


def test_bidim_syndrome_pole_is_named(golden_model, golden_report):
    """At a pole of f_7 the syndrome fails as build_code does, naming the
    point, rather than dividing by zero."""
    pts = enumerate_points(golden_model, FiniteField(2, 2),
                           include_singular=True)
    with pytest.raises(PreconditionError, match="pole at point #"):
        bidim_syndrome(golden_report.table, pts, [1] * len(pts), 7, 7)


def _naive_rank(rows, field):
    """Column-by-column Gaussian elimination; the oracle for the prefix
    ranks of `_forward_eliminate`."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][col])
        for r in range(rank + 1, len(rows)):
            c = field.mul(rows[r][col], inv)
            rows[r] = [field.sub(x, field.mul(c, y))
                       for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _check_prefix_ranks(table, points, top):
    """The prefix ranks of C(top) are the ranks of every C(m), m <= top."""
    spec = build_code(table, points, top)
    assert spec.ranks == tuple(_naive_rank(spec.matrix[:i + 1], points.field)
                               for i in range(len(spec.matrix)))
    for m in range(top + 1):
        rank = spec.ranks[bisect_right(spec.row_values, m) - 1]
        if m in table.numerical():
            assert build_code(table, points, m).rank == rank, m
    return spec


def test_prefix_ranks_golden(golden_report, golden_points):
    _check_prefix_ranks(golden_report.table, golden_points, 12)


def test_prefix_ranks_hermitian_ext2():
    """Y^2+Y+X^3 over GF(2^2), points over GF(2^4) as `code bounds --ext 2`
    takes them: the rank stops growing once it reaches n."""
    F4 = parse_field("GF(2^2)")
    model = normalize_degree(parse_poly("Y^2+Y+X^3", F4))
    seq = am_sequence(model)
    rep = triangulate(semigroup_at_infinity(seq), seq.roots, [],
                      parametrize(model))
    points = enumerate_points(model, FiniteField(2, 4))
    assert _check_prefix_ranks(rep.table, points, 24).rank == len(points)


def _empty_basis_report(field_text, curve):
    field = parse_field(field_text)
    model = normalize_degree(parse_poly(curve, field))
    seq = am_sequence(model)
    return model, triangulate(semigroup_at_infinity(seq), seq.roots, [],
                              parametrize(model))


def _values_matrix(table, funcs, points):
    """One `_values` row per function: the oracle for the product rows."""
    ext = points.field
    embed = table.oracle.field.embedding_into(ext)
    return tuple(tuple(_values(fn, enumerate(points.points), ext, embed))
                 for fn in funcs)


def _check_product_rows(table, points, m):
    for improved in (False, True):
        spec = build_code(table, points, m, improved=improved)
        funcs = [table.function_for(r) for r in spec.row_values]
        assert spec.matrix == _values_matrix(table, funcs, points)


def test_product_rows_golden(golden_report, golden_points):
    """The golden basis over GF(8): three slot denominators, filtered."""
    assert len(golden_report.table.denominators()) == 3
    _check_product_rows(golden_report.table, golden_points, 12)


@pytest.mark.parametrize("field_text, curve, e, m", [
    ("GF(2^2)", "Y^2+Y+X^3", 2, 24),     # hermitian_gf4_code_bounds_ext2
    ("GF(2^2)", "Y^2+Y+X^3", 4, 40),     # code-sweep
    ("GF(3^2)", "Y^3+Y+X^4", 2, 30),     # y3_gf9_code_build_ext2
    ("GF(2^2)", "Y^4+Y+X^5", 2, 40),
    ("GF(5)", "Y^2+X^3+1", 2, 20),
])
def test_product_rows_equal_values_rows(field_text, curve, e, m):
    """Each row is the previous row of its base times the h_e row, entry by
    entry: equal to evaluating the composed function, with and without
    --improved."""
    model, report = _empty_basis_report(field_text, curve)
    field = model.field
    points = enumerate_points(model, FiniteField(field.p, field.k * e),
                              avoid=report.table.denominators())
    _check_product_rows(report.table, points, m)


@pytest.mark.parametrize("k", [2, 3])
def test_product_rows_at_a_base_pole(golden_model, golden_report, k):
    """Unfiltered singular points where slot denominators vanish: the
    matrix, or the error naming the point and the pole order, is the one
    the `_values` rows give."""
    table = golden_report.table
    points = enumerate_points(golden_model, FiniteField(2, k),
                              include_singular=True)
    for improved in (False, True):
        rs = (table.at_infinity.elements(12) if improved else
              [r for r in range(13) if table.contains(r)])
        funcs = [table.function_for(r) for r in rs]
        try:
            want = _values_matrix(table, funcs, points)
        except PreconditionError as exc:
            with pytest.raises(PreconditionError) as err:
                build_code(table, points, 12, improved=improved)
            assert str(err.value) == str(exc)
            assert "has a pole at point #" in str(exc)
        else:
            assert build_code(table, points, 12,
                              improved=improved).matrix == want


def test_prefix_ranks_prime_field():
    """Over a prime point field the forward elimination runs without log
    tables, on field.mul."""
    model, report = _empty_basis_report("GF(5)", "Y^2+X^3+1")
    points = enumerate_points(model, FiniteField(5))
    assert points.field._log is None
    _check_prefix_ranks(report.table, points, 2 * len(points))


def _dot(field, a, b):
    acc = 0
    for x, y in zip(a, b):
        acc = field.add(acc, field.mul(x, y))
    return acc


@pytest.mark.parametrize("p,k", [(5, 1), (2, 3), (3, 2)])
def test_nullspace_against_bruteforce_kernel(p, k):
    """On seeded random matrices (some with a dependent row) the nullspace
    basis spans exactly the kernel found by enumerating F^n, and the prefix
    ranks match the naive elimination."""
    F = FiniteField(p, k)
    q = F.order
    rng = random.Random(f"nullspace:{p}^{k}")
    for _ in range(10):
        n = rng.randint(1, 4)
        rows = [[rng.randrange(q) for _ in range(n)]
                for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:
            c = rng.randrange(q)
            rows.append([F.add(x, F.mul(c, y))
                         for x, y in zip(rows[0], rows[-1])])
        kernel = {v for v in itertools.product(range(q), repeat=n)
                  if all(_dot(F, r, v) == 0 for r in rows)}
        null = _nullspace(rows, F)
        span = set()
        for coeffs in itertools.product(range(q), repeat=len(null)):
            vec = [0] * n
            for c, b in zip(coeffs, null):
                vec = [F.add(x, F.mul(c, y)) for x, y in zip(vec, b)]
            span.add(tuple(vec))
        assert len(kernel) == q ** len(null)
        assert span == kernel
        assert _forward_eliminate(rows, F)[1] == [
            _naive_rank(rows[:i + 1], F) for i in range(len(rows))]


@pytest.mark.parametrize("field", [FiniteField(5), FiniteField(2, 8),
                                   FiniteField(3, 2), FiniteField(257, 2)],
                         ids=repr)
def test_echelon_rows_reduced_and_nullspace_annihilates(field):
    """Seeded 6 x 80 matrices with two dependent rows and zero tails: the
    forward elimination's prefix ranks match the naive elimination, every
    row of `_nullspace`'s reduced basis is reduced (a column past its end
    read as 0), and every nullspace vector annihilates every row."""
    q = field.order
    rng = random.Random(f"echelon:{field!r}")
    for _ in range(3):
        rows = []
        for _ in range(4):
            support = rng.choice([80, 60, 30])
            rows.append([rng.randrange(q) for _ in range(support)]
                        + [0] * (80 - support))
        for _ in range(2):
            (c1, r1), (c2, r2) = [(rng.randrange(q), rng.choice(rows))
                                  for _ in range(2)]
            rows.append([field.add(field.mul(c1, x), field.mul(c2, y))
                         for x, y in zip(r1, r2)])
        rng.shuffle(rows)
        _, ranks = _forward_eliminate(rows, field)
        assert ranks == [_naive_rank(rows[:i + 1], field)
                         for i in range(len(rows))]
        basis = _reduced_basis(rows, field)
        assert len(basis) == ranks[-1]
        for pc, row in basis:
            assert row and row[-1] and len(row) <= 80
            assert row[pc] == 1 and not any(row[:pc])
            assert all(row[qc] == 0 for qc, _ in basis
                       if qc != pc and qc < len(row))
        null = _nullspace(rows, field)
        assert len(null) == 80 - ranks[-1]
        for vec in null:
            assert all(_dot(field, row, vec) == 0 for row in rows)


def _naive_value(P, x, y, ext, embed):
    """sum embed(c) * x^i * y^j over the terms of P, embedding every
    coefficient at every evaluation; the oracle for the lifted kernel."""
    acc = 0
    for (i, j), c in P.terms.items():
        term = ext.mul(ext.pow_rep(x, i), ext.pow_rep(y, j))
        acc = ext.add(acc, ext.mul(embed(c), term))
    return acc


def _brute_points(model, ext, avoid, include_singular):
    embed = model.field.embedding_into(ext)
    F = model.equation
    Fx, Fy = F.derivative_x(), F.derivative_y()
    pts = []
    for x in range(ext.order):
        for y in range(ext.order):
            if _naive_value(F, x, y, ext, embed):
                continue
            if not include_singular and \
                    _naive_value(Fx, x, y, ext, embed) == 0 and \
                    _naive_value(Fy, x, y, ext, embed) == 0:
                continue
            if any(_naive_value(a, x, y, ext, embed) == 0 for a in avoid):
                continue
            pts.append((x, y))
    return tuple(pts)


@pytest.mark.parametrize("field_text, curve, e, avoid_texts", [
    ("GF(2)", "Y^8+Y^2+X^3", 4, ["X+Y^3", "Y^2+Y+1", "X^4+X^3+1"]),
    ("GF(2^2)", "Y^2+Y+X^3", 2, ["X+[t]", "Y^2+X*Y+1"]),
    ("GF(3^2)", "Y^3+Y+X^4", 2, ["X-Y", "Y^2+[t]"]),
    ("GF(5)", "Y^2+X^3+1", 2, ["X+2*Y+1"]),
    ("GF(2^2)", "Y^2+Y+X^3", 4, ["X+Y+[t]", "Y^3+X"]),
    ("GF(3)", "Y^3+Y+X^4", 4, ["X+Y+1", "Y^2+X^2+2"]),
    ("GF(7)", "Y^4+X^7+3", 2, ["X+Y", "Y^2+3*X"]),
])
@pytest.mark.parametrize("include_singular", [False, True])
def test_enumerate_points_against_bruteforce(field_text, curve, e,
                                             avoid_texts, include_singular):
    """The lifted scan, in Y or in X after a swap, keeps the same points in
    the same order as a scan that embeds every coefficient at every
    evaluation, with and without `avoid`.  The normalized models have
    deg_X < deg_Y (swapped) except over GF(5) and GF(7)."""
    field = parse_field(field_text)
    model = normalize_degree(parse_poly(curve, field))
    ext = FiniteField(field.p, field.k * e)
    avoid = [parse_poly(a, field) for a in avoid_texts]
    kept = []
    for av in ((), avoid):
        pts = enumerate_points(model, ext, avoid=av,
                               include_singular=include_singular).points
        assert pts == _brute_points(model, ext, av, include_singular)
        kept.append(len(pts))
    assert kept[1] < kept[0]


def test_bidim_syndrome_evaluates_only_the_error_support(golden_model,
                                                         golden_report, gf8):
    """f_7 has poles at the singular points #0 and #1 of the unfiltered
    GF(8) scan: an error supported away from them gives the direct sum,
    and an error at #1 names #1, not its place in the support."""
    table = golden_report.table
    pts = enumerate_points(golden_model, gf8, include_singular=True)
    assert pts.points[:2] == ((0, 0), (1, 1))
    embed = table.oracle.field.embedding_into(gf8)
    rng = random.Random("bidim-support")
    for i, j in ((7, 7), (7, 3), (4, 7)):
        fi, fj = table.function_for(i), table.function_for(j)
        err = [0, 0] + [rng.choice([0, 1, 2, 5, 7]) for _ in pts.points[2:]]
        err[rng.randrange(2, len(err))] = 3
        expected = 0
        for ek, (x, y) in zip(err, pts.points):
            if ek:
                vi = gf8.div(_naive_value(fi.num, x, y, gf8, embed),
                             _naive_value(fi.den, x, y, gf8, embed))
                vj = gf8.div(_naive_value(fj.num, x, y, gf8, embed),
                             _naive_value(fj.den, x, y, gf8, embed))
                expected = gf8.add(expected, gf8.mul(ek, gf8.mul(vi, vj)))
        assert bidim_syndrome(table, pts, err, i, j) == expected
        err[1] = 6
        with pytest.raises(PreconditionError,
                           match=rf"pole order {i} has a pole at point #1 = "
                                 r"\(1, 1\)$"):
            bidim_syndrome(table, pts, err, i, j)


def test_values_fold_a_constant_denominator():
    """A constant denominator is inverted once and folded into the
    numerator, a non-constant one is evaluated: both give num/den."""
    base, ext = FiniteField(5), FiniteField(5, 2)
    embed = base.embedding_into(ext)
    num = parse_poly("X^2+2*X*Y+3", base)
    for den in (parse_poly("3", base), parse_poly("Y^2+X+2", base)):
        fn = SimpleNamespace(num=num, den=den, value=0)
        N, D = num.lift(ext, embed), den.lift(ext, embed)
        pts = [(x, y) for x in range(ext.order)
               for y in range(0, ext.order, 4) if D.eval_rep(x, y)]
        want = [ext.div(N.eval_rep(x, y), D.eval_rep(x, y)) for x, y in pts]
        assert list(_values(fn, enumerate(pts), ext, embed)) == want
