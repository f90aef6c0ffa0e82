"""One-point AG code parameters over a computed curve.

The code C(m) is represented by its parity-check (evaluation) matrix: one
row per basis function of L(mP), evaluated at rational points enumerated
over a chosen extension field.  Three kernels carry it.  The point scan
lifts F, its partials and the polynomials to avoid into that field once,
swapped when deg_X F < deg_Y F, specializes the variable of higher degree
once per value and calls the field's bound `horner` in the other at each
candidate, then sorts the points by (x, y).  The rows are products: every
basis function is base * h_e^l (`FunctionTable.factors`), so each
distinct base and h_e is evaluated at the points once (`_values`, one
`BiPoly.eval_rep` per point: `horner` on each row, then across them), and
every other row is the previous row of its base times the h_e row, entry
by entry.  The basis is ordered by pole order, so the rows of C(m) are a
prefix of the rows of C(m') for every m <= m': one forward elimination of
the largest matrix, over logs where the field has tables, gives the rank
of every C(m) at once.  Only `_nullspace` back-substitutes, for the
exhaustive minimum distance; its rows and the codeword sums of
`min_distance_exact` are `_list_mul` multiply-adds, so basis rows have no
trailing zeros.  Designed distances combine the Goppa bound with the
Feng-Rao distance of the Weierstrass semigroup.
"""

import itertools
from dataclasses import dataclass

from .errors import InputError, PreconditionError
from .polynomials import _list_mul, _trim
from .weierstrass import l_basis


def _forward_eliminate(rows, field):
    """One forward elimination of a matrix of field reps, without
    back-substitution.

    Each row is reduced by the pivot rows before it, in the order they were
    found; a nonzero remainder becomes a pivot row, normalized to 1 at its
    pivot column pc and stored once as (pc, vals): one list of its entries
    past pc, as logs over a field with log tables (each product one exp
    lookup) and as reps otherwise, None at a zero.  Every pivot row is 0 at
    the pivot columns of the rows before it.  Returns the pivot rows and
    the rank of every prefix rows[:i+1]."""
    log, exp = field._log, field._exp
    add, neg, mul = field.add, field.neg, field.mul
    enc = int if log is None else log.__getitem__
    pivots = []
    ranks = []
    for row in rows:
        row = list(row)
        for pc, vals in pivots:
            c = row[pc]
            if c:
                row[pc] = 0
                c = enc(neg(c))
                for j, v in enumerate(vals, pc + 1):
                    if v is not None:
                        row[j] = add(row[j], exp[c + v] if exp else mul(c, v))
        pc = next((j for j, x in enumerate(row) if x), None)
        if pc is not None:
            inv = field.inv(row[pc])
            pivots.append((pc, [enc(mul(inv, x)) if x else None
                                for x in row[pc + 1:]]))
        ranks.append(len(pivots))
    return pivots, ranks


def _reduced_basis(rows, field):
    """The reduced row echelon basis [(pivot column, row)] of the row space:
    the pivot rows of `_forward_eliminate`, back-substituted last to first,
    with a 1 at each pivot and 0 in every other basis row's pivot column.
    Rows are `_list_mul` multiply-adds, without trailing zeros."""
    dec = int if field._exp is None else field._exp.__getitem__
    basis = []
    for pc, vals in _forward_eliminate(rows, field)[0]:
        row = [0] * pc + [1] + [0 if v is None else dec(v) for v in vals]
        basis.append((pc, _trim(row)))
    for k in range(len(basis) - 1, 0, -1):
        pc, prow = basis[k]
        for i in range(k):
            qc, qrow = basis[i]
            c = qrow[pc] if pc < len(qrow) else 0
            if c:
                basis[i] = (qc, _list_mul((field.neg(c),), prow, field,
                                          None, qrow))
    return basis


def _nullspace(rows, field):
    """Basis of the right nullspace of the matrix (list of rep vectors)."""
    if not rows:
        return []
    n = len(rows[0])
    basis = _reduced_basis(rows, field)
    pivots = {pc for pc, _ in basis}
    out = []
    for fc in range(n):
        if fc in pivots:
            continue
        vec = [0] * n
        vec[fc] = 1
        for pc, row in basis:
            vec[pc] = field.neg(row[fc]) if fc < len(row) else 0
        out.append(vec)
    return out


def _values(fn, indexed_points, ext, embed):
    """f(P) over ext at each (idx, (x, y)), with num and den lifted into
    ext once; a nonzero constant den is inverted once and folded into num,
    any other den is evaluated, and a pole at point #idx is a precondition
    failure."""
    num, den = fn.num.lift(ext, embed), fn.den.lift(ext, embed)
    c = den.rows[0][0] if den.total_degree == 0 else None
    if c:
        num = num.scale(ext.inv(c))
        for _, (x, y) in indexed_points:
            yield num.eval_rep(x, y)
        return
    for idx, (x, y) in indexed_points:
        dv = den.eval_rep(x, y)
        if dv == 0:
            raise PreconditionError(
                f"basis function of pole order {fn.value} has a pole at "
                f"point #{idx} = ({ext.format_rep(x)}, {ext.format_rep(y)})")
        yield ext.div(num.eval_rep(x, y), dv)


@dataclass(frozen=True)
class EvaluationSet:
    """Distinct affine rational points of the model over an extension
    field, each away from the place at infinity."""

    field: object           # the extension FiniteField
    points: tuple           # ((x_rep, y_rep), ...)
    model: object

    def __len__(self):
        return len(self.points)


def enumerate_points(model, ext_field, avoid=(), include_singular=False):
    """Exhaustive scan of the affine plane over ext_field, in the cheaper
    variable.

    Keeps points on the curve where no polynomial in `avoid` vanishes;
    singular points of the plane model are skipped by default since a
    single evaluation cannot separate the branches above them.  When
    deg_X F < deg_Y F, F, its partials and `avoid` are swapped once, so the
    outer variable is Y and Horner runs in X.  The partials and `avoid` are
    specialized only on lines where f has a zero, and the points are sorted
    by (x, y) at the end.
    """
    embed = model.field.embedding_into(ext_field)
    F = model.equation
    polys = (F, F.derivative_x(), F.derivative_y(), *avoid)
    swap = F.deg_x < F.deg_y
    if swap:
        polys = [P.swap_xy() for P in polys]
    F, Fu, Fv, *avoid = (P.lift(ext_field, embed) for P in polys)
    horner = ext_field.horner
    line = range(ext_field.order)
    pts = []
    for u in line:
        f = F.specialize_x(u).coeffs
        zeros = [v for v in line if not horner(f, v)]
        if not zeros:
            continue
        fu, fv, *avoid_u = (P.specialize_x(u).coeffs
                            for P in (Fu, Fv, *avoid))
        for v in zeros:
            if not include_singular:
                if horner(fu, v) == 0 and horner(fv, v) == 0:
                    continue
            if any(horner(a, v) == 0 for a in avoid_u):
                continue
            pts.append((v, u) if swap else (u, v))
    pts.sort()
    return EvaluationSet(field=ext_field, points=tuple(pts), model=model)


@dataclass(frozen=True)
class CodeSpec:
    """The code C(m) as the dual of the evaluation matrix row space."""

    m: int
    n: int
    k: int                   # dimension of C(m) = n - rank
    rank: int
    d_star: int              # Goppa designed distance m + 2 - 2g
    m_prime: int             # min{r in Gamma | r > m}
    fr_bound: int            # delta_FR(m'), lower bound for d(m)
    t_correct: int           # floor((fr_bound - 1) / 2)
    genus: int
    row_values: tuple        # pole orders of the basis rows
    ranks: tuple             # rank of each row prefix matrix[:i+1]
    matrix: tuple            # rows of field reps
    field: object
    improved: bool
    points: tuple


def designed_bounds(gamma, m):
    """(d*, m', delta_FR(m')) of C(m): the Goppa designed distance
    m + 2 - 2g, m' = min{r in Gamma | r > m} and its Feng-Rao distance."""
    m_prime = gamma.next_element(m + 1)
    return m + 2 - 2 * gamma.genus, m_prime, gamma.feng_rao(m_prime)


def _product_rows(table, funcs, points, embed):
    """The value rows of funcs at the points.  Each fn is base * h_e^l
    (`FunctionTable.factors`), and funcs ascend in pole order, so l ascends
    by one along each base: a row is the previous row of its base times
    the h_e row, entry by entry, and each base and h_e is evaluated at the
    points once, by `_values`.  Where a base has a pole at some point, the
    rows of that base are the `_values` rows of their own functions, which
    name a pole of fn if it has one."""
    ext = points.field
    pts = tuple(enumerate(points.points))
    h_row = None
    last = {}       # id(base) -> [l, row of base * h_e^l, None at a pole]
    matrix = []
    for fn in funcs:
        base, l = table.factors(fn.value)
        entry = last.get(id(base))
        if entry is None:
            try:
                entry = [0, tuple(_values(base, pts, ext, embed))]
            except PreconditionError:
                entry = [0, None]
            last[id(base)] = entry
        if entry[1] is None:
            matrix.append(tuple(_values(fn, pts, ext, embed)))
            continue
        while entry[0] < l:
            if h_row is None:
                h_row = tuple(_values(table.h_e, pts, ext, embed))
            entry[:] = [entry[0] + 1, tuple(map(ext.mul, entry[1], h_row))]
        matrix.append(entry[1])
    return tuple(matrix)


def build_code(table, points, m, improved=False):
    """Evaluation matrix of the L(mP) basis at the points, plus the
    derived parameters of the dual code C(m)."""
    if m < 0:
        raise PreconditionError("m must be nonnegative")
    gamma = table.numerical()
    ext = points.field
    embed = table.oracle.field.embedding_into(ext)
    if improved:
        funcs = [table.function_for(r) for r in table.at_infinity.elements(m)]
    else:
        funcs = l_basis(table, m)
    matrix = _product_rows(table, funcs, points, embed)
    ranks = _forward_eliminate(matrix, ext)[1]
    n = len(points.points)
    d_star, m_prime, fr = designed_bounds(gamma, m)
    return CodeSpec(m=m, n=n, k=n - ranks[-1], rank=ranks[-1], d_star=d_star,
                    m_prime=m_prime, fr_bound=fr, t_correct=(fr - 1) // 2,
                    genus=gamma.genus,
                    row_values=tuple(fn.value for fn in funcs),
                    ranks=tuple(ranks), matrix=matrix, field=ext,
                    improved=improved, points=points.points)


def known_syndromes(spec, word):
    """s_i(y) = sum_k y_k f_i(P_k) for the known indices i <= m."""
    if len(word) != spec.n:
        raise InputError(f"word length {len(word)} != code length {spec.n}")
    ext = spec.field
    out = []
    for value, row in zip(spec.row_values, spec.matrix):
        acc = 0
        for yk, fk in zip(word, row):
            acc = ext.add(acc, ext.mul(yk, fk))
        out.append((value, acc))
    return out


def in_code(spec, word):
    """Membership in C(m): all known syndromes vanish."""
    return all(s == 0 for _, s in known_syndromes(spec, word))


def bidim_syndrome(table, points, error, i, j):
    """s_(i,j)(e) = sum_k e_k f_i(P_k) f_j(P_k) by direct summation."""
    ext = points.field
    embed = table.oracle.field.embedding_into(ext)
    support = [(idx, pt) for idx, (ek, pt) in
               enumerate(zip(error, points.points)) if ek]
    vi = _values(table.function_for(i), support, ext, embed)
    vj = _values(table.function_for(j), support, ext, embed)
    acc = 0
    for (idx, _), a, b in zip(support, vi, vj):
        acc = ext.add(acc, ext.mul(error[idx], ext.mul(a, b)))
    return acc


def distance_bound_table(table, m_values):
    """Rows (m, d*(m-1) = m+1-2g, delta_FR(m), gain, t_corr) for each
    m in the Weierstrass semigroup."""
    gamma = table.numerical()
    g = gamma.genus
    rows = []
    for m in m_values:
        if m not in gamma:
            continue
        goppa = m + 1 - 2 * g
        fr = gamma.feng_rao(m)
        fr_next = gamma.feng_rao(gamma.next_element(m + 1))
        rows.append({"m": m, "d_star": goppa, "delta_fr": fr,
                     "gain": fr - goppa, "t_corr": (fr_next - 1) // 2})
    return rows


def min_distance_exact(spec):
    """Exhaustive minimum distance of C(m); oracle for the bounds.

    Gated to n <= 24 and at most 2^22 codewords."""
    if spec.n > 24:
        raise PreconditionError("exact minimum distance is limited to n <= 24")
    ext = spec.field
    basis = _nullspace(spec.matrix, ext)
    k = len(basis)
    if k != spec.k:
        raise PreconditionError("nullspace dimension disagrees with k")
    if k == 0:
        return 0
    if ext.order ** k > 1 << 22:
        raise PreconditionError("codeword enumeration too large")
    best = None
    reps = list(range(ext.order))
    for combo in itertools.product(reps, repeat=k):
        if not any(combo):
            continue
        word = []
        for c, vec in zip(combo, basis):
            word = _list_mul((c,), vec, ext, None, word)
        w = sum(1 for x in word if x)
        if best is None or w < best:
            best = w
    return best
