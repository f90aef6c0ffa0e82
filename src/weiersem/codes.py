"""One-point AG code parameters over a computed curve.

The code C(m) is represented by its parity-check (evaluation) matrix: one
row per basis function of L(mP), evaluated at rational points enumerated
over a chosen extension field.  Every polynomial is lifted into that field
once and evaluated by specializing X, then Horner in Y: the point scan
specializes F(x, Y) once per x, and a row evaluates num and den at each
point.  The basis is ordered by pole order, so the rows of C(m) are a
prefix of the rows of C(m') for every m <= m': one exact row-insertion
elimination of the largest matrix gives the rank of every C(m) at once.
Its row operations and the codeword sums of `min_distance_exact` are
`_list_mul` multiply-adds, so basis rows have no trailing zeros.
Designed distances combine the Goppa bound with the Feng-Rao distance of
the Weierstrass semigroup.
"""

import itertools
from dataclasses import dataclass

from .errors import InputError, PreconditionError
from .polynomials import _list_mul
from .weierstrass import l_basis


def _echelon(rows, field):
    """Row-insertion Gauss-Jordan elimination of a matrix of field reps.

    Returns the reduced basis [(pivot column, row)] of the row space, with
    a 1 at each pivot and 0 in every other basis row's pivot column, and
    the rank of every prefix rows[:i+1].  A column past the end of a row,
    as `_list_mul` returns rows, is 0."""
    basis = []
    ranks = []
    for row in rows:
        for pc, prow in basis:
            c = row[pc] if pc < len(row) else 0
            if c:
                row = _list_mul((field.neg(c),), prow, field, None, row)
        pc = next((col for col, x in enumerate(row) if x), None)
        if pc is not None:
            row = _list_mul(row, (field.inv(row[pc]),), field)
            for i, (qc, qrow) in enumerate(basis):
                c = qrow[pc] if pc < len(qrow) else 0
                if c:
                    basis[i] = (qc, _list_mul((field.neg(c),), row, field,
                                              None, qrow))
            basis.append((pc, row))
        ranks.append(len(basis))
    return basis, ranks


def _nullspace(rows, field):
    """Basis of the right nullspace of the matrix (list of rep vectors)."""
    if not rows:
        return []
    n = len(rows[0])
    basis, _ = _echelon(rows, field)
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
    """Exhaustive scan of the affine plane over ext_field.

    Keeps points on the curve where no polynomial in `avoid` vanishes;
    singular points of the plane model are skipped by default since a
    single evaluation cannot separate the branches above them.
    """
    embed = model.field.embedding_into(ext_field)
    F = model.equation
    F, Fx, Fy = (P.lift(ext_field, embed)
                 for P in (F, F.derivative_x(), F.derivative_y()))
    avoid = [a.lift(ext_field, embed) for a in avoid]
    pts = []
    for x in range(ext_field.order):
        f, fx, fy = (P.specialize_x(x) for P in (F, Fx, Fy))
        avoid_x = [a.specialize_x(x) for a in avoid]
        for y in range(ext_field.order):
            if f.eval_rep(y):
                continue
            if not include_singular:
                if fx.eval_rep(y) == 0 and fy.eval_rep(y) == 0:
                    continue
            if any(a.eval_rep(y) == 0 for a in avoid_x):
                continue
            pts.append((x, y))
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
    matrix = tuple(tuple(_values(fn, enumerate(points.points), ext, embed))
                   for fn in funcs)
    _, ranks = _echelon(matrix, ext)
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
