"""Plane models, approximate roots and the Abhyankar-Moh sequence.

The entry point is normalize_degree, which brings an affine curve equation
into the monic-in-Y position required by the approximate-root machinery
(applying X -> X + Y^k when the characteristic divides deg_Y), then
am_sequence runs the approximate-root iteration from F_1 = App_m(F) and
one_branch_criterion tests whether the curve has a single rational branch
at infinity.  The test is necessary, not sufficient: a "yes" curve may
still have several places over its one point at infinity, and the branch
expansion (`branch.parametrize`, hence `weierstrass`, `lbasis` and `code`)
then refuses it with PreconditionError.  On a "yes", semigroup_at_infinity
returns S_P, generated by the pole orders delta_0..delta_h of the
approximate roots, as a TelescopicStructure.
"""

import math
from dataclasses import dataclass

from .errors import HypothesisError, InputError, InconsistencyError, PreconditionError
from .fields import LOG_TABLE_LIMIT, power
from .polynomials import DEGREE_LIMIT, NEG_INF, TABLELESS_DEGREE_LIMIT, \
    BiPoly, resultant_y, _infinity_cone, _list_mul, _pure_power_root, \
    _rows_mul
from .semigroups import TelescopicStructure


@dataclass(frozen=True)
class PlaneModel:
    """A curve equation normalized to be monic in Y."""

    equation: BiPoly
    m: int              # deg_Y of the normalized equation
    n: int              # deg_X of the normalized equation
    e_p: int            # m - n (multiplicity at infinity when m >= n)
    swapped: bool       # X and Y were exchanged to reach monic position
    subst_k: int | None  # k of the applied X -> X + Y^k, if any
    shear: int = 0      # lam of the applied Y -> Y + lam*X, if any
    original: BiPoly = None

    @property
    def field(self):
        return self.equation.field


def _monic_scaled(F):
    """Return F scaled monic in Y if its leading Y-coefficient is a
    nonzero constant, else None."""
    if F.is_zero() or F.deg_y < 1:
        return None
    lc = F.rows[-1]
    if len(lc) != 1:
        return None
    if lc == [1]:
        return F
    return F.scale(F.field.inv(lc[0]))


def _tilt(G):
    """lam when the degree form is c*(Y - lam*X)^D with lam != 0, else 0.

    Such a model has its infinite point at (1:lam:0); the shear
    Y -> Y + lam*X moves it to (1:0:0), the position the approximate-root
    iteration expects."""
    D = int(G.total_degree)
    if D < 2 or G.deg_y != D:
        return 0
    lam = _pure_power_root(G.form_coeffs(D), D, G.field)
    return lam if lam is not None else 0


def normalize_degree(F):
    """Build a PlaneModel, removing characteristic | deg_Y by X -> X + Y^k.

    A model whose infinite point sits at (1:lam:0), lam != 0, is first
    sheared to the standard position.  Raises HypothesisError when the
    characteristic divides both degree invariants (no admissible change of
    variables exists).
    """
    fld = F.field
    original = F
    swapped = False
    G = _monic_scaled(F)
    if G is None:
        G = _monic_scaled(F.swap_xy())
        swapped = G is not None
    if G is None:
        raise InputError(
            "curve equation is not monic (up to a constant) in Y or in X")
    shear = _tilt(G)
    # G is monic and Y -> Y + lam*X sends only its Y^D term to Y^D
    G = G.shear_y(shear)
    m = G.deg_y
    n = G.deg_x
    n = 0 if n is NEG_INF else n
    subst_k = None
    p = fld.p
    if m % p == 0:
        if n == 0 or n % p == 0:
            raise HypothesisError(
                f"characteristic {p} divides both deg_Y = {m} and "
                f"deg_X = {n}: the curve is outside the admissible class")
        # k = 1 would put the new degree form on a tilted line; any k >= 2
        # lands the infinite point at (1:0:0)
        k = 2
        while k % p == 0 or n * k <= m:
            k += 1
        H = _monic_scaled(G.substitute_x(k, +1))
        if H is None:
            raise PreconditionError(
                f"substitution X -> X + Y^{k} does not yield a model monic "
                f"in Y; the curve has no single point at infinity")
        G = H
        subst_k = k
        m = G.deg_y
        n = G.deg_x
        n = 0 if n is NEG_INF else n
        if m % p == 0:
            raise PreconditionError(
                "substitution failed to remove the characteristic from deg_Y")
    tableless = fld.k > 1 and fld.order > LOG_TABLE_LIMIT
    limit = TABLELESS_DEGREE_LIMIT if tableless else DEGREE_LIMIT
    if m > limit:
        where = " of fields without log tables" if tableless else ""
        raise InputError(f"normalized model has deg_Y = {m}, above the "
                         f"degree limit {limit}{where}")
    return PlaneModel(equation=G, m=m, n=n, e_p=m - n, swapped=swapped,
                      subst_k=subst_k, shear=shear, original=original)


def approximate_root(F, d):
    """The unique monic G with deg_Y G = deg_Y F / d and
    deg_Y (F - G^d) < deg_Y F - deg_Y G.

    Built by descending-coefficient elimination on the reversed rows g_j
    (the coefficient of Y^(e-j) in G): the coefficient of Y^(m-j) in G^d is
    d*g_j plus a part in g_0..g_(j-1) alone, so step j reads row m - j of F
    and the top j + 1 rows of G^d, a power of g_0..g_(j-1) whose every
    product is cut to those rows.  One full G^d checks the result.
    """
    fld = F.field
    if not F.is_monic_in_y():
        raise PreconditionError("approximate root requires F monic in Y")
    m = F.deg_y
    if d < 1 or m % d != 0:
        raise PreconditionError(f"d = {d} does not divide deg_Y F = {m}")
    if d % fld.p == 0:
        raise PreconditionError(
            f"d = {d} is not a unit: the characteristic {fld.p} divides it")
    e = m // d
    inv_d = fld.inv(fld.from_int(d))
    rev = [[1]]
    for j in range(1, e + 1):
        top = power(rev, d, lambda a, b: _rows_mul(a, b, fld, j + 1), [[1]])
        rev.append(_list_mul(top[j] if j < len(top) else [],
                             (fld.neg(inv_d),), fld, None,
                             _list_mul(F.rows[m - j], (inv_d,), fld)))
    G = BiPoly.from_y_coeffs(fld, rev[::-1])
    check = F - G ** d
    if not (check.is_zero() or check.deg_y < m - e):
        raise InconsistencyError("approximate-root elimination failed")
    return G


@dataclass(frozen=True)
class AMSequence:
    """Output of the approximate-root iteration."""

    h: int
    delta: tuple        # (delta_0, ..., delta_h)
    d: tuple            # (d_1, ..., d_{h+1})
    nseq: tuple         # (n_1, ..., n_h), n_i = d_i / d_{i+1}
    roots: tuple        # (F_0, ..., F_h)
    model: PlaneModel


def am_sequence(model):
    """Run the approximate-root iteration on a normalized model."""
    F = model.equation
    fld = model.field
    if not F.rows[0]:
        raise PreconditionError("Y divides the curve equation")
    m = model.m
    if m % fld.p == 0:
        raise PreconditionError("model not normalized: characteristic "
                                "divides deg_Y")
    # delta_i and F_i are kept only when they lower the gcd d_i; the
    # iteration stops at d_(h+1) = 1 or when the gcd stops falling
    deltas = [m]
    roots = [BiPoly.x(fld)]
    d_list = [m]
    # F_1 = App_m(F) = Y + a_1/m, a_1 the Y^(m-1) row of F; a constant
    # changes no positive pole order, so its constant term is dropped
    root = approximate_root(F, m)
    root = BiPoly.from_y_coeffs(fld, [[0] + root.rows[0][1:]] + root.rows[1:])
    while True:
        prev_d = d_list[-1]
        delta = resultant_y(F, root).degree
        d_i = prev_d if delta is NEG_INF else math.gcd(prev_d, delta)
        if d_i == prev_d:
            break
        deltas.append(delta)
        roots.append(root)
        d_list.append(d_i)
        if d_i == 1:
            break
        if len(d_list) > m + 2:
            raise InconsistencyError("approximate-root iteration failed to "
                                     "terminate")
        root = approximate_root(F, d_i)
    h = len(d_list) - 1
    nseq = tuple(d_list[i] // d_list[i + 1] for i in range(h))
    return AMSequence(h=h, delta=tuple(deltas), d=tuple(d_list),
                      nseq=nseq, roots=tuple(roots), model=model)


@dataclass(frozen=True)
class CriterionVerdict:
    one_branch: bool
    reason: str | None = None
    s_p: TelescopicStructure | None = None   # S_P when one_branch

    def __bool__(self):
        return self.one_branch


def one_branch_criterion(seq):
    """Decide whether the curve has a single rational branch at infinity.

    Checks, in order: d_{h+1} = 1; the strict chain
    delta_1 d_1 > ... > delta_h d_h; n_i delta_i in
    <delta_0, ..., delta_{i-1}>, which building the TelescopicStructure
    of S_P decides; and one point at infinity, the degree form of the
    model a power of one linear form (`polynomials._infinity_cone`, the
    test `branch` applies there).  The chain is empty for h <= 1.
    """
    h = seq.h
    if seq.d[-1] != 1:
        return CriterionVerdict(False, f"d_{h + 1} = {seq.d[-1]} != 1")
    for i in range(1, h):
        lhs = seq.delta[i] * seq.d[i - 1]
        rhs = seq.delta[i + 1] * seq.d[i]
        if not lhs > rhs:
            return CriterionVerdict(
                False, f"chain fails at i={i}: delta_{i}*d_{i} = {lhs} "
                       f"<= delta_{i+1}*d_{i+1} = {rhs}")
    try:
        s_p = TelescopicStructure(seq.delta)
        _infinity_cone(seq.model.equation)
    except PreconditionError as exc:
        return CriterionVerdict(False, str(exc))
    return CriterionVerdict(True, s_p=s_p)


def semigroup_at_infinity(seq):
    """S_P as the TelescopicStructure on delta_0..delta_h; raises when the
    one-branch criterion fails."""
    verdict = one_branch_criterion(seq)
    if not verdict:
        raise PreconditionError(
            f"not a single branch at infinity: {verdict.reason}")
    return verdict.s_p


def analyze(F):
    """normalize_degree + am_sequence + criterion in one call."""
    model = normalize_degree(F)
    seq = am_sequence(model)
    verdict = one_branch_criterion(seq)
    return model, seq, verdict
