"""Plane models, approximate roots and the Abhyankar-Moh sequence.

The entry point is normalize_degree, which brings an affine curve equation
into the monic-in-Y position required by the approximate-root machinery
(applying X -> X + Y^k when the characteristic divides deg_Y), then
am_sequence runs the approximate-root iteration and one_branch_criterion
decides whether the curve has a single rational branch at infinity.
"""

import math
from dataclasses import dataclass

from .errors import HypothesisError, InputError, InconsistencyError, PreconditionError
from .polynomials import DEGREE_LIMIT, NEG_INF, BiPoly, resultant_y


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
    lc = F.lc_y()
    if lc.degree != 0:
        return None
    if lc.lc == 1:
        return F
    return F.scale(F.field.inv(lc.lc))


def _tilt(G):
    """lam when the degree form is c*(Y - lam*X)^D with lam != 0, else 0.

    Such a model has its infinite point at (1:lam:0); the shear
    Y -> Y + lam*X moves it to (1:0:0), the position the approximate-root
    iteration expects."""
    from .branch import _pure_power_root
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
    if shear:
        G = _monic_scaled(G.shear_y(shear))
        if G is None:  # pragma: no cover - shear preserves the Y^D form
            raise InconsistencyError("shear lost monicity")
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
    if m > DEGREE_LIMIT:
        raise InputError(f"normalized model has deg_Y = {m}, above the "
                         f"degree limit {DEGREE_LIMIT}")
    return PlaneModel(equation=G, m=m, n=n, e_p=m - n, swapped=swapped,
                      subst_k=subst_k, shear=shear, original=original)


def approximate_root(F, d):
    """The unique monic G with deg_Y G = deg_Y F / d and
    deg_Y (F - G^d) < deg_Y F - deg_Y G.

    Built by descending-coefficient elimination: the top coefficient of
    F - G^d at level Y^(m-j) is linear in the j-th coefficient of G with
    slope d, so each pass pins one coefficient exactly.
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
    G = BiPoly.monomial(fld, 0, e)
    for j in range(1, e + 1):
        diff = F - G ** d
        add_terms = {}
        for (i, jj), c in diff.terms.items():
            if jj == m - j:
                add_terms[(i, e - j)] = fld.mul(c, inv_d)
        if add_terms:
            G = G + BiPoly(fld, add_terms)
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
    if all(j >= 1 for (_, j) in F.terms):
        raise PreconditionError("Y divides the curve equation")
    m = model.m
    if m % fld.p == 0:
        raise PreconditionError("model not normalized: characteristic "
                                "divides deg_Y")
    deltas = [m]
    roots = [BiPoly.x(fld)]
    d_list = [m]
    cur_root = BiPoly.y(fld)
    cur_delta = resultant_y(F, cur_root).degree
    if cur_delta is NEG_INF:
        raise PreconditionError("Y divides the curve equation")
    deltas.append(cur_delta)
    roots.append(cur_root)
    while True:
        prev_d = d_list[-1]
        prev_delta = deltas[-1]
        d_i = prev_d if prev_delta is NEG_INF else math.gcd(prev_d, prev_delta)
        if d_i == prev_d:
            break
        d_list.append(d_i)
        F_i = approximate_root(F, d_i)
        deltas.append(resultant_y(F, F_i).degree)
        roots.append(F_i)
        if len(d_list) > m + 2:
            raise InconsistencyError("approximate-root iteration failed to "
                                     "terminate")
    h = len(d_list) - 1
    nseq = tuple(d_list[i] // d_list[i + 1] for i in range(h))
    return AMSequence(h=h, delta=tuple(deltas[:h + 1]), d=tuple(d_list),
                      nseq=nseq, roots=tuple(roots[:h + 1]), model=model)


@dataclass(frozen=True)
class CriterionVerdict:
    one_branch: bool
    reason: str | None = None

    def __bool__(self):
        return self.one_branch


def one_branch_criterion(seq):
    """Decide whether the curve has a single rational branch at infinity.

    Checks, in order: d_{h+1} = 1; the strict chain
    delta_1 d_1 > ... > delta_h d_h; and n_i delta_i in
    <delta_0, ..., delta_{i-1}>.  For h <= 1 only the first gate applies.
    """
    h = seq.h
    if seq.d[-1] != 1:
        return CriterionVerdict(False, f"d_{h + 1} = {seq.d[-1]} != 1")
    if h <= 1:
        return CriterionVerdict(True)
    for i in range(1, h):
        lhs = seq.delta[i] * seq.d[i - 1]
        rhs = seq.delta[i + 1] * seq.d[i]
        if not lhs > rhs:
            return CriterionVerdict(
                False, f"chain fails at i={i}: delta_{i}*d_{i} = {lhs} "
                       f"<= delta_{i+1}*d_{i+1} = {rhs}")
    from .semigroups import _scaled_member, format_gens
    for i in range(1, h + 1):
        target = seq.nseq[i - 1] * seq.delta[i]
        if not _scaled_member(target, seq.delta[:i]):
            return CriterionVerdict(
                False, f"n_{i}*delta_{i} = {target} not in "
                       f"{format_gens(seq.delta[:i])}")
    return CriterionVerdict(True)


@dataclass(frozen=True)
class SemigroupAtInfinity:
    """Pole orders at infinity of polynomial functions, with witnesses."""

    generators: tuple   # (delta_0, ..., delta_h)
    d: tuple
    nseq: tuple
    functions: tuple    # (F_0, ..., F_h), -v(F_i) = delta_i
    model: PlaneModel

    def numerical(self, pivot=None):
        from .semigroups import NumericalSemigroup
        return NumericalSemigroup.from_generators(list(self.generators),
                                                  pivot=pivot)

    def telescopic(self):
        from .semigroups import TelescopicStructure
        return TelescopicStructure(list(self.generators))


def semigroup_at_infinity(seq):
    """Package the AM output, re-asserting the three structure properties."""
    verdict = one_branch_criterion(seq)
    if not verdict:
        raise PreconditionError(
            f"not a single branch at infinity: {verdict.reason}")
    h = seq.h
    if seq.d[-1] != 1:
        raise InconsistencyError("d_{h+1} != 1 after criterion passed")
    for i in range(2, h + 1):
        if seq.nseq[i - 1] <= 1:
            raise InconsistencyError(f"n_{i} = {seq.nseq[i-1]} is not > 1")
    for i in range(1, h):
        if not seq.nseq[i - 1] * seq.delta[i] > seq.delta[i + 1]:
            raise InconsistencyError(f"n_{i}*delta_{i} <= delta_{i+1}")
    return SemigroupAtInfinity(generators=seq.delta, d=seq.d, nseq=seq.nseq,
                               functions=seq.roots, model=seq.model)


def analyze(F):
    """normalize_degree + am_sequence + criterion in one call."""
    model = normalize_degree(F)
    seq = am_sequence(model)
    verdict = one_branch_criterion(seq)
    return model, seq, verdict
