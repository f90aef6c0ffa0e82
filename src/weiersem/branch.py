"""Parametrization of the branch at infinity and the valuation oracle.

The unique point at infinity is detected from the degree form, moved to
the origin of the matching affine chart, and the branch germ is resolved
by a chain of quadratic transforms (the blowup form of a Hamburger-Noether
expansion, valid in any characteristic).  At the terminal smooth point the
branch is expanded by formal Newton iteration, and the series are folded
back through the chain.  Valuations of rational functions are then exact
orders of truncated power series, with exact leading coefficients; for
polynomials the resultant degree provides an independent backend.

The chart map and every blowup are calls of the one substitution
primitive `BiPoly.substitute_binomial`, every series product and every
sum of products is the one coefficient-list multiply-add
`polynomials._list_mul`, truncated, and every reciprocal is the one Newton
series inverse `polynomials._ser_inv`.  Every polynomial is evaluated at
series in one of two ways, each where it is cheaper: the Newton step runs
`_ser_horner`, a baby-step/giant-step (Paterson-Stockmeyer) evaluation,
over the Y-coefficients of G and G_s, which are already series in t; the
local-equation check and the valuations pull back through `_pullback`,
which keeps cached powers of the chart coordinates.

A series truncated to prec terms is a rep list of at most prec entries,
the entries past its end zero: exactly what `_list_mul(a, b, field, prec)`
and `_ser_inv` return, so no series is ever padded or re-trimmed.
"""

import math
import os
from dataclasses import dataclass

from .errors import InconsistencyError, InputError, PrecisionCeilingError, \
    PreconditionError
from .fields import FieldElement
from .polynomials import BiPoly, UniPoly, resultant_y, _list_mul, _ser_inv

DEFAULT_PRECISION_CEILING = 1 << 16


def precision_ceiling():
    """WEIERSTRASS_PRECISION_CEILING (an integer >= 1) if set, else the
    default."""
    v = os.environ.get("WEIERSTRASS_PRECISION_CEILING")
    if not v:
        return DEFAULT_PRECISION_CEILING
    try:
        ceiling = int(v)
    except ValueError:
        ceiling = 0
    if ceiling < 1:
        raise InputError("WEIERSTRASS_PRECISION_CEILING must be an integer "
                         f">= 1, got {v!r}")
    return ceiling


# -- truncated power series: rep lists of at most prec entries -------------

def _ser_ord(a):
    for i, c in enumerate(a):
        if c:
            return i
    return None


def _ser_horner(coeffs, x, field, prec):
    """sum_j coeffs[j] * x^j for series coeffs[j] (rep lists of any
    length) and x, as a series of at most prec entries, by
    baby-step/giant-step (Paterson-Stockmeyer): with
    b = ceil(sqrt(len(coeffs))), each chunk of b rows is summed against
    the baby steps x^0, ..., x^(b-1), and the chunk sums are joined by
    Horner in x^b, so about 2*sqrt(len(coeffs)) full-length products are
    taken in place of len(coeffs)."""
    b = math.isqrt(len(coeffs) - 1) + 1 if coeffs else 1
    x = x[:prec]
    pw = [[1]]
    for _ in range(b):
        pw.append(_list_mul(pw[-1], x, field, prec))
    xb = pw.pop()
    acc = []
    for k in reversed(range(0, len(coeffs), b)):
        inner = []
        for r, row in enumerate(coeffs[k:k + b]):
            inner = _list_mul(row[:prec], pw[r], field, prec, inner)
        acc = _list_mul(acc, xb, field, prec, inner)
    return acc


# -- tangent detection -----------------------------------------------------

def _pure_power_root(coeffs, mu, field):
    """If sum c_j w^j equals c*(w - lam)^mu, return lam, else None.

    Characteristic-aware: with mu = p^a * m' (p not dividing m'), the
    coefficient of w^(mu - p^a) pins lam^(p^a), and the Frobenius is
    inverted by x -> x^(q/p)."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) - 1 != mu:
        return None
    p, q = field.p, field.order
    a = 0
    m_prime = mu
    while m_prime % p == 0:
        m_prime //= p
        a += 1
    c_top = cs[-1]
    idx = mu - p ** a
    sub = cs[idx] if idx >= 0 else 0
    # sub = c_top * m' * (-lam^(p^a))
    lam_pa = field.neg(field.div(sub, field.mul(c_top, field.from_int(m_prime))))
    lam = lam_pa
    for _ in range(a):
        lam = field.pow_rep(lam, q // p)
    # verify exactly
    check = (UniPoly(field, (field.neg(lam), 1)) ** mu).scale(c_top)
    return lam if check.coeffs == tuple(cs) else None


@dataclass(frozen=True)
class _Step:
    kind: str   # 'v': (u,v) <- (u, u*(v+lam));  'u': (u,v) <- (v*u, v)
    lam: int


def _tangent_step(G, field):
    mu = min(i + j for i, j in G.terms)
    coeffs = G.form_coeffs(mu)
    if mu == 0:
        raise InconsistencyError("blowup center is not on the curve")
    if mu == 1:
        return mu, None
    deg = max((j for j, c in enumerate(coeffs) if c), default=None)
    if deg == 0:
        return mu, _Step("u", 0)
    lam = _pure_power_root(coeffs, mu, field)
    if lam is None:
        raise PreconditionError(
            "more than one branch (or a non-rational branch) detected "
            "during the expansion at infinity")
    return mu, _Step("v", lam)


def _blowup(G, step, mu):
    if step.kind == "v":
        return G.substitute_binomial(
            step.lam, lambda i, j: j, lambda i, j, r: (i + j - mu, r))
    return G.substitute_binomial(
        0, lambda i, j: 0, lambda i, j, r: (i, i + j - mu))


# -- infinity chart --------------------------------------------------------

def _infinity_chart(F):
    """Locate the single rational point at infinity.

    Returns (chart, lam): chart 'x' is X=1 with the point at (1:lam:0);
    chart 'y' is Y=1 with the point at (0:1:0)."""
    field = F.field
    D = int(F.total_degree)
    coeffs = F.form_coeffs(D)
    deg = max(j for j, c in enumerate(coeffs) if c)
    if deg == D:
        lam = _pure_power_root(coeffs, D, field)
        if lam is None:
            raise PreconditionError("the curve does not have a single "
                                    "rational point at infinity")
        return "x", lam
    if deg == 0:
        return "y", 0
    raise PreconditionError("the curve does not have a single rational "
                            "point at infinity")


def _local_equation(F, chart, lam):
    """Dehomogenization at the infinite point, center moved to the origin:
    chart 'x': G(u,v) = F*(1, lam+u, v); chart 'y': G(u,v) = F*(u, 1, v)."""
    D = int(F.total_degree)
    return F.substitute_binomial(
        lam, (lambda i, j: j) if chart == "x" else (lambda i, j: i),
        lambda i, j, r: (r, D - i - j))


# -- the branch parametrization --------------------------------------------

@dataclass(frozen=True)
class Valuation:
    order: int              # value of the valuation at the infinite place
    leading: FieldElement   # exact leading coefficient of the t-expansion


class BranchParam:
    """Truncated parametrization (u(t), v(t)) of the branch at infinity in
    the local chart; refinable; single-threaded use (internal caches).

    u and v hold at most `precision` coefficients each; the coefficients
    past their ends, up to `precision`, are zero."""

    def __init__(self, model, precision=None):
        self.model = model
        F = model.equation
        self.field = F.field
        self.ceiling = precision_ceiling()
        D = int(F.total_degree)
        self.degree = D
        self.chart, self.lam = _infinity_chart(F)
        G = _local_equation(F, self.chart, self.lam)
        steps = []
        guard = 4 * D * D + 16
        while True:
            mu, step = _tangent_step(G, self.field)
            if step is None:
                break
            steps.append(step)
            G = _blowup(G, step, mu)
            if G.coeff(0, 0) != 0:
                raise InconsistencyError("strict transform missed the "
                                         "expected center")
            guard -= 1
            if guard < 0:
                raise InconsistencyError("blowup chain failed to terminate")
        self._steps = steps
        self._Gterm = G
        cu, cv = G.coeff(1, 0), G.coeff(0, 1)
        if cv != 0:
            self._mode = "v_of_u"
        elif cu != 0:
            self._mode = "u_of_v"
        else:  # pragma: no cover
            raise InconsistencyError("terminal point is not smooth")
        if precision is None:
            precision = min(4 * D * D, self.ceiling)
        self.precision = 0
        self._compute_series(max(4, precision))

    # -- series construction ------------------------------------------

    def _newton_solve(self, prec):
        """Expand the smooth terminal branch: the unknown coordinate as a
        series in the parameter coordinate t."""
        field = self.field
        G = self._Gterm
        if self._mode == "u_of_v":
            G = G.swap_xy()
        # the Y-coefficients of G are polynomials in t, i.e. series in t
        rows = G.y_coeffs()
        drows = G.derivative_y().y_coeffs()
        minus_one = [field.neg(1)]
        s = []
        cur = 1
        while cur < prec:
            cur = min(2 * cur, prec)
            g_at = _ser_horner(rows, s, field, cur)
            gs_at = _ser_horner(drows, s, field, cur)
            corr = _list_mul(g_at, _ser_inv(gs_at, field, cur), field, cur)
            s = _list_mul(corr, minus_one, field, cur, s)
        if any(_ser_horner(rows, s, field, prec)):
            raise InconsistencyError("terminal Newton expansion failed")
        return [0, 1], s

    def _compute_series(self, prec):
        if prec > self.ceiling:
            raise PrecisionCeilingError(
                f"required precision {prec} exceeds the ceiling "
                f"{self.ceiling} (WEIERSTRASS_PRECISION_CEILING)")
        field = self.field
        t_series, s = self._newton_solve(prec)
        if self._mode == "v_of_u":
            u, v = t_series, s
        else:
            u, v = s, t_series
        for step in reversed(self._steps):
            if step.kind == "v":
                shifted = _list_mul([step.lam], [1], field, prec, v)
                v = _list_mul(u, shifted, field, prec)
            else:
                u = _list_mul(v, u, field, prec)
        self.u = u
        self.v = v
        self.precision = prec
        self._pow_a = [[1]]
        self._pow_b = [[1]]
        self._a = _list_mul([self.lam], [1], field, prec, u)
        # v^D * F(X, Y) along the branch is the local equation G0(u, v)
        if any(self._pullback(self.model.equation)[0]):
            raise InconsistencyError("parametrization does not annihilate "
                                     "the local equation")
        ord_v = _ser_ord(v)
        if ord_v is None:
            if prec >= self.ceiling:
                raise PrecisionCeilingError(
                    f"v(t) vanished to working precision {prec}, the "
                    f"ceiling {self.ceiling} (WEIERSTRASS_PRECISION_CEILING)")
            self._compute_series(min(2 * prec, self.ceiling))
            return
        self.pole_order = ord_v       # ord_t of the chart coordinate Z/X
        self._lc_v = v[ord_v]

    def refine(self, precision):
        """Extend the series; prefixes are stable (same chain, same
        deterministic expansion)."""
        if precision <= self.precision:
            return
        self._compute_series(precision)

    def _power(self, cache, base, e):
        while len(cache) <= e:
            cache.append(_list_mul(cache[-1], base, self.field,
                                   self.precision))
        return cache[e]

    # -- pullbacks and valuations --------------------------------------

    def _pullback(self, g):
        """Series of v^d * g(X, Y) along the branch, d = total degree of g."""
        field = self.field
        d = int(g.total_degree)
        prec = self.precision
        acc = []
        for (i, j), c in g.terms.items():
            zexp = d - i - j
            aexp = j if self.chart == "x" else i
            term = self._power(self._pow_a, self._a, aexp)
            if zexp:
                term = _list_mul(term,
                                 self._power(self._pow_b, self.v, zexp),
                                 field, prec)
            acc = _list_mul(term, [c], field, prec, acc)
        return acc, d

    def valuation_poly(self, g):
        """(order, leading coeff) of a nonzero polynomial reduced mod F."""
        field = self.field
        d = int(g.total_degree) if not g.is_zero() else 0
        needed = d * self.pole_order + 4
        if needed > self.precision:
            target = self.precision
            while target < needed:
                target *= 2
            if target > self.ceiling:
                if needed <= self.ceiling:
                    target = self.ceiling
                else:
                    raise PrecisionCeilingError(
                        f"valuation needs precision {needed} beyond the "
                        f"ceiling {self.ceiling}")
            self.refine(target)
        series, d = self._pullback(g)
        o = _ser_ord(series)
        if o is None or o > d * self.pole_order:
            raise InconsistencyError(
                "pullback series vanished beyond its pole bound; "
                "the function is zero on the branch")
        order = o - d * self.pole_order
        lc = field.div(series[o], field.pow_rep(self._lc_v, d))
        return order, lc

    def valuation(self, num, den=None):
        """Exact order and leading coefficient of num/den along the branch."""
        F = self.model.equation
        field = self.field
        num_red = num.divmod_y(F)[1]
        if num_red.is_zero():
            raise PreconditionError("zero function: the numerator is "
                                    "divisible by the curve equation")
        if den is None:
            den_red = BiPoly.one(field)
        else:
            den_red = den.divmod_y(F)[1]
            if den_red.is_zero():
                raise PreconditionError("denominator is divisible by the "
                                        "curve equation")
        o1, c1 = self.valuation_poly(num_red)
        o2, c2 = self.valuation_poly(den_red)
        return Valuation(order=o1 - o2,
                         leading=FieldElement(field, field.div(c1, c2)))


def parametrize(model, precision=None):
    """Truncated parametrization of the unique branch at infinity."""
    return BranchParam(model, precision)


def valuation(param, num, den=None):
    return param.valuation(num, den)


def valuation_by_resultant(model, g):
    """-v(g) for a polynomial g coprime to F, as deg_X Res_Y(F, g); the
    independent cross-check backend for the series valuation."""
    if g.is_zero():
        raise PreconditionError("zero polynomial has no valuation")
    res = resultant_y(model.equation, g)
    if res.is_zero():
        raise PreconditionError("polynomial shares a factor with the curve")
    return int(res.degree)
