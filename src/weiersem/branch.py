"""Parametrization of the branch at infinity and the valuation oracle.

The unique point at infinity is detected from the degree form, moved to
the origin of the matching affine chart, and the branch germ is resolved
by a chain of quadratic transforms (the blowup form of a Hamburger-Noether
expansion, valid in any characteristic).  The chain has one orientation:
a step is either the blowup (u, v) <- (u, u*(v + lam)) or SWAP,
(u, v) <- (v, u).  One tangent-cone test, `polynomials._tangent_cone`,
reads the steps off a form: [lam] for c*(Y - lam*X)^mu and
[SWAP, 0, SWAP] for c*X^mu.  It classifies the degree-D form at infinity
(chart 'y' is chart 'x' of F with X and Y swapped) and the lowest form at
every blowup centre.  At the terminal smooth point a SWAP makes v a
function of u, the branch is expanded as v(t) at u = t by formal Newton
iteration, and the series are folded back through the chain.  Valuations
of rational functions are then exact orders of truncated power series,
with exact leading coefficients; for polynomials the resultant degree
provides an independent backend.

The chart map and every blowup are calls of the one substitution
primitive `BiPoly.substitute_binomial`, every series product and every
sum of products is the one coefficient-list multiply-add
`polynomials._list_mul`, truncated, and every reciprocal is lifted by the one
Newton-inverse step `polynomials._ser_inv_step`.  Every polynomial is
evaluated at series in one of two ways, each where it is cheaper: the
Newton step runs `_ser_horner`, a baby-step/giant-step (Paterson-Stockmeyer)
evaluation, over the Y-coefficients of G and G_s, which are already series
in t; the local-equation check and the valuations pull back through
`_pullback`, by Horner in v, to only as many terms as its caller reads.

A series truncated to prec terms is a rep list of at most prec entries,
the entries past its end zero: exactly what `_list_mul(a, b, field, prec)`
and `_ser_inv` return, so no series is ever padded or re-trimmed.

The branch starts at max(min(4*D^2, PRECISION_CEILING), D + 1) terms, D
the pole order of v(t); the valuation of a polynomial of degree d reads
d*D + 1 pullback terms, and a shorter branch grows once, to
max(d*D + 1, min(2*precision, PRECISION_CEILING)) terms.  Only
`_compute_series` refuses a length beyond the ceiling.
"""

import math
from dataclasses import dataclass

from .errors import InconsistencyError, PrecisionCeilingError, \
    PreconditionError
from .fields import FieldElement
from .polynomials import SWAP, BiPoly, resultant_y, _infinity_cone, \
    _list_mul, _ser_inv_step, _tangent_cone

PRECISION_CEILING = 1 << 16     # most series terms a branch may carry


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


# -- infinity chart --------------------------------------------------------

def _local_equation(F, lam):
    """Dehomogenization at (1:lam:0), center moved to the origin:
    G(u,v) = F*(1, lam+u, v)."""
    D = int(F.total_degree)
    return F.substitute_binomial(
        lam, lambda i, j: j, lambda i, j, r: (r, D - i - j))


# -- the branch parametrization --------------------------------------------

@dataclass(frozen=True)
class Valuation:
    order: int              # value of the valuation at the infinite place
    leading: FieldElement   # exact leading coefficient of the t-expansion


class BranchParam:
    """Truncated parametrization (u(t), v(t)) of the branch at infinity in
    the local chart; `refine` extends u, v and `precision` in place.

    u and v hold at most `precision` coefficients each; the coefficients
    past their ends, up to `precision`, are zero."""

    def __init__(self, model):
        self.model = model
        F = model.equation
        self.field = F.field
        D = int(F.total_degree)
        # chart 'x' is X = 1 with the point at (1:lam:0); chart 'y' is
        # Y = 1 with the point at (0:1:0), chart 'x' of F with X, Y swapped
        cone = _infinity_cone(F)
        self.chart, self.lam = ("y", 0) if cone[0] is SWAP else ("x", cone[0])
        G = _local_equation(F.swap_xy() if self.chart == "y" else F, self.lam)
        steps = []
        guard = 4 * D * D + 16
        while True:
            mu = min(i + j for i, j in G.terms)
            if mu == 0:
                raise InconsistencyError("blowup center is not on the curve")
            if mu == 1:
                break
            for step in _tangent_cone(
                    G.form_coeffs(mu), mu, self.field,
                    "more than one branch (or a non-rational branch) "
                    "detected during the expansion at infinity"):
                steps.append(step)
                G = G.swap_xy() if step is SWAP else G.substitute_binomial(
                    step, lambda i, j: j, lambda i, j, r: (i + j - mu, r))
            if G.coeff(0, 0) != 0:
                raise InconsistencyError("strict transform missed the "
                                         "expected center")
            # each centre of multiplicity mu >= 2 lowers the delta
            # invariant of a reduced germ by mu*(mu - 1)/2 >= 1, and a
            # reduced plane curve of degree D has delta <= D*(D - 1)/2
            # at P ((D - 1)*(D - 2)/2 if irreducible), below the guard: a
            # chain that outruns it follows a repeated component
            guard -= 1
            if guard < 0:
                raise PreconditionError(
                    "the curve is not reduced: the blowup chain at "
                    "infinity never reaches a smooth point")
        # the terminal point is smooth (mu = 1); if G_v(0,0) = 0 then
        # G_u(0,0) != 0, and a SWAP makes v a function of u
        if G.coeff(0, 1) == 0:
            steps.append(SWAP)
            G = G.swap_xy()
        self._steps = steps
        self._Gterm = G
        # P is the only place at infinity, so by Bezout the line at
        # infinity meets the branch there D times: ord_t v(t) = D
        self.pole_order = D
        self.precision = 0
        self._compute_series(max(min(4 * D * D, PRECISION_CEILING), D + 1))

    # -- series construction ------------------------------------------

    def _newton_solve(self, prec):
        """Expand the smooth terminal branch: v as a series s in the
        parameter u = t; returns (t, s).

        A doubling from cur to new terms sets s <- s - G(s)/G_s(s).  As
        G(s) = O(t^cur), G_s(s) and its inverse h are read only to
        m = new - cur <= cur terms, and h, carried from the last doubling,
        is lifted by one Newton-inverse step (Brent and Kung, JACM 25
        (1978))."""
        field = self.field
        G = self._Gterm
        # the Y-coefficients of G are polynomials in t, i.e. series in t
        rows = G.rows
        drows = G.derivative_y().rows
        minus_one = [field.neg(1)]
        s = []
        h, k = [field.inv(G.coeff(0, 1))], 1     # 1/G_s(s) to k terms
        cur = 1
        while cur < prec:
            new = min(2 * cur, prec)
            m = new - cur
            if m > k:
                h = _ser_inv_step(_ser_horner(drows, s, field, m), h, k, m,
                                  field)
                k = m
            e = _ser_horner(rows, s, field, new)[cur:]
            corr = _list_mul(e, h[:m], field, m)
            s = _list_mul([0] * cur + corr, minus_one, field, new, s)
            cur = new
        if any(_ser_horner(rows, s, field, prec)):
            raise InconsistencyError("terminal Newton expansion failed")
        return [0, 1], s

    def _compute_series(self, prec):
        if prec > PRECISION_CEILING:
            raise PrecisionCeilingError(
                f"the branch series needs precision {prec} beyond the "
                f"ceiling {PRECISION_CEILING}")
        D = self.pole_order
        field = self.field
        u, v = self._newton_solve(prec)
        for step in reversed(self._steps):
            if step is SWAP:
                u, v = v, u
            else:
                shifted = _list_mul([step], [1], field, prec, v)
                v = _list_mul(u, shifted, field, prec)
        self.u = u
        self.v = v
        self.precision = prec
        # v^D * F(X, Y) along the branch is the local equation G0(u, v)
        if any(self._pullback(self.model.equation, prec)):
            raise InconsistencyError("parametrization does not annihilate "
                                     "the local equation")
        if _ser_ord(v) != D:
            raise InconsistencyError(
                f"v(t) does not have order {D}, the total degree")
        self._lc_v = v[D]

    def refine(self, precision):
        """Extend the series to exactly `precision` terms if that is longer;
        prefixes are stable (same chain, same deterministic expansion)."""
        if precision <= self.precision:
            return
        self._compute_series(precision)

    # -- pullbacks and valuations --------------------------------------

    def _pullback(self, g, prec):
        """First prec terms of the series of v^d * g(X, Y) along the
        branch, d the total degree of g (prec <= precision).  With
        a = lam + u it is sum_e S_e * v^e, S_e the sum of c_ij * a^j over
        i + j = d - e, taken by Horner in v."""
        field = self.field
        if self.chart == "y":
            g = g.swap_xy()
        d = int(g.total_degree)
        rows = g.rows
        v = self.v[:prec]
        a = _list_mul([self.lam], [1], field, prec, self.u)
        pow_a = [[1]]
        for _ in range(1, len(rows)):
            pow_a.append(_list_mul(pow_a[-1], a, field, prec))
        acc = []
        for e in range(d, -1, -1):
            acc = _list_mul(acc, v, field, prec)
            for j, row in enumerate(rows):
                i = d - e - j
                if 0 <= i < len(row) and row[i]:
                    acc = _list_mul(pow_a[j], [row[i]], field, prec, acc)
        return acc

    def valuation_poly(self, g):
        """(order, leading coeff) of a nonzero polynomial g reduced mod F,
        read off the first d*D + 1 terms of v^d * g, d = deg g."""
        field = self.field
        d = int(g.total_degree) if not g.is_zero() else 0
        needed = d * self.pole_order + 1
        if needed > self.precision:
            self.refine(max(needed, min(2 * self.precision,
                                        PRECISION_CEILING)))
        series = self._pullback(g, needed)
        o = _ser_ord(series)
        if o is None:
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


def parametrize(model):
    """Truncated parametrization of the unique branch at infinity."""
    return BranchParam(model)


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
