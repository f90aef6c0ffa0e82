"""Completing the semigroup at infinity to the Weierstrass semigroup.

The triangulation loop reduces each integral-basis element against the
table of known functions (leading-coefficient-matched subtraction, exact
coefficients from the branch oracle) until its pole order escapes the
current value set; the escape updates one residue-class slot of the Apery
array, covering every gap of that class above the new value at once.
Per class i mod e the table keeps the AM product h_i of S_P's Apery element
and the slot function, whose values form the current Apery array.  A value r
of class i in the Weierstrass semigroup gets h_i * h_e^l when r is in S_P
and slot_i * h_e^l otherwise, l matching the pole order; hence bases of the
spaces L(mP).
"""

import operator
from dataclasses import dataclass

from .errors import InconsistencyError, PrecisionCeilingError, \
    PreconditionError
from .fields import power
from .polynomials import BiPoly, UniPoly, _exact_quotients
from .semigroups import NumericalSemigroup, TelescopicStructure


def _x_content(P):
    """gcd over GF(q)[X] of the Y-coefficients of P."""
    g = UniPoly.zero(P.field)
    for c in P.y_coeffs():
        g = g.gcd(UniPoly(P.field, c))
        if g.degree == 0:
            break
    return g


def _strip_common_content(num, den):
    """Cancel the common univariate X-content of numerator and denominator
    (no gcd over the curve is attempted)."""
    g = _x_content(num).gcd(_x_content(den))
    if g.degree >= 1:
        f = num.field
        num, den = (BiPoly.from_y_coeffs(f, _exact_quotients(
            P.y_coeffs(), g.coeffs, f)) for P in (num, den))
    return num, den


@dataclass(frozen=True)
class ValuedFunction:
    """A rational function tagged with its pole order at infinity and the
    exact leading coefficient of its local expansion."""

    num: BiPoly
    den: BiPoly
    value: int          # -v(f) at the infinite place
    lc: int             # leading coefficient (field rep)

    def __mul__(self, other):
        f = self.num.field
        num, den = _strip_common_content(self.num * other.num,
                                         self.den * other.den)
        return ValuedFunction(num, den, self.value + other.value,
                              f.mul(self.lc, other.lc))

    def pow(self, e):
        f = self.num.field
        return power(self, e, operator.mul, ValuedFunction(
            BiPoly.one(f), BiPoly.one(f), 0, 1))

    def __repr__(self):
        if self.den == BiPoly.one(self.num.field):
            return repr(self.num)
        return f"({self.num}) / ({self.den})"


class FunctionTable:
    """Apery-indexed function storage: per residue class mod e = delta_0,
    the AM power product of S_P's Apery element and the current slot
    function, plus the pivot function h_e and S_P (`at_infinity`)."""

    def __init__(self, s_infinity, am_functions, oracle):
        self.oracle = oracle
        field = oracle.field
        delta = s_infinity.generators
        self.e = delta[0]
        roots = []
        for fn, value in zip(am_functions, delta):
            val = oracle.valuation(fn)
            if -val.order != value:
                raise InconsistencyError(
                    f"generator function has pole order {-val.order}, "
                    f"expected {value}")
            roots.append(ValuedFunction(fn, BiPoly.one(field), value,
                                        val.leading.rep))
        self.h_e = roots[0]            # -v(X) = delta_0 = pivot
        self.at_infinity = s_infinity.numerical()
        self._am = []
        for a in self.at_infinity.apery:
            fn = ValuedFunction(BiPoly.one(field), BiPoly.one(field), 0, 1)
            # lambda_0 = 0 on an Apery element: no power of h_e
            for root, l in zip(roots[1:], s_infinity.repr_of(a)[1:]):
                if l:
                    fn = fn * root.pow(l)
            self._am.append(fn)
        self.slots = list(self._am)

    # -- current value set ------------------------------------------------

    def contains(self, value):
        return value >= 0 and value >= self.slots[value % self.e].value

    def update_slot(self, value, fn):
        """Record the escape function: lowers the Apery slot of its class.
        Returns the list of newly covered values, ascending."""
        i = value % self.e
        old = self.slots[i].value
        if value >= old:
            raise InconsistencyError(
                f"slot update with a value {value} already covered")
        self.slots[i] = fn
        return list(range(value, old, self.e))

    def numerical(self):
        return NumericalSemigroup.from_apery(
            self.e, [fn.value for fn in self.slots])

    def denominators(self):
        """The distinct non-constant denominators of the slot functions."""
        return list(dict.fromkeys(fn.den for fn in self.slots
                                  if fn.den.total_degree > 0))

    # -- function lookup ---------------------------------------------------

    def function_for(self, r):
        """A function with pole order exactly r at infinity: h_i * h_e^l
        with h_i the AM product of class i when r lies in S_P, the slot
        function of class i otherwise."""
        if not self.contains(r):
            raise PreconditionError(f"{r} is not a tracked pole order")
        i = r % self.e
        base = self._am[i] if r in self.at_infinity else self.slots[i]
        l = (r - base.value) // self.e
        fn = base * self.h_e.pow(l) if l else base
        if fn.value != r:
            raise InconsistencyError("composed function has wrong value")
        val = self.oracle.valuation(fn.num, fn.den)
        if -val.order != r or val.leading.rep != fn.lc:
            raise InconsistencyError(
                f"table function for {r} fails oracle validation")
        return fn


@dataclass(frozen=True)
class TriangulationReport:
    s_p: TelescopicStructure    # the semigroup at infinity
    s: int                      # integral-basis size = #(Gamma \ S_P)
    added_values: tuple         # discovery order, covered values included
    gamma: NumericalSemigroup   # the Weierstrass semigroup
    reduced: tuple              # escape functions g_i
    genus: int
    table: FunctionTable


def reduce_step(g, table):
    """One reduction: subtract the leading-coefficient-matched table
    function of equal value; the pole order strictly drops."""
    if not table.contains(g.value):
        raise PreconditionError(
            f"value {g.value} is not in the current value set")
    field = table.oracle.field
    f = table.function_for(g.value)
    c = field.div(g.lc, f.lc)
    num = g.num * f.den - f.num.scale(c) * g.den
    den = g.den * f.den
    num, den = _strip_common_content(num, den)
    val = table.oracle.valuation(num, den)
    if -val.order >= g.value:
        raise InconsistencyError("reduction did not decrease the pole order")
    return ValuedFunction(num, den, -val.order, val.leading.rep)


def triangulate(s_infinity, am_functions, integral_basis, oracle):
    """Run the triangulation over the integral basis h_1..h_s.

    Every escape lowers one Apery slot, adding the whole residue class
    between the new value and the old slot minimum; exactly s values are
    added in total, else the basis was inconsistent.
    """
    table = FunctionTable(s_infinity, am_functions, oracle)
    s = len(integral_basis)
    genus_start = table.at_infinity.genus
    added = []
    reduced = []
    for idx, (num, den) in enumerate(integral_basis, start=1):
        if len(added) == s:
            break  # value set complete; remaining elements are dependent
        try:
            val = oracle.valuation(num, den)
        except PrecisionCeilingError:
            raise
        except PreconditionError as exc:
            raise InconsistencyError(
                f"integral basis element {idx} is not a function on the "
                f"curve: {exc}")
        g = ValuedFunction(num, den, -val.order, val.leading.rep)
        steps = 0
        bound = g.value + 2
        while g.value > 0 and table.contains(g.value):
            try:
                g = reduce_step(g, table)
            except PrecisionCeilingError:
                raise
            except PreconditionError as exc:
                raise InconsistencyError(
                    f"integral basis element {idx} reduced to zero; "
                    f"the given set is not a basis ({exc})")
            steps += 1
            if steps > bound:
                raise InconsistencyError("reduction failed to terminate")
        if g.value <= 0:
            raise InconsistencyError(
                f"integral basis element {idx} reduced into the coordinate "
                f"ring; the given set is not a basis")
        covered = table.update_slot(g.value, g)
        if len(added) + len(covered) > s:
            raise InconsistencyError(
                f"more than {s} values added: the given integral basis is "
                f"inconsistent with its size")
        added.extend(covered)
        reduced.append(g)
    if len(added) != s:
        raise InconsistencyError(
            f"{len(added)} values added but the integral basis has size {s}")
    gamma = table.numerical()
    genus = gamma.genus
    if genus != genus_start - s:
        raise InconsistencyError(
            f"genus bookkeeping failed: {genus_start} - {s} != {genus}")
    return TriangulationReport(s_p=s_infinity, s=s, added_values=tuple(added),
                               gamma=gamma, reduced=tuple(reduced),
                               genus=genus, table=table)


def function_for(table, r):
    return table.function_for(r)


def l_basis(table, m):
    """One function per pole order r in Gamma with 0 <= r <= m."""
    if m < 0:
        raise PreconditionError("m must be nonnegative")
    return [table.function_for(r) for r in range(m + 1) if table.contains(r)]
