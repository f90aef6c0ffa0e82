"""Dense univariate and sparse bivariate polynomials over a finite field.

Coefficients are stored as integer field reps.  Two single kernels carry
the polynomial arithmetic: `_list_mul` is the one coefficient-list
multiply-add c + a*b, optionally truncated (every UniPoly sum, difference,
negation, scaling and product, hence the Rabin test in `fields`; the
series products and sums of products in `branch`; the Newton series
inverse `_ser_inv` and its step; UniPoly division over GF(p) above
`_NEWTON_CUTOFF`, quotient and remainder; each pseudo-remainder step and
exact division of the subresultant chain; the row operations and codeword
sums in `codes`); over GF(p) it packs long operands and c into big
integers (`_kronecker_mul`), and over GF(p^k) with log tables it
multiplies over the logs of the nonzero coefficients, taken once per
operand.  Kernels call the field's bound `add` and `mul`, whose kind of
arithmetic is chosen once per field, in `fields`, never here.
`BiPoly.substitute_binomial` is the one linear change of variables
(X -> X + c*Y^k, Y -> Y + c*X, every blowup and chart map).  A
value at a point is the one Horner `UniPoly.eval_rep` (over logs, where
the field has tables); a bivariate polynomial is first specialized at X
(`BiPoly.specialize_x`).
Every repr is one call to the one writer `fields.write_sum`, with
coefficients outside GF(p) bracketed by `FiniteField.format_coeff`.
The Y-resultant of two bivariate polynomials is computed by Brown's
subresultant pseudo-remainder sequence over the coefficient ring GF(q)[X],
on Y-coefficients held as rep lists: `_prem` lays the rows of a step end
to end, so the step is two `_list_mul` calls for every field, and
`_exact_quotients` divides every row by one X-polynomial with one shared
series inverse.  The zero resultant is reported with the degree sentinel
-inf, which the callers rely on as the common-factor signal.
"""

import math
import operator
import sys
from array import array

from .errors import InconsistencyError
from .fields import FieldElement, power, write_sum

NEG_INF = float("-inf")

# Largest exponent a parsed polynomial, and largest deg_Y a normalized
# model, may have; not user-settable, like fields.ORDER_LIMIT.  Measured on
# `curve analyze` of Y^m+X^7 over GF(2) and GF(5), m = 400..850 in steps of
# 10 and m = 845 (2-vCPU Xeon, Python 3.11): every model of deg_Y <= 850
# took at most 3.7 s, the slowest Y^845+X^7 over GF(5) (deg_Y 847).
DEGREE_LIMIT = 850

_KRONECKER_CUTOFF = 64
# Quotient length * divisor length from which UniPoly.divmod over GF(p)
# divides by Newton inversion.  Over GF(2), GF(5) and GF(101) it beat the
# schoolbook loop on every measured shape at or above 1024 but one (256 by
# 4 coefficients over GF(2), 0.9x), and lost on some at 512.
_NEWTON_CUTOFF = 1024

# (bytes, array typecode) of the unsigned Kronecker slot widths, narrowest
# first; picked by itemsize, which the C types fix per platform.
_SLOTS = sorted({array(tc).itemsize: tc for tc in "BHILQ"}.items())
_BIG_ENDIAN = sys.byteorder == "big"


def _kronecker_mul(a, b, p, n_out, c=()):
    """First n_out coefficients of c + a*b for coefficient lists over
    GF(p), p prime, by packing them into one big integer each (exact;
    fast for long operands).

    A slot is the narrowest array item of 1, 2, 4 or 8 bytes that holds
    min(len)*(p-1)^2, plus p-1 when there is an addend c, so packing and
    unpacking are whole-buffer array conversions.  Eight bytes always
    suffice: p <= 2^20 (ORDER_LIMIT) and no operand reaches 2^24
    coefficients."""
    bound = min(len(a), len(b)) * (p - 1) * (p - 1)
    if c:
        bound += p - 1
    for width, tc in _SLOTS:
        if bound >> (8 * width) == 0:
            break
    else:
        raise InconsistencyError(
            f"Kronecker slot overflow: {bound} needs more than 8 bytes")
    prod = _pack(a, tc) * _pack(b, tc)
    if c:
        prod += _pack(c, tc)
    out = array(tc)
    out.frombytes(prod.to_bytes(max(len(a) + len(b) - 1, len(c)) * width,
                                "little")[:n_out * width])
    if _BIG_ENDIAN:
        out.byteswap()
    return [v % p for v in out]


def _pack(a, tc):
    """The coefficient list a as one little-endian integer of array slots."""
    arr = array(tc, a)
    if _BIG_ENDIAN:
        arr.byteswap()
    return int.from_bytes(arr.tobytes(), "little")


def _list_mul(a, b, field, trunc=None, c=()):
    """The coefficient-list multiply-add: c + a*b without trailing zeros,
    or only its first `trunc` coefficients (truncated power series)."""
    n = len(a) + len(b) - 1 if a and b else 0
    if len(c) > n:
        n = len(c)
    if trunc is not None and trunc < n:
        n = trunc
    log = field._log
    if not a or not b:
        out = list(c[:n])
    elif log is not None:
        # GF(p^k) with tables: logs of the nonzero coefficients taken once,
        # each product one exp lookup
        exp, add = field._exp, field.add
        la = [(i, log[x]) for i, x in enumerate(a[:n]) if x]
        lb = [(j, log[y]) for j, y in enumerate(b[:n]) if y]
        out = [0] * n
        if c:
            out[:len(c)] = c[:n]
        for i, x in la:
            m = n - i
            for j, y in lb:
                if j >= m:
                    break
                out[i + j] = add(out[i + j], exp[x + y])
    elif field.k == 1 and len(a) * len(b) >= _KRONECKER_CUTOFF:
        out = _kronecker_mul(a, b, field.p, n, c)
    else:
        out = [0] * n
        if c:
            out[:len(c)] = c[:n]
        mul, add = field.mul, field.add
        lb = len(b)
        for i, ai in enumerate(a[:n]):
            if ai:
                for j, bj in enumerate(b if i + lb <= n else b[:n - i]):
                    if bj:
                        out[i + j] = add(out[i + j], mul(ai, bj))
    while out and out[-1] == 0:
        out.pop()
    return out


def _ser_inv(a, field, prec):
    """First prec coefficients of 1/a for a unit series a, by Newton
    doubling g <- g*(2 - a*g) mod X^(2k).  Since a*g = 1 + X^k*e mod
    X^(2k), this is g - X^k*(g*e): a truncated product and a truncated
    multiply-add, both `_list_mul` calls."""
    if not a or a[0] == 0:
        raise InconsistencyError("series reciprocal of a non-unit")
    g = [field.inv(a[0])]
    k = 1
    while k < prec:
        k2 = min(2 * k, prec)
        e = _list_mul(a[:k2], g, field, k2)[k:]
        corr = _list_mul(g, e, field, k2 - k)
        g = _list_mul(corr, [0] * k + [field.neg(1)], field, k2, g)
        k = k2
    return g[:prec]


def _accumulate(out, key, value, field):
    """out[key] += value in a sparse term dict, dropping a key whose sum
    vanishes."""
    s = field.add(out.get(key, 0), value)
    if s:
        out[key] = s
    else:
        out.pop(key, None)


class UniPoly:
    """Dense univariate polynomial; zero polynomial has degree -inf."""

    __slots__ = ("field", "coeffs", "var")

    def __init__(self, field, coeffs=(), var="X"):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)
        self.var = var

    @classmethod
    def zero(cls, field, var="X"):
        return cls(field, (), var)

    @classmethod
    def one(cls, field, var="X"):
        return cls(field, (1,), var)

    @classmethod
    def x(cls, field, var="X"):
        return cls(field, (0, 1), var)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def lc(self):
        return self.coeffs[-1] if self.coeffs else 0

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        return UniPoly(self.field, _list_mul(other.coeffs, (1,), self.field,
                                             None, self.coeffs), self.var)

    def __sub__(self, other):
        f = self.field
        return UniPoly(f, _list_mul(other.coeffs, (f.neg(1),), f, None,
                                    self.coeffs), self.var)

    def __neg__(self):
        return self.scale(self.field.neg(1))

    def __mul__(self, other):
        return UniPoly(self.field, _list_mul(self.coeffs, other.coeffs,
                                             self.field), self.var)

    def scale(self, rep):
        return UniPoly(self.field, _list_mul(self.coeffs, (rep,), self.field),
                       self.var)

    def __pow__(self, e):
        return power(self, e, operator.mul, UniPoly.one(self.field, self.var))

    def divmod(self, other):
        """Division with remainder; valid since coefficients form a field.

        Over GF(p) with (deg a - deg b + 1)*len(b) >= _NEWTON_CUTOFF, the
        quotient is rev(a)*rev(b)^-1 mod X^(deg a - deg b + 1) from the
        series inverse `_ser_inv`, and the remainder a - q*b on its low
        deg b coefficients is one `_list_mul` multiply-add.
        Otherwise the schoolbook loop runs."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        f = self.field
        a, b = self.coeffs, other.coeffs
        dg = len(b) - 1
        n = len(a) - dg
        if f.k == 1 and n * len(b) >= _NEWTON_CUTOFF:
            q = _list_mul(a[:-n - 1:-1], _ser_inv(b[:-n - 1:-1], f, n), f, n)
            q = (q + [0] * (n - len(q)))[::-1]
            r = _list_mul([f.neg(x) for x in q], b, f, dg, a[:dg])
            return UniPoly(f, q, self.var), UniPoly(f, r, self.var)
        r = list(a)
        inv_lc = f.inv(other.lc)
        q = [0] * max(n, 0)
        while len(r) - 1 >= dg and r:
            c = f.mul(r[-1], inv_lc)
            d = len(r) - 1 - dg
            q[d] = c
            for i in range(dg + 1):
                r[d + i] = f.sub(r[d + i], f.mul(c, b[i]))
            while r and r[-1] == 0:
                r.pop()
        return UniPoly(f, q, self.var), UniPoly(f, r, self.var)

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise InconsistencyError("inexact polynomial division")
        return q

    def gcd(self, other):
        """Monic greatest common divisor."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def monic(self):
        if self.is_zero() or self.lc == 1:
            return self
        return self.scale(self.field.inv(self.lc))

    def eval_rep(self, x):
        """The one Horner kernel: value at a field rep x; with log tables
        each step acc*x is one exp lookup at log(acc) + log(x)."""
        f = self.field
        acc = 0
        log, add = f._log, f.add
        if log is not None and x:
            exp, lx = f._exp, log[x]
            for c in reversed(self.coeffs):
                acc = add(exp[log[acc] + lx], c) if acc else c
            return acc
        mul = f.mul
        for c in reversed(self.coeffs):
            acc = add(mul(acc, x), c)
        return acc

    def __eq__(self, other):
        return (isinstance(other, UniPoly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.coeffs, self.field.p, self.field.k))

    def __repr__(self):
        f = self.field
        return write_sum([((e,), f.format_coeff(c))
                          for e, c in reversed(list(enumerate(self.coeffs)))
                          if c], (self.var,))


class BiPoly:
    """Sparse bivariate polynomial: {(deg_X, deg_Y): coefficient rep}."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms=None):
        self.field = field
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def zero(cls, field):
        return cls(field, {})

    @classmethod
    def one(cls, field):
        return cls(field, {(0, 0): 1})

    @classmethod
    def x(cls, field):
        return cls(field, {(1, 0): 1})

    @classmethod
    def y(cls, field):
        return cls(field, {(0, 1): 1})

    @classmethod
    def monomial(cls, field, i, j, coeff=1):
        if isinstance(coeff, FieldElement):
            coeff = coeff.rep
        return cls(field, {(i, j): coeff})

    def is_zero(self):
        return not self.terms

    @property
    def deg_x(self):
        return max((i for i, _ in self.terms), default=NEG_INF)

    @property
    def deg_y(self):
        return max((j for _, j in self.terms), default=NEG_INF)

    @property
    def total_degree(self):
        return max((i + j for i, j in self.terms), default=NEG_INF)

    def coeff(self, i, j):
        return self.terms.get((i, j), 0)

    def __add__(self, other):
        f = self.field
        out = dict(self.terms)
        for k, v in other.terms.items():
            _accumulate(out, k, v, f)
        return BiPoly(f, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.field
        return BiPoly(f, {k: f.neg(v) for k, v in self.terms.items()})

    def __mul__(self, other):
        f = self.field
        out = {}
        for (i1, j1), a in self.terms.items():
            for (i2, j2), b in other.terms.items():
                _accumulate(out, (i1 + i2, j1 + j2), f.mul(a, b), f)
        return BiPoly(f, out)

    def scale(self, rep):
        f = self.field
        if isinstance(rep, FieldElement):
            rep = rep.rep
        if rep == 0:
            return BiPoly.zero(f)
        return BiPoly(f, {k: f.mul(v, rep) for k, v in self.terms.items()})

    def __pow__(self, e):
        return power(self, e, operator.mul, BiPoly.one(self.field))

    # -- views ----------------------------------------------------------

    def y_coeffs(self):
        """Coefficients as a polynomial in Y over GF(q)[X], ascending."""
        if self.is_zero():
            return []
        out = [{} for _ in range(self.deg_y + 1)]
        for (i, j), c in self.terms.items():
            out[j][i] = c
        return [UniPoly(self.field, [d.get(i, 0) for i in range(max(d) + 1)] if d else ())
                for d in out]

    @classmethod
    def from_y_coeffs(cls, field, coeffs):
        terms = {}
        for j, poly in enumerate(coeffs):
            for i, c in enumerate(poly.coeffs):
                if c:
                    terms[(i, j)] = c
        return cls(field, terms)

    def lc_y(self):
        """Leading coefficient w.r.t. Y, as a polynomial in X."""
        ys = self.y_coeffs()
        return ys[-1] if ys else UniPoly.zero(self.field)

    def is_monic_in_y(self):
        lc = self.lc_y()
        return lc.degree == 0 and lc.lc == 1

    def swap_xy(self):
        return BiPoly(self.field, {(j, i): c for (i, j), c in self.terms.items()})

    def form_coeffs(self, d):
        """The degree-d form as [coeff of X^(d-j)*Y^j for j in 0..d]."""
        return [self.terms.get((d - j, j), 0) for j in range(d + 1)]

    def lift(self, field, embed):
        """The same polynomial over `field`, coefficients mapped by the
        embedding `embed` (rep -> rep) once."""
        return BiPoly(field, {k: embed(c) for k, c in self.terms.items()})

    # -- operations -----------------------------------------------------

    def divmod_y(self, other):
        """Long division by a divisor that is monic in Y."""
        if not other.is_monic_in_y():
            raise ValueError("divmod_y requires a divisor monic in Y")
        f = self.field
        r = self.y_coeffs()
        g = other.y_coeffs()
        dg = len(g) - 1
        q = [UniPoly.zero(f) for _ in range(max(len(r) - dg, 0))]
        while len(r) - 1 >= dg and r:
            t = r[-1]
            d = len(r) - 1 - dg
            q[d] = t
            for i in range(dg + 1):
                r[d + i] = r[d + i] - t * g[i]
            r.pop()
            while r and r[-1].is_zero():
                r.pop()
        return (BiPoly.from_y_coeffs(f, q), BiPoly.from_y_coeffs(f, r))

    def substitute_binomial(self, lam, exponent, key):
        """The one linear change of variables: each term c*X^i*Y^j becomes
        c*(W + lam)^n with n = exponent(i, j), expanded by the binomial
        theorem, with the W^r part landing on the monomial key(i, j, r)."""
        f = self.field
        out = {}
        for (i, j), c in self.terms.items():
            n = exponent(i, j)
            for r in range(n + 1):
                binom = math.comb(n, r) % f.p
                if binom:
                    coeff = f.mul(c, f.mul(binom, f.pow_rep(lam, n - r)))
                    _accumulate(out, key(i, j, r), coeff, f)
        return BiPoly(f, out)

    def substitute_x(self, k, sign=1):
        """Ring homomorphism X -> X + sign*Y^k (sign is +1 or -1)."""
        if k < 1:
            raise ValueError("substitution exponent must be >= 1")
        s_rep = 1 if sign > 0 else self.field.neg(1)
        return self.substitute_binomial(
            s_rep, lambda i, j: i, lambda i, j, r: (r, j + k * (i - r)))

    def shear_y(self, lam):
        """Ring homomorphism Y -> Y + lam*X (lam a field rep)."""
        if lam == 0:
            return self
        return self.substitute_binomial(
            lam, lambda i, j: j, lambda i, j, r: (i + j - r, r))

    def derivative_x(self):
        f = self.field
        out = {}
        for (i, j), c in self.terms.items():
            if i:
                v = f.mul(f.from_int(i), c)
                if v:
                    out[(i - 1, j)] = v
        return BiPoly(f, out)

    def derivative_y(self):
        f = self.field
        out = {}
        for (i, j), c in self.terms.items():
            if j:
                v = f.mul(f.from_int(j), c)
                if v:
                    out[(i, j - 1)] = v
        return BiPoly(f, out)

    def specialize_x(self, x):
        """P(x, Y) as a polynomial in Y, for a field rep x."""
        f = self.field
        out = []
        for (i, j), c in self.terms.items():
            if j >= len(out):
                out += [0] * (j + 1 - len(out))
            out[j] = f.add(out[j], f.mul(c, f.pow_rep(x, i)))
        return UniPoly(f, out, "Y")

    def eval_rep(self, x, y):
        """Value at the point (x, y): specialize X, then Horner in Y."""
        return self.specialize_x(x).eval_rep(y)

    def __eq__(self, other):
        return (isinstance(other, BiPoly) and self.field == other.field
                and self.terms == other.terms)

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.field.p, self.field.k))

    def __repr__(self):
        f = self.field
        keys = sorted(self.terms, key=lambda k: (-k[1], -k[0]))
        return write_sum([(k, f.format_coeff(self.terms[k])) for k in keys],
                         ("X", "Y"))


# -- Y-resultant via subresultant PRS over GF(q)[X] -----------------------

def _prem(f, g, field):
    """Pseudo-remainder lc(g)^(deg f - deg g + 1) * f mod g of Y-coefficient
    lists over GF(q)[X], each coefficient a rep list without trailing zeros.

    A step r <- r*lc(g) - lc(r)*g*Y^s works on whole rows: the coefficients
    it changes lie end to end at a stride that holds the step's growth in
    X-degree, so the step is a product by lc(g) (none when g is monic) and
    one multiply-add whose addend is that product."""
    df, dg = len(f) - 1, len(g) - 1
    r = [list(c) for c in f]
    if df < dg:
        return r
    lcg = list(g[dg])
    monic = lcg == [1]
    glen = max(map(len, g[:dg]), default=0)
    n = df - dg + 1
    while r and len(r) - 1 >= dg:
        dr = len(r) - 1
        lcr = [field.neg(x) for x in r[dr]]
        keep = dr - dg if monic else 0    # rows a monic step leaves alone
        rows = r[keep:dr]
        stride = max(max(map(len, rows), default=0) + len(lcg),
                     glen + len(lcr)) - 1
        flat = _lay(rows, stride)
        if not monic:
            flat = _list_mul(flat, lcg, field)
        cut = (dr - dg - keep) * stride
        flat += [0] * (cut - len(flat))
        flat[cut:] = _list_mul(lcr, _lay(g[:dg], stride), field, None,
                               flat[cut:])
        r = r[:keep] + [_trim(flat[i * stride:(i + 1) * stride])
                        for i in range(dr - keep)]
        while r and not r[-1]:
            r.pop()
        n -= 1
    if n and not monic:
        scale = (UniPoly(field, lcg) ** n).coeffs
        r = [_list_mul(row, scale, field) for row in r]
    return r


def _lay(rows, stride):
    """Rep lists end to end, each padded with zeros to `stride` entries."""
    flat = []
    for row in rows:
        flat += row
        flat += [0] * (stride - len(row))
    return flat


def _trim(row):
    while row and row[-1] == 0:
        row.pop()
    return row


def _exact_quotients(chs, b, field):
    """The quotients c / b of rep lists c by one X-polynomial b (a rep list
    with nonzero top entry); `InconsistencyError` when b does not divide
    one of them.

    Over GF(p), from _NEWTON_CUTOFF on, rev(b)^-1 is built once by
    `_ser_inv` to the longest quotient's length; each quotient q is then
    one truncated product, and b divides c exactly when q*b agrees with c
    on the low deg b entries.  Otherwise each is `UniPoly.exact_div`."""
    lb = len(b)
    n = max(map(len, chs), default=0) - lb + 1
    if field.k != 1 or n * lb < _NEWTON_CUTOFF:
        d = UniPoly(field, b)
        return [list(UniPoly(field, c).exact_div(d).coeffs) for c in chs]
    inv = _ser_inv(b[::-1], field, n)
    out = []
    for c in chs:
        k = len(c) - lb + 1
        q = _list_mul(c[:-k - 1:-1], inv[:k], field, k) if k > 0 else []
        q = (q + [0] * (k - len(q)))[::-1]
        if _list_mul(q, b, field, lb - 1) != _trim(list(c[:lb - 1])):
            raise InconsistencyError("inexact polynomial division")
        out.append(q)
    return out


def resultant_y(f, g):
    """Res_Y(f, g) as a polynomial in X; the zero polynomial (degree -inf)
    signals a common factor, matching the deg = -inf convention."""
    field = f.field
    if f.is_zero() or g.is_zero():
        return UniPoly.zero(field)
    fl = [c.coeffs for c in f.y_coeffs()]
    gl = [c.coeffs for c in g.y_coeffs()]
    n, m = len(fl) - 1, len(gl) - 1
    negate = False
    if n < m:
        fl, gl = gl, fl
        n, m = m, n
        negate = (n * m) % 2 == 1 and field.p != 2
    if m < 0:
        return UniPoly.zero(field)
    d = n - m
    b_sign = 1 if (d + 1) % 2 == 0 else field.neg(1)
    h = _prem(fl, gl, field)
    if b_sign != 1:
        h = [_list_mul(ch, (b_sign,), field) for ch in h]
    lc = UniPoly(field, gl[-1])
    res = lc ** d
    c = -res
    while h:
        k = len(h) - 1
        fl, gl, m, d = gl, h, k, m - k
        b = (-lc) * (c ** d)
        h = _exact_quotients(_prem(fl, gl, field), b.coeffs, field)
        lc = UniPoly(field, gl[-1])
        if d > 1:
            c = ((-lc) ** d).exact_div(c ** (d - 1))
        else:
            c = -lc
        res = -c
    # gl now holds the last nonzero element of the PRS
    if len(gl) - 1 > 0:
        return UniPoly.zero(field)
    return -res if negate else res
