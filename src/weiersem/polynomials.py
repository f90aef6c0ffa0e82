"""Dense univariate polynomials, and bivariate ones stored as their rows.

Coefficients are stored as integer field reps; a `BiPoly` holds only its
Y-coefficient rows, the form every kernel below takes and returns.  Two
single kernels carry the polynomial arithmetic: `_list_mul` is the one
coefficient-list multiply-add c + a*b, optionally truncated (every sum,
difference, negation and scaling, row by row for BiPoly; the UniPoly
product; the series products and sums of products in `branch`; the
Newton-inverse step `_ser_inv_step`, which builds the series inverse
`_ser_inv` and lifts the inverse carried by the Newton expansion in
`branch`; every division below; the back-substitution and codeword sums
in `codes`); over GF(p) it packs long operands and c
into big integers (`_kronecker_mul`), reps of p < 256 as bytes, and
reduces the product by `bytes.translate` on whole byte planes where their
sum fits a byte, otherwise one coefficient at a time.  Over GF(2^k) of
order q <= 256 it works on whole byte rows: each distinct scalar of the
shorter operand maps the longer one to its row by one `bytes.translate`
through the scalar's product table, and the rows are XORed into one big
integer of byte slots at their shifts (addition is XOR, so no slot
carries).  Over the other GF(p^k) with log tables it multiplies over the
logs of the nonzero coefficients, taken once per operand.  `_rows_mul`,
the BiPoly product, is one `_list_mul` of the rows laid end to end, cut
to n rows when asked (`curves.approximate_root`).
Kernels call the field's bound `add` and `mul`, whose kind of arithmetic
`fields` picks once per field.
There is one division per ring, on rows.  `_divmod_rows` is the one
X-division of rows by one X-polynomial, by a shared Newton inverse from
`_NEWTON_CUTOFF` on where `_list_mul` works on whole rows (GF(p), and
GF(2^k) with q <= 256), and by the schoolbook loop otherwise:
`UniPoly.divmod` and every exact division are one call of it.  `_prem` is
the one Y-division, the pseudo-remainder, and is `BiPoly.divmod_y` for a
divisor monic in Y.
`BiPoly.substitute_binomial` is the one linear change of variables
(X -> X + c*Y^k, Y -> Y + c*X, every blowup and chart map).  Every value
at a point is the field's bound `horner` (`fields`): `UniPoly.eval_rep`
is one call, `BiPoly.specialize_x` one call per row, returning the rep
list of P(x, Y), and `BiPoly.eval_rep` one per row in X, then one in Y.
`_tangent_cone` is the one test that a form is a power of one linear
form, and names the blowup steps for its tangent: `branch` applies it at
every blowup centre, and `_infinity_cone` at infinity, for `branch` and
for the one-branch verdict in `curves`.  It and the tilt in `curves` call
`_pure_power_root`, the test that sum c_j w^j is c*(w - lam)^mu.
Every repr is one call to the one writer `fields.write_sum`, with
coefficients outside GF(p) bracketed by `FiniteField.format_coeff`.
The Y-resultant of two bivariate polynomials is computed by Brown's
subresultant pseudo-remainder sequence over the coefficient ring GF(q)[X]:
`_prem` lays the rows of a step end to end, so the step is two `_list_mul`
calls for every field, and each exact division of the chain is one
`_divmod_rows` call.  The zero resultant is reported with the degree
sentinel -inf, which the callers rely on as the common-factor signal.
"""

import functools
import math
import operator
import sys
from array import array
from itertools import zip_longest

from .errors import InconsistencyError, PreconditionError
from .fields import FieldElement, power, write_sum

NEG_INF = float("-inf")

# Largest exponent a parsed polynomial, and largest deg_Y a normalized
# model, may have; not user-settable, like fields.ORDER_LIMIT.  Measured on
# `curve analyze` of Y^m+X^7 over GF(2) and GF(5), m = 400..850 in steps of
# 10 and m = 845 (2-vCPU Xeon, Python 3.11): every model of deg_Y <= 850
# took at most 3.7 s, the slowest Y^845+X^7 over GF(5) (deg_Y 847), which
# takes 2.3-2.5 s since `_kronecker_mul` reduces whole byte planes (two runs
# on the same machine).  The budget holds over GF(2^k), k <= 8, since their
# products run on byte rows and their long divisions by Newton inversion:
# Y^830+X^7 (deg_Y 833) takes 0.9 s over GF(2^2), 15.8 s before (2-vCPU AMD
# EPYC, Python 3.11).  It does not hold over odd-p extension fields or
# 256 < q <= 2^16, which keep the log loop and schoolbook division:
# Y^845+X^7 takes 41 s over GF(5^2) and 147 s over GF(13^2).
DEGREE_LIMIT = 850
# The deg_Y cap over GF(p^k), k > 1, of order above fields.LOG_TABLE_LIMIT,
# where each coefficient product is a schoolbook product of base-p digits.
# Measured on `curve analyze` of Y^m+X^7 over GF(2^17) and GF(3^11), m a
# multiple of p (same machine): the slowest models under it, deg_Y 105 over
# GF(2^17) and 112 over GF(3^11), took 1.9 s (2.5 s with a second job
# running); deg_Y 119 over GF(2^17) took 6.8 s and 301 (Y^300+X^7) 185 s.
TABLELESS_DEGREE_LIMIT = 112

# Product length len(a)*len(b) from which `_list_mul` over GF(p) multiplies
# by `_kronecker_mul`.  With byte buffers that beats the schoolbook loop from
# about 8 over GF(2) and GF(5) and 16-32 over GF(101) (in-process, with an
# addend), but a cutoff of 16 measured no faster than 64 on the `analyze` and
# `pipeline-prime` benchmarks (0.263 against 0.267 s and 0.115 against
# 0.117 s, medians of three alternating 8 s runs), so it stays at 64.
_KRONECKER_CUTOFF = 64
# Quotient length * divisor length from which `_divmod_rows` over GF(p)
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

    A slot is the narrowest of 1, 2, 4 or 8 bytes that holds
    min(len)*(p-1)^2, plus p-1 when there is an addend c.  Eight bytes
    always suffice: p <= 2^20 (ORDER_LIMIT) and no operand reaches 2^24
    coefficients.  For p < 256 every rep is one byte, packed by `_pack`
    into the low byte of its slot, and the product is reduced a byte plane
    at a time: a slot's value is sum b_k*256^k, so byte plane k of the
    product is mapped by one `bytes.translate` to b_k*256^k mod p
    (`_byte_planes`), the planes are added as big integers, which no carry
    crosses while their count times p-1 is below 256, and the sum is
    reduced by one more translate.  For p = 2 only the low plane is left,
    and the reduction is that one strided translate.  Every other slot, and
    every slot for p >= 256, is read as an array item and reduced one
    value at a time."""
    bound = min(len(a), len(b)) * (p - 1) * (p - 1)
    if c:
        bound += p - 1
    for width, tc in _SLOTS:
        if bound >> (8 * width) == 0:
            break
    else:
        raise InconsistencyError(
            f"Kronecker slot overflow: {bound} needs more than 8 bytes")
    prod = _pack(a, p, width, tc) * _pack(b, p, width, tc)
    if c:
        prod += _pack(c, p, width, tc)
    raw = prod.to_bytes(max(len(a) + len(b) - 1, len(c)) * width,
                        "little")[:n_out * width]
    planes = _byte_planes(p, width)
    if planes is None:
        # p >= 256, or a slot whose reduced planes may sum past a byte
        out = array(tc)
        out.frombytes(raw)
        if _BIG_ENDIAN:
            out.byteswap()
        return [v % p for v in out]
    if len(planes) == 1:
        k, table = planes[0]
        return list(raw[k::width].translate(table))
    total = 0
    for k, table in planes:
        total += int.from_bytes(raw[k::width].translate(table), "little")
    return list(total.to_bytes(len(raw) // width, "little")
                .translate(planes[0][1]))


def _pack(a, p, width, tc):
    """The coefficient list a as one little-endian integer of slots of
    `width` bytes: for p < 256 each rep a byte strided into a zeroed
    buffer, otherwise an array of typecode tc."""
    if p >= 256:
        arr = array(tc, a)
        if _BIG_ENDIAN:
            arr.byteswap()
        return int.from_bytes(arr.tobytes(), "little")
    if width == 1:
        return int.from_bytes(bytes(a), "little")
    buf = bytearray(len(a) * width)
    buf[::width] = bytes(a)
    return int.from_bytes(buf, "little")


@functools.cache
def _byte_planes(p, width):
    """[(k, T_k)] for the byte planes k < width of a slot whose translate
    table T_k[b] = b*256^k mod p is not all zero (for p = 2 only k = 0;
    T_0 is never zero), built on first use; None when p >= 256 or when
    the reduced planes may sum past a byte."""
    if p >= 256:
        return None
    tables = (bytes(b * pow(256, k, p) % p for b in range(256))
              for k in range(width))
    planes = [(k, t) for k, t in enumerate(tables) if any(t)]
    return planes if len(planes) * (p - 1) < 256 else None


def _trim(row):
    """row without its trailing zeros (rows: without empty top rows), in
    place; an all-zero row is cleared in one C-level scan."""
    if not any(row):
        row.clear()
    while row and not row[-1]:
        row.pop()
    return row


def _list_mul(a, b, field, trunc=None, c=()):
    """The coefficient-list multiply-add: c + a*b without trailing zeros,
    or only its first `trunc` coefficients (truncated power series).

    The field's tables pick the path.  With `_byte_rows` (GF(2^k),
    q <= 256) the sum is one integer of byte slots, starting at c: for
    each distinct nonzero scalar x of the shorter operand, the row x*b is
    built once per call, as the longer operand b translated through the
    product table of x, and XORed in at the shift of every entry equal to
    x; the sum is cut to n bytes.  With log tables only, each product is
    one exp lookup over logs taken once per operand; over GF(p) long
    operands go to `_kronecker_mul`; the rest run the schoolbook loop on
    the field's add and mul."""
    n = len(a) + len(b) - 1 if a and b else 0
    if len(c) > n:
        n = len(c)
    if trunc is not None and trunc < n:
        n = trunc
    log = field._log
    if not a or not b:
        out = list(c[:n])
    elif log is not None:
        rows = field._byte_rows
        if rows is not None:
            # GF(2^k), q <= 256: in characteristic 2 addition is XOR, so
            # no byte slot carries
            if len(a) > len(b):
                a, b = b, a
            rb = bytes(b[:n])
            acc = int.from_bytes(bytes(c[:n]), "little")
            cache = {}
            for i, x in enumerate(a[:n]):
                if x:
                    row = cache.get(x)
                    if row is None:
                        row = cache[x] = int.from_bytes(
                            rb.translate(rows[x]), "little")
                    acc ^= row << (8 * i)
            out = list((acc & ((1 << (8 * n)) - 1)).to_bytes(n, "little"))
        else:
            # GF(p^k) with tables: logs of the nonzero coefficients taken
            # once, each product one exp lookup
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
    return _trim(out)


def _ser_inv_step(a, g, k, k2, field):
    """The Newton-inverse step: 1/a to k2 terms from g = 1/a to k terms,
    k < k2 <= 2k, as g*(2 - a*g) mod X^k2.  Since a*g = 1 + X^k*e mod
    X^k2, this is g - X^k*(g*e): a truncated product and a truncated
    multiply-add, both `_list_mul` calls.  Only a's first k2 terms are
    read."""
    e = _list_mul(a[:k2], g, field, k2)[k:]
    corr = _list_mul(g, e, field, k2 - k)
    return _list_mul(corr, [0] * k + [field.neg(1)], field, k2, g)


def _ser_inv(a, field, prec):
    """First prec coefficients of 1/a for a unit series a, by Newton
    doubling: `_ser_inv_step` from 1 term to prec."""
    if not a or a[0] == 0:
        raise InconsistencyError("series reciprocal of a non-unit")
    g = [field.inv(a[0])]
    k = 1
    while k < prec:
        k2 = min(2 * k, prec)
        g = _ser_inv_step(a, g, k, k2, field)
        k = k2
    return g[:prec]


class UniPoly:
    """Dense univariate polynomial; zero polynomial has degree -inf."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        self.field = field
        self.coeffs = tuple(_trim(list(coeffs)))

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

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
                                             None, self.coeffs))

    def __sub__(self, other):
        f = self.field
        return UniPoly(f, _list_mul(other.coeffs, (f.neg(1),), f, None,
                                    self.coeffs))

    def __neg__(self):
        return self.scale(self.field.neg(1))

    def __mul__(self, other):
        return UniPoly(self.field, _list_mul(self.coeffs, other.coeffs,
                                             self.field))

    def scale(self, rep):
        return UniPoly(self.field, _list_mul(self.coeffs, (rep,), self.field))

    def __pow__(self, e):
        return power(self, e, operator.mul, UniPoly.one(self.field))

    def divmod(self, other):
        """Division with remainder; valid since coefficients form a field.
        One call of the X-division `_divmod_rows`."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        f = self.field
        (q, r), = _divmod_rows([self.coeffs], other.coeffs, f)
        return UniPoly(f, q), UniPoly(f, r)

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
        """Value at a field rep x: the field's bound `horner`."""
        return self.field.horner(self.coeffs, x)

    def __eq__(self, other):
        return (isinstance(other, UniPoly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.coeffs, self.field.p, self.field.k))

    def __repr__(self):
        f = self.field
        return write_sum([((e,), f.format_coeff(c))
                          for e, c in reversed(list(enumerate(self.coeffs)))
                          if c], ("X",))


def _pure_power_root(coeffs, mu, field):
    """If sum c_j w^j equals c*(w - lam)^mu, return lam, else None.

    Characteristic-aware: with mu = p^a * m' (p not dividing m'), the
    coefficient of w^(mu - p^a) pins lam^(p^a), and the Frobenius is
    inverted by x -> x^(q/p)."""
    cs = UniPoly(field, coeffs).coeffs
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
    return lam if check.coeffs == cs else None


SWAP = "swap"   # the blowup-chain step (u, v) <- (v, u)


def _tangent_cone(coeffs, mu, field, message):
    """The blowup-chain steps for a centre whose lowest form is
    sum c_j X^(mu-j) Y^j: [lam] for c*(Y - lam*X)^mu, the tangent
    Y = lam*X, which the blowup (u, v) <- (u, u*(v + lam)) resolves, and
    [SWAP, 0, SWAP] for c*X^mu, the tangent X = 0.  Any other form (more
    than one tangent, or one that is not rational) raises
    PreconditionError(message)."""
    if not any(coeffs[1:]):
        return [SWAP, 0, SWAP]
    lam = _pure_power_root(coeffs, mu, field)
    if lam is None:
        raise PreconditionError(message)
    return [lam]


def _infinity_cone(F):
    """The `_tangent_cone` steps of the degree form of F at its one
    rational point at infinity; PreconditionError if it has none."""
    D = int(F.total_degree)
    return _tangent_cone(F.form_coeffs(D), D, F.field,
                         "the curve does not have a single rational "
                         "point at infinity")


class BiPoly:
    """Polynomial in Y over GF(q)[X]: rows[j] is the rep list of the
    coefficient of Y^j, without trailing zeros, the top row nonempty.  Built
    from a {(deg_X, deg_Y): rep} dict, zero reps dropped, or from rows."""

    __slots__ = ("field", "rows")

    def __init__(self, field, terms=None):
        self.field = field
        self.rows = rows = []
        for (i, j), c in (terms or {}).items():
            if c:
                rows += [[] for _ in range(j + 1 - len(rows))]
                row = rows[j]
                row += [0] * (i + 1 - len(row))
                row[i] = c

    @classmethod
    def from_y_coeffs(cls, field, rows):
        """The polynomial whose Y-coefficients are the rep lists `rows`."""
        P = cls.__new__(cls)
        P.field, P.rows = field, _trim([_trim(list(row)) for row in rows])
        return P

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
        return not self.rows

    @property
    def terms(self):
        """The nonzero terms as a {(deg_X, deg_Y): rep} dict, built anew."""
        return {(i, j): c for j, row in enumerate(self.rows)
                for i, c in enumerate(row) if c}

    @property
    def deg_x(self):
        return max(map(len, self.rows)) - 1 if self.rows else NEG_INF

    @property
    def deg_y(self):
        return len(self.rows) - 1 if self.rows else NEG_INF

    @property
    def total_degree(self):
        return max((len(row) - 1 + j for j, row in enumerate(self.rows)
                    if row), default=NEG_INF)

    def coeff(self, i, j):
        row = self.rows[j] if j < len(self.rows) else ()
        return row[i] if i < len(row) else 0

    def __add__(self, other):
        f = self.field
        return BiPoly.from_y_coeffs(
            f, [_list_mul(b, (1,), f, None, a) if b else a
                for a, b in zip_longest(self.rows, other.rows, fillvalue=[])])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(self.field.neg(1))

    def __mul__(self, other):
        f = self.field
        return BiPoly.from_y_coeffs(f, _rows_mul(self.rows, other.rows, f))

    def scale(self, rep):
        f = self.field
        if isinstance(rep, FieldElement):
            rep = rep.rep
        return BiPoly.from_y_coeffs(f, [_list_mul(row, (rep,), f)
                                        for row in self.rows])

    def __pow__(self, e):
        return power(self, e, operator.mul, BiPoly.one(self.field))

    # -- views ----------------------------------------------------------

    def is_monic_in_y(self):
        return self.rows[-1:] == [[1]]

    def swap_xy(self):
        return BiPoly.from_y_coeffs(
            self.field, zip_longest(*self.rows, fillvalue=0))

    def form_coeffs(self, d):
        """The degree-d form as [coeff of X^(d-j)*Y^j for j in 0..d]."""
        return [self.coeff(d - j, j) for j in range(d + 1)]

    def lift(self, field, embed):
        """The same polynomial over `field`, coefficients mapped by the
        embedding `embed` (rep -> rep) once."""
        return BiPoly.from_y_coeffs(field, [[embed(c) if c else 0 for c in row]
                                            for row in self.rows])

    # -- operations -----------------------------------------------------

    def divmod_y(self, other):
        """Long division by a divisor that is monic in Y: the Y-division
        `_prem`, whose remainder is f mod g and whose step rows are the
        quotient for such a divisor."""
        if not other.is_monic_in_y():
            raise ValueError("divmod_y requires a divisor monic in Y")
        f = self.field
        q, r = _prem(self.rows, other.rows, f)
        return BiPoly.from_y_coeffs(f, q), BiPoly.from_y_coeffs(f, r)

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
                    k = key(i, j, r)
                    out[k] = f.add(out.get(k, 0), coeff)
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
        return self.swap_xy().derivative_y().swap_xy()

    def derivative_y(self):
        f = self.field
        return BiPoly.from_y_coeffs(f, [_list_mul(row, (f.from_int(j),), f)
                                        for j, row in enumerate(self.rows)
                                        if j])

    def specialize_x(self, x):
        """P(x, Y) as the rep list of its row values, Y-coefficients low
        first: the field's `horner` on each row."""
        h = self.field.horner
        return [h(row, x) for row in self.rows]

    def eval_rep(self, x, y):
        """Value at the point (x, y): `horner` in X on each row, then in Y."""
        h = self.field.horner
        return h([h(row, x) for row in self.rows], y)

    def __eq__(self, other):
        return (isinstance(other, BiPoly) and self.field == other.field
                and self.rows == other.rows)

    def __hash__(self):
        return hash((tuple(map(tuple, self.rows)), self.field.p, self.field.k))

    def __repr__(self):
        f = self.field
        return write_sum([((i, j), f.format_coeff(c))
                          for j, row in reversed(list(enumerate(self.rows)))
                          for i, c in reversed(list(enumerate(row))) if c],
                         ("X", "Y"))


def _rows_mul(a, b, field, n=None):
    """The rows of a*b, or its first n rows: one `_list_mul` of a and b laid
    end to end at a stride that holds any product of two rows."""
    if not a or not b:
        return []
    stride = max(map(len, a)) + max(map(len, b)) - 1
    flat = _list_mul(_lay(a, stride), _lay(b, stride), field,
                     None if n is None else n * stride)
    return [_trim(flat[i:i + stride]) for i in range(0, len(flat), stride)]


# -- Y-resultant via subresultant PRS over GF(q)[X] -----------------------

def _prem(f, g, field):
    """The Y-division of Y-coefficient lists over GF(q)[X], each coefficient
    a rep list without trailing zeros: the pseudo-remainder
    lc(g)^(deg f - deg g + 1) * f mod g, next to the rows lc(r) its steps
    take, each at its shift in Y.  For g monic in Y the remainder is f mod g
    and those rows are the quotient.

    A step r <- r*lc(g) - lc(r)*g*Y^s works on whole rows: the coefficients
    it changes lie end to end at a stride that holds the step's growth in
    X-degree, so the step is a product by lc(g) (none when g is monic) and
    one multiply-add whose addend is that product."""
    df, dg = len(f) - 1, len(g) - 1
    r = [list(c) for c in f]
    if df < dg:
        return [], r
    lcg = list(g[dg])
    monic = lcg == [1]
    glen = max(map(len, g[:dg]), default=0)
    n = df - dg + 1
    q = [[] for _ in range(n)]
    while r and len(r) - 1 >= dg:
        dr = len(r) - 1
        q[dr - dg] = r[dr]
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
        r = _trim(r[:keep] + [_trim(flat[i * stride:(i + 1) * stride])
                              for i in range(dr - keep)])
        n -= 1
    if n and not monic:
        scale = (UniPoly(field, lcg) ** n).coeffs
        r = [_list_mul(row, scale, field) for row in r]
    return q, r


def _lay(rows, stride):
    """Rep lists end to end, each padded with zeros to `stride` entries."""
    flat = []
    for row in rows:
        flat += row
        flat += [0] * (stride - len(row))
    return flat


def _divmod_rows(rows, b, field):
    """The X-division: [(q, r)] with c = q*b + r and deg r < deg b for each
    rep list c of `rows`, by one X-polynomial b (a rep list with nonzero
    top entry); every q and r a rep list without trailing zeros.

    Where `_list_mul` works on whole rows (GF(p), packed into big
    integers, and GF(2^k) with q <= 256, on byte rows), when the longest
    quotient's length times len(b) reaches _NEWTON_CUTOFF, rev(b)^-1 is
    built once by `_ser_inv` to that length;
    each quotient is then one truncated product, and each remainder is
    c - q*b on the low deg b entries, one multiply-add by the pre-negated b.
    Otherwise the schoolbook loop runs: over every other GF(p^k) the
    products of the Newton path take as many Python-level operations as
    the loop itself."""
    lb = len(b)
    dg = lb - 1
    n = max(map(len, rows), default=0) - dg
    nb = [field.neg(x) for x in b]
    out = []
    if (field.k == 1 or field._byte_rows is not None) and \
            n * lb >= _NEWTON_CUTOFF:
        inv = _ser_inv(b[::-1], field, n)
        for c in rows:
            k = len(c) - dg
            q = _list_mul(c[:-k - 1:-1], inv[:k], field, k) if k > 0 else []
            q = (q + [0] * (k - len(q)))[::-1]
            out.append((q, _list_mul(q, nb, field, dg, c[:dg])))
        return out
    inv_lc = field.inv(b[-1])
    mul, add = field.mul, field.add
    for c in rows:
        r = list(c)
        q = [0] * max(len(r) - dg, 0)
        while len(r) > dg:
            d = len(r) - lb
            t = q[d] = mul(r[-1], inv_lc)
            for i in range(dg):     # the top entry cancels by construction
                r[d + i] = add(r[d + i], mul(t, nb[i]))
            r.pop()
            _trim(r)
        out.append((q, r))
    return out


def _exact_quotients(rows, b, field):
    """The quotients c / b of the `_divmod_rows` division;
    `InconsistencyError` when b does not divide one of them."""
    out = _divmod_rows(rows, b, field)
    if any(r for _, r in out):
        raise InconsistencyError("inexact polynomial division")
    return [q for q, _ in out]


def resultant_y(f, g):
    """Res_Y(f, g) as a polynomial in X; the zero polynomial (degree -inf)
    signals a common factor, matching the deg = -inf convention."""
    field = f.field
    if f.is_zero() or g.is_zero():
        return UniPoly.zero(field)
    fl, gl = f.rows, g.rows
    n, m = len(fl) - 1, len(gl) - 1
    negate = False
    if n < m:
        fl, gl = gl, fl
        n, m = m, n
        negate = (n * m) % 2 == 1 and field.p != 2
    d = n - m
    b_sign = 1 if (d + 1) % 2 == 0 else field.neg(1)
    h = _prem(fl, gl, field)[1]
    if b_sign != 1:
        h = [_list_mul(ch, (b_sign,), field) for ch in h]
    lc = UniPoly(field, gl[-1])
    res = lc ** d
    c = -res
    while h:
        k = len(h) - 1
        fl, gl, m, d = gl, h, k, m - k
        b = (-lc) * (c ** d)
        h = _exact_quotients(_prem(fl, gl, field)[1], b.coeffs, field)
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
