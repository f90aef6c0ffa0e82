"""Exact arithmetic over finite fields GF(p^k) at desk scale (p^k <= 2^20).

Elements are stored as integer representatives: for GF(p) the residue
itself, for GF(p^k) the base-p encoding of the coefficient vector of the
polynomial basis 1, t, ..., t^(k-1).  Extension fields of order p^k <= 2^16
carry exp/log tables and, for odd p, a Zech table Z[n] = log(1 + g^n)
(built once, from one walk of the generator g), so multiplication and
addition are O(1) lookups: a*b = g^(log a + log b) and
a + b = g^(log a + Z[log b - log a]).  Characteristic 2 adds by XOR, and
prime fields use the native modulus operator, which is faster than any
table.  The choice is made once per field, here: `FiniteField.__init__`
binds the field's add, sub, neg, mul, inv and pow_rep, and `horner`, the
one evaluation of a rep list at a rep, on which every point value is
computed: over logs where the field has tables, on the bound add and mul
otherwise.  Four kernels still choose by kind, because there the kind
changes the algorithm, not one operation: the byte-row, log and Kronecker
branches of `polynomials._list_mul` (over GF(2^k) of order q <= 256,
whole rows of one operand mapped by `bytes.translate` through the
`_byte_rows` product tables and XORed at their shifts; over the other
fields with tables, logs of each operand taken once; GF(p) operands
packed into big integers), the Newton gate of `polynomials._divmod_rows`
(Newton inversion pays only where `_list_mul` works on whole rows: over
GF(p), and over GF(2^k) with q <= 256), the log-encoded pivot rows of
`codes._forward_eliminate` (each pivot row taken to logs once, for every
row it reduces), and the tableless cap of `curves.normalize_degree` (a
field without tables multiplies digit by digit, so its degree cap is
lower).

`write_sum` is the one writer of printed sums of products, the
counterpart of the reader in `parsing`: field elements as t-polynomials
(`format_rep`), `UniPoly` and `BiPoly` reprs.  It lives here, in the
lowest module, so that `polynomials` can import it.  The module imports
no other `weiersem` module than `errors`.
"""

import operator

from .errors import InconsistencyError, InputError, PreconditionError

ORDER_LIMIT = 1 << 20
LOG_TABLE_LIMIT = 1 << 16


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def power(base, e, mul, one):
    """base^e for an integer e >= 0 by square-and-multiply over the binary
    digits of e, low to high: the one ladder for powers of polynomials,
    valued functions and field elements without log tables."""
    result = one
    while e:
        if e & 1:
            result = mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


def _mulmod(a, b, mod, p):
    """The product of two base-p digit lists (low first, k digits or more)
    mod the monic modulus `mod` of degree k over GF(p), as its k digits:
    the one product of GF(p)[t]/(mod), for `_raw_mul` and Rabin's test."""
    k = len(mod) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] = (prod[i + j] + ai * bj) % p
    for d in range(len(prod) - 1, k - 1, -1):
        top = prod[d]
        if top:
            for i in range(k):
                prod[d - k + i] = (prod[d - k + i] - top * mod[i]) % p
    return prod[:k]


def _is_irreducible(mod, p):
    """Rabin's test for a monic f of degree k over GF(p), in the ring
    R = GF(p)[t]/(f): f is irreducible iff t^(p^k) = t in R and, for every
    prime l | k, b_l = t^(p^(k/l)) - t is a unit of R.  Once t^(p^k) = t,
    R is a product of fields GF(p^d), d | k, so b_l is a unit iff
    b_l^(p^k - 1) = 1: no gcd is needed."""
    k = len(mod) - 1
    if k < 1:
        return False
    mul = lambda a, b: _mulmod(a, b, mod, p)
    one = [1] + [0] * (k - 1)
    t = mul([0, 1], one)
    if power(t, p ** k, mul, one) != t:
        return False
    for ell in range(2, k + 1):
        if k % ell == 0 and is_prime(ell):
            t_ell = power(t, p ** (k // ell), mul, one)
            b = [(x - y) % p for x, y in zip(t_ell, t)]
            if power(b, p ** k - 1, mul, one) != one:
                return False
    return True


def default_modulus(p, k):
    """The monic irreducible of degree k over GF(p) whose lower part has
    the least base-p integer encoding (reproducible across runs)."""
    for v in range(p ** k):
        if k > 1 and v % p == 0:
            continue    # constant term 0: t divides it
        coeffs = []
        vv = v
        for _ in range(k):
            coeffs.append(vv % p)
            vv //= p
        mod = coeffs + [1]
        if _is_irreducible(mod, p):
            return tuple(mod)
    raise InconsistencyError(f"no irreducible of degree {k} over GF({p})")


class FiniteField:
    """GF(p^k) with the monic irreducible modulus default_modulus(p, k)."""

    def __init__(self, p, k=1):
        if k < 1:
            raise InputError("extension degree must be >= 1")
        # before is_prime, whose trial division of a large p would not end
        if k > ORDER_LIMIT.bit_length() - 1 or p ** k > ORDER_LIMIT:
            raise InputError(f"field order {p}^{k} exceeds the desk-scale "
                             f"limit 2^20")
        if not is_prime(p):
            raise InputError(f"characteristic {p} is not prime")
        self.p = p
        self.k = k
        self.order = p ** k
        self.modulus = default_modulus(p, k)
        self._log = self._exp = self._zech = self._byte_rows = None
        if k > 1 and self.order <= LOG_TABLE_LIMIT:
            self._build_log_tables()
        self._bind_arithmetic()

    # -- table construction -------------------------------------------

    def _raw_mul(self, a, b):
        """Polynomial-basis product of two integer reps (no tables)."""
        return self.encode(_mulmod(self.decode(a), self.decode(b),
                                   self.modulus, self.p))

    def _build_log_tables(self):
        """exp/log tables of the first g >= 2 of order q - 1, i.e. with
        g^((q-1)/l) != 1 for every prime l dividing q - 1 (one exists since
        the modulus is irreducible), and for odd p the Zech table
        Z[n] = log(1 + g^n), None at n = (q-1)/2 where 1 + g^n = 0.

        exp is stored twice over (2(q-1) entries), so a sum of two logs
        indexes it without reduction; Z is indexed by a difference of two
        logs, a negative one counting from the end, which is the same
        residue mod q - 1.

        For p = 2 and q <= 256 (None for every other field), `_byte_rows`
        holds the product tables of the whole-row product of
        `polynomials._list_mul`, one 256-byte table per rep x with
        mt[x][y] = x*y for y < q and zero past q, so one `bytes.translate`
        through mt[x] multiplies a whole row of reps by x: 65 KB for
        GF(2^8)."""
        q, p = self.order, self.p
        primes = [l for l in range(2, q) if (q - 1) % l == 0 and is_prime(l)]
        g = next(g for g in range(2, q)
                 if all(power(g, (q - 1) // l, self._raw_mul, 1) != 1
                        for l in primes))
        exp = [0] * (q - 1)
        log = [0] * q
        step = lambda x: self._raw_mul(x, g)
        if p == 2:
            # x*g on the bits of x: XOR of shifts of x by the set bits of g,
            # then each bit from k up cleared by the modulus bits
            shifts = [i for i in range(g.bit_length()) if g >> i & 1]
            k, mod = self.k, self.encode(self.modulus)

            def step(x):
                y = 0
                for s in shifts:
                    y ^= x << s
                while y >> k:
                    y ^= mod << (y.bit_length() - 1 - k)
                return y
        x = 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x = step(x)
        if p != 2:
            # 1 + x raises the constant digit of x by one, mod p
            self._zech = [log[x + 1] if (x + 1) % p else
                          (None if x == p - 1 else log[x + 1 - p])
                          for x in exp]
        self._exp, self._log = exp + exp, log
        if p == 2 and q <= 256:
            # the table of g^(i+1) is the table of g^i translated through
            # the table of g
            by_g = bytes([0] + [self._exp[l + 1] for l in log[1:]])
            row, by_g = (bytes(range(q)).ljust(256, b"\0"),
                         by_g.ljust(256, b"\0"))
            self._byte_rows = [bytes(256)] * q
            for x in exp:
                self._byte_rows[x], row = row, row.translate(by_g)
        self.generator_rep = g

    # -- integer-rep arithmetic ----------------------------------------

    def _bind_arithmetic(self):
        """Bind add, sub, neg, mul, inv and pow_rep for the field's kind:
        prime, characteristic 2, odd p with Zech tables, or no tables; and
        horner, over logs with tables, else on the bound add and mul.
        Equality, hashing and FieldElement never read these attributes."""
        p, q, log, exp, zech = self.p, self.order, self._log, self._exp, self._zech
        if self.k == 1:
            add = lambda a, b: (a + b) % p
            sub = lambda a, b: (a - b) % p
            neg = lambda a: -a % p
            mul = lambda a, b: a * b % p
            pow_nat = lambda a, e: pow(a, e, p)
        else:
            if p == 2:
                add = sub = operator.xor
                neg = lambda a: a
            elif zech is not None:
                half = (q - 1) // 2

                def add(a, b):
                    if not a:
                        return b
                    if not b:
                        return a
                    la = log[a]
                    z = zech[log[b] - la]
                    return 0 if z is None else exp[la + z]
                neg = lambda a: exp[log[a] + half] if a else 0
                sub = lambda a, b: add(a, neg(b))
            else:
                enc, dec = self.encode, self.decode
                add = lambda a, b: enc(x + y for x, y in zip(dec(a), dec(b)))
                sub = lambda a, b: enc(x - y for x, y in zip(dec(a), dec(b)))
                neg = lambda a: enc(-x for x in dec(a))
            if log is None:
                mul = self._raw_mul
                pow_nat = lambda a, e: power(a, e, mul, 1)
            else:
                mul = lambda a, b: exp[log[a] + log[b]] if a and b else 0
                pow_nat = (lambda a, e: exp[log[a] * e % (q - 1)] if a
                            else int(not e))

        def inv(a):
            if not a:
                raise ZeroDivisionError("inverse of zero field element")
            return pow_nat(a, q - 2)

        def pow_rep(a, e):
            return pow_nat(a, e) if e >= 0 else pow_nat(inv(a), -e)

        # horner(coeffs, x) = sum coeffs[i] * x^i, from the top; with log
        # tables each step acc*x is one exp lookup at log(acc) + log(x)
        if log is None:
            def horner(coeffs, x):
                acc = 0
                for c in reversed(coeffs):
                    acc = add(mul(acc, x), c)
                return acc
        else:
            def horner(coeffs, x):
                if not x:
                    return coeffs[0] if coeffs else 0
                acc, lx = 0, log[x]
                for c in reversed(coeffs):
                    acc = add(exp[log[acc] + lx], c) if acc else c
                return acc

        self.add, self.sub, self.neg, self.mul = add, sub, neg, mul
        self.inv, self.pow_rep, self.horner = inv, pow_rep, horner

    def encode(self, coeffs):
        v = 0
        for c in reversed(list(coeffs)):
            v = v * self.p + (c % self.p)
        return v

    def decode(self, rep):
        coeffs = []
        for _ in range(self.k):
            coeffs.append(rep % self.p)
            rep //= self.p
        return tuple(coeffs)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def from_int(self, c):
        """Image of an integer under the unital ring map Z -> GF(p^k)."""
        return c % self.p

    # -- element-level API ---------------------------------------------

    def __call__(self, value):
        if isinstance(value, FieldElement):
            if value.field != self:
                raise ValueError("element belongs to a different field")
            return value
        return FieldElement(self, self.from_int(value))

    def from_rep(self, rep):
        if not 0 <= rep < self.order:
            raise ValueError(f"rep {rep} out of range for order {self.order}")
        return FieldElement(self, rep)

    def zero(self):
        return FieldElement(self, 0)

    def one(self):
        return FieldElement(self, 1)

    def embedding_into(self, other):
        """Return a rep -> rep field embedding GF(p^k) -> GF(p^(k*e)).

        Found by locating a root of this field's modulus in `other`;
        scan order makes the choice deterministic.
        """
        if other.p != self.p or other.k % self.k != 0:
            raise PreconditionError(
                f"no embedding GF({self.p}^{self.k}) -> GF({other.p}^{other.k})")
        horner = other.horner
        root = next((c for c in range(other.order)
                     if horner(self.modulus, c) == 0), None)
        if root is None:
            raise InconsistencyError("modulus has no root in the extension")
        return lambda rep: horner(self.decode(rep), root)

    def __eq__(self, other):
        return (isinstance(other, FiniteField) and self.p == other.p
                and self.k == other.k)

    def __hash__(self):
        return hash((self.p, self.k))

    def __reduce__(self):
        # pickled by its arguments: the bound operations are closures
        return FiniteField, (self.p, self.k)

    def __repr__(self):
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k})"

    def format_rep(self, rep):
        """Grammar form of an element: plain integer or a t-polynomial."""
        if self.k == 1:
            return str(rep)
        coeffs = self.decode(rep)
        return write_sum([((e,), str(coeffs[e]))
                          for e in range(self.k - 1, -1, -1) if coeffs[e]],
                         ("t",))

    def format_coeff(self, rep):
        """format_rep as a coefficient of X and Y: bracketed outside GF(p)."""
        text = self.format_rep(rep)
        return f"[{text}]" if rep >= self.p else text


def write_sum(terms, names):
    """The one writer of the grammar's sums of products: (exponent tuple,
    coefficient text) pairs, in the order given, as `c*v^e*...` joined by
    `+`, where v runs over names.  A coefficient 1 is left out except in
    the constant term, an exponent 1 is left out, and no terms write `0`."""
    parts = []
    for exps, coeff in terms:
        factors = [coeff] if coeff != "1" or not any(exps) else []
        factors += [v if e == 1 else f"{v}^{e}"
                    for v, e in zip(names, exps) if e]
        parts.append("*".join(factors))
    return "+".join(parts) or "0"


def _lift(name, reflected=False):
    """The FieldElement operator of the rep operation `name`, looked up on
    the element's own field, where it is bound: an int operand is mapped by
    Z -> GF(p^k), a foreign type is declined, and with `reflected` the
    element is the right operand."""
    def op(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("field mismatch in arithmetic")
            r = other.rep
        elif isinstance(other, int):
            r = self.field.from_int(other)
        else:
            return NotImplemented
        a, b = (r, self.rep) if reflected else (self.rep, r)
        return FieldElement(self.field, getattr(self.field, name)(a, b))
    return op


class FieldElement:
    """An element of a FiniteField; immutable, hashable."""

    __slots__ = ("field", "rep")

    def __init__(self, field, rep):
        self.field = field
        self.rep = rep

    @property
    def coeffs(self):
        return self.field.decode(self.rep)

    __add__ = __radd__ = _lift("add")
    __sub__ = _lift("sub")
    __rsub__ = _lift("sub", reflected=True)
    __mul__ = __rmul__ = _lift("mul")
    __truediv__ = _lift("div")
    __rtruediv__ = _lift("div", reflected=True)

    def __pow__(self, e):
        return FieldElement(self.field, self.field.pow_rep(self.rep, e))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.rep))

    def inverse(self):
        return FieldElement(self.field, self.field.inv(self.rep))

    def __bool__(self):
        return self.rep != 0

    def __eq__(self, other):
        """An int equals an element only as its canonical rep 0 <= n < p, so
        that equal objects hash alike (no hash fits a whole residue class)."""
        if isinstance(other, FieldElement):
            return self.field == other.field and self.rep == other.rep
        if isinstance(other, int):
            return 0 <= other < self.field.p and self.rep == other
        return NotImplemented

    def __hash__(self):
        if self.rep < self.field.p:
            return hash(self.rep)
        return hash((self.rep, self.field.p, self.field.k))

    def __repr__(self):
        return self.field.format_rep(self.rep)
