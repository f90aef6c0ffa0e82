"""Text grammar for field specs, polynomials and rational functions.

Field specs are ``GF(p)`` or ``GF(p^k)``.  A polynomial is a ``+``/``-``
sum of products of factors (joined by ``*`` or side by side): integer
literals, powers ``X^a``, ``Y^b`` with exponents up to ``DEGREE_LIMIT``,
and bracketed coefficients like ``[t^2+1]``, the same sum of products in
t with powers below k.  Whitespace is insignificant; digits are ASCII.

One regex tokenizer (`_tokens`) and one sum-of-products reader (`_sum`)
scan every level.  Exponents and field parameters are compared with their
cap by length before any ``int()`` (`_bounded`); coefficient literals of
any length are reduced mod p in chunks (`_literal`).

The counterpart writer is `fields.write_sum`: every element and
polynomial it prints reads back here to the same value.
"""

import re

from .errors import InputError
from .fields import ORDER_LIMIT, FiniteField
from .polynomials import DEGREE_LIMIT, BiPoly

_FIELD_RE = re.compile(r"^GF\(\s*([0-9]+)\s*(?:\^\s*([0-9]+)\s*)?\)$")
_TOKEN_RE = re.compile(r"[0-9]+|.", re.S)
_DIGITS = frozenset("0123456789")
_XY = {"X": 0, "x": 0, "Y": 1, "y": 1}
_T = {"t": 0}
_CHUNK = 1000       # digits per int() call, well below its 4300-digit limit


def _bounded(digits, cap, message):
    """int(digits) for an ASCII digit string, or InputError(message) above
    cap; a string longer than cap's is over it without conversion."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(cap)) or int(digits) > cap:
        raise InputError(message)
    return int(digits)


def _literal(digits, p):
    """An integer literal of any length, reduced mod p chunk by chunk."""
    r = 0
    for i in range(0, len(digits), _CHUNK):
        chunk = digits[i:i + _CHUNK]
        r = (r * pow(10, len(chunk), p) + int(chunk)) % p
    return r


def parse_field(spec):
    m = _FIELD_RE.match(spec.strip())
    if not m:
        raise InputError(f"bad field spec {spec!r}; expected GF(p) or GF(p^k)")
    too_big = "field order exceeds the desk-scale limit 2^20"
    p = _bounded(m.group(1), ORDER_LIMIT, too_big)
    k = _bounded(m.group(2) or "1", ORDER_LIMIT.bit_length() - 1, too_big)
    return FiniteField(p, k)


def _tokens(text):
    """Digit runs and single characters, whitespace dropped, then an empty
    end sentinel."""
    return _TOKEN_RE.findall("".join(text.split())) + [""]


def _sum(toks, i, field, names, in_bracket=False):
    """The one sum-of-products reader, from toks[i] on.

    Reads an optionally signed ``+``/``-`` sum of products; factors are
    integer literals, powers of the variables in `names` (a letter -> slot
    map, _XY or _T) and, outside brackets, bracketed t-polynomials.
    Returns ({exponent tuple: rep}, which may hold zero reps, and the index
    of the first token not read)."""
    if names is _XY:
        cap = DEGREE_LIMIT
        too_high = f"exponent exceeds the degree limit {DEGREE_LIMIT}"
    else:
        cap = field.k - 1
        too_high = f"power of t exceeds t^{cap}, the top power in {field}"
    width = max(names.values()) + 1
    terms = {}
    sign = "+"
    if toks[i] in ("+", "-"):
        sign, i = toks[i], i + 1
    while True:
        coeff, exps, factors = 1, [0] * width, 0
        while True:
            star = factors > 0 and toks[i] == "*"
            i += star
            tok = toks[i]
            if tok[:1] in _DIGITS:
                coeff = field.mul(coeff, _literal(tok, field.p))
                i += 1
            elif tok in names:
                e = 1
                if toks[i + 1] == "^":
                    if toks[i + 2][:1] not in _DIGITS:
                        raise InputError(f"missing exponent after {tok}^")
                    e = _bounded(toks[i + 2], cap, too_high)
                    i += 2
                i += 1
                exps[names[tok]] += e
                if exps[names[tok]] > cap:
                    raise InputError(too_high)
            elif tok == "[" and not in_bracket:
                inner, i = _sum(toks, i + 1, field, _T, in_bracket=True)
                if toks[i] != "]":
                    _expect_end(toks, i)
                    raise InputError("unbalanced '[' in polynomial")
                coeff = field.mul(coeff, _t_value(inner, field))
                i += 1
            elif star:
                raise InputError("'*' without a factor after it")
            else:
                break
            factors += 1
        if not factors:
            if tok in ("+", "-", "]", "/"):
                raise InputError(f"missing term before {tok!r}")
            _expect_end(toks, i)
            raise InputError("missing term at the end")
        if sign == "-":
            coeff = field.neg(coeff)
        key = tuple(exps)
        terms[key] = field.add(terms.get(key, 0), coeff)
        if toks[i] not in ("+", "-"):
            return terms, i
        sign, i = toks[i], i + 1


def _t_value(terms, field):
    """The field rep of sum c*t^e over {(e,): c}, with t^e = p^e as a rep."""
    rep = 0
    for (e,), c in terms.items():
        rep = field.add(rep, field.mul(c, field.p ** e))
    return rep


def _expect_end(toks, i):
    """Raise unless toks[i] is the end sentinel."""
    if toks[i] == "]":
        raise InputError("unbalanced ']' in polynomial")
    if toks[i]:
        raise InputError(f"unexpected character {toks[i]!r}")


def parse_poly(text, field):
    """Parse a bivariate polynomial in the grammar over `field`."""
    toks = _tokens(text)
    if len(toks) == 1:
        raise InputError("empty polynomial")
    terms, i = _sum(toks, 0, field, _XY)
    _expect_end(toks, i)
    return BiPoly(field, terms)


def parse_rational(text, field):
    """Parse ``numerator / denominator``; the denominator defaults to 1."""
    toks = _tokens(text)
    num, i = _sum(toks, 0, field, _XY)
    den = {(0, 0): 1}
    if toks[i] == "/":
        den, i = _sum(toks, i + 1, field, _XY)
        if toks[i] == "/":
            raise InputError("more than one '/' in rational function")
        if not any(den.values()):
            raise InputError("zero denominator")
    _expect_end(toks, i)
    return BiPoly(field, num), BiPoly(field, den)


def parse_element(text, field):
    """Parse one field element: a sum of products in t, as inside a
    bracket, whose factors may also be bracketed coefficients."""
    toks = _tokens(text)
    terms, i = _sum(toks, 0, field, _T)
    _expect_end(toks, i)
    return _t_value(terms, field)


def parse_count(text, cap, flag):
    """A flag value as an ASCII digit run of at most cap; other digits,
    signs and underscores are input errors, as in a generator list."""
    if not text or not _DIGITS.issuperset(text):
        raise InputError(f"{flag} must be a nonnegative integer in ASCII "
                         f"digits, got {text!r}")
    return _bounded(text, cap, f"{flag} must be at most {cap}")


def parse_generators(text):
    """A comma-separated list of ASCII digit runs, spaces around each
    allowed and empty entries skipped.  Every generator is at most
    ORDER_LIMIT, so the smallest, which sizes the Apery table, is too."""
    toks = [tok.strip() for tok in text.split(",")]
    if any(tok and not _DIGITS.issuperset(tok) for tok in toks):
        raise InputError(f"bad generator list {text!r}")
    gens = [_bounded(tok, ORDER_LIMIT, "generators must be at most 2^20")
            for tok in toks if tok]
    if not gens or any(g <= 0 for g in gens):
        raise InputError("generators must be positive integers")
    return gens
