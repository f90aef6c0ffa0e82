"""Text grammar for field specs, polynomials and rational functions.

Polynomials are sums of monomials ``c*X^a*Y^b`` joined by ``+``/``-``;
``c`` is an integer literal or, for extension fields, a bracketed
t-polynomial like ``[t^2+1]``; no exponent of X or Y in a monomial may
exceed ``DEGREE_LIMIT``.  Whitespace is insignificant.  Field specs
are ``GF(p)`` or ``GF(p^k)``.
"""

import re

from .errors import InputError
from .fields import FiniteField
from .polynomials import DEGREE_LIMIT, BiPoly

_FIELD_RE = re.compile(r"^GF\(\s*(\d+)\s*(?:\^\s*(\d+)\s*)?\)$")
_INT_RE = re.compile(r"\d+")
_VAR_RE = re.compile(r"[XYxy]")


def parse_field(spec):
    m = _FIELD_RE.match(spec.strip())
    if not m:
        raise InputError(f"bad field spec {spec!r}; expected GF(p) or GF(p^k)")
    p = int(m.group(1))
    k = int(m.group(2)) if m.group(2) else 1
    try:
        return FiniteField(p, k)
    except InputError:
        raise
    except Exception as exc:  # pragma: no cover
        raise InputError(str(exc))


def _split_terms(text):
    """Split on top-level +/- (bracket-aware); yields (sign, chunk)."""
    out = []
    depth = 0
    sign = 1
    start = 0
    i = 0
    if text and text[0] in "+-":
        sign = -1 if text[0] == "-" else 1
        start = i = 1
    while i < len(text):
        ch = text[i]
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise InputError("unbalanced ']' in polynomial")
        elif ch in "+-" and depth == 0:
            out.append((sign, text[start:i]))
            sign = -1 if ch == "-" else 1
            start = i + 1
        i += 1
    if depth:
        raise InputError("unbalanced '[' in polynomial")
    out.append((sign, text[start:]))
    return out


def _parse_t_poly(body, field):
    """Bracketed coefficient: a polynomial in t over the prime field."""
    rep = 0
    for sign, chunk in _split_terms(body):
        chunk = chunk.strip()
        if not chunk:
            raise InputError(f"empty term in coefficient [{body}]")
        m = re.match(r"^(\d+)?\s*(\*)?\s*(t(\^(\d+))?)?$", chunk)
        if not m or (m.group(1) is None and m.group(3) is None):
            raise InputError(f"bad coefficient term {chunk!r} in [{body}]")
        c = int(m.group(1)) if m.group(1) else 1
        e = 0
        if m.group(3):
            e = int(m.group(5)) if m.group(5) else 1
        if e >= field.k:
            raise InputError(
                f"t^{e} exceeds the degree of GF({field.p}^{field.k})")
        term = field.mul(field.from_int(c),
                         field.encode([0] * e + [1]) if e else 1)
        if sign < 0:
            term = field.neg(term)
        rep = field.add(rep, term)
    return rep


def parse_poly(text, field):
    """Parse a bivariate polynomial in the grammar over `field`."""
    text = "".join(text.split())
    if not text:
        raise InputError("empty polynomial")
    terms = {}
    for sign, chunk in _split_terms(text):
        if not chunk:
            raise InputError(f"empty term in {text!r}")
        coeff = 1
        ex = ey = 0
        i = 0
        expect_factor = True
        seen_factor = False
        while i < len(chunk):
            ch = chunk[i]
            if ch == "*":
                if not seen_factor or expect_factor:
                    raise InputError(f"misplaced '*' in term {chunk!r}")
                i += 1
                expect_factor = True
                continue
            if ch == "[":
                j = chunk.index("]", i)
                coeff = field.mul(coeff, _parse_t_poly(chunk[i + 1:j], field))
                i = j + 1
            elif ch.isdigit():
                m = _INT_RE.match(chunk, i)
                coeff = field.mul(coeff, field.from_int(int(m.group())))
                i = m.end()
            elif _VAR_RE.match(ch):
                e = 1
                i += 1
                if i < len(chunk) and chunk[i] == "^":
                    m = _INT_RE.match(chunk, i + 1)
                    if not m:
                        raise InputError(f"missing exponent after '^' in {chunk!r}")
                    digits = m.group().lstrip("0")
                    # a long digit string is over the limit, and int() of
                    # one beyond 4300 digits would raise
                    e = (int(digits or "0") if len(digits) <= 9
                         else DEGREE_LIMIT + 1)
                    i = m.end()
                if ch in "Xx":
                    ex += e
                else:
                    ey += e
                if max(ex, ey) > DEGREE_LIMIT:
                    raise InputError(
                        f"exponent in term {chunk!r} exceeds the degree "
                        f"limit {DEGREE_LIMIT}")
            else:
                raise InputError(f"unexpected character {ch!r} in term {chunk!r}")
            expect_factor = False
            seen_factor = True
        if expect_factor:
            raise InputError(f"dangling '*' in term {chunk!r}")
        if sign < 0:
            coeff = field.neg(coeff)
        key = (ex, ey)
        s = field.add(terms.get(key, 0), coeff)
        if s:
            terms[key] = s
        else:
            terms.pop(key, None)
    return BiPoly(field, terms)


def parse_rational(text, field):
    """Parse ``numerator / denominator``; the denominator defaults to 1."""
    depth = 0
    split_at = None
    for i, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "/" and depth == 0:
            if split_at is not None:
                raise InputError("more than one '/' in rational function")
            split_at = i
    if split_at is None:
        return parse_poly(text, field), BiPoly.one(field)
    num = parse_poly(text[:split_at], field)
    den = parse_poly(text[split_at + 1:], field)
    if den.is_zero():
        raise InputError("zero denominator")
    return num, den


def parse_generators(text):
    try:
        gens = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise InputError(f"bad generator list {text!r}")
    if not gens or any(g <= 0 for g in gens):
        raise InputError("generators must be positive integers")
    return gens
