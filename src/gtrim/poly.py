"""Exact polynomial arithmetic in k[x, y, z].

Monomials are exponent triples; a polynomial is a dict mapping monomials to
nonzero field elements, coerced by `field.of` (zero is the empty dict).  Arithmetic
and the text reader accumulate terms with the field's `sub_multiple`, the one
sparse sum; the reader adds every term into one dict, linear in the text.
The one monomial order is grevlex with x > y > z: the Hilbert function, the
Koszul homology and its products do not depend on the order they are
computed in.
"""

from __future__ import annotations

import re
from collections import namedtuple

VARS = ("x", "y", "z")

Monomial = tuple  # (a, b, c) exponents of x, y, z


def mono_degree(m: Monomial) -> int:
    return m[0] + m[1] + m[2]


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True when a divides b."""
    return a[0] <= b[0] and a[1] <= b[1] and a[2] <= b[2]


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """The quotient a / b; b must divide a."""
    if not mono_divides(b, a):
        raise ValueError(f"{b} does not divide {a}")
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return (max(a[0], b[0]), max(a[1], b[1]), max(a[2], b[2]))


def mono_key(m: Monomial):
    """Grevlex sort key under which larger monomials compare larger: a flat int tuple."""
    return (m[0] + m[1] + m[2], -m[2], -m[1])


def monomials_of_degree(d: int) -> list:
    """All degree-d monomials, grevlex descending (deterministic basis order)."""
    out = [(i, j, d - i - j) for i in range(d, -1, -1) for j in range(d - i, -1, -1)]
    out.sort(key=mono_key, reverse=True)
    return out


def mono_str(m: Monomial) -> str:
    parts = []
    for name, e in zip(VARS, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


class Polynomial:
    """Immutable-by-convention polynomial over a fixed coefficient field."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms=None):
        self.field = field
        self.terms = {mono: c for mono, coeff in (terms or {}).items()
                      if not field.is_zero(c := field.of(coeff))}

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field) -> "Polynomial":
        return cls(field)

    @classmethod
    def constant(cls, field, value) -> "Polynomial":
        return cls(field, {(0, 0, 0): field.of(value)})

    @classmethod
    def variable(cls, field, name: str) -> "Polynomial":
        if name not in VARS:
            raise ValueError(f"unknown variable {name!r}; variables are {VARS}")
        mono = tuple(1 if v == name else 0 for v in VARS)
        return cls(field, {mono: field.one})

    # ---- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {mono_degree(m) for m in self.terms}
        return len(degrees) <= 1

    def sorted_terms(self) -> list:
        """(monomial, coefficient) pairs, strictly descending in grevlex."""
        return [(m, self.terms[m]) for m in sorted(self.terms, key=mono_key, reverse=True)]

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=mono_key)

    def leading_coeff(self):
        return self.terms[self.leading_monomial()]

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        inv = self.field.inv(self.leading_coeff())
        f = self.field
        return Polynomial(f, {m: f.mul(c, inv) for m, c in self.terms.items()})

    # ---- arithmetic ----------------------------------------------------

    def _check_field(self, other: "Polynomial"):
        if self.field != other.field:
            raise ValueError("mismatched coefficient fields")

    def _with(self, terms: dict) -> "Polynomial":
        """The polynomial over this field with the given terms, none zero."""
        p = Polynomial.__new__(Polynomial)
        p.field, p.terms = self.field, terms
        return p

    def _minus(self, c, other: "Polynomial") -> "Polynomial":
        """self - c * other, summed by the field's `sub_multiple`."""
        self._check_field(other)
        out = dict(self.terms)
        self.field.sub_multiple(out, c, other.terms)
        return self._with(out)

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._minus(self.field.neg(self.field.one), other)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._minus(self.field.one, other)

    def __neg__(self):
        return Polynomial(self.field)._minus(self.field.one, self)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):  # a rational scalar: int, Fraction or mpq
            return self.scale(other) if hasattr(other, "denominator") else NotImplemented
        self._check_field(other)
        f, out = self.field, {}
        for (a, b, c), coeff in self.terms.items():
            f.sub_multiple(out, f.neg(coeff),
                           {(a + p, b + q, c + r): v for (p, q, r), v in other.terms.items()})
        return self._with(out)

    __rmul__ = __mul__

    def scale(self, value) -> "Polynomial":
        f = self.field
        c = f.of(value)
        if f.is_zero(c):
            return Polynomial(f)
        return self._with({m: f.mul(cc, c) for m, cc in self.terms.items()})

    def __pow__(self, n: int):
        """Square and multiply: O(log n) products."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out, base = Polynomial.constant(self.field, 1), self
        while n:
            if n & 1:
                out = out * base
            n, base = n >> 1, base * base
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    # ---- text ------------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: grevlex-descending terms, symmetric coefficients."""
        if not self.terms:
            return "0"
        pieces = []
        for mono, coeff in self.sorted_terms():
            cs = self.field.coeff_str(coeff)
            neg = cs.startswith("-")
            mag = cs[1:] if neg else cs
            ms = mono_str(mono)
            if not ms:
                body = mag
            elif mag == "1":
                body = ms
            else:
                body = f"{mag}*{ms}"
            if not pieces:
                pieces.append(f"-{body}" if neg else body)
            else:
                pieces.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(pieces)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"Polynomial({self.to_text()!r})"


def variables(field):
    """The generator triple (x, y, z) as polynomials."""
    return tuple(Polynomial.variable(field, v) for v in VARS)


# ---- parsing ---------------------------------------------------------------

_TOKEN = re.compile(r"\s*([+\-]|[xyz](?:\^[0-9]+)?|[0-9]+(?:/[0-9]+)?|\*)")


def parse_polynomial(text: str, field) -> Polynomial:
    """Parse the canonical text format, e.g. ``2*x*y*z - z^3``.

    Terms are joined with + or -, factors within a term with ``*``; powers use
    ``^``; coefficients are integers (or rationals ``a/b``), all written in
    ASCII digits, so ``x^\u0663`` is a bad character.  Whitespace is
    insignificant.  A factor must be followed by ``*``, ``+``, ``-`` or the
    end of the text: juxtaposition such as ``xy``, ``x^2y`` or ``2 x`` raises
    ValueError rather than being read as a sum or a product.
    """
    from fractions import Fraction

    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    tokens = []
    pos = 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            raise ValueError(f"bad character in polynomial at {s[pos:pos + 10]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    terms = {}  # a zero coefficient may linger here; Polynomial drops it
    i = 0
    n = len(tokens)
    while i < n:
        sign = 1
        while i < n and tokens[i] in "+-":
            if tokens[i] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise ValueError(f"dangling sign in {text!r}")
        coeff = Fraction(sign)
        expo = [0, 0, 0]
        expect_factor = True
        while True:
            if expect_factor:
                tok = tokens[i] if i < n else None
                if tok is None or tok in "+-*":
                    raise ValueError(f"missing factor in {text!r}")
                if tok[0] in "xyz":
                    v = VARS.index(tok[0])
                    expo[v] += int(tok[2:]) if len(tok) > 1 else 1
                else:
                    try:
                        coeff *= Fraction(tok)
                    except ZeroDivisionError:
                        raise ValueError(f"zero denominator in {text!r}") from None
                i += 1
                expect_factor = False
            elif i < n and tokens[i] == "*":
                i += 1
                expect_factor = True
            elif i < n and tokens[i] not in "+-":
                raise ValueError(f"missing operator before {tokens[i]!r} in {text!r}")
            else:
                break
        field.sub_multiple(terms, field.neg(field.of(coeff)), {tuple(expo): field.one})
    return Polynomial(field, terms)


# ---- matrices ----------------------------------------------------------------

class PolyMatrix(namedtuple("PolyMatrix", "entries")):
    """Rectangular matrix of polynomials (row-major tuples)."""

    __slots__ = ()

    @classmethod
    def from_rows(cls, rows) -> "PolyMatrix":
        tup = tuple(tuple(row) for row in rows)
        if tup and any(len(r) != len(tup[0]) for r in tup):
            raise ValueError("ragged matrix rows")
        return cls(tup)

    def to_strings(self) -> list:
        return [[p.to_text() for p in row] for row in self.entries]
