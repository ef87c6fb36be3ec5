"""The skew-symmetric matrix family V_m and its trimmed Gorenstein ideals.

One band rule builds both matrices: x, z, y on the three central
anti-diagonals i + j = n-2, n-1, n (0-based) of an n x n matrix, 0 elsewhere.
U_m is that Hankel matrix with n = m, and d_m = det(U_m).  V_m takes it with
n = 2m+1, keeping the entries above the diagonal and their negatives below;
its maximal sub-Pfaffians generate a height-3 Gorenstein ideal with 2m+1
minimal generators of degree m.  Up to sign those sub-Pfaffians are
x^(m-i) d_i, d_m and y^(m-i) d_i, so the ideals and the sub-Pfaffians are
built from d_poly's closed form alone; nothing here expands a Pfaffian.
Trimming replaces one generator g by (x, y, z)*g.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple

from .errors import QuotientTooLargeError
from .fields import default_field
from .ideals import MAX_DIM, Ideal, trim
from .poly import Polynomial, PolyMatrix, variables

_SELECTOR = re.compile(r"(x|y)(0|[1-9][0-9]*)|d")


def _band(n: int, field) -> PolyMatrix:
    """The n x n matrix with x, z, y on the anti-diagonals i + j = n-2, n-1, n
    (0-based) and 0 elsewhere."""
    x, y, z = variables(field)
    zero = Polynomial.zero(field)
    diagonals = {n - 2: x, n - 1: z, n: y}
    return PolyMatrix.from_rows([[diagonals.get(i + j, zero) for j in range(n)]
                                 for i in range(n)])


def build_u(m: int, field=None) -> PolyMatrix:
    """U_m, the m x m Hankel band: x, z, y on the anti-diagonals i + j = m-2,
    m-1, m (0-based)."""
    if m < 1:
        raise ValueError(f"matrix size must be positive, got {m}")
    return _band(m, field or default_field())


def build_v(m: int, field=None) -> PolyMatrix:
    """V_m, the (2m+1) x (2m+1) skew-symmetric band: above the diagonal x, z, y
    on the anti-diagonals i + j = 2m-1, 2m, 2m+1 (0-based), their negatives
    below, and a zero diagonal."""
    if m < 1:
        raise ValueError(f"matrix size must be positive, got {m}")
    field, n = field or default_field(), 2 * m + 1
    band, zero = _band(n, field).entries, Polynomial.zero(field)
    return PolyMatrix.from_rows([[band[i][j] if i < j else -band[j][i] if i > j else zero
                                  for j in range(n)] for i in range(n)])


def d_poly(m: int, field=None) -> Polynomial:
    """The degree-m polynomial d_m = det(U_m), from its closed form.

    d_m = sum_j (-1)^((m-2j) div 2) C(m-j, j) x^j y^j z^(m-2j), with d_0 = 1
    and d_{-1} = 0; it satisfies d_m = (-1)^(m-1) z d_{m-1} + x y d_{m-2}.
    """
    if m < -1:
        raise ValueError(f"d_poly index must be >= -1, got {m}")
    field = field or default_field()
    terms = {}
    for j in range(m // 2 + 1):
        sign = -1 if ((m - 2 * j) // 2) % 2 else 1
        terms[(j, j, m - 2 * j)] = field.of(sign * math.comb(m - j, j))
    return Polynomial(field, terms)


def canonical_generators(m: int, field=None) -> list:
    """The ladder of g_m: position k of 0..2m is x^(m-k) d_k for k <= m, else
    y^(k-m) d_(2m-k); m = 1 gives [x, z, y].  Refuses m < 1 and, before any
    polynomial is built, an m above the size bound."""
    if m < 1:
        raise ValueError(f"family index must be >= 1, got {m}")
    check_family_size(m)
    field = field or default_field()
    x, y, z = variables(field)
    d = [d_poly(k, field) for k in range(m + 1)]
    left = [x ** (m - i) * d[i] for i in range(m)]
    right = [y ** (m - i) * d[i] for i in range(m - 1, -1, -1)]
    return left + [d[m]] + right


def gorenstein_ideal(m: int, field=None) -> Ideal:
    """The height-3 Gorenstein ideal of sub-Pfaffians of V_m (m = 1 gives (x, y, z))."""
    return Ideal(canonical_generators(m, field))


def family_dim(m: int) -> int:
    """dim Q/g_m in closed form, 2 C(m+1, 3) + C(m+1, 2): the sum of family_hilbert(m)."""
    return 2 * math.comb(m + 1, 3) + math.comb(m + 1, 2)


def check_family_size(m: int) -> None:
    """Refuse, before any polynomial is built, an m whose trims (one more
    than dim Q/g_m) would pass the bound MAX_DIM on dim R."""
    if family_dim(m) + 1 > MAX_DIM:
        raise QuotientTooLargeError(
            f"m = {m} gives dim R = {family_dim(m)} (one more for a trim), "
            f"above the bound {MAX_DIM}")


def family_hilbert(m: int) -> list:
    """Closed-form Hilbert function of Q/g_m: h_d = C(min(d, 2m-2-d) + 2, 2)
    for d = 0..2m-2, binomials mirrored around degree m-1."""
    if m < 1:
        raise ValueError(f"family index must be >= 1, got {m}")
    return [math.comb(min(d, 2 * m - 2 - d) + 2, 2) for d in range(2 * m - 1)]


def selector_labels(m: int) -> list:
    """The 2m+1 trim selectors, label k naming ladder position k (the inverse
    of `selector_index`); m = 1 gives [x0, d, y0]."""
    if m < 1:
        raise ValueError(f"family index must be >= 1, got {m}")
    left = ["x0"] + [f"x{i}" for i in range(1, m)]
    right = [f"y{i}" for i in range(m - 1, 0, -1)] + ["y0"]
    return left + ["d"] + right


def selector_index(selector: str, m: int) -> int:
    """Position of a selector's generator among 2m+1 in canonical order.

    Selectors are x0, y0, d or xI/yI with 1 <= I <= m-1, written in ASCII
    digits without leading zeros; anything else raises ValueError.
    """
    match = _SELECTOR.fullmatch(selector)
    if not match:
        raise ValueError(f"bad trim selector {selector!r}; expected x0, y0, d, xI or yI")
    if selector == "d":
        return m
    i = int(match.group(2))
    if i > m - 1:
        raise ValueError(f"selector {selector!r} needs 0 <= I <= {m - 1} for m={m}")
    return i if match.group(1) == "x" else 2 * m - i


class TrimChoice(namedtuple("TrimChoice", "m selector")):
    """A generator choice for trimming: selectors x0 (x^m), y0 (y^m), d (d_m),
    xi (x^(m-i) d_i) and yi (y^(m-i) d_i) for 1 <= i <= m-1."""

    __slots__ = ()

    def __new__(cls, m: int, selector: str):
        if m < 2:
            raise ValueError(f"trimming is defined for m >= 2, got m={m}")
        selector_index(selector, m)
        return super().__new__(cls, m, selector)

    @property
    def index(self) -> int:
        """Position of the chosen generator in the canonical ordering."""
        return selector_index(self.selector, self.m)


def trimmed_ideal(choice: TrimChoice, field=None) -> Ideal:
    """Trim of the m-th Gorenstein ideal at the chosen generator."""
    return trim(gorenstein_ideal(choice.m, field), choice.index)


class PfaffianFamily(namedtuple("PfaffianFamily", "m U V d pfaffians generators")):
    """The m-th instance: matrices, sub-Pfaffians and canonical generators."""

    __slots__ = ()

    @classmethod
    def build(cls, m: int, field=None) -> "PfaffianFamily":
        """The m-th instance, its sub-Pfaffians read off the generator ladder.

        Deleting 0-based row and column k of V_m leaves the Pfaffian
        (-1)^floor(min(k, 2m-k)/2) times 0-based ladder entry 2m-k: the
        ladder runs backwards, and the signs go +, +, -, -, ... from both
        ends toward d_m.  The tests check this rule, signs included, against
        a first-row Pfaffian expansion for m = 1..16 over F_32003 and
        m = 1..10 over Q.
        """
        gens = canonical_generators(m, field)  # first: it checks m and the size bound
        pfaffians = tuple(-g if min(k, 2 * m - k) // 2 % 2 else g
                          for k, g in enumerate(reversed(gens)))
        return cls(m=m, U=build_u(m, field), V=build_v(m, field),
                   d=gens[m], pfaffians=pfaffians, generators=tuple(gens))

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "U": self.U.to_strings(),
            "V": self.V.to_strings(),
            "d": self.d.to_text(),
            "pfaffians": [p.to_text() for p in self.pfaffians],
            "generators": [g.to_text() for g in self.generators],
        }
