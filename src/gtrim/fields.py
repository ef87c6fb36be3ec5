"""Exact coefficient fields: prime fields F_p and the rationals.

Field objects carry the arithmetic; elements are plain ints (reduced to
``[0, p)``) or exact rationals.  Everything downstream is parameterized by a
field object so the same code runs modulo a prime and over the rationals.
"""

from __future__ import annotations

DEFAULT_CHAR = 32003

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981  # the least strong pseudoprime to all 13 bases


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: True exactly for the primes below _PSI_13 (3.3e24)."""
    if not 2 <= n < _PSI_13:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """F_p with elements stored as ints in ``[0, p)``."""

    __slots__ = ("char",)

    def __init__(self, char: int):
        if not isinstance(char, int) or not _is_prime(char):
            raise ValueError(f"characteristic must be prime, got {char!r}")
        self.char = char

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def of(self, value):
        """Coerce an int, Fraction or 'a/b' string into the field."""
        if isinstance(value, int):
            return value % self.char
        if isinstance(value, str):
            from fractions import Fraction
            value = Fraction(value)
        num, den = value.numerator, value.denominator
        return num % self.char * pow(den, -1, self.char) % self.char

    def add(self, a, b):
        return (a + b) % self.char

    def sub(self, a, b):
        return (a - b) % self.char

    def mul(self, a, b):
        return a * b % self.char

    def neg(self, a):
        return -a % self.char

    def inv(self, a):
        if a % self.char == 0:
            raise ZeroDivisionError("inverse of zero in F_p")
        return pow(a, -1, self.char)

    def is_zero(self, a) -> bool:
        return a == 0

    def coeff_str(self, a) -> str:
        # symmetric representative, so x*y - z^2 prints the same mod p and over Q
        return str(a if a <= self.char // 2 else a - self.char)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.char == self.char

    def __hash__(self):
        return hash(("PrimeField", self.char))

    def __repr__(self):
        return f"PrimeField({self.char})"


_RAT = None  # the rational type, imported by `_rat` on first use


def _rat():
    """gmpy2.mpq when available, Fraction otherwise; a run over F_p imports neither."""
    global _RAT
    if _RAT is None:
        try:
            from gmpy2 import mpq as _RAT
        except ImportError:  # pragma: no cover - gmpy2 is a speedup, not a requirement
            from fractions import Fraction as _RAT
    return _RAT


class RationalField:
    """Exact rationals; gmpy2.mpq when available, Fraction otherwise."""

    __slots__ = ()
    char = 0

    @property
    def zero(self):
        return _rat()(0)

    @property
    def one(self):
        return _rat()(1)

    def of(self, value):
        if isinstance(value, str):
            from fractions import Fraction
            return _rat()(Fraction(value))
        return _rat()(value)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / _rat()(a)

    def is_zero(self, a) -> bool:
        return a == 0

    def coeff_str(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "RationalField()"


def field_of_characteristic(char: int):
    """PrimeField(char) for prime char, RationalField() for char 0; char must
    be an int proper, so False and 0.0 are refused rather than read as 0."""
    if not isinstance(char, int) or isinstance(char, bool):
        raise ValueError(f"characteristic must be an integer, got {char!r}")
    if char == 0:
        return RationalField()
    return PrimeField(char)


def default_field() -> PrimeField:
    return PrimeField(DEFAULT_CHAR)
