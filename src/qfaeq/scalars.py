"""Exact complex scalars with rational real and imaginary parts, and exact
text for rationals of any size."""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

__all__ = ["GaussianRational", "ZERO", "ONE", "IMAG", "format_rational"]

# Python limits int-to-str conversion to 4300 digits by default, and the
# setting is process-wide, so longer ints are written in pieces this long.
_PIECE_DIGITS = 4000
_PIECE = 10**_PIECE_DIGITS


class GaussianRational:
    """A complex number ``re + im*i`` whose parts are exact rationals.

    Both components are :class:`fractions.Fraction` values, so they are always
    stored reduced (coprime numerator and denominator, positive denominator)
    and arithmetic never rounds.  The type is closed under addition,
    subtraction, multiplication and conjugation.  Instances are immutable by
    convention and hashable.

    Plain ``int`` and ``Fraction`` values mix freely on either side of the
    arithmetic operators and in equality comparisons.  Each part must be
    exact, a :class:`numbers.Rational`; a float or a string is a TypeError.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction | int = 0, im: Fraction | int = 0):
        self.re = re if type(re) is Fraction else _exact_part(re)
        self.im = im if type(im) is Fraction else _exact_part(im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs_sq(self) -> Fraction:
        """Squared modulus ``re**2 + im**2`` as an exact rational."""
        return self.re * self.re + self.im * self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, Rational):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        # Real values must hash like the plain rational they equal.
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.re, self.im
        c, d = other.re, other.im
        return GaussianRational(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"GaussianRational({self.re}, {self.im})"

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def _int_text(x: int) -> str:
    """The decimal digits of x, exact at any size."""
    pieces = []
    rest = abs(x)
    while rest >= _PIECE:
        rest, piece = divmod(rest, _PIECE)
        pieces.append(format(piece, f"0{_PIECE_DIGITS}d"))
    pieces.append(f"-{rest}" if x < 0 else str(rest))
    return "".join(reversed(pieces))


def _ratio_text(p: int, q: int) -> str:
    """"p/q" for ints p and q > 0, exact at any size."""
    if abs(p) < _PIECE and q < _PIECE:
        return f"{p}/{q}"
    return f"{_int_text(p)}/{_int_text(q)}"


def format_rational(value: Fraction) -> str:
    """value as "p/q" in lowest terms with q > 0, exact at any size."""
    return _ratio_text(value.numerator, value.denominator)


def _exact_part(value) -> Fraction:
    if isinstance(value, Rational):
        return Fraction(value)
    raise TypeError(f"cannot use {value!r} as an exact scalar")


def _coerce(value) -> GaussianRational | None:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, Rational):
        return GaussianRational(value)
    return None


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
IMAG = GaussianRational(0, 1)
