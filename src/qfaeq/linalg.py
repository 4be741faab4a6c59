"""Dense matrices and row vectors over Gaussian rationals, kept as scaled
Gaussian integers.

A :class:`CMatrix` holds one positive common denominator and two tuples of
integer rows, the real and imaginary parts of the matrix times that
denominator.  A row is a triple ``(s, re, im)`` of a positive int and two
tuples of ints, standing for the vector (re + i*im)/s.  Both forms are
reduced: the denominator and every entry have gcd 1, so equal values have
equal forms.  A product of two such values is an integer product followed
by one gcd that removes the common factor, instead of a normalized
rational operation per entry; this is fraction-free exact arithmetic in
the style of Bareiss (1968) and Cohen (1993, ch. 2).

Plain tuples of :class:`~qfaeq.scalars.GaussianRational` serve as vectors
only at the edges: an automaton's initial vector, which :func:`start_row`
turns into the row every run starts from, and the entries the equivalence
search reads off a row once per word to build its real coordinates.  The
private ``_scaled_row`` and ``_row_vector`` convert between the two forms.
The module also keeps the basis the equivalence decision grows: a fully
reduced row-echelon basis of rational rows, held as a dict from pivot
column to row and updated in place by :func:`span_insert`, which answers
span membership with a single elimination pass.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable

from .scalars import GaussianRational

__all__ = [
    "CMatrix",
    "is_unitary",
    "row_prob",
    "row_times_matrix",
    "span_insert",
    "start_row",
    "vector",
]


def as_scalar(value) -> GaussianRational:
    """Coerce an int, Fraction, or GaussianRational to a GaussianRational;
    anything inexact is the constructor's TypeError."""
    return value if isinstance(value, GaussianRational) else GaussianRational(value)


def _entry(x: int, y: int, den: int) -> GaussianRational:
    return GaussianRational(Fraction(x, den), Fraction(y, den))


class CMatrix:
    """An immutable matrix of Gaussian rationals, stored as (re + i*im)/den.

    ``den`` is a positive int and ``re`` and ``im`` are tuples of integer
    rows, reduced so that den and all entries have gcd 1.  The form is
    canonical, so equality and hashing compare it directly.  Indexing and
    :meth:`column` return :class:`GaussianRational` entries, and ``data``
    builds the matrix as a tuple of row tuples of them on every access.
    Multiplication stays exact; there is no floating-point path anywhere in
    this class.
    """

    __slots__ = ("nrows", "ncols", "den", "re", "im")

    def __init__(self, rows: Iterable[Iterable]):
        data = tuple(tuple(as_scalar(x) for x in row) for row in rows)
        if not data:
            raise ValueError("matrix needs at least one row")
        width = len(data[0])
        if width == 0 or any(len(row) != width for row in data):
            raise ValueError("matrix rows must be nonempty and equally long")
        den, re, im = _scaled_row(tuple(chain.from_iterable(data)))
        cuts = range(0, len(re), width)
        self.nrows = len(data)
        self.ncols = width
        self.den = den
        self.re = tuple(re[i : i + width] for i in cuts)
        self.im = tuple(im[i : i + width] for i in cuts)

    @classmethod
    def _from_ints(cls, den: int, re: tuple, im: tuple) -> "CMatrix":
        """The matrix (re + i*im)/den for den > 0 and equally long nonempty
        rows of ints, reduced by one gcd."""
        g = gcd(den, *chain.from_iterable(re), *chain.from_iterable(im))
        if g > 1:
            den //= g
            re = tuple(tuple(x // g for x in row) for row in re)
            im = tuple(tuple(x // g for x in row) for row in im)
        m = object.__new__(cls)
        m.nrows = len(re)
        m.ncols = len(re[0])
        m.den = den
        m.re = re
        m.im = im
        return m

    @classmethod
    def identity(cls, n: int) -> "CMatrix":
        eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        return cls._from_ints(1, eye, tuple((0,) * n for _ in range(n)))

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @property
    def data(self) -> tuple:
        den = self.den
        return tuple(
            tuple(_entry(x, y, den) for x, y in zip(xs, ys))
            for xs, ys in zip(self.re, self.im)
        )

    def __getitem__(self, index: tuple[int, int]) -> GaussianRational:
        i, j = index
        return _entry(self.re[i][j], self.im[i][j], self.den)

    def column(self, j: int) -> tuple:
        den = self.den
        return tuple(_entry(xs[j], ys[j], den) for xs, ys in zip(self.re, self.im))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CMatrix):
            return NotImplemented
        return (self.den, self.re, self.im) == (other.den, other.re, other.im)

    def __hash__(self) -> int:
        return hash((self.den, self.re, self.im))

    def __mul__(self, other):
        if not isinstance(other, CMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}"
            )
        cols = _joined_columns(other)
        rows = [_times_columns(ar, ai, cols) for ar, ai in zip(self.re, self.im)]
        return CMatrix._from_ints(
            self.den * other.den,
            tuple(tuple(re) for re, _ in rows),
            tuple(tuple(im) for _, im in rows),
        )

    def __repr__(self) -> str:
        rows = "; ".join(
            " ".join(str(x) for x in row) for row in self.data
        )
        return f"CMatrix[{rows}]"


def _joined_columns(m: CMatrix) -> list:
    """Each column of m as one tuple, its real parts followed by its
    imaginary parts."""
    return [r + i for r, i in zip(zip(*m.re), zip(*m.im))]


def _times_columns(vr: tuple, vi: tuple, cols: list) -> tuple[list, list]:
    """The real and imaginary parts of (vr + i*vi) times the matrix whose
    joined columns are cols, without any scale: with column j as cr ++ ci,
    entry j is (vr ++ -vi).col + i (vi ++ vr).col."""
    a = vr + tuple([-x for x in vi])
    b = vi + vr
    return [sum(map(mul, a, c)) for c in cols], [sum(map(mul, b, c)) for c in cols]


def is_unitary(a: CMatrix) -> bool:
    """Exact test that A^dagger A is the identity: over the integers,
    that column p of den*a has squared norm den^2 and is orthogonal to every
    later column."""
    if not a.is_square:
        raise ValueError("unitarity is only defined for square matrices")
    den_sq = a.den * a.den
    n = a.nrows
    cols = _joined_columns(a)
    # with column q as cr ++ ci, the imaginary part of conj(col p).(col q)
    # is col p dotted with ci ++ -cr
    turned = [c[n:] + tuple([-x for x in c[:n]]) for c in cols]
    for p, c in enumerate(cols):
        if sum(map(mul, c, c)) != den_sq:
            return False
        for d, e in zip(cols[p + 1 :], turned[p + 1 :]):
            if sum(map(mul, c, d)) or sum(map(mul, c, e)):
                return False
    return True


def vector(entries: Iterable) -> tuple:
    return tuple(as_scalar(x) for x in entries)


def _scaled_row(v: tuple) -> tuple:
    """The row (s, re, im) of a vector of GaussianRationals, with s the lcm
    of their denominators, so that gcd(s, *re, *im) = 1."""
    s = lcm(*(x.re.denominator for x in v), *(x.im.denominator for x in v))
    return (
        s,
        tuple(x.re.numerator * (s // x.re.denominator) for x in v),
        tuple(x.im.numerator * (s // x.im.denominator) for x in v),
    )


def start_row(ket: tuple) -> tuple:
    """The row of conj(ket), where every run starts: conjugation keeps the
    scale and negates the imaginary parts."""
    s, re, im = _scaled_row(ket)
    return s, re, tuple([-y for y in im])


def _row_vector(row: tuple) -> tuple:
    """The GaussianRational entries of a row (s, re, im)."""
    s, re, im = row
    return tuple(_entry(x, y, s) for x, y in zip(re, im))


def row_times_matrix(row: tuple, m: CMatrix) -> tuple:
    """Row times matrix: an integer product over the common scale s * den,
    then one gcd to remove the content."""
    s, vr, vi = row
    if len(vr) != m.nrows:
        raise ValueError(f"row of length {len(vr)} times {m.nrows}x{m.ncols}")
    re, im = _times_columns(vr, vi, _joined_columns(m))
    s *= m.den
    g = gcd(s, *re, *im)
    if g > 1:
        return s // g, tuple(x // g for x in re), tuple(x // g for x in im)
    return s, tuple(re), tuple(im)


def row_prob(row: tuple, positions: Iterable[int]) -> Fraction:
    """Squared norm of the row's entries at the given positions, the
    acceptance probability when they are the accepting states."""
    s, re, im = row
    return Fraction(sum(re[q] * re[q] + im[q] * im[q] for q in positions), s * s)


def span_insert(basis: dict, row) -> bool:
    """Add row to the span of basis, in place, if it is independent.

    ``basis`` is a fully reduced row-echelon basis: a dict from pivot column
    to row, each row exactly one at its pivot and zero at every other
    pivot.  With that invariant one pass clears every pivot column of row in
    any order, and the residual is zero exactly when row lies in the span;
    then basis is left unchanged and the result is False.  Otherwise the
    residual is normalized to a unit pivot at its first nonzero column,
    eliminated from every existing row, and stored under that pivot, which
    keeps the basis fully reduced; the result is True.  Zero rows are never
    stored, so ``len(basis)`` never exceeds the row length.
    """
    residual = list(row)
    for pivot, brow in basis.items():
        c = residual[pivot]
        if c:
            for j, y in enumerate(brow):
                if y:
                    residual[j] -= c * y
    pivot = next((i for i, x in enumerate(residual) if x), None)
    if pivot is None:
        return False
    inv = residual[pivot]
    if type(inv) is not Fraction:
        # a Fraction pivot keeps int entries exact: int / int is a float
        inv = Fraction(inv)
    normalized = [x / inv if x else x for x in residual]
    entries = [(j, y) for j, y in enumerate(normalized) if y]
    for brow in basis.values():
        c = brow[pivot]
        if c:
            for j, y in entries:
                brow[j] -= c * y
    basis[pivot] = normalized
    return True
