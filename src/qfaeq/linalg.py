"""Dense matrices and row vectors over Gaussian rationals.

Matrices are immutable tuples of row tuples.  Row vectors are plain tuples of
:class:`~qfaeq.scalars.GaussianRational`; helpers below build, conjugate, and
multiply them without ever leaving exact arithmetic.  The module also keeps
the basis the equivalence decision grows: a fully reduced row-echelon basis
of rational rows, held as a dict from pivot column to row and updated in
place by :func:`span_insert`, which answers span membership with a single
elimination pass.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .scalars import ONE, ZERO, GaussianRational, _coerce

__all__ = [
    "Vector",
    "CMatrix",
    "conj_vector",
    "is_unitary",
    "norm_sq",
    "row_times_matrix",
    "span_insert",
    "span_reduce",
    "vector",
]

Vector = tuple


def as_scalar(value) -> GaussianRational:
    """Coerce an int, Fraction, or GaussianRational to a GaussianRational."""
    scalar = _coerce(value)
    if scalar is None:
        raise TypeError(f"cannot use {value!r} as an exact scalar")
    return scalar


class CMatrix:
    """An immutable matrix of Gaussian rationals.

    ``data`` is a tuple of row tuples.  Multiplication and the conjugate
    transpose stay exact; there is no floating-point path anywhere in this
    class.
    """

    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, rows: Iterable[Iterable]):
        data = tuple(tuple(as_scalar(x) for x in row) for row in rows)
        if not data:
            raise ValueError("matrix needs at least one row")
        width = len(data[0])
        if width == 0 or any(len(row) != width for row in data):
            raise ValueError("matrix rows must be nonempty and equally long")
        self.nrows = len(data)
        self.ncols = width
        self.data = data

    @classmethod
    def identity(cls, n: int) -> "CMatrix":
        return cls(
            tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
        )

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, index: tuple[int, int]) -> GaussianRational:
        i, j = index
        return self.data[i][j]

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CMatrix):
            return NotImplemented
        return self.data == other.data

    def __hash__(self) -> int:
        return hash(self.data)

    def __mul__(self, other):
        if not isinstance(other, CMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}"
            )
        bdata = other.data
        rows = []
        for arow in self.data:
            acc = [ZERO] * other.ncols
            for idx, x in enumerate(arow):
                if x:
                    for j, y in enumerate(bdata[idx]):
                        if y:
                            acc[j] = acc[j] + x * y
            rows.append(acc)
        return CMatrix(rows)

    def dagger(self) -> "CMatrix":
        """Conjugate transpose."""
        return CMatrix(
            tuple(x.conjugate() for x in col) for col in zip(*self.data)
        )

    def __repr__(self) -> str:
        rows = "; ".join(
            " ".join(str(x) for x in row) for row in self.data
        )
        return f"CMatrix[{rows}]"


def is_unitary(a: CMatrix) -> bool:
    """Exact test that a.dagger() * a is the identity."""
    if not a.is_square:
        raise ValueError("unitarity is only defined for square matrices")
    return a.dagger() * a == CMatrix.identity(a.nrows)


def vector(entries: Iterable) -> Vector:
    return tuple(as_scalar(x) for x in entries)


def conj_vector(v: Vector) -> Vector:
    return tuple(x.conjugate() for x in v)


def norm_sq(v: Iterable[GaussianRational]) -> Fraction:
    """Squared Euclidean norm as an exact rational."""
    total = Fraction(0)
    for x in v:
        if x:
            total += x.abs_sq()
    return total


def row_times_matrix(v: Vector, m: CMatrix) -> Vector:
    """Row vector times matrix, skipping zero entries on both sides."""
    if len(v) != m.nrows:
        raise ValueError(f"row of length {len(v)} times {m.nrows}x{m.ncols}")
    acc = [ZERO] * m.ncols
    for i, x in enumerate(v):
        if x:
            for j, y in enumerate(m.data[i]):
                if y:
                    acc[j] = acc[j] + x * y
    return tuple(acc)


def span_reduce(basis: dict, row) -> list:
    """Residual of row after clearing every pivot column of basis, in one
    pass.

    ``basis`` is a fully reduced row-echelon basis: a dict from pivot column
    to row, each row exactly one at its pivot and zero at every other
    pivot.  With that invariant the pivots can be cleared in any order, and
    the residual is zero exactly when row lies in the span.
    """
    residual = list(row)
    for pivot, brow in basis.items():
        c = residual[pivot]
        if c:
            for j, y in enumerate(brow):
                if y:
                    residual[j] -= c * y
    return residual


def span_insert(basis: dict, row) -> bool:
    """Add row to the span of basis, in place, if it is independent.

    Returns False and leaves basis unchanged when row already lies in the
    span.  Otherwise the residual is normalized to a unit pivot at its first
    nonzero column, eliminated from every existing row, and stored under
    that pivot, which keeps the basis fully reduced; returns True.  Zero rows
    are never stored, so ``len(basis)`` never exceeds the row length.
    """
    residual = span_reduce(basis, row)
    pivot = next((i for i, x in enumerate(residual) if x), None)
    if pivot is None:
        return False
    inv = residual[pivot]
    normalized = [x / inv if x else x for x in residual]
    entries = [(j, y) for j, y in enumerate(normalized) if y]
    for brow in basis.values():
        c = brow[pivot]
        if c:
            for j, y in entries:
                brow[j] -= c * y
    basis[pivot] = normalized
    return True
