"""Dense matrices and row vectors over Gaussian rationals, kept as scaled
Gaussian integers.

A :class:`CMatrix` holds one positive common denominator and, for each
column, with cr and ci its real and imaginary parts times that
denominator, the two integer tuples cr ++ (-ci) and ci ++ cr.  A row is a
triple ``(s, re, im)`` of a positive int and two tuples of ints, standing
for the vector (re + i*im)/s.  The row step, :func:`row_times_matrix`,
joins a row once as re ++ im and takes one integer dot product with each
stored tuple, so it reads the matrix exactly as stored; the matrix product
and :func:`is_unitary` read the same tuples.  Both forms are reduced: the
denominator and every entry have gcd 1, so equal values have equal forms.
A product of two such values is an integer product followed by one gcd
that removes the common factor, instead of a normalized rational
operation per entry; this is fraction-free exact arithmetic in the style
of Bareiss (1968) and Cohen (1993, ch. 2).

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
from itertools import chain, islice
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
    """An immutable matrix of Gaussian rationals, stored as scaled integer
    columns in the form the row step reads.

    ``den`` is a positive int.  With cr_j and ci_j the real and imaginary
    parts of column j times den, tuples of ints, ``cols`` holds
    P_j = cr_j ++ (-ci_j) at index j and Q_j = ci_j ++ cr_j at index
    ncols + j.  A row vr + i*vi, joined as w = vr ++ vi, then has entry
    w.P_j + i*(w.Q_j) in its product with the matrix:
    :func:`row_times_matrix`, ``*`` and :func:`is_unitary` read ``cols``
    and nothing else.  The form is reduced, den and all entries having
    gcd 1, so it is canonical and equality and hashing compare it
    directly.  ``re`` and ``im``, the integer rows of the real and
    imaginary parts, ``data``, a tuple of row tuples of
    :class:`GaussianRational` entries, indexing and :meth:`column` are
    read-only views derived from ``cols`` on every access, for the writer,
    ``repr`` and tests.  Multiplication stays exact; there is no
    floating-point path anywhere in this class.
    """

    __slots__ = ("nrows", "ncols", "den", "cols")

    def __init__(self, rows: Iterable[Iterable]):
        data = tuple(tuple(as_scalar(x) for x in row) for row in rows)
        if not data:
            raise ValueError("matrix needs at least one row")
        width = len(data[0])
        if width == 0 or any(len(row) != width for row in data):
            raise ValueError("matrix rows must be nonempty and equally long")
        den, re, im = _scaled_row(tuple(chain.from_iterable(data)))
        self._set(
            den,
            [re[j::width] for j in range(width)],
            [im[j::width] for j in range(width)],
        )

    def _set(self, den: int, cre, cim) -> None:
        """Store the matrix whose column j is (cre[j] + i*cim[j])/den, for
        den > 0 and equally long nonempty sequences of ints, reduced by one
        gcd."""
        g = gcd(den, *chain(*cre, *cim))
        if g > 1:
            den //= g
            cre = [[x // g for x in c] for c in cre]
            cim = [[y // g for y in c] for c in cim]
        self.nrows = len(cre[0])
        self.ncols = len(cre)
        self.den = den
        pairs = list(zip(map(tuple, cre), map(tuple, cim)))
        self.cols = tuple(
            [r + tuple([-y for y in i]) for r, i in pairs]
            + [i + r for r, i in pairs]
        )

    @classmethod
    def _from_columns(cls, den: int, cre, cim) -> "CMatrix":
        """The matrix whose column j is (cre[j] + i*cim[j])/den, as
        :meth:`_set` stores it."""
        m = object.__new__(cls)
        m._set(den, cre, cim)
        return m

    @classmethod
    def _from_ints(cls, den: int, re: tuple, im: tuple) -> "CMatrix":
        """The matrix (re + i*im)/den for den > 0 and equally long nonempty
        rows of ints, reduced by one gcd."""
        return cls._from_columns(den, tuple(zip(*re)), tuple(zip(*im)))

    @classmethod
    def identity(cls, n: int) -> "CMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @property
    def re(self) -> tuple:
        return tuple(zip(*self.cols[: self.ncols]))[: self.nrows]

    @property
    def im(self) -> tuple:
        return tuple(zip(*self.cols[self.ncols :]))[: self.nrows]

    @property
    def data(self) -> tuple:
        den = self.den
        return tuple(
            tuple(_entry(x, y, den) for x, y in zip(xs, ys))
            for xs, ys in zip(self.re, self.im)
        )

    def __getitem__(self, index: tuple[int, int]) -> GaussianRational:
        i, j = index
        # range indexing applies Python's bounds and negative indices
        i, j = range(self.nrows)[i], range(self.ncols)[j]
        return _entry(self.cols[j][i], self.cols[self.ncols + j][i], self.den)

    def column(self, j: int) -> tuple:
        den, n = self.den, self.nrows
        q = self.cols[self.ncols + range(self.ncols)[j]]
        return tuple(_entry(x, y, den) for x, y in zip(q[n:], q[:n]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CMatrix):
            return NotImplemented
        return self.den == other.den and self.cols == other.cols

    def __hash__(self) -> int:
        return hash((self.den, self.cols))

    def __mul__(self, other):
        if not isinstance(other, CMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}"
            )
        # the first nrows rows across self.cols are self's rows, each
        # joined as re ++ im, and each steps through other.cols as a row does
        rows = islice(zip(*self.cols), self.nrows)
        out = [[sum(map(mul, w, c)) for c in other.cols] for w in rows]
        cols = tuple(zip(*out))
        n = other.ncols
        return CMatrix._from_columns(self.den * other.den, cols[:n], cols[n:])

    def __repr__(self) -> str:
        rows = "; ".join(
            " ".join(str(x) for x in row) for row in self.data
        )
        return f"CMatrix[{rows}]"


def is_unitary(a: CMatrix) -> bool:
    """Exact test that A^dagger A is the identity: over the integers,
    that column p of den*a has squared norm den^2 and is orthogonal to every
    later column q.  With P and Q the columns' pairs in ``a.cols``, the
    squared norm is Q_p.Q_p, and conj(col p).(col q) is
    Q_p.Q_q + i*(P_p.Q_q)."""
    if not a.is_square:
        raise ValueError("unitarity is only defined for square matrices")
    den_sq = a.den * a.den
    n = a.ncols
    ps, qs = a.cols[:n], a.cols[n:]
    for p, (cp, cq) in enumerate(zip(ps, qs)):
        if sum(map(mul, cq, cq)) != den_sq:
            return False
        for d in qs[p + 1 :]:
            if sum(map(mul, cq, d)) or sum(map(mul, cp, d)):
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
    """Row times matrix: the row joined once as vr ++ vi, one integer dot
    product with each of the 2 * ncols columns of ``m.cols`` over the common
    scale s * den, then one gcd to remove the content."""
    s, vr, vi = row
    if len(vr) != m.nrows:
        raise ValueError(f"row of length {len(vr)} times {m.nrows}x{m.ncols}")
    w = vr + vi
    out = [sum(map(mul, w, c)) for c in m.cols]
    s *= m.den
    g = gcd(s, *out)
    n = m.ncols
    if g > 1:
        out = [x // g for x in out]
        s //= g
    return s, tuple(out[:n]), tuple(out[n:])


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
