"""Reference computations the tests check the package against.

They form each product the plain way, entry by entry in GaussianRationals,
and never call the package's integer kernel (``CMatrix.__mul__``,
``row_times_matrix``, ``is_unitary``) or its span basis (``span_insert``),
so a bug in either cannot hide in both sides of a comparison.  The module
also builds the hostile input that the document tests share.
"""

import itertools
from fractions import Fraction

from qfaeq.linalg import CMatrix
from qfaeq.qfa import KLetterQFA, _check_word, _context_at
from qfaeq.scalars import ONE, ZERO, GaussianRational, _coerce


def norm_sq(v) -> Fraction:
    """Squared Euclidean norm as an exact rational."""
    total = Fraction(0)
    for x in v:
        total += x.abs_sq()
    return total


def conj(v) -> tuple:
    """The entrywise complex conjugate of a vector."""
    return tuple(x.conjugate() for x in v)


def row_step(v, m: CMatrix) -> tuple:
    """Row vector times matrix, one GaussianRational product per entry."""
    assert len(v) == m.nrows
    data = m.data
    return tuple(
        sum((v[i] * data[i][j] for i in range(m.nrows)), ZERO)
        for j in range(m.ncols)
    )


def matmul(a: CMatrix, b: CMatrix) -> CMatrix:
    return CMatrix([row_step(row, b) for row in a.data])


def adjoint(a: CMatrix) -> CMatrix:
    return CMatrix([[x.conjugate() for x in col] for col in zip(*a.data)])


def unitary(a: CMatrix) -> bool:
    """adjoint(a) * a == I, each entry summed in GaussianRationals."""
    data = a.data
    n = len(data)
    return all(
        sum((data[r][p].conjugate() * data[r][q] for r in range(n)), ZERO)
        == (1 if p == q else 0)
        for p in range(n)
        for q in range(n)
    )


def divide(a, b) -> GaussianRational:
    """a / b for Gaussian rationals, b nonzero."""
    a, b = _coerce(a), _coerce(b)
    den = b.abs_sq()
    return GaussianRational(
        (a.re * b.re + a.im * b.im) / den, (a.im * b.re - a.re * b.im) / den
    )


def mu_bar(a: KLetterQFA, word: str) -> CMatrix:
    """Product of the per-position transition unitaries; identity for the
    empty word."""
    _check_word(a, word)
    m = CMatrix([[ONE if i == j else ZERO for j in range(a.n)] for i in range(a.n)])
    for i in range(1, len(word) + 1):
        m = matmul(m, a.transitions[_context_at(a.k, word, i)])
    return m


def naive_rank(vectors) -> int:
    """Rank by textbook Gaussian elimination over mutable row lists, with no
    pivots shared with the package's span basis."""
    rows = [list(v) for v in vectors]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        lead = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / lead
                rows[r] = [
                    x - factor * y for x, y in zip(rows[r], rows[rank])
                ]
        rank += 1
    return rank


def in_span(rows, row) -> bool:
    """Whether row is a linear combination of rows: adding it leaves the
    rank unchanged."""
    rows = list(rows)
    return naive_rank(rows + [row]) == naive_rank(rows)


def coprime_denominators(count):
    """2**e - 1 for the first `count` primes e above 10000, about 3000
    digits each and pairwise coprime: gcd(2**a - 1, 2**b - 1) is
    2**gcd(a, b) - 1.  Three of them have an lcm past 8600 digits."""
    primes = (e for e in range(10001, 20000) if all(e % d for d in range(2, 142)))
    return [2**e - 1 for e in itertools.islice(primes, count)]
