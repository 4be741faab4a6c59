"""Reference computations the tests check the package against.

They form each product the plain way, entry by entry in GaussianRationals,
and never call the package's integer kernel (``CMatrix.__mul__``,
``row_times_matrix``, ``is_unitary``), so a bug in that kernel cannot hide
in both sides of a comparison.
"""

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
