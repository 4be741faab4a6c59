"""Reference computations the tests check the package against.

They form each product the plain way, so a bug in the package's stepped
evaluation cannot hide in both sides of a comparison.
"""

from qfaeq.linalg import CMatrix
from qfaeq.qfa import KLetterQFA, _check_word, _context_at


def mu_bar(a: KLetterQFA, word: str) -> CMatrix:
    """Product of the per-position transition unitaries; identity for the
    empty word."""
    _check_word(a, word)
    m = CMatrix.identity(a.n)
    for i in range(1, len(word) + 1):
        m = m * a.transitions[_context_at(a.k, word, i)]
    return m
