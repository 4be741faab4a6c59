"""Exact modeling and equivalence checking of k-letter quantum finite automata.

All arithmetic is carried out over the Gaussian rationals (complex numbers
with rational real and imaginary parts), so every probability, matrix entry
and verdict produced by this package is exact. No floating point enters any
decision path.
"""

from .scalars import GaussianRational
from .linalg import CMatrix, is_unitary
from .qfa import (
    LAMBDA,
    Alphabet,
    KLetterQFA,
    accept_prob,
    always_accept_qfa,
    iter_words,
    last_letter_qfa,
    lift,
    random_qfa,
    random_unitary,
    reachable_contexts,
    validate,
)
from .equivalence import (
    Verdict,
    brute_force,
    decide,
    theorem4_bound,
)
from .io import QfaFormatError, parse_qfa, serialize_qfa

__version__ = "0.1.0"

__all__ = [
    "GaussianRational",
    "CMatrix",
    "is_unitary",
    "LAMBDA",
    "Alphabet",
    "KLetterQFA",
    "accept_prob",
    "always_accept_qfa",
    "iter_words",
    "last_letter_qfa",
    "lift",
    "random_qfa",
    "random_unitary",
    "reachable_contexts",
    "validate",
    "Verdict",
    "brute_force",
    "decide",
    "theorem4_bound",
    "QfaFormatError",
    "parse_qfa",
    "serialize_qfa",
]
