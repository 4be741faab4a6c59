"""The eager search: decide's walk with every grown word's row built and
inserted as the word is grown, returning the bases that decide builds but
does not return.

It runs the package's own ``_walk``, ``real_row`` and ``span_insert``, so
it is not independent of the search and stays out of ``reference.py``.
Tests read its bases, and ``reference.check_certificate`` checks them.
"""

import qfaeq.equivalence
from qfaeq.linalg import span_insert
from qfaeq.qfa import _width


def class_of(word, k):
    return word[len(word) - k + 1 :]


def eager_search(a1, a2):
    """The search with every grown word's row built and inserted as the
    word is grown: the reference for when a class's first row is built."""
    k = max(_width(a1), _width(a2))
    bases = {}

    def grow(item):
        length = len(item.word)
        return length < k - 1 or span_insert(
            bases.setdefault(class_of(item.word, k), {}),
            qfaeq.equivalence.real_row(item),
        )

    return qfaeq.equivalence._walk(a1, a2, grow, k), bases, k
