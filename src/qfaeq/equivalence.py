"""Deciding whether two automata accept every word with equal probability.

The decision procedure runs both automata side by side, each on its own
row vector.  With psi1 and psi2 the two initial kets, it starts from the
rows v1 = psi1^dagger and v2 = psi2^dagger, and a word x advances each row
on its own, v_i(x) = psi_i^dagger mubar_i(x), one step v_i -> v_i T_i per
letter, with T_i the automaton's own transition for the last k_i letters
read (padded at the start).  Each row is held as the scaled integer row
``(s, re, im)`` of :mod:`qfaeq.linalg`, the form that
:func:`~qfaeq.qfa.accept_prob` steps, so a letter costs one
:func:`~qfaeq.linalg.row_times_matrix` per automaton.  The rows stand for
the Hermitian blocks rho1(x) = v1(x)^dagger v1(x) and
rho2(x) = -v2(x)^dagger v2(x), and

    P1(x) - P2(x)  =  sum of the accepting diagonal entries of both blocks

so the two automata are equivalent exactly when that sum vanishes for
every word x.

The search works on the real coordinates of the blocks, read off the
entries of the two rows once per word and never formed as matrices: for
each block its diagonal, then the real and imaginary parts of every entry
above the diagonal, n1^2 + n2^2 plain rationals per word.  Complex and
real spans of Hermitian matrices have the same dimension, so this loses
nothing.  Because tr rho1(x) = 1 and tr rho2(x) = -1 for every word, each
row sums to zero on its diagonal coordinates, and a suffix class never
holds more than n1^2 + n2^2 - 1 independent rows.

Because each step depends on x only through the window governing the next
letter, the rows can be explored word by word; collecting a spanning set per
suffix class, the last k-1 letters for k the larger effective width,
visits only polynomially many words (see :func:`decide`), and no row
outside the collected spans can introduce a new violation.  An automaton
whose transitions depend only on its last j letters has effective width j
(:func:`~qfaeq.qfa._width`), whatever width it declares; it still steps on
its declared window, whose matrices repeat the width-j ones.  The search
visits words in length-then-alphabet order and stops at the first word
whose two acceptance probabilities, read off its rows in integers
(:func:`_differ`), differ; that word is the least counterexample.  The
trace identity above is why this test is enough: it makes P1 - P2 linear
in the real row, so a discarded row, a combination of rows that all
passed it, passes it too.  A word is grown, its real row put into its
class's span, only when the word's children's turn comes, just before
they are checked; so a search that stops at a witness does no span work
for a word whose children would come after it.  A class's first row,
its block-1 diagonal summing to 1 by the trace identity, is never in the
empty span, so it is built only when a second word of the class is
grown; an inequivalent verdict counts a class with one grown word as
size 1.  There is one loop: :func:`brute_force` walks the same words with
the same test, but extends every word shorter than a length cap instead of
collecting spans.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

from .linalg import (
    _row_vector,
    row_prob,
    row_times_matrix,
    span_insert,
    start_row,
)
from .qfa import KLetterQFA, _width, _window

__all__ = [
    "Verdict",
    "brute_force",
    "decide",
    "rank_bound",
    "require_shared_alphabet",
    "theorem4_bound",
]


def theorem4_bound(n1: int, n2: int, m: int, k: int) -> int:
    """The paper's Theorem 4 search depth, n^2 m^(k-1) - m^(k-1) + k for
    n = n1 + n2: automata with n1 and n2 states over an m-symbol alphabet
    and window width k that agree on every word of length below this bound
    agree on all words.  It is a sufficient depth, not the least one:
    :func:`rank_bound` is the sharper depth the program runs.
    """
    if n1 < 1 or n2 < 1 or m < 1 or k < 1:
        raise ValueError("state counts, alphabet size, and k must be positive")
    n = n1 + n2
    return (n * n - 1) * m ** (k - 1) + k


def rank_bound(n1: int, n2: int, m: int, k: int) -> int:
    """The longest word :func:`decide` can check, R + k - 1, where
    R = (n1^2 + n2^2 - 1) * m^(k-1) bounds the total rank of its suffix
    classes: a checked word of length L >= k - 1 has L - k + 1 ancestors
    of lengths k - 1 .. L - 1, each inserted and so adding one to that rank.
    Two automata that agree on every word up to this length agree on all
    words, a rank argument in the style of Tzeng (SIAM J. Comput. 1992).
    It never exceeds :func:`theorem4_bound`, and it also holds with k the
    larger effective width, the width the search runs at, which can be
    smaller than the declared one.
    """
    if n1 < 1 or n2 < 1 or m < 1 or k < 1:
        raise ValueError("state counts, alphabet size, and k must be positive")
    return (n1 * n1 + n2 * n2 - 1) * m ** (k - 1) + k - 1


def _search_depth(a1: KLetterQFA, a2: KLetterQFA) -> int:
    """:func:`rank_bound` at the larger effective width, the width that
    :func:`decide` names its classes at; ``qfaeq equiv`` reports it as
    bound_used."""
    k = max(_width(a1), _width(a2))
    return rank_bound(a1.n, a2.n, len(a1.alphabet), k)


class QueueItem(NamedTuple):
    """A word x together with the two rows v1(x) = psi1^dagger mubar1(x)
    and v2(x) = psi2^dagger mubar2(x), each a reduced integer row
    ``(s, re, im)`` standing for (re + i*im)/s, as
    :func:`~qfaeq.linalg.start_row` and
    :func:`~qfaeq.linalg.row_times_matrix` produce them.  It is the node
    of the word walk that :func:`decide` and :func:`brute_force` share,
    one :func:`extend` per word."""

    word: str
    v1: tuple
    v2: tuple


def require_shared_alphabet(a1: KLetterQFA, a2: KLetterQFA) -> None:
    """Raise ValueError, naming both alphabets in order, unless they match."""
    if a1.alphabet != a2.alphabet:
        raise ValueError(
            f"alphabet mismatch: {''.join(a1.alphabet)!r} vs "
            f"{''.join(a2.alphabet)!r}"
        )


def extend(
    a1: KLetterQFA, a2: KLetterQFA, item: QueueItem, sigma: str
) -> QueueItem:
    """Append one letter, advancing each row to v_i T_i for the transition
    of its own automaton at the window ending in that letter: one integer
    :func:`~qfaeq.linalg.row_times_matrix` per row."""
    word = item.word + sigma
    return QueueItem(
        word,
        row_times_matrix(item.v1, a1.transitions[_window(word, a1.k)]),
        row_times_matrix(item.v2, a2.transitions[_window(word, a2.k)]),
    )


def _block_coordinates(v: tuple):
    """The real coordinates of v^dagger v, whose (p, q) entry is
    conj(v_p) v_q: the diagonal |v_p|^2, then the real and imaginary parts
    of each entry above the diagonal in row-major order."""
    yield from (x.abs_sq() for x in v)
    for p, x in enumerate(v):
        x_bar = x.conjugate()
        for y in v[p + 1 :]:
            z = x_bar * y
            yield z.re
            yield z.im


def real_row(item: QueueItem) -> tuple:
    """The row the span search works on: the real coordinates of the blocks
    rho1 = v1^dagger v1 and rho2 = -v2^dagger v2, read off the two rows
    without forming either block, as n1^2 + n2^2 plain Fractions.  Each
    integer row is read as Gaussian rational entries once, here."""
    return (
        *_block_coordinates(_row_vector(item.v1)),
        *(-c for c in _block_coordinates(_row_vector(item.v2))),
    )


@dataclass(frozen=True, slots=True)
class Verdict:
    """Outcome of an equivalence check.

    When ``equivalent`` is false, ``witness`` is the least word, in
    length-then-alphabet order, that the two automata accept with different
    probabilities (for :func:`brute_force`, the least within its length
    cap), and ``p1 != p2`` are those exact probabilities, read off the
    witness's two rows by :func:`~qfaeq.linalg.row_prob`.

    ``nodes_processed`` counts the words checked, the witness included:
    all of them for :func:`brute_force`, and those of length k or more for
    :func:`decide`, k the larger effective width; ``basis_sizes`` maps
    each suffix class, the last k-1 letters, seeded before the search ended
    to its basis size (``None`` for brute force).  A word is grown,
    its row put into its class's basis, when its children's turn comes, so
    an inequivalent verdict's ``basis_sizes`` lists the classes of the
    words grown before the witness, and counts a class with one grown word
    as size 1: its row is independent, and built only if a second word of
    the class is grown.  Neither count takes part in equality, so two
    verdicts are equal when they give the same answer.
    """

    equivalent: bool
    witness: str | None = None
    p1: Fraction | None = None
    p2: Fraction | None = None
    nodes_processed: int = field(default=0, compare=False)
    basis_sizes: dict | None = field(default=None, compare=False)


def _differ(v1: tuple, v2: tuple, acc1: frozenset, acc2: frozenset) -> bool:
    """``row_prob(v1, acc1) != row_prob(v2, acc2)`` without a Fraction: a
    row (s, re, im) accepts with probability N / s^2 for N the sum of
    re^2 + im^2 over its accepting positions, so the two differ exactly
    when N1 * s2^2 != N2 * s1^2."""
    s1, re1, im1 = v1
    s2, re2, im2 = v2
    n1 = sum(re1[q] * re1[q] + im1[q] * im1[q] for q in acc1)
    n2 = sum(re2[q] * re2[q] + im2[q] * im2[q] for q in acc2)
    return n1 * s2 * s2 != n2 * s1 * s1


def _walk(
    a1: KLetterQFA,
    a2: KLetterQFA,
    grow: Callable,
    least: int,
    cap: float = math.inf,
    sizes: Callable = lambda: None,
) -> Verdict:
    """The one loop of :func:`decide` and :func:`brute_force`: check
    words in word order, each made by :func:`extend` from its parent, until
    two acceptance probabilities differ.  The queue holds checked words
    shorter than ``cap``; a word is grown when its children's turn comes:
    ``grow(parent)`` runs as the parent leaves the queue, and only if it
    holds are the children extended and checked, in letter order.  So no
    word whose children would come after the witness is grown.  Each word
    is checked in integers by :func:`_differ`; only the witness's two
    probabilities are made as Fractions, by
    :func:`~qfaeq.linalg.row_prob`.  ``nodes_processed`` counts the
    checked words of length ``least`` or more, and ``basis_sizes`` is
    ``sizes()``, read when the walk ends."""
    require_shared_alphabet(a1, a2)
    symbols = a1.alphabet.symbols
    acc1, acc2 = a1.accepting, a2.accepting
    checked = 0
    queue = deque()
    children = (QueueItem("", start_row(a1.initial), start_row(a2.initial)),)
    while True:
        for item in children:
            checked += len(item.word) >= least
            if _differ(item.v1, item.v2, acc1, acc2):
                p1, p2 = row_prob(item.v1, acc1), row_prob(item.v2, acc2)
                return Verdict(False, item.word, p1, p2, checked, sizes())
            if len(item.word) < cap:
                queue.append(item)
        if not queue:
            return Verdict(True, nodes_processed=checked, basis_sizes=sizes())
        parent = queue.popleft()
        children = (extend(a1, a2, parent, s) for s in symbols) if grow(parent) else ()


def decide(a1: KLetterQFA, a2: KLetterQFA) -> Verdict:
    """Polynomial-time equivalence decision: collect a spanning set of rows
    per suffix class, or stop at the least counterexample.

    Exact throughout; the verdict carries the least witness word and both
    acceptance probabilities whenever the automata differ, and the search
    counts either way.  Each automaton steps on its own declared window;
    the larger effective width k (:func:`~qfaeq.qfa._width`) only names the
    suffix classes, the last k-1 letters, so a lift is searched with the
    classes, rows and counts of the automaton it was lifted from.  The
    search is the word walk it shares with :func:`brute_force`; it extends
    fewer words, and its ``nodes_processed`` counts only those of length k
    or more.  A word shorter than k-1 heads no class and is always
    extended.  From length k-1 on, a word is grown when its children's turn
    comes: it goes into its class, and the word is extended only if its
    real row was independent of the class's basis; a dependent row is
    discarded.  The first word of a class is always extended, its row
    being independent by the trace identity, and that row is built only
    when a second word of the class is grown: it is inserted, then the
    second row is tested, so each basis sees the same rows in the same
    order as if every row were built on growing.  A word whose children
    would come after the witness is never grown.  By the trace identity a
    discarded row's word can differ only if an earlier word of its class
    did, and when no word differs the row of every unextended word lies in
    a span of rows with accepting sum zero, which is why the search decides
    equivalence.

    ``decide`` does not call :func:`~qfaeq.qfa.validate`: it trusts that
    both automata are well formed and within validate's caps of 64 states
    and 4096 contexts.  Automata from :func:`~qfaeq.io.parse_qfa` or
    :func:`~qfaeq.qfa.random_qfa` are; library callers who build a
    :class:`~qfaeq.qfa.KLetterQFA` by hand must validate it first.
    """
    k = max(_width(a1), _width(a2))
    # each class seeded so far: its basis, a dict from pivot column to row
    # as span_insert keeps it, or, while one word of the class has been
    # grown, that word's QueueItem, whose row is not built yet
    classes = {}

    def grow(item: QueueItem) -> bool:
        length = len(item.word)
        if length < k - 1:
            return True
        c = item.word[length - k + 1 :]
        basis = classes.setdefault(c, item)
        if basis is item:
            return True
        if type(basis) is QueueItem:
            first = real_row(basis)
            basis = classes[c] = {}
            span_insert(basis, first)
        return span_insert(basis, real_row(item))

    def sizes() -> dict:
        return {c: 1 if type(b) is QueueItem else len(b) for c, b in classes.items()}

    return _walk(a1, a2, grow, k, sizes=sizes)


def brute_force(
    a1: KLetterQFA, a2: KLetterQFA, max_len: int | None = None
) -> Verdict:
    """Compare acceptance probabilities on every word up to a length cap.

    It runs :func:`decide`'s loop, with the same rows, test and witness,
    but extends every word shorter than the cap.  With the default cap,
    :func:`_search_depth`, the answer is definitive: past that length
    :func:`decide` checks no word.  Enumeration is exponential in the cap
    for alphabets of two or more symbols; this is a cross-check oracle for
    small instances, not the production procedure.  The witness, if any,
    is the least differing word in word order.  A negative cap is a
    ValueError.
    """
    if max_len is None:
        max_len = _search_depth(a1, a2)
    if max_len < 0:
        raise ValueError(f"max_len must be at least 0, got {max_len}")
    return _walk(a1, a2, lambda item: True, 0, max_len)
