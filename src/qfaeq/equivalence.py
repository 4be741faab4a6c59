"""Deciding whether two automata accept every word with equal probability.

The decision procedure runs both automata side by side, each on its own
row vector.  With psi1 and psi2 the two initial kets, it starts from the
rows v1 = psi1^dagger and v2 = psi2^dagger, and a word x advances each row
on its own, v_i(x) = psi_i^dagger mubar_i(x), one step v_i -> v_i T_i per
letter over the automaton's lifted transition T_i.  The rows stand for the
Hermitian blocks rho1(x) = v1(x)^dagger v1(x) and rho2(x) = -v2(x)^dagger
v2(x), and

    P1(x) - P2(x)  =  sum of the accepting diagonal entries of both blocks

so the two automata are equivalent exactly when that sum vanishes for
every word x.

The search works on the real coordinates of the blocks, read off the two
rows and never formed as matrices: for each block its diagonal, then the
real and imaginary parts of every entry above the diagonal, n1^2 + n2^2
plain rationals per word.  Complex and real spans of Hermitian matrices
have the same dimension, so this loses nothing.  Because tr rho1(x) = 1 and
tr rho2(x) = -1 for every word, each row sums to zero on its diagonal
coordinates, and a suffix class never holds more than n1^2 + n2^2 - 1
independent rows.

Because each step depends on x only through the window governing the next
letter, the rows can be explored word by word; collecting a spanning set per
length-(k-1) suffix class visits only polynomially many words (see
:func:`basis_search`), and no row outside the collected spans can introduce
a new violation.  The search visits words in length-then-alphabet order and
stops at the first row with a nonzero accepting sum, which names the least
counterexample.  :func:`brute_force` is an independent oracle that compares
acceptance probabilities word by word instead.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .linalg import Vector, conj_vector, norm_sq, row_times_matrix, span_insert
from .qfa import (
    Alphabet,
    KLetterQFA,
    _context_at,
    accept_prob,
    lift,
    reachable_contexts,
)

__all__ = [
    "Verdict",
    "brute_force",
    "decide",
    "require_shared_alphabet",
    "theorem4_bound",
]


def theorem4_bound(n1: int, n2: int, m: int, k: int) -> int:
    """The paper's Theorem 4 search depth: automata with n1 and n2 states
    over an m-symbol alphabet and window width k that agree on every word
    of length below this bound agree on all words.  It is a sufficient
    depth, not the least one: the suffix-class rank bound of
    :func:`basis_search` gives the smaller (n1^2 + n2^2 - 1) * m^(k-1) + k.
    """
    if n1 < 1 or n2 < 1 or m < 1 or k < 1:
        raise ValueError("state counts, alphabet size, and k must be positive")
    return ((n1 + n2) ** 2 - 1) * m ** (k - 1) + k


class QueueItem(NamedTuple):
    """A word x together with the two rows v1(x) = psi1^dagger mubar1(x)
    and v2(x) = psi2^dagger mubar2(x)."""

    word: str
    v1: Vector
    v2: Vector


@dataclass(frozen=True)
class JointAutomaton:
    """Both automata run side by side, each on its own row vector.

    ``transitions`` maps every context of the common window width to the
    lifted unitaries of both automata, ``(T1, T2)``.  ``start`` is the empty
    word with the rows psi1^dagger and psi2^dagger.  ``accept_positions``
    index the accepting diagonal entries of both blocks in a
    :func:`real_row`, so summing a row over them gives P1 - P2 for its word.
    """

    k: int
    alphabet: Alphabet
    transitions: dict
    start: QueueItem
    accept_positions: tuple


def require_shared_alphabet(a1: KLetterQFA, a2: KLetterQFA) -> None:
    """Raise ValueError, naming both alphabets in order, unless they match."""
    if a1.alphabet != a2.alphabet:
        raise ValueError(
            f"alphabet mismatch: {''.join(a1.alphabet)!r} vs "
            f"{''.join(a2.alphabet)!r}"
        )


def join(a1: KLetterQFA, a2: KLetterQFA) -> JointAutomaton:
    """Combine two automata over the same alphabet, lifting the narrower
    window to the wider one first."""
    require_shared_alphabet(a1, a2)
    k = max(a1.k, a2.k)
    l1 = lift(a1, k)
    l2 = lift(a2, k)
    transitions = {
        ctx: (l1.transitions[ctx], l2.transitions[ctx])
        for ctx in reachable_contexts(a1.alphabet, k)
    }
    start = QueueItem("", conj_vector(a1.initial), conj_vector(a2.initial))
    offset = a1.n * a1.n
    positions = sorted([*a1.accepting, *(offset + q for q in a2.accepting)])
    return JointAutomaton(
        k=k,
        alphabet=a1.alphabet,
        transitions=transitions,
        start=start,
        accept_positions=tuple(positions),
    )


def extend(j: JointAutomaton, item: QueueItem, sigma: str) -> QueueItem:
    """Append one letter, advancing each row to v_i T_i for the transitions
    of the matching context."""
    word = item.word + sigma
    t1, t2 = j.transitions[_context_at(j.k, word, len(word))]
    return QueueItem(
        word, row_times_matrix(item.v1, t1), row_times_matrix(item.v2, t2)
    )


def _block_coordinates(v: Vector):
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
    without forming either block, as n1^2 + n2^2 plain Fractions."""
    return (
        *_block_coordinates(item.v1),
        *(-c for c in _block_coordinates(item.v2)),
    )


@dataclass
class SuffixBasisMap:
    """Everything :func:`basis_search` found.

    ``bases`` maps each length-(k-1) suffix class seeded so far to its fully
    reduced basis, a dict from pivot column to row (see
    :func:`~qfaeq.linalg.span_insert`).  ``witness`` is the word the search
    stopped at, the least one whose row has a nonzero accepting sum, or None
    after a full search.  ``processed`` counts the search nodes past the
    seeds: the words of length k or more whose rows were checked.
    """

    bases: dict = field(default_factory=dict)
    witness: str | None = None
    processed: int = 0

    def basis_sizes(self) -> dict:
        return {w: len(b) for w, b in self.bases.items()}


def basis_search(j: JointAutomaton) -> SuffixBasisMap:
    """Collect a spanning set of rows per suffix class, or stop at the least
    counterexample.

    Every row is checked first: the first one, in word order, whose
    accepting sum is nonzero ends the search with its word as the witness.
    Words shorter than k-1 cannot head a class and are only checked.  Each
    word of length k-1 seeds its own class's basis with its row.  From
    length k on, words are taken in word order from a FIFO queue of inserted
    words, one letter extension at a time; a word whose row is independent
    of its class basis is inserted and queued, a dependent row is discarded.
    A discarded row is a combination of earlier rows of its class, so it
    cannot be the first with a nonzero sum, and when no row differs every
    row of every unqueued word is a combination of same-class rows with sum
    zero, which is why the search decides equivalence.
    """
    k = j.k
    symbols = j.alphabet.symbols
    positions = j.accept_positions
    sbm = SuffixBasisMap()
    level = [j.start]
    for length in range(k):
        if length:
            level = [extend(j, it, s) for it in level for s in symbols]
        for it in level:
            row = real_row(it)
            if sum(row[p] for p in positions):
                sbm.witness = it.word
                return sbm
            if length == k - 1:
                sbm.bases[it.word] = basis = {}
                span_insert(basis, row)
    queue = deque(level)
    while queue:
        parent = queue.popleft()
        for s in symbols:
            item = extend(j, parent, s)
            sbm.processed += 1
            row = real_row(item)
            if sum(row[p] for p in positions):
                sbm.witness = item.word
                return sbm
            if span_insert(sbm.bases[item.word[len(item.word) - k + 1 :]], row):
                queue.append(item)
    return sbm


@dataclass(frozen=True)
class Verdict:
    """Outcome of an equivalence check.

    When ``equivalent`` is false, ``witness`` is the least word, in
    length-then-alphabet order, that the two automata accept with different
    probabilities (for :func:`brute_force`, the least within its length
    cap), and ``p1 != p2`` are those exact probabilities.

    ``nodes_processed`` counts the rows :func:`decide` checked past the
    seeds, one per letter for every word it took off its queue, or the
    words compared by :func:`brute_force`; ``basis_sizes`` maps each
    suffix class seeded before the search ended to its basis size (``None``
    for brute force).  Neither takes part in equality, so two verdicts are
    equal when they give the same answer.
    """

    equivalent: bool
    witness: str | None = None
    p1: Fraction | None = None
    p2: Fraction | None = None
    nodes_processed: int = field(default=0, compare=False)
    basis_sizes: dict | None = field(default=None, compare=False)


def decide(a1: KLetterQFA, a2: KLetterQFA) -> Verdict:
    """Polynomial-time equivalence decision via the suffix-class search.

    Exact throughout; the verdict carries the least witness word and both
    acceptance probabilities whenever the automata differ, and the search
    counts either way.
    """
    sbm = basis_search(join(a1, a2))
    counts = {"nodes_processed": sbm.processed, "basis_sizes": sbm.basis_sizes()}
    word = sbm.witness
    if word is None:
        return Verdict(equivalent=True, **counts)
    return Verdict(False, word, accept_prob(a1, word), accept_prob(a2, word), **counts)


def brute_force(
    a1: KLetterQFA, a2: KLetterQFA, max_len: int | None = None
) -> Verdict:
    """Compare acceptance probabilities on every word up to a length cap.

    With the default cap :func:`theorem4_bound` the answer is definitive,
    but enumeration is exponential in the cap for alphabets of two or more
    symbols; this is a cross-check oracle for small instances, not the
    production procedure.  The witness, if any, is the least differing word
    in word order.  A negative cap is a ValueError.
    """
    require_shared_alphabet(a1, a2)
    symbols = a1.alphabet.symbols
    if max_len is None:
        max_len = theorem4_bound(a1.n, a2.n, len(symbols), max(a1.k, a2.k))
    if max_len < 0:
        raise ValueError(f"max_len must be at least 0, got {max_len}")
    checked = 1
    p1 = accept_prob(a1, "")
    p2 = accept_prob(a2, "")
    if p1 != p2:
        return Verdict(False, "", p1, p2, nodes_processed=checked)
    level = [("", conj_vector(a1.initial), conj_vector(a2.initial))]
    for length in range(1, max_len + 1):
        nxt = []
        for word, v1, v2 in level:
            for s in symbols:
                w = word + s
                u1 = row_times_matrix(
                    v1, a1.transitions[_context_at(a1.k, w, length)]
                )
                u2 = row_times_matrix(
                    v2, a2.transitions[_context_at(a2.k, w, length)]
                )
                checked += 1
                p1 = norm_sq(u1[q] for q in a1.accepting)
                p2 = norm_sq(u2[q] for q in a2.accepting)
                if p1 != p2:
                    return Verdict(False, w, p1, p2, nodes_processed=checked)
                nxt.append((w, u1, u2))
        level = nxt
    return Verdict(True, nodes_processed=checked)
