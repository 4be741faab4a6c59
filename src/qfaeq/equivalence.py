"""Deciding whether two automata accept every word with equal probability.

The decision procedure runs both automata side by side on density
matrices.  With psi1 and psi2 the two initial kets, it starts from the
blocks rho1 = psi1 psi1^dagger and rho2 = -psi2 psi2^dagger, and a word x
advances each block on its own, rho_i(x) = mubar_i(x)^dagger rho_i
mubar_i(x), one step rho_i -> T_i^dagger rho_i T_i per letter over the
automaton's lifted transition T_i.  Then

    P1(x) - P2(x)  =  sum of the accepting diagonal entries of both blocks

and the two automata are equivalent exactly when that sum vanishes for
every word x.

Both blocks are Hermitian, so the search works on their real coordinates:
for each block its diagonal, then the real and imaginary parts of every
entry above the diagonal, n1^2 + n2^2 plain rationals per word.  Complex
and real spans of Hermitian matrices have the same dimension, so this loses
nothing.  Because tr rho1(x) = 1 and tr rho2(x) = -1 for every word, each
row sums to zero on its diagonal coordinates, and a suffix class never
holds more than n1^2 + n2^2 - 1 independent rows.

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

from .linalg import CMatrix, Vector, conj_vector, norm_sq, row_times_matrix, span_insert
from .qfa import (
    Alphabet,
    KLetterQFA,
    _context_at,
    accept_prob,
    lift,
    reachable_contexts,
)
from .scalars import ZERO

__all__ = [
    "Verdict",
    "brute_force",
    "decide",
    "require_shared_alphabet",
    "theorem4_bound",
]


def theorem4_bound(n1: int, n2: int, m: int, k: int) -> int:
    """Smallest guaranteed search depth: automata with n1 and n2 states over
    an m-symbol alphabet and window width k that agree on every word of
    length below this bound agree on all words.
    """
    if n1 < 1 or n2 < 1 or m < 1 or k < 1:
        raise ValueError("state counts, alphabet size, and k must be positive")
    return ((n1 + n2) ** 2 - 1) * m ** (k - 1) + k


class QueueItem(NamedTuple):
    """A word x together with the two blocks rho1(x) and rho2(x)."""

    word: str
    rho1: CMatrix
    rho2: CMatrix


@dataclass(frozen=True)
class JointAutomaton:
    """Both automata run side by side on their own density-matrix blocks.

    ``transitions`` maps every context of the common window width to the
    lifted unitaries of both automata with their daggers, ``(T1^dagger, T1,
    T2^dagger, T2)``.  ``start`` is the empty word with the blocks psi1
    psi1^dagger and -psi2 psi2^dagger.  ``accept_positions`` index the
    accepting diagonal entries of both blocks in a :func:`real_row`, so
    summing a row over them gives P1 - P2 for its word.
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


def _outer(u: Vector, v: Vector) -> CMatrix:
    """The matrix u v^dagger of two kets."""
    return CMatrix([[x * y.conjugate() for y in v] for x in u])


def join(a1: KLetterQFA, a2: KLetterQFA) -> JointAutomaton:
    """Combine two automata over the same alphabet, lifting the narrower
    window to the wider one first."""
    require_shared_alphabet(a1, a2)
    k = max(a1.k, a2.k)
    l1 = lift(a1, k)
    l2 = lift(a2, k)
    transitions = {}
    for ctx in reachable_contexts(a1.alphabet, k):
        t1, t2 = l1.transitions[ctx], l2.transitions[ctx]
        transitions[ctx] = (t1.dagger(), t1, t2.dagger(), t2)
    start = QueueItem(
        "",
        _outer(a1.initial, a1.initial),
        _outer(tuple(-x for x in a2.initial), a2.initial),
    )
    offset = a1.n * a1.n
    positions = sorted([*a1.accepting, *(offset + q for q in a2.accepting)])
    return JointAutomaton(
        k=k,
        alphabet=a1.alphabet,
        transitions=transitions,
        start=start,
        accept_positions=tuple(positions),
    )


def _congruence(t_dag: CMatrix, rho: CMatrix, t: CMatrix) -> CMatrix:
    """T^dagger rho T for a Hermitian rho.  The result is Hermitian too, so
    only the entries on and above the diagonal are summed; the ones below
    are their conjugates."""
    columns = list(zip(*(rho * t).data))
    n = len(columns)
    out = [[None] * n for _ in range(n)]
    for p, t_row in enumerate(t_dag.data):
        for q in range(p, n):
            acc = ZERO
            for x, y in zip(t_row, columns[q]):
                if x and y:
                    acc = acc + x * y
            out[q][p] = acc.conjugate()
            out[p][q] = acc
    return CMatrix(out)


def extend(j: JointAutomaton, item: QueueItem, sigma: str) -> QueueItem:
    """Append one letter, advancing each block to T_i^dagger rho_i T_i for
    the transitions of the matching context."""
    word = item.word + sigma
    t1_dag, t1, t2_dag, t2 = j.transitions[_context_at(j.k, word, len(word))]
    return QueueItem(
        word, _congruence(t1_dag, item.rho1, t1), _congruence(t2_dag, item.rho2, t2)
    )


def real_row(item: QueueItem) -> tuple:
    """The row the span search works on: for each Hermitian block its
    diagonal, then the real and imaginary parts of each entry above the
    diagonal in row-major order, as n1^2 + n2^2 plain Fractions."""
    row = []
    for block in (item.rho1, item.rho2):
        data = block.data
        row.extend(data[p][p].re for p in range(len(data)))
        for p, line in enumerate(data):
            for z in line[p + 1 :]:
                row.append(z.re)
                row.append(z.im)
    return tuple(row)


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

    ``nodes_processed`` counts the search nodes dequeued by :func:`decide`
    or the words compared by :func:`brute_force`; ``basis_sizes`` maps each
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
