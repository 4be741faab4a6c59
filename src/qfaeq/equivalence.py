"""Deciding whether two automata accept every word with equal probability.

The decision procedure works on a single joined automaton whose state is a
density-matrix difference.  With psi1 and psi2 the two initial kets it
starts as the block-diagonal rho = psi1 psi1^dagger (+) -psi2 psi2^dagger,
and a word x advances it to rho(x) = mubar(x)^dagger rho mubar(x), one step
rho -> T^dagger rho T per letter over the joined transitions T.  Then

    P1(x) - P2(x)  =  sum of rho(x)_qq over accepting states q

and the two automata are equivalent exactly when that sum vanishes for
every word x.

Because each step depends on x only through the window governing the next
letter, the flattened matrices rho(x) can be explored word by word;
collecting a spanning set per length-(k-1) suffix class visits only
polynomially many words (see :func:`basis_search`), and no row outside the
collected spans can introduce a new violation.  :func:`brute_force` is an
independent oracle that compares acceptance probabilities word by word
instead.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .linalg import (
    CMatrix,
    EchelonBasis,
    Vector,
    direct_sum,
    norm_sq,
    row_times_matrix,
    span_insert,
    vector_is_zero,
)
from .qfa import (
    Alphabet,
    KLetterQFA,
    _context_at,
    accept_prob,
    initial_bra,
    lift,
    reachable_contexts,
)
from .scalars import ZERO, GaussianRational

__all__ = [
    "JointAutomaton",
    "QueueItem",
    "SuffixBasisMap",
    "Verdict",
    "basis_search",
    "brute_force",
    "decide",
    "extend",
    "join",
    "require_shared_alphabet",
    "theorem4_bound",
    "verdict_from_search",
]


def theorem4_bound(n1: int, n2: int, m: int, k: int) -> int:
    """Smallest guaranteed search depth: automata with n1 and n2 states over
    an m-symbol alphabet and window width k that agree on every word of
    length below this bound agree on all words.
    """
    if n1 < 1 or n2 < 1 or m < 1 or k < 1:
        raise ValueError("state counts, alphabet size, and k must be positive")
    return ((n1 + n2) ** 2 - 1) * m ** (k - 1) + k


@dataclass(frozen=True)
class JointAutomaton:
    """Both automata run side by side on one density-matrix difference.

    ``transitions`` holds the block-diagonal unitaries of the lifted pair;
    ``rho`` is the starting n x n matrix psi1 psi1^dagger (+) -psi2
    psi2^dagger.  ``accept_positions`` are the diagonal positions q*(n+1)
    of the accepting states in the row-major flattening of a matrix, so
    summing a flattened rho(x) over them gives P1 - P2 for the word x.
    """

    n1: int
    n2: int
    n: int
    k: int
    alphabet: Alphabet
    transitions: dict
    rho: CMatrix
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
    n1, n2 = a1.n, a2.n
    n = n1 + n2
    transitions = {
        ctx: direct_sum(l1.transitions[ctx], l2.transitions[ctx])
        for ctx in reachable_contexts(a1.alphabet, k)
    }
    rho = direct_sum(
        _outer(a1.initial, a1.initial),
        _outer(tuple(-x for x in a2.initial), a2.initial),
    )
    position_set = {q * (n + 1) for q in a1.accepting}
    position_set.update((n1 + q) * (n + 1) for q in a2.accepting)
    return JointAutomaton(
        n1=n1,
        n2=n2,
        n=n,
        k=k,
        alphabet=a1.alphabet,
        transitions=transitions,
        rho=rho,
        accept_positions=tuple(sorted(position_set)),
    )


class QueueItem(NamedTuple):
    """A word x together with its joint matrix rho(x)."""

    word: str
    rho: CMatrix


def extend(j: JointAutomaton, item: QueueItem, sigma: str) -> QueueItem:
    """Append one letter, advancing rho to T^dagger rho T for the matching
    joined transition T."""
    if sigma not in j.alphabet:
        raise ValueError(f"letter {sigma!r} not in alphabet")
    word = item.word + sigma
    t = j.transitions[_context_at(j.k, word, len(word))]
    return QueueItem(word, t.dagger() * item.rho * t)


def _flatten(m: CMatrix) -> Vector:
    """Row-major entries of a matrix, as the row the span search works on."""
    return tuple(itertools.chain.from_iterable(m.data))


@dataclass
class SuffixBasisMap:
    """Everything :func:`basis_search` records.

    A row is a flattened joint matrix rho(x).  ``bases`` maps each
    length-(k-1) suffix class to the echelon basis of rows collected for it.
    ``short_records`` holds the rows of all words shorter than k-1 (checked
    directly, they belong to no class) and ``member_records`` the raw row of
    every word that entered some basis; both lists are in word order, so the
    first entry with a nonzero accepting diagonal is the least witness.  ``processed`` counts dequeued
    search nodes.
    """

    bases: dict
    short_records: list = field(default_factory=list)
    member_records: list = field(default_factory=list)
    processed: int = 0

    def basis_sizes(self) -> dict:
        return {w: len(b) for w, b in self.bases.items()}

    def total_size(self) -> int:
        return sum(len(b) for b in self.bases.values())

    def records(self):
        """All recorded (word, row) pairs in word order."""
        return itertools.chain(self.short_records, self.member_records)


def basis_search(j: JointAutomaton) -> SuffixBasisMap:
    """Collect a spanning set of flattened joint matrices per suffix class.

    Words shorter than k-1 cannot head a class and are only recorded.  Each
    word of length k-1 seeds its own class's basis with its row.  From
    length k on, words are taken from a FIFO queue in word order; a word
    whose row is independent of its class basis is inserted and its one
    letter extensions are enqueued, a dependent row is discarded.  Every row
    of every unqueued word is a combination of same-class member rows, which
    is why the records alone decide equivalence.
    """
    k = j.k
    symbols = j.alphabet.symbols
    dim = j.n * j.n
    sbm = SuffixBasisMap(bases={})
    level = [QueueItem("", j.rho)]
    for _ in range(k - 1):
        sbm.short_records.extend((it.word, _flatten(it.rho)) for it in level)
        level = [extend(j, it, s) for it in level for s in symbols]
    for it in level:
        basis = EchelonBasis(dim)
        row = _flatten(it.rho)
        if not vector_is_zero(row):
            _, basis = span_insert(basis, row, it.word)
            sbm.member_records.append((it.word, row))
        sbm.bases[it.word] = basis
    queue = deque(extend(j, it, s) for it in level for s in symbols)
    while queue:
        item = queue.popleft()
        sbm.processed += 1
        cls = item.word[len(item.word) - k + 1 :]
        row = _flatten(item.rho)
        inserted, updated = span_insert(sbm.bases[cls], row, item.word)
        if inserted:
            sbm.bases[cls] = updated
            sbm.member_records.append((item.word, row))
            for s in symbols:
                queue.append(extend(j, item, s))
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
    suffix class to its basis size (``None`` for brute force).  Neither
    takes part in equality, so two verdicts are equal when they give the
    same answer.
    """

    equivalent: bool
    witness: str | None = None
    p1: Fraction | None = None
    p2: Fraction | None = None
    nodes_processed: int = field(default=0, compare=False)
    basis_sizes: dict | None = field(default=None, compare=False)


def _row_difference(vec: Vector, positions: tuple) -> GaussianRational:
    total = ZERO
    for p in positions:
        x = vec[p]
        if x:
            total = total + x
    return total


def verdict_from_search(
    j: JointAutomaton, sbm: SuffixBasisMap, a1: KLetterQFA, a2: KLetterQFA
) -> Verdict:
    """Read the verdict off a finished search.

    The raw recorded rows are checked, not the echelon rows: elimination
    mixes later words into earlier basis rows, so only an unreduced row
    ties a nonzero contraction to its own word.
    """
    counts = {"nodes_processed": sbm.processed, "basis_sizes": sbm.basis_sizes()}
    for word, vec in sbm.records():
        if _row_difference(vec, j.accept_positions):
            return Verdict(
                equivalent=False,
                witness=word,
                p1=accept_prob(a1, word),
                p2=accept_prob(a2, word),
                **counts,
            )
    return Verdict(equivalent=True, **counts)


def decide(a1: KLetterQFA, a2: KLetterQFA) -> Verdict:
    """Polynomial-time equivalence decision via the suffix-class search.

    Exact throughout; the verdict carries a concrete witness word and both
    acceptance probabilities whenever the automata differ, and the search
    counts either way.
    """
    j = join(a1, a2)
    return verdict_from_search(j, basis_search(j), a1, a2)


def brute_force(
    a1: KLetterQFA, a2: KLetterQFA, max_len: int | None = None
) -> Verdict:
    """Compare acceptance probabilities on every word up to a length cap.

    With the default cap :func:`theorem4_bound` the answer is definitive,
    but enumeration is exponential in the cap for alphabets of two or more
    symbols; this is a cross-check oracle for small instances, not the
    production procedure.  The witness, if any, is the least differing word
    in word order.
    """
    require_shared_alphabet(a1, a2)
    symbols = a1.alphabet.symbols
    if max_len is None:
        max_len = theorem4_bound(a1.n, a2.n, len(symbols), max(a1.k, a2.k))
    checked = 1
    p1 = accept_prob(a1, "")
    p2 = accept_prob(a2, "")
    if p1 != p2:
        return Verdict(False, "", p1, p2, nodes_processed=checked)
    level = [("", initial_bra(a1), initial_bra(a2))]
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
