"""The k-letter quantum finite automaton model.

An automaton reads its input through a sliding window of width k.  While
fewer than k letters have been consumed the window is padded on the left with
the blank symbol ``_``, so the transition applied at position i of word x is
indexed by the context

    ``_`` * (k - i) + x[:i]          when i < k,
    x[i-k:i]                         otherwise.

Contexts that can actually occur are therefore the blank-padded proper
prefixes plus every window of k real letters; transition tables are keyed by
exactly that set.  A run multiplies the conjugated initial row vector on the
right by one unitary per position, v -> vT, and the acceptance probability
is the squared norm of the accepting coordinates of the resulting row.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator

from .linalg import (
    CMatrix,
    is_unitary,
    row_prob,
    row_times_matrix,
    start_row,
    vector,
)
from .scalars import ONE, ZERO, format_rational

__all__ = [
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
]

LAMBDA = "_"


class Alphabet:
    """An ordered finite alphabet of single-character symbols.

    The declaration order is significant: it induces the word order used by
    the equivalence search and by witness minimality, where words compare
    first by length and then position by position using this symbol order.
    """

    __slots__ = ("symbols", "_members")

    def __init__(self, symbols: Iterable[str]):
        syms = tuple(symbols)
        if not syms:
            raise ValueError("alphabet must be nonempty")
        seen = set()
        for s in syms:
            if not isinstance(s, str) or len(s) != 1:
                raise ValueError(f"alphabet symbol {s!r} is not a single character")
            if s == LAMBDA:
                raise ValueError(f"{LAMBDA!r} is reserved for blank padding")
            if s in seen:
                raise ValueError(f"duplicate alphabet symbol {s!r}")
            seen.add(s)
        self.symbols = syms
        self._members = frozenset(syms)

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol: object) -> bool:
        return symbol in self._members

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self.symbols)!r})"


def reachable_contexts(alphabet: Alphabet, k: int) -> list[str]:
    """Every window a run can step on: the last k letters of the word read
    so far, ending with the letter being read, padded on the left with
    LAMBDA while the word is shorter than k.

    Ordered by number of real letters, then lexicographically; the list has
    m + m**2 + ... + m**k entries for an m-symbol alphabet.
    """
    if k < 1:
        raise ValueError("window width k must be at least 1")
    return list(_iter_contexts(alphabet, k))


def _iter_contexts(alphabet: Alphabet, k: int) -> Iterator[str]:
    """The contexts of :func:`reachable_contexts`, in order, one at a time."""
    for j in range(1, k + 1):
        pad = LAMBDA * (k - j)
        for letters in itertools.product(alphabet.symbols, repeat=j):
            yield pad + "".join(letters)


# Caps on the automata that the generator builds, lift and validate accept,
# and parse_qfa reads, so that an oversized request or document fails at
# once instead of running without bound.
_MAX_STATES = 64
_MAX_CONTEXTS = 4096


def _length_past_cap(m: int, cap: int, limit: int, count: int = 0) -> int | None:
    """The least L <= limit with count + m + m**2 + ... + m**L > cap, or
    None.  The sum grows one power at a time and stops at the cap, so a
    huge limit never forms m**limit."""
    power = 1
    for length in range(1, limit + 1):
        power *= m
        count += power
        if count > cap:
            return length
    return None


def _context_excess(alphabet: Alphabet, k: int) -> str | None:
    """The problem with a window of width k over alphabet if it has more
    than _MAX_CONTEXTS contexts, else None."""
    m = len(alphabet)
    if _length_past_cap(m, _MAX_CONTEXTS, k) is None:
        return None
    return (
        f"alphabet size {m} and window width {k} give more than "
        f"{_MAX_CONTEXTS} contexts (the cap)"
    )


def _context_at(k: int, word: str, i: int) -> str:
    if i < k:
        return LAMBDA * (k - i) + word[:i]
    return word[i - k : i]


@dataclass(frozen=True)
class KLetterQFA:
    """A measure-once quantum automaton reading k letters at a time.

    Fields:
        n: number of basis states.
        alphabet: input alphabet (order matters, see :class:`Alphabet`).
        k: window width; k = 1 is the ordinary one-letter model.
        initial: unit-norm initial superposition as a length-n ket tuple.
        accepting: indices of accepting basis states.
        transitions: context string -> n x n unitary, one entry per
            reachable context.

    Construction normalizes the container fields but performs no semantic
    checking; call :func:`validate` for that.
    """

    n: int
    alphabet: Alphabet
    k: int
    initial: tuple
    accepting: frozenset
    transitions: dict

    def __post_init__(self):
        object.__setattr__(self, "initial", vector(self.initial))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        object.__setattr__(self, "transitions", dict(self.transitions))


def _context_shape_ok(ctx: str, alphabet: Alphabet, k: int) -> bool:
    if len(ctx) != k:
        return False
    body = ctx.lstrip(LAMBDA)
    if not body:
        return False
    return all(s in alphabet for s in body)


def validate(a: KLetterQFA) -> list[str]:
    """Return a list of human-readable problems; empty means well formed.

    More than 64 states, or a window with more than 4096 contexts, is
    reported as one problem, and the transitions are then not checked."""
    problems = []
    if a.k < 1:
        problems.append(f"window width k={a.k} must be at least 1")
    if a.n < 1:
        problems.append(f"state count n={a.n} must be at least 1")
    if len(a.initial) != a.n:
        problems.append(
            f"initial vector has dimension {len(a.initial)}, expected {a.n}"
        )
    else:
        norm = row_prob(start_row(a.initial), range(a.n))
        if norm != 1:
            problems.append(
                f"initial vector has squared norm {format_rational(norm)}, "
                "expected 1"
            )
    # bool is an int subclass, but its document value true fails parse_qfa.
    bad = [q for q in a.accepting if not isinstance(q, int) or isinstance(q, bool)]
    for q in sorted(bad, key=repr):
        problems.append(f"accepting state {q!r} is not an integer")
    for q in sorted(a.accepting.difference(bad)):
        if not 0 <= q < a.n:
            problems.append(f"accepting state {q!r} out of range 0..{a.n - 1}")
    if a.n > _MAX_STATES:
        problems.append(f"state count n={a.n} exceeds the cap of {_MAX_STATES}")
    if a.k < 1 or not 1 <= a.n <= _MAX_STATES:
        return problems
    excess = _context_excess(a.alphabet, a.k)
    if excess:
        problems.append(excess)
        return problems
    expected = reachable_contexts(a.alphabet, a.k)
    for ctx in expected:
        m = a.transitions.get(ctx)
        if m is None:
            problems.append(f"missing context {ctx!r}")
        elif not isinstance(m, CMatrix) or m.nrows != a.n or m.ncols != a.n:
            problems.append(f"transition for context {ctx!r} is not {a.n}x{a.n}")
        elif not is_unitary(m):
            problems.append(f"transition for context {ctx!r} is not unitary")
    known = set(expected)
    for ctx in a.transitions:
        if ctx in known:
            continue
        if isinstance(ctx, str) and _context_shape_ok(ctx, a.alphabet, a.k):
            problems.append(f"unexpected context {ctx!r}")
        else:
            problems.append(f"malformed context {ctx!r}")
    return problems


def _check_word(a: KLetterQFA, word: str) -> None:
    for pos, s in enumerate(word):
        if s not in a.alphabet:
            raise ValueError(f"letter {s!r} at position {pos} not in alphabet")


def accept_prob(a: KLetterQFA, word: str) -> Fraction:
    """Exact probability that the automaton accepts the word.

    Equals the squared norm of the accepting coordinates of the conjugated
    initial vector times the product of the word's transition unitaries;
    computed by stepping the integer row once per letter.
    """
    _check_word(a, word)
    row = start_row(a.initial)
    for i in range(1, len(word) + 1):
        row = row_times_matrix(row, a.transitions[_context_at(a.k, word, i)])
    return row_prob(row, a.accepting)


def lift(a: KLetterQFA, new_k: int) -> KLetterQFA:
    """Re-express the automaton with a wider window, same behavior.

    Every width-new_k context acts via the transition for its last k
    characters; the trailing slice of a padded context is exactly the padded
    context the original automaton would see at the same position, so
    acceptance probabilities are preserved for every word.  A width with
    more than 4096 contexts is a ValueError.  :func:`_width` finds the least
    width an automaton is a lift from.
    """
    if new_k < a.k:
        raise ValueError(f"cannot lift k={a.k} down to k={new_k}")
    if new_k == a.k:
        return a
    excess = _context_excess(a.alphabet, new_k)
    if excess:
        raise ValueError(excess)
    transitions = {
        ctx: a.transitions[ctx[-a.k :]]
        for ctx in reachable_contexts(a.alphabet, new_k)
    }
    return KLetterQFA(a.n, a.alphabet, new_k, a.initial, a.accepting, transitions)


def _width(a: KLetterQFA) -> int:
    """The effective width of a: the least j such that a is the lift of a
    width-j automaton, or a.k when a context is missing.

    Width j fits when every two contexts, padded ones included, that end in
    the same j characters have the same matrix (by value).  The parent of a
    context with i real letters, ``body = ctx.lstrip(LAMBDA)``, is
    ``body[1:].rjust(a.k, LAMBDA)``, and j fits exactly when every context
    with more than j real letters has its parent's matrix.  Proof: following
    parents down from a context reaches the one with j real letters, its
    padded last j characters; and a context with i > j real letters shares
    its last i - 1 >= j characters with its parent.  So one pass that reads
    each context once finds the least width: the largest i at which some
    context differs from its parent, or 1.
    """
    width = 1
    for ctx in _iter_contexts(a.alphabet, a.k):
        m = a.transitions.get(ctx)
        if m is None:
            return a.k
        body = ctx.lstrip(LAMBDA)
        if len(body) > width and a.transitions[body[1:].rjust(a.k, LAMBDA)] != m:
            width = len(body)
    return width


# Unit-modulus building blocks for exactly unitary random matrices.  Scaled
# Pythagorean pairs give rotation entries whose squares sum to one.
_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29), (9, 40, 41))
_UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _random_phase(rng: random.Random) -> tuple[int, int, int]:
    """A unit-modulus phase (re + i*im)/den as the ints (re, im, den)."""
    if rng.random() < 0.5:
        return (*rng.choice(_UNITS), 1)
    a, b, c = rng.choice(_TRIPLES)
    if rng.random() < 0.5:
        a, b = b, a
    re = a if rng.random() < 0.5 else -a
    im = b if rng.random() < 0.5 else -b
    return re, im, c


def random_unitary(n: int, rng: random.Random) -> CMatrix:
    """An exactly unitary n x n matrix, 1 <= n <= 64: starting from the
    identity, 2n + 2 rotation, phase and signed-permutation factors drawn
    from rng are applied to its columns in place.

    Column j is kept as (s, re, im), the vector (re + i*im)/s over its own
    scale, so every factor acts on integers.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if n > _MAX_STATES:
        raise ValueError(f"dimension {n} exceeds the cap of {_MAX_STATES}")
    cols = [(1, [int(i == j) for i in range(n)], [0] * n) for j in range(n)]
    for _ in range(2 * n + 2):
        kind = rng.randrange(3)
        if kind == 0 and n >= 2:
            p, q = sorted(rng.sample(range(n), 2))
            a, b, c = rng.choice(_TRIPLES)
            if rng.random() < 0.5:
                a, b = b, a
            b = b if rng.random() < 0.5 else -b
            # col_p <- (a col_p + b col_q)/c and col_q <- (a col_q - b col_p)/c,
            # both brought to the scale lcm(s_p, s_q) first
            (sp, pr, pi), (sq, qr, qi) = cols[p], cols[q]
            s = lcm(sp, sq)
            fp, fq = s // sp, s // sq
            ap, bq, aq, bp = a * fp, b * fq, a * fq, b * fp
            cols[p] = (
                s * c,
                [ap * x + bq * y for x, y in zip(pr, qr)],
                [ap * x + bq * y for x, y in zip(pi, qi)],
            )
            cols[q] = (
                s * c,
                [aq * y - bp * x for x, y in zip(pr, qr)],
                [aq * y - bp * x for x, y in zip(pi, qi)],
            )
        elif kind == 1:
            perm = list(range(n))
            rng.shuffle(perm)
            moved = [None] * n
            for i, j in enumerate(perm):
                s, re, im = col = cols[i]
                moved[j] = col if rng.random() < 0.5 else (
                    s, [-x for x in re], [-y for y in im]
                )
            cols = moved
        else:
            for i in range(n):
                a, b, c = _random_phase(rng)
                s, re, im = cols[i]
                cols[i] = (
                    s * c,
                    [a * x - b * y for x, y in zip(re, im)],
                    [a * y + b * x for x, y in zip(re, im)],
                )
    den = lcm(*(s for s, _, _ in cols))
    re = tuple(zip(*([x * (den // s) for x in r] for s, r, _ in cols)))
    im = tuple(zip(*([y * (den // s) for y in i] for s, _, i in cols)))
    return CMatrix._from_ints(den, re, im)


def random_qfa(n: int, alphabet: Alphabet, k: int, seed: int) -> KLetterQFA:
    """A reproducible random automaton; equal seeds give equal automata.

    Transitions are independent random unitaries, the initial vector is the
    first column of one more random unitary (hence exactly unit norm), and
    each state is accepting with probability one half.  A request for more
    than 4096 contexts (m + m**2 + ... + m**k) or 64 states is a ValueError.
    """
    excess = _context_excess(alphabet, k)
    if excess:
        raise ValueError(excess)
    rng = random.Random(seed)
    transitions = {
        ctx: random_unitary(n, rng) for ctx in reachable_contexts(alphabet, k)
    }
    initial = random_unitary(n, rng).column(0)
    accepting = frozenset(q for q in range(n) if rng.random() < 0.5)
    return KLetterQFA(n, alphabet, k, initial, accepting, transitions)


def last_letter_qfa() -> KLetterQFA:
    """A two-state width-2 automaton over {a, b} accepting exactly the words
    that end in b, with probability one.

    State 0 tracks "last letter was a" (also the start), state 1 "last letter
    was b".  A window whose two letters agree leaves the state alone; a
    window whose letters differ swaps the two states.  Since state i is
    reached exactly when the last letter read was the i-th symbol, the
    automaton is deterministic despite the unitary dynamics.
    """
    alphabet = Alphabet("ab")
    eye = CMatrix.identity(2)
    swap = CMatrix([[ZERO, ONE], [ONE, ZERO]])
    transitions = {
        "_a": eye,
        "_b": swap,
        "aa": eye,
        "ab": swap,
        "ba": swap,
        "bb": eye,
    }
    return KLetterQFA(
        n=2,
        alphabet=alphabet,
        k=2,
        initial=(ONE, ZERO),
        accepting=frozenset({1}),
        transitions=transitions,
    )


def always_accept_qfa(alphabet: Alphabet) -> KLetterQFA:
    """The one-state width-1 automaton accepting every word with
    probability one."""
    transitions = {s: CMatrix.identity(1) for s in alphabet}
    return KLetterQFA(
        n=1,
        alphabet=alphabet,
        k=1,
        initial=(ONE,),
        accepting=frozenset({0}),
        transitions=transitions,
    )


def iter_words(alphabet: Alphabet, max_len: int) -> Iterator[str]:
    """All words of length 0..max_len in length-then-lexicographic order."""
    for length in range(max_len + 1):
        for letters in itertools.product(alphabet.symbols, repeat=length):
            yield "".join(letters)
