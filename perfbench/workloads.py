"""Inputs, operations and expected answers of the benchmark workloads.

Every input is derived from the workload seed.  A workload is a list of
rounds; one round holds one operation of every shape, so any prefix of the
operation list has nearly the same mix as the whole list.  Expected answers
come from the construction of each pair or from ``brute_force``, never from
``decide``; a pair whose answer cannot be established that way is left out
and listed in the output.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction

import qfaeq.equivalence as equivalence
import qfaeq.io as qio
import qfaeq.qfa as qfa
from qfaeq.linalg import CMatrix
from qfaeq.scalars import GaussianRational

# Shapes are (family, n, m, k, k2); k2 is the lift width of "lift" and "deep"
# pairs.  A `decide` round holds one pair of each shape below.  The shapes
# are chosen for steady figures across seeds as well as for coverage: the
# costliest shapes of a round vary little in cost between seeds and make up
# enough of the operations that the latency tail falls among them, and the
# middle of a round is a cluster of shapes of about the same cost (37 to 45
# ms today, hence the repeated n=2, m=2, k=2 shapes), so that the median does
# not fall into a gap between two tiers.  Shapes with n=4, or n=3 on one
# letter, vary fourfold or more in cost between seeds and are not used.
EQUIVALENT_FAMILIES = ("self", "phase", "perm", "lift")
EQUIV_ROUND = (
    ("lift", 2, 1, 1, 3),
    ("phase", 2, 3, 1, 1),
    ("lift", 2, 2, 1, 2),
    ("self", 2, 2, 2, 2),
    ("perm", 2, 3, 2, 2),
    ("phase", 2, 3, 2, 2),
    ("lift", 2, 2, 2, 3),
    ("perm", 3, 2, 1, 1),
    ("lift", 2, 3, 1, 3),
    ("self", 3, 2, 2, 2),
    ("perm", 3, 2, 2, 2),
)

INEQUIV_ROUND = (
    ("random", 2, 2, 1, 1),
    ("twist", 2, 2, 1, 1),
    ("deep", 2, 1, 1, 6),
    ("random", 2, 3, 1, 1),
    ("twist", 2, 3, 1, 1),
    ("deep", 2, 1, 1, 8),
    ("random", 2, 2, 2, 2),
    ("twist", 2, 2, 2, 2),
    ("random", 2, 2, 2, 2),
    ("twist", 2, 2, 2, 2),
    ("random", 2, 2, 2, 2),
    ("twist", 2, 2, 2, 2),
    ("deep", 2, 2, 1, 3),
    ("twist", 2, 3, 2, 2),
    ("deep", 2, 2, 1, 4),
    ("deep", 2, 2, 1, 5),
    ("random", 3, 2, 1, 1),
    ("twist", 3, 2, 1, 1),
    ("random", 3, 2, 2, 2),
    ("random", 3, 2, 2, 2),
)
DECIDE_ROUND = EQUIV_ROUND + INEQUIV_ROUND

# Document pairs for `equiv --json`: (n, lift width, twisted).
DOC_PAIRS = ((2, 4, False), (2, 5, False), (2, 4, True))
BIG_DOC = (8, "abc", 3)
PROB_WORD_LENGTHS = (16, 32, 48, 64)

# Rounds in the operation list, and rounds in the traced prefix.  One pass
# of a list takes 18 to 36 seconds today.
ROUNDS = {"decide": 8, "docs": 16}
TRACE_ROUNDS = {"decide": 3, "docs": 6}

PHASE = GaussianRational(Fraction(3, 5), Fraction(4, 5))


@dataclass
class Op:
    """One operation: a `decide` call on (a1, a2), or a `cli_main` call on
    ``argv``.

    ``expect`` is what the output must show: for decide and `equiv` the
    verdict (True for equivalent); for `prob` the exact probability; for
    `validate` None.  For `equiv`, a1 and a2 are the automata behind the two
    documents, used to recheck a witness.
    """

    label: str
    round: int
    expect: object
    a1: object = None
    a2: object = None
    argv: tuple = ()


# -- pair constructions ----------------------------------------------------


def _alphabet(m: int):
    return qfa.Alphabet("abc"[:m])


def _scale_initial(a, phase):
    initial = tuple(phase * x for x in a.initial)
    return qfa.KLetterQFA(a.n, a.alphabet, a.k, initial, a.accepting, a.transitions)


def _permute_states(a, order):
    n = a.n
    initial = [None] * n
    for i, x in enumerate(a.initial):
        initial[order[i]] = x
    transitions = {}
    for ctx, mat in a.transitions.items():
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                rows[order[i]][order[j]] = mat[i, j]
        transitions[ctx] = CMatrix(rows)
    accepting = frozenset(order[q] for q in a.accepting)
    return qfa.KLetterQFA(n, a.alphabet, a.k, tuple(initial), accepting, transitions)


def _twist(a, ctx, rng):
    """``a`` with the unitary of one context multiplied by a random one."""
    transitions = dict(a.transitions)
    transitions[ctx] = transitions[ctx] * qfa.random_unitary(a.n, rng)
    return qfa.KLetterQFA(a.n, a.alphabet, a.k, a.initial, a.accepting, transitions)


def _deep_twist(a, width, rng):
    """``lift(a, width)`` with the all-last-letter context twisted; the two
    automata can first differ on that letter repeated ``width`` times."""
    lifted = qfa.lift(a, width)
    return _twist(lifted, a.alphabet.symbols[-1] * width, rng)


def _proper_qfa(n, m, k, seed):
    """``random_qfa`` with some but not all states accepting.  With none or
    all accepting, an automaton accepts every word with the same
    probability, so a twist of it could never show; state 0 alone accepts
    instead."""
    a = qfa.random_qfa(n, _alphabet(m), k, seed)
    if 0 < len(a.accepting) < n:
        return a
    return qfa.KLetterQFA(n, a.alphabet, k, a.initial, frozenset({0}), a.transitions)


def build_pair(family, n, m, k, k2, seed):
    rng = random.Random(seed)
    a = _proper_qfa(n, m, k, rng.randrange(2**31))
    if family == "self":
        return a, a
    if family == "phase":
        return a, _scale_initial(a, PHASE)
    if family == "perm":
        order = list(range(n))
        rng.shuffle(order)
        return a, _permute_states(a, order)
    if family == "lift":
        return a, qfa.lift(a, k2)
    if family == "random":
        return a, qfa.random_qfa(n, _alphabet(m), k, rng.randrange(2**31))
    if family == "twist":
        return a, _twist(a, qfa.reachable_contexts(a.alphabet, k)[-1], rng)
    if family == "deep":
        return a, _deep_twist(a, k2, rng)
    raise ValueError(f"unknown family {family!r}")


def _oracle_depth(family, k2):
    """Longest word `brute_force` checks to establish that a pair differs."""
    return {"random": 2, "twist": 6, "deep": k2 + 3}[family]


# -- setup: generation only, timed as setup_s ------------------------------


def _sub_seeds(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(2**31)


def _generate_pairs(workload, seed, recipe, rounds):
    seeds = _sub_seeds(workload, seed)
    out = []
    for r in range(rounds):
        for shape in recipe:
            family = shape[0]
            label = f"{family} n={shape[1]} m={shape[2]} k={shape[3]}"
            if family in ("lift", "deep"):
                label += f"->{shape[4]}"
            out.append((r, label, family, shape[4], *build_pair(*shape, next(seeds))))
    return out


def _generate_docs(seed, workdir):
    """Write the document files; returns what the oracle needs about them."""
    seeds = _sub_seeds("docs", seed)
    os.makedirs(workdir)
    n, symbols, k = BIG_DOC
    big = qfa.random_qfa(n, qfa.Alphabet(symbols), k, next(seeds))
    big_path = os.path.join(workdir, "big.json")
    qio.save_qfa(big, big_path)
    word_rng = random.Random(next(seeds))
    pairs = []
    for r in range(ROUNDS["docs"]):
        round_pairs = []
        for i, (n, width, twisted) in enumerate(DOC_PAIRS):
            rng = random.Random(next(seeds))
            a = _proper_qfa(n, 2, 1, rng.randrange(2**31))
            b = _deep_twist(a, width, rng) if twisted else qfa.lift(a, width)
            paths = []
            for name, automaton in (("a", a), ("b", b)):
                path = os.path.join(workdir, f"pair{r}_{i}_{name}.json")
                qio.save_qfa(automaton, path)
                paths.append(path)
            label = f"equiv n={n} m=2 k=1 vs lift->{width}" + (" twisted" if twisted else "")
            round_pairs.append((label, a, b, paths, width, twisted))
        words = [
            "".join(word_rng.choice(symbols) for _ in range(length))
            for length in PROB_WORD_LENGTHS
        ]
        pairs.append((round_pairs, words))
    return big, big_path, pairs


def generate(workload, seed, workdir):
    """Build a workload's inputs from the seed.  This is what setup_s times."""
    if workload == "decide":
        return _generate_pairs("decide", seed, DECIDE_ROUND, ROUNDS["decide"])
    if workload == "docs":
        return _generate_docs(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


# -- oracle: expected answers, not timed -----------------------------------


def exact_accept_prob(a, word) -> Fraction:
    """Acceptance probability from the benchmark's own product of the
    transition matrices, in plain (re, im) Fraction pairs."""
    row = [(x.re, -x.im) for x in a.initial]
    for i in range(1, len(word) + 1):
        ctx = "_" * (a.k - i) + word[:i] if i < a.k else word[i - a.k : i]
        mat = a.transitions[ctx].data
        out = []
        for j in range(a.n):
            re = im = Fraction(0)
            for q, (xr, xi) in enumerate(row):
                y = mat[q][j]
                re += xr * y.re - xi * y.im
                im += xr * y.im + xi * y.re
            out.append((re, im))
        row = out
    return sum((row[q][0] ** 2 + row[q][1] ** 2 for q in a.accepting), Fraction(0))


def operations(workload, inputs):
    """The fixed operation list and the pairs left out of it.

    Returns ``(ops, left_out)``; ``left_out`` lists a label per pair whose
    expected answer could not be established without ``decide``.
    """
    ops, left_out = [], []
    if workload == "docs":
        big, big_path, rounds = inputs
        for r, (round_pairs, words) in enumerate(rounds):
            ops.append(Op("validate", r, None, argv=("validate", big_path)))
            for word in words:
                ops.append(
                    Op(f"prob len={len(word)}", r, exact_accept_prob(big, word),
                       argv=("prob", big_path, word))
                )
            for label, a, b, paths, width, twisted in round_pairs:
                if twisted and equivalence.brute_force(a, b, max_len=_oracle_depth("deep", width)).equivalent:
                    left_out.append(label)
                    continue
                ops.append(
                    Op(label, r, not twisted, a, b, argv=("equiv", "--json", *paths))
                )
        return ops, left_out
    for r, label, family, k2, a1, a2 in inputs:
        if family in EQUIVALENT_FAMILIES:
            ops.append(Op(label, r, True, a1, a2))
            continue
        if equivalence.brute_force(a1, a2, max_len=_oracle_depth(family, k2)).equivalent:
            left_out.append(label)
            continue
        ops.append(Op(label, r, False, a1, a2))
    return ops, left_out
