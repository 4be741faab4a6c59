"""Acceptance suite: one test per criterion, one summary line each.

The heavy shared work is a module-scoped grid of seeded automaton pairs; the
oracle-agreement, bound-conformance, resource-bound, and determinism criteria
all read from the same runs.  Summary lines are printed by the terminal
summary hook in conftest so they appear regardless of output capture.
"""

import dataclasses
import hashlib
import importlib.util
import itertools
import math
import random
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from qfaeq.equivalence import (
    Verdict,
    brute_force,
    decide,
    extend,
    real_row,
    theorem4_bound,
)
from qfaeq.linalg import (
    CMatrix,
    _row_vector,
    row_prob,
    row_times_matrix,
    start_row,
)
from qfaeq.qfa import (
    Alphabet,
    KLetterQFA,
    _width,
    accept_prob,
    always_accept_qfa,
    iter_words,
    last_letter_qfa,
    lift,
    random_qfa,
    random_unitary,
    reachable_contexts,
)
from qfaeq.io import serialize_qfa
from qfaeq.scalars import GaussianRational

from eager import eager_search
from reference import (
    accept_positions,
    backward_decide,
    check_certificate,
    conj,
    direct_sum,
    mu_bar,
    narrow_by_peeling,
    norm_sq,
    position_weights,
    row_step,
    scale_initial,
    start_item,
    weighted_sums,
    with_block,
    with_phase_block,
)

PHASE = GaussianRational(Fraction(3, 5), Fraction(4, 5))


@contextmanager
def criterion(report, line):
    try:
        yield
    except BaseException:
        report.append(f"FAIL {line}")
        raise
    report.append(f"PASS {line}")


# Pair constructions.  Everything is derived from explicit integer seeds so
# reruns are reproducible down to the last bit.

def permute_states(a, order):
    n = a.n
    initial = [None] * n
    for i, x in enumerate(a.initial):
        initial[order[i]] = x
    accepting = frozenset(order[q] for q in a.accepting)
    transitions = {}
    for ctx, mat in a.transitions.items():
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                rows[order[i]][order[j]] = mat[i, j]
        transitions[ctx] = CMatrix(rows)
    return KLetterQFA(n, a.alphabet, a.k, tuple(initial), accepting, transitions)


def twist_last_transition(a, seed):
    """Same automaton except one context's unitary gets an extra random
    factor; agrees with the original on the empty word by construction."""
    rng = random.Random(seed)
    ctx = reachable_contexts(a.alphabet, a.k)[-1]
    transitions = dict(a.transitions)
    transitions[ctx] = transitions[ctx] * random_unitary(a.n, rng)
    return KLetterQFA(a.n, a.alphabet, a.k, a.initial, a.accepting, transitions)


def build_pair(n1, n2, m, k1, k2, variant, base):
    alphabet = Alphabet("ab"[:m])
    if variant == "random0":
        return (
            random_qfa(n1, alphabet, k1, base + 1),
            random_qfa(n2, alphabet, k2, base + 2),
        )
    if variant == "random1":
        return (
            random_qfa(n1, alphabet, k1, base + 3),
            random_qfa(n2, alphabet, k2, base + 4),
        )
    if variant == "self":
        a = random_qfa(n1, alphabet, k1, base + 5)
        return (a, a)
    if variant == "phase":
        a = random_qfa(n2, alphabet, k2, base + 6)
        return (a, scale_initial(a, PHASE))
    if variant == "perm":
        a = random_qfa(n1, alphabet, k1, base + 7)
        order = list(range(n1))
        random.Random(base + 8).shuffle(order)
        return (a, permute_states(a, order))
    if variant == "lift":
        lo, hi = min(k1, k2), max(k1, k2)
        a = random_qfa(n1, alphabet, lo, base + 9)
        return (a, lift(a, hi))
    if variant == "twist":
        a = random_qfa(n1, alphabet, k1, base + 10)
        return (a, twist_last_transition(a, base + 11))
    raise ValueError(variant)


EQUIVALENT_BY_CONSTRUCTION = {"self", "phase", "perm", "lift"}


@dataclass
class Run:
    kind: str
    builder: object
    a1: KLetterQFA
    a2: KLetterQFA
    m: int
    verdict: Verdict
    brute: Verdict
    basis_sizes: dict
    total_size: int
    processed: int
    joint_k: int


def execute_pair(kind, builder, a1, a2):
    assert any(real_row(start_item(a1, a2)))
    verdict = decide(a1, a2)
    m = len(a1.alphabet)
    if m == 1:
        cap = None  # the full bound is affordable for unary alphabets
    elif verdict.equivalent or len(verdict.witness) <= 10:
        cap = 10
    else:
        cap = len(verdict.witness)
    brute = brute_force(a1, a2, max_len=cap)
    return Run(
        kind=kind,
        builder=builder,
        a1=a1,
        a2=a2,
        m=m,
        verdict=verdict,
        brute=brute,
        basis_sizes=verdict.basis_sizes,
        total_size=sum(verdict.basis_sizes.values()),
        processed=verdict.nodes_processed,
        joint_k=max(a1.k, a2.k),
    )


@pytest.fixture(scope="module")
def grid_runs():
    cells = [
        (n1, n2, m, k1, k2)
        for n1 in (1, 2, 3)
        for n2 in (1, 2, 3)
        for m in (1, 2)
        for k1, k2 in ((1, 1), (2, 2), (1, 2), (2, 1))
    ]
    start = time.perf_counter()
    runs = []
    for idx, (n1, n2, m, k1, k2) in enumerate(cells):
        base = 1000 * idx
        variants = ["random0", "random1", "self", "phase", "twist"]
        variants.append("perm" if k1 == k2 else "lift")
        for variant in variants:
            builder = partial(build_pair, n1, n2, m, k1, k2, variant, base)
            a1, a2 = builder()
            runs.append(execute_pair(variant, builder, a1, a2))
    elapsed = time.perf_counter() - start
    return runs, elapsed


def run_fingerprint(run):
    return (
        repr(run.verdict),
        repr(run.brute),
        sorted(run.basis_sizes.items()),
        run.total_size,
        run.processed,
        serialize_qfa(run.a1),
        serialize_qfa(run.a2),
    )


def grid_digest(records):
    return hashlib.sha256("".join(map(repr, records)).encode()).hexdigest()


def test_criterion_1_oracle_agreement(grid_runs, acceptance_report):
    runs, elapsed = grid_runs
    with criterion(
        acceptance_report,
        f"criterion 1: decide and brute_force agree on all {len(runs)} "
        f"seeded pairs ({elapsed:.1f}s)",
    ):
        assert len(runs) >= 300
        assert elapsed < 600
        assert {r.a1.n for r in runs} | {r.a2.n for r in runs} == {1, 2, 3}
        assert {r.m for r in runs} == {1, 2}
        k_pairs = {(r.a1.k, r.a2.k) for r in runs}
        assert {(1, 1), (2, 2), (1, 2), (2, 1)} <= k_pairs
        for r in runs:
            # same answer, and on a difference the same least witness with
            # the same probabilities
            assert r.verdict == r.brute, run_fingerprint(r)
            if r.kind in EQUIVALENT_BY_CONSTRUCTION:
                assert r.verdict.equivalent, run_fingerprint(r)
            if r.kind == "twist":
                # same initial vector and accepting set: no difference at
                # the empty word, so any witness has positive length
                if not r.verdict.equivalent:
                    assert len(r.verdict.witness) >= 1
        # pins on the grid: the answers (every verdict, witness and
        # probability), which no change to the search may move; the words
        # checked, and the counts and bases of the equivalent pairs, which
        # only a change to the words visited or to the spans may move; and
        # all the search counts, which a change to the search updates on
        # purpose (the classes grown before a witness)
        verdicts = [r.verdict for r in runs]
        assert grid_digest(
            (v.equivalent, v.witness, v.p1, v.p2) for v in verdicts
        ) == "f6ff32b7ed61d5b5ed8248dcbb6b08256e35f59fc8748186216b5bba18966944"
        assert grid_digest(
            v.nodes_processed for v in verdicts
        ) == "2442e6404866046c3eb57ca717f95dffad76f0307d267d82a613f5b500942e20"
        assert grid_digest(
            (v.nodes_processed, sorted(v.basis_sizes.items()))
            for v in verdicts
            if v.equivalent
        ) == "20994abc0efc5e2a60f1a6377e24c914f6f17e517020501b0f04bb948233b556"
        assert grid_digest(
            (v.nodes_processed, sorted(v.basis_sizes.items())) for v in verdicts
        ) == "58439b958e63127c0debe336d5b94982a825edce1ea1c35dda22bbed931e6163"
        # decide builds the eager search's bases, first rows of one-word
        # classes aside; spot-check the pieces
        for r in runs[::24]:
            v, bases, _ = eager_search(r.a1, r.a2)
            assert v.witness == r.verdict.witness
            assert {w: len(b) for w, b in bases.items()} == r.basis_sizes


def test_criterion_2_bilinear_identity(acceptance_report):
    shapes = [
        (1, 1, 1, 1, 1),
        (2, 1, 2, 1, 1),
        (2, 2, 2, 2, 2),
        (3, 2, 2, 1, 2),
        (2, 3, 2, 2, 1),
        (3, 3, 1, 2, 2),
        (1, 3, 2, 2, 2),
        (2, 2, 1, 1, 3),
    ]
    samples = 0
    with criterion(
        acceptance_report,
        "criterion 2: trace identity tr(P_acc rho(x)) = P1(x) - P2(x) "
        "exact on 1000 (pair, word) samples",
    ):
        for i in range(25):
            n1, n2, m, k1, k2 = shapes[i % len(shapes)]
            alphabet = Alphabet("ab"[:m])
            a1 = random_qfa(n1, alphabet, k1, seed=20000 + 17 * i)
            a2 = random_qfa(n2, alphabet, k2, seed=20001 + 17 * i)
            positions = accept_positions(a1, a2)
            words = random.Random(30000 + i)
            for _ in range(40):
                word = "".join(
                    words.choice(alphabet.symbols)
                    for _ in range(words.randrange(0, 9))
                )
                item = start_item(a1, a2)
                for s in word:
                    item = extend(a1, a2, item, s)
                row = real_row(item)
                lhs = sum((row[p] for p in positions), Fraction(0))
                rhs = accept_prob(a1, word) - accept_prob(a2, word)
                assert type(lhs) is Fraction
                assert lhs == rhs
                samples += 1
        assert samples == 1000


def test_criterion_3_bound_conformance(grid_runs, acceptance_report):
    runs, _ = grid_runs
    with criterion(
        acceptance_report,
        "criterion 3: all witnesses within Theorem 4's bound and the "
        "rank bound; spot values 32, 16, 18",
    ):
        assert theorem4_bound(2, 2, 2, 2) == 32
        assert theorem4_bound(2, 2, 1, 1) == 16
        assert theorem4_bound(2, 2, 1, 3) == 18
        witnesses = 0
        for r in runs:
            bound = theorem4_bound(r.a1.n, r.a2.n, r.m, r.joint_k)
            # the search's own bound: rank R over all classes, plus the
            # k - 1 letters a word has before it is first checked
            k = r.joint_k
            rank = (r.a1.n**2 + r.a2.n**2 - 1) * r.m ** (k - 1)
            for v in (r.verdict, r.brute):
                if not v.equivalent:
                    assert len(v.witness) <= bound
                    assert len(v.witness) <= rank + k - 1
                    witnesses += 1
        assert witnesses > 0


def test_criterion_4_resource_bounds(grid_runs, acceptance_report):
    runs, _ = grid_runs
    reached = narrowed = unary = 0
    with criterion(
        acceptance_report,
        "criterion 4: per-class rank n1^2 + n2^2 - 1, total, and queue "
        "bounds hold on every criterion-1 search, and the unary total "
        "rank n1^2 + n2^2 - n1 - n2 + 1 on the unary ones",
    ):
        for r in runs:
            # real coordinates of two Hermitian blocks whose diagonals sum
            # to 0: a class spans at most n1^2 + n2^2 - 1 dimensions
            d = r.a1.n**2 + r.a2.n**2 - 1
            # the width the pair was built at: decide searches a lift at
            # the width of the automaton it was lifted from
            m = r.m
            k = min(r.a1.k, r.a2.k) if r.kind == "lift" else r.joint_k
            assert all(s <= d for s in r.basis_sizes.values())
            assert r.total_size <= d * m ** (k - 1)
            assert r.processed <= m**k * d
            if m == 1:
                # the sharper unary bound R1 = n1^2 + n2^2 - n1 - n2 + 1:
                # Phi = Phi1 (+) Phi2 is diagonalizable with eigenvalues
                # conj(lambda_p) * lambda_q, each Phi_i has at most
                # n_i^2 - n_i + 1 distinct ones, and the eigenvalue 1 is
                # shared, so the one class's Krylov space has at most R1
                # dimensions (test_unary_rank_bound has the full argument)
                n1, n2 = r.a1.n, r.a2.n
                assert r.total_size <= n1 * n1 + n2 * n2 - n1 - n2 + 1
                unary += 1
            if r.verdict.equivalent:
                # only a full search seeds every class
                assert len(r.basis_sizes) == m ** (k - 1)
                reached += d in r.basis_sizes.values()
                narrowed += k < r.joint_k
        assert reached > 0
        assert narrowed > 0
        assert unary > 0


def test_criterion_5_worked_example(acceptance_report):
    with criterion(
        acceptance_report,
        "criterion 5: last-letter automaton checked on all 127 words up to "
        "length 6; witness '' with (0, 1) against always-accept",
    ):
        a = last_letter_qfa()
        checked = 0
        for word in iter_words(Alphabet("ab"), 6):
            expected = 1 if word.endswith("b") else 0
            assert accept_prob(a, word) == expected
            checked += 1
        assert checked == 127
        v = decide(a, always_accept_qfa(Alphabet("ab")))
        assert not v.equivalent
        assert v.witness == ""
        assert (v.p1, v.p2) == (Fraction(0), Fraction(1))


def assert_reduced_ints(scale, entries):
    """A scale and the integer entries over it: plain ints, never bool or
    float (in Python, int / int is a float), a positive scale, and no
    common factor."""
    entries = list(entries)
    assert type(scale) is int and scale > 0, scale
    assert all(type(x) is int for x in entries), entries
    assert math.gcd(scale, *entries) == 1


def assert_float_free(obj, seen=None):
    if seen is None:
        seen = set()
    if id(obj) in seen:
        return
    seen.add(id(obj))
    assert not isinstance(obj, (float, complex)), f"inexact value {obj!r}"
    if isinstance(obj, (int, str, bool, type(None), Fraction)):
        return
    if isinstance(obj, GaussianRational):
        assert type(obj.re) is Fraction and type(obj.im) is Fraction
        return
    if isinstance(obj, Alphabet):
        return
    if isinstance(obj, (tuple, list, set, frozenset)):
        for x in obj:
            assert_float_free(x, seen)
        return
    if isinstance(obj, dict):
        for key, value in obj.items():
            assert_float_free(key, seen)
            assert_float_free(value, seen)
        return
    if isinstance(obj, CMatrix):
        assert_float_free(obj.data, seen)
        assert_reduced_ints(obj.den, itertools.chain(*obj.re, *obj.im))
        return
    if dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            assert_float_free(getattr(obj, field.name), seen)
        return
    raise AssertionError(f"unexpected type in verdict path: {type(obj)!r}")


def test_criterion_6_exactness_and_determinism(grid_runs, acceptance_report):
    runs, _ = grid_runs
    with criterion(
        acceptance_report,
        "criterion 6: reruns are bit-identical and verdict paths are "
        "float-free",
    ):
        # repeat a stratified slice of criterion 1 from the seeds up
        for r in runs[::31]:
            a1, a2 = r.builder()
            again = execute_pair(r.kind, r.builder, a1, a2)
            assert run_fingerprint(again) == run_fingerprint(r)
        # repeat a slice of criterion 2 comparing numerators/denominators
        alphabet = Alphabet("ab")
        a1 = random_qfa(2, alphabet, 2, seed=20000)
        a2 = random_qfa(2, alphabet, 2, seed=20001)
        probs = []
        for _ in range(2):
            words = random.Random(77)
            got = []
            for _ in range(50):
                word = "".join(
                    words.choice(alphabet.symbols)
                    for _ in range(words.randrange(0, 9))
                )
                p = accept_prob(a1, word) - accept_prob(a2, word)
                got.append((p.numerator, p.denominator))
            probs.append(got)
        assert probs[0] == probs[1]
        # nothing in any verdict object, search node or search state is a
        # float
        sample = runs[::37]
        for r in sample:
            assert_float_free(r.verdict)
            assert_float_free(r.brute)
            assert_float_free(r.a1)
            assert_float_free(r.a2)
        start = start_item(sample[0].a1, sample[0].a2)
        assert_float_free(start)
        assert_float_free(eager_search(sample[0].a1, sample[0].a2))
        # search nodes hold reduced scaled ints, and the rows read off them
        # and the bases hold plain Fractions only
        for r in sample:
            for word in iter_words(r.a1.alphabet, 3):
                item = start_item(r.a1, r.a2)
                for s in word:
                    item = extend(r.a1, r.a2, item, s)
                for row in (item.v1, item.v2):
                    assert_reduced_ints(row[0], row[1] + row[2])
                assert all(type(x) is Fraction for x in real_row(item))
        for r in sample:
            for basis in eager_search(r.a1, r.a2)[1].values():
                for row in basis.values():
                    assert all(type(x) is Fraction for x in row)
        # matrices and the integer rows of accept_prob and brute_force are
        # reduced scaled ints
        for r in sample:
            for a in (r.a1, r.a2):
                row = start_row(a.initial)
                assert_reduced_ints(row[0], row[1] + row[2])
                for m in a.transitions.values():
                    assert_reduced_ints(m.den, itertools.chain(*m.re, *m.im))
                    row = row_times_matrix(row, m)
                    assert_reduced_ints(row[0], row[1] + row[2])


def test_criterion_7_unitarity_and_lift(acceptance_report):
    shapes = [
        (n, m, k) for n in (1, 2, 3) for m in (1, 2) for k in (1, 2)
    ]
    with criterion(
        acceptance_report,
        "criterion 7: exact norm preservation on 100 automata; lift agrees "
        "on all words up to length 4, and its inverse up to length 6",
    ):
        for i in range(100):
            n, m, k = shapes[i % len(shapes)]
            alphabet = Alphabet("ab"[:m])
            a = random_qfa(n, alphabet, k, seed=40000 + i)
            words = random.Random(50000 + i)
            for _ in range(10):
                word = "".join(
                    words.choice(alphabet.symbols)
                    for _ in range(words.randrange(0, 9))
                )
                ket = conj(a.initial)
                row = row_times_matrix(start_row(a.initial), mu_bar(a, word))
                assert row_prob(row, range(n)) == 1
                assert norm_sq(row_step(ket, mu_bar(a, word))) == 1
                assert _row_vector(row) == row_step(ket, mu_bar(a, word))
            wider = lift(a, k + 1)
            for word in iter_words(alphabet, 4):
                assert accept_prob(wider, word) == accept_prob(a, word)
            # the automaton of the lift's effective width that lifts to it
            narrowed = narrow_by_peeling(wider)
            assert _width(wider) == narrowed.k <= k
            assert lift(narrowed, k + 1) == wider
            for word in iter_words(alphabet, 6):
                assert accept_prob(narrowed, word) == accept_prob(wider, word)


def first_difference(a1, a2, depth):
    """The least length up to depth at which the two automata's weighted
    sums differ, under the same weights, or None."""
    weights = position_weights(a1.alphabet, depth)
    sums = zip(weighted_sums(a1, weights), weighted_sums(a2, weights))
    return next((n for n, (x, y) in enumerate(sums) if x != y), None)


def test_criterion_8_weighted_sum_oracle(grid_runs, acceptance_report):
    # A second oracle, independent of both the search and brute_force, that
    # reaches the search's depth bound where enumeration cannot: sampled
    # two-letter grid pairs, every equivalent grid construction and the
    # twist family among them, and three pairs that are not conjugations.
    runs, _ = grid_runs
    pairs = [(r.kind, r.a1, r.a2, r.verdict) for r in runs if r.m == 2][::11]
    for n, k in ((3, 1), (4, 1), (3, 2)):
        a = random_qfa(n - 1, Alphabet("ab"), k, 7)
        b1, b2 = with_phase_block(a, 0), with_phase_block(a, 1)
        pairs.append(("phase block", b1, b2, decide(b1, b2)))
    kinds = set()
    with criterion(
        acceptance_report,
        f"criterion 8: weighted sums agree to length R + k - 1 on the "
        f"equivalent verdicts, and first differ at the witness length on "
        f"the others, on {len(pairs)} two-letter pairs",
    ):
        for kind, a1, a2, v in pairs:
            if v.equivalent:
                k = max(a1.k, a2.k)
                rank = (a1.n**2 + a2.n**2 - 1) * 2 ** (k - 1)
                assert first_difference(a1, a2, rank + k - 1) is None, kind
            else:
                depth = len(v.witness)
                assert first_difference(a1, a2, depth) == depth, kind
            kinds.add((kind, v.equivalent))
        assert kinds >= {
            (kind, True) for kind in EQUIVALENT_BY_CONSTRUCTION | {"phase block"}
        }
        assert {("twist", False), ("random0", False)} <= kinds


def pad_states(a, extra, seed):
    """a with extra unreachable states: each transition T becomes T (+) U
    for a random unitary U, the initial vector gets zeros, and the first
    padded state accepts."""
    rng = random.Random(seed)
    blocks = {ctx: random_unitary(extra, rng) for ctx in sorted(a.transitions)}
    initial = (*a.initial, *(0,) * extra)
    return direct_sum(a, blocks, initial, a.accepting | {a.n})


RENAME = str.maketrans("ab", "xy")


def rename_letters(a):
    """a over the alphabet xy in place of ab, same order; the blank stays."""
    return KLetterQFA(
        a.n,
        Alphabet("xy"[: len(a.alphabet)]),
        a.k,
        a.initial,
        a.accepting,
        {ctx.translate(RENAME): m for ctx, m in a.transitions.items()},
    )


def test_criterion_9_metamorphic_families(grid_runs, acceptance_report):
    runs, _ = grid_runs
    sample = runs[::5]
    with criterion(
        acceptance_report,
        f"criterion 9: verdicts unchanged by unreachable states and by "
        f"renaming the alphabet, on {len(sample)} grid pairs",
    ):
        for i, r in enumerate(sample):
            v = r.verdict
            padded = decide(
                pad_states(r.a1, 1 + i % 2, 70000 + i),
                pad_states(r.a2, 1, 80000 + i),
            )
            assert padded == v, run_fingerprint(r)
            witness = None if v.witness is None else v.witness.translate(RENAME)
            renamed = decide(rename_letters(r.a1), rename_letters(r.a2))
            assert renamed == dataclasses.replace(v, witness=witness)
        assert {r.verdict.equivalent for r in sample} == {True, False}


def accept_first(a):
    """a with state 0 alone accepting, so that no transition is hidden
    from the acceptance probabilities by an accepting set of all states
    or none."""
    return KLetterQFA(a.n, a.alphabet, a.k, a.initial, {0}, a.transitions)


def random_block(a, d, seed):
    """:func:`with_block` of a and a random d x d unitary per context:
    accepted with probability 9/25 P_a + 16/25 on every word."""
    rng = random.Random(seed)
    return with_block(a, {ctx: random_unitary(d, rng) for ctx in sorted(a.transitions)})


@pytest.fixture(scope="module")
def block_runs():
    """(kind, b1, b2, verdict) for a grid of direct sums of random unitary
    blocks of sizes 1 and 2, 2 and 2, or 2 and 3 over one and two letters
    at widths 1 and 2: equivalent pairs that are not conjugations."""
    # sizes 2 and 3 at width 2 are left out: about a second per pair
    blocks = [
        (symbols, k, d1, d2)
        for symbols in ("ab", "a")
        for k in (1, 2)
        for d1, d2 in ((1, 2), (2, 2), (2, 3))
        if k == 1 or d2 < 3
    ]
    runs = []
    for i, (symbols, k, d1, d2) in enumerate(blocks):
        a = accept_first(random_qfa(2, Alphabet(symbols), k, 91000 + i))
        b1 = random_block(a, d1, 91100 + i)
        b2 = random_block(a, d2, 91200 + i)
        runs.append(("block", b1, b2, decide(b1, b2)))
    return runs


@pytest.fixture(scope="module")
def bench_runs(tmp_path_factory):
    """(label, a1, a2, verdict) for round 0 of the benchmark's `decide`
    operations at seed 1, one pair of each shape, built by
    perfbench/workloads.py, which is loaded from its file and left
    unchanged."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as monkeypatch:
        # its dataclasses look their module up while the file executes
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        ops, _ = workloads.operations(
            "decide", workloads.generate("decide", 1, tmp_path_factory.mktemp("bench"))
        )
    return [
        (f"benchmark {op.label}", op.a1, op.a2, decide(op.a1, op.a2))
        for op in ops
        if op.round == 0
    ]


def test_criterion_10_backward_oracle(
    grid_runs, block_runs, bench_runs, acceptance_report
):
    # An exact decider that shares no code with the search, extend,
    # row_prob or span_insert: it spans observables from the accepting
    # side and returns the least witness length, so a fault in the word
    # walk that decide and brute_force share moves only one side.  Pairs:
    # every grid pair, width-w lifts twisted at the context of w last
    # letters (witnesses of length w or more), and direct sums equivalent
    # without being conjugations: criterion 8's phase-block pairs, and the
    # block grid.  Then one round of the benchmark's own `decide`
    # operations, one pair of each shape.
    runs, _ = grid_runs
    pairs = [(r.kind, r.a1, r.a2, r.verdict) for r in runs]
    alphabet = Alphabet("ab")
    for i, width in enumerate((3, 3, 4, 4)):
        a = accept_first(random_qfa(2, alphabet, 1, 90000 + i))
        b = twist_last_transition(lift(a, width), 90100 + i)
        pairs.append((f"deep twist {width}", a, b, decide(a, b)))
    for n, k in ((3, 1), (4, 1), (3, 2)):
        a = random_qfa(n - 1, alphabet, k, 7)
        b1, b2 = with_phase_block(a, 0), with_phase_block(a, 1)
        pairs.append(("phase block", b1, b2, decide(b1, b2)))
    pairs += block_runs
    deep = 0
    with criterion(
        acceptance_report,
        f"criterion 10: the backward span oracle agrees with decide on the "
        f"verdict and witness length on {len(pairs)} pairs and "
        f"{len(bench_runs)} benchmark decide operations",
    ):
        assert {v.equivalent for _, _, _, v in bench_runs} == {True, False}
        for kind, a1, a2, v in pairs + bench_runs:
            length = None if v.equivalent else len(v.witness)
            assert backward_decide(a1, a2) == length, (kind, v)
            if kind.startswith("deep twist") and length is not None:
                assert length >= a2.k, (kind, v)
                deep += 1
            if kind.endswith("block"):
                assert v.equivalent, v
        assert deep > 0
        assert {v.equivalent for _, _, _, v in pairs} == {True, False}


def test_criterion_11_certificate(
    grid_runs, block_runs, bench_runs, acceptance_report
):
    # Every equivalent verdict of the grid, the block grid and round 0 of
    # the benchmark's decide operations, proved: the eager search's bases,
    # which decide builds but does not return, pass check_certificate,
    # which shares no code with the search.  decide's counts are the eager
    # ones.  Two mutants must fail: each certificate with the last row of
    # its largest class dropped, and a certificate against a twist: (a, a)'s
    # bases against each grid twist pair (a, twist of a) that differs, and
    # each grid lift pair's bases against its lift twisted at the last
    # context, which must fail the width check.
    runs, _ = grid_runs
    pairs = [(r.kind, r.a1, r.a2, r.verdict) for r in runs]
    pairs += block_runs + bench_runs
    equivalent = [(kind, a1, a2, v) for kind, a1, a2, v in pairs if v.equivalent]
    twists = [r for r in runs if r.kind == "twist" and not r.verdict.equivalent]
    lifts = []
    with criterion(
        acceptance_report,
        f"criterion 11: the eager bases certify all {len(equivalent)} "
        f"equivalent verdicts with decide's counts; each certificate less "
        f"one row fails, and (a, a)'s fails against a twist of a on "
        f"{len(twists)} differing twists and the lift pairs",
    ):
        for kind, a1, a2, v in equivalent:
            eager, bases, k = eager_search(a1, a2)
            assert v.basis_sizes == {c: len(b) for c, b in bases.items()}, kind
            assert v.nodes_processed == eager.nodes_processed, kind
            assert check_certificate(a1, a2, k, bases) is None, kind
            largest = max(bases, key=lambda c: len(bases[c]))
            fewer = {**bases, largest: dict(list(bases[largest].items())[:-1])}
            assert check_certificate(a1, a2, k, fewer) is not None, kind
            if kind == "lift":
                twisted = twist_last_transition(a2, 110000 + len(lifts))
                if twisted != a2:
                    lifts.append(check_certificate(a1, twisted, k, bases))
        for r in twists:
            _, bases, k = eager_search(r.a1, r.a1)
            assert check_certificate(r.a1, r.a2, k, bases) is not None
        assert twists and lifts
        assert all(str(line).startswith("width") for line in lifts), lifts
