import dataclasses
import hashlib
import itertools
import random
from fractions import Fraction

import pytest

import qfaeq.qfa
from qfaeq.io import parse_qfa, serialize_qfa
from qfaeq.linalg import CMatrix, is_unitary
from qfaeq.qfa import (
    Alphabet,
    KLetterQFA,
    _context_shape_ok,
    _width,
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
from qfaeq.scalars import IMAG, ONE, ZERO

from reference import (
    conj,
    mu_bar,
    narrow_by_peeling,
    norm_sq,
    rotation_qfa,
    row_step,
)


def test_alphabet_rules():
    ab = Alphabet("ab")
    assert list(ab) == ["a", "b"]
    assert "a" in ab and "c" not in ab
    assert Alphabet("ab") == Alphabet(["a", "b"])
    assert Alphabet("ab") != Alphabet("ba")
    with pytest.raises(ValueError):
        Alphabet("")
    with pytest.raises(ValueError):
        Alphabet(["aa"])
    with pytest.raises(ValueError):
        Alphabet("aba")
    with pytest.raises(ValueError):
        Alphabet("a_")


def test_reachable_contexts_binary_k2():
    assert reachable_contexts(Alphabet("ab"), 2) == [
        "_a",
        "_b",
        "aa",
        "ab",
        "ba",
        "bb",
    ]


def test_reachable_contexts_counts():
    for m, k in [(1, 1), (1, 3), (2, 2), (3, 2), (2, 3)]:
        alphabet = Alphabet("abc"[:m])
        expected = sum(m**j for j in range(1, k + 1))
        assert len(reachable_contexts(alphabet, k)) == expected
    with pytest.raises(ValueError):
        reachable_contexts(Alphabet("a"), 0)


def test_mu_bar_applies_padded_windows():
    a = random_qfa(2, Alphabet("ab"), 2, seed=5)
    t = a.transitions
    assert mu_bar(a, "abb") == t["_a"] * t["ab"] * t["bb"]
    b = random_qfa(2, Alphabet("ab"), 3, seed=6)
    t = b.transitions
    assert mu_bar(b, "ab") == t["__a"] * t["_ab"]
    with pytest.raises(ValueError):
        mu_bar(a, "xz")


def test_mu_bar_empty_word_is_identity():
    a = rotation_qfa()
    assert mu_bar(a, "") == CMatrix.identity(2)


def test_mu_bar_rotation_squared_by_hand():
    # R^2 = [[-7/25, -24/25], [24/25, -7/25]]
    a = rotation_qfa()
    assert mu_bar(a, "aa") == CMatrix(
        [
            [Fraction(-7, 25), Fraction(-24, 25)],
            [Fraction(24, 25), Fraction(-7, 25)],
        ]
    )


def test_mu_bar_one_step_recurrence():
    a = random_qfa(2, Alphabet("ab"), 2, seed=5)
    for word, ctx in [("a", "_a"), ("ab", "ab"), ("abb", "bb"), ("baba", "ba")]:
        assert mu_bar(a, word) == mu_bar(a, word[:-1]) * a.transitions[ctx]


def test_accept_prob_rotation_values():
    a = rotation_qfa()
    assert accept_prob(a, "") == 1
    assert accept_prob(a, "a") == Fraction(9, 25)
    assert accept_prob(a, "aa") == Fraction(49, 625)


def test_accept_prob_identity_automaton_always_one():
    a = always_accept_qfa(Alphabet("a"))
    for word in ["", "a", "aaaa"]:
        assert accept_prob(a, word) == 1


def test_accept_prob_rejects_foreign_letters():
    with pytest.raises(ValueError):
        accept_prob(rotation_qfa(), "ab")


def test_accept_prob_conjugates_initial_vector():
    # With initial (i, 0) the conjugate row starts at (-i, 0); acceptance
    # probabilities are phase-invariant but the intermediate row is not.
    base = rotation_qfa()
    phased = KLetterQFA(
        n=2,
        alphabet=base.alphabet,
        k=1,
        initial=(IMAG, ZERO),
        accepting=frozenset({0}),
        transitions=dict(base.transitions),
    )
    assert validate(phased) == []
    for word in ["", "a", "aa", "aaa"]:
        assert accept_prob(phased, word) == accept_prob(base, word)


def test_matrix_formula_equals_stepped_evaluation():
    a = random_qfa(3, Alphabet("ab"), 2, seed=11)
    for word in ["", "a", "ba", "abab"]:
        row = row_step(conj(a.initial), mu_bar(a, word))
        total = Fraction(0)
        for q in a.accepting:
            total += row[q].abs_sq()
        assert total == accept_prob(a, word)


def test_last_letter_automaton_behavior():
    a = last_letter_qfa()
    assert validate(a) == []
    assert accept_prob(a, "") == 0
    for word in ["b", "ab", "aab", "bab", "abbb"]:
        assert accept_prob(a, word) == 1
    for word in ["a", "ba", "bba", "abba"]:
        assert accept_prob(a, word) == 0


def test_always_accept_automaton():
    a = always_accept_qfa(Alphabet("ab"))
    assert validate(a) == []
    for word in ["", "a", "b", "abba"]:
        assert accept_prob(a, word) == 1


def test_validate_clean_automata():
    assert validate(rotation_qfa()) == []
    assert validate(last_letter_qfa()) == []
    assert validate(random_qfa(3, Alphabet("ab"), 2, seed=0)) == []


def test_validate_non_unit_initial():
    a = rotation_qfa()
    bad = KLetterQFA(2, a.alphabet, 1, (1, 1), a.accepting, a.transitions)
    problems = validate(bad)
    assert any("squared norm 2" in p for p in problems)


def test_validate_non_unitary_transition():
    a = rotation_qfa()
    bad = KLetterQFA(
        2, a.alphabet, 1, a.initial, a.accepting,
        {"a": CMatrix([[1, 1], [0, 1]])},
    )
    problems = validate(bad)
    assert any("'a' is not unitary" in p for p in problems)


def test_validate_missing_and_extra_contexts():
    a = last_letter_qfa()
    partial = dict(a.transitions)
    del partial["ba"]
    problems = validate(KLetterQFA(2, a.alphabet, 2, a.initial, a.accepting, partial))
    assert any("missing context 'ba'" in p for p in problems)

    extra = dict(a.transitions)
    extra["a_"] = CMatrix.identity(2)
    problems = validate(KLetterQFA(2, a.alphabet, 2, a.initial, a.accepting, extra))
    assert any("malformed context 'a_'" in p for p in problems)

    lifted_key = dict(a.transitions)
    lifted_key["_aa"] = CMatrix.identity(2)
    problems = validate(
        KLetterQFA(2, a.alphabet, 2, a.initial, a.accepting, lifted_key)
    )
    assert any("malformed context '_aa'" in p for p in problems)


def test_context_shape_is_reachability():
    # a key has the shape of a window exactly when a run can step on it,
    # which the reader's early check for missing contexts relies on
    alphabet = Alphabet("ab")
    for k in (1, 2, 3):
        reachable = set(reachable_contexts(alphabet, k))
        for length in range(k + 2):
            for chars in itertools.product("ab_", repeat=length):
                s = "".join(chars)
                assert _context_shape_ok(s, alphabet, k) == (s in reachable), s


def test_validate_reports_every_extra_key_as_malformed():
    a = random_qfa(2, Alphabet("ab"), 1, seed=3)
    for key in ("_c", "ba", "_", "", 0, ("a",)):
        extra = dict(a.transitions)
        extra[key] = CMatrix.identity(2)
        problems = validate(
            KLetterQFA(2, a.alphabet, 1, a.initial, a.accepting, extra)
        )
        assert problems == [f"malformed context {key!r}"]
        assert not any("unexpected" in p for p in problems)


def test_validate_accepting_out_of_range():
    a = rotation_qfa()
    bad = KLetterQFA(2, a.alphabet, 1, a.initial, frozenset({5}), a.transitions)
    assert any("accepting state 5" in p for p in validate(bad))


def test_validate_accepting_entries_must_be_plain_ints():
    a = rotation_qfa()
    mixed = KLetterQFA(2, a.alphabet, 1, a.initial, {0, "x"}, a.transitions)
    assert validate(mixed) == ["accepting state 'x' is not an integer"]
    flag = KLetterQFA(2, a.alphabet, 1, a.initial, {True}, a.transitions)
    assert validate(flag) == ["accepting state True is not an integer"]


def test_validate_wrong_matrix_size():
    a = rotation_qfa()
    bad = KLetterQFA(
        2, a.alphabet, 1, a.initial, a.accepting,
        {"a": CMatrix.identity(3)},
    )
    assert any("not 2x2" in p for p in validate(bad))


def test_random_unitary_exactly_unitary():
    for n in (1, 2, 3, 4):
        for seed in (0, 1, 2):
            rng = random.Random(seed)
            assert is_unitary(random_unitary(n, rng))


def test_random_qfa_is_valid_and_deterministic():
    for n, m, k in [(1, 1, 1), (2, 2, 1), (3, 2, 2), (2, 1, 3)]:
        alphabet = Alphabet("ab"[:m])
        a = random_qfa(n, alphabet, k, seed=42)
        assert validate(a) == []
        assert norm_sq(a.initial) == 1
        again = random_qfa(n, alphabet, k, seed=42)
        assert a == again
    assert random_qfa(2, Alphabet("ab"), 1, seed=0) != random_qfa(
        2, Alphabet("ab"), 1, seed=1
    )


def test_random_generation_caps():
    with pytest.raises(ValueError, match="dimension 65 exceeds the cap of 64"):
        random_unitary(65, random.Random(0))
    with pytest.raises(ValueError, match="width 4097 give more than 4096"):
        random_qfa(1, Alphabet("a"), 4097, seed=0)
    # 2 + 4 + ... + 2**12 = 8190 contexts; the count stops there, so a huge
    # width never forms m**k
    for k in (12, 2**62):
        with pytest.raises(ValueError, match=f"width {k} give more than 4096"):
            random_qfa(1, Alphabet("ab"), k, seed=0)
    assert len(random_qfa(1, Alphabet("a"), 4096, seed=0).transitions) == 4096


def test_validate_and_lift_cap_contexts():
    # 2 + 4 + ... + 2**40 contexts: reported, or refused, without
    # enumerating them
    a = last_letter_qfa()
    wide = KLetterQFA(2, a.alphabet, 40, a.initial, a.accepting, a.transitions)
    assert validate(wide) == [
        "alphabet size 2 and window width 40 give more than 4096 contexts "
        "(the cap)"
    ]
    with pytest.raises(ValueError, match="width 40 give more than 4096"):
        lift(a, 40)
    # one letter: 4096 contexts are at the cap, 4097 past it
    one = always_accept_qfa(Alphabet("a"))
    assert validate(lift(one, 4096)) == []
    with pytest.raises(ValueError, match="width 4097 give more than 4096"):
        lift(one, 4097)


def test_validate_caps_states():
    # the state cap parse_qfa enforces on documents holds for hand-built
    # automata too: 64 states are at the cap, 65 past it
    for n in (64, 65):
        initial = (ONE,) + (ZERO,) * (n - 1)
        a = KLetterQFA(
            n, Alphabet("a"), 1, initial, {0}, {"a": CMatrix.identity(n)}
        )
        expected = [] if n == 64 else ["state count n=65 exceeds the cap of 64"]
        assert validate(a) == expected


def test_random_generation_is_pinned():
    # Every seeded test, digest and benchmark input is built by random_qfa.
    # The accepting set is drawn last, so this also pins the RNG state that
    # random_unitary leaves behind.
    text = "".join(
        serialize_qfa(random_qfa(n, Alphabet("abc"[:m]), k, seed))
        for n in (1, 2, 3, 5, 8)
        for m, k in ((1, 1), (2, 1), (2, 2), (3, 2))
        for seed in (0, 1, 42)
    )
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "ae78d86cae76a9ab613f35c2139080ec17b6c1830732226a0824af68bc97cfe2"
    )


def test_single_state_unary_accept_prob_is_constant():
    for seed in range(4):
        a = random_qfa(1, Alphabet("a"), 1, seed=seed)
        values = {accept_prob(a, "a" * n) for n in range(5)}
        assert values <= {Fraction(0), Fraction(1)}
        assert len(values) == 1


def test_lift_preserves_accept_prob():
    base = rotation_qfa()
    wider = lift(base, 2)
    assert wider.k == 2
    assert validate(wider) == []
    for n in range(5):
        word = "a" * n
        assert accept_prob(wider, word) == accept_prob(base, word)


def test_lift_binary_exhaustive_short_words():
    base = random_qfa(2, Alphabet("ab"), 1, seed=3)
    wider = lift(base, 3)
    assert validate(wider) == []
    for word in iter_words(Alphabet("ab"), 4):
        assert accept_prob(wider, word) == accept_prob(base, word)


def test_lift_identity_and_errors():
    a = last_letter_qfa()
    assert lift(a, 2) is a
    with pytest.raises(ValueError):
        lift(a, 1)


def test_lift_reuses_transition_matrices():
    a = last_letter_qfa()
    wider = lift(a, 3)
    assert wider.transitions["aab"] is a.transitions["ab"]
    assert wider.transitions["_ab"] is a.transitions["ab"]
    assert wider.transitions["__a"] is a.transitions["_a"]


def test_width_undoes_lift():
    # a lift has the width it was lifted from, and peeling gives back the
    # automaton lifted from field for field: its width and, by value, its
    # matrices keyed by its own contexts
    for m in (1, 2, 3):
        alphabet = Alphabet("abc"[:m])
        for k in (1, 2):
            a = random_qfa(2, alphabet, k, seed=10 * m + k)
            assert _width(a) == narrow_by_peeling(a).k == k
            for wide in range(k + 1, 6):
                assert _width(lift(a, wide)) == k
                assert narrow_by_peeling(lift(a, wide)) == a
            # a document holds one matrix object per context: equal by value
            parsed = parse_qfa(serialize_qfa(lift(a, 3)))
            assert _width(parsed) == k and narrow_by_peeling(parsed) == a


def test_width_keeps_genuine_width():
    # a lift with its last context changed differs from the lift there only
    lifted = lift(random_qfa(2, Alphabet("ab"), 1, seed=4), 3)
    twisted = dict(lifted.transitions, bbb=random_unitary(2, random.Random(4)))
    for a in [
        random_qfa(2, Alphabet("ab"), 2, seed=4),
        random_qfa(2, Alphabet("ab"), 3, seed=4),
        last_letter_qfa(),
        KLetterQFA(2, lifted.alphabet, 3, lifted.initial, lifted.accepting, twisted),
    ]:
        assert _width(a) == narrow_by_peeling(a).k == a.k


def test_width_compares_padded_contexts():
    # all-identity transitions have width 1; once the padded "_a" differs
    # from "aa" and "ba", which still agree, the width stays 2
    swap = CMatrix([[ZERO, ONE], [ONE, ZERO]])
    eye = CMatrix.identity(2)
    transitions = dict.fromkeys(reachable_contexts(Alphabet("ab"), 2), eye)
    a = KLetterQFA(2, Alphabet("ab"), 2, (ONE, ZERO), {1}, transitions)
    assert _width(a) == 1
    assert narrow_by_peeling(a).transitions == {"a": eye, "b": eye}
    transitions["_a"] = swap
    a = KLetterQFA(2, Alphabet("ab"), 2, (ONE, ZERO), {1}, transitions)
    assert validate(a) == []
    assert _width(a) == narrow_by_peeling(a).k == 2
    assert accept_prob(a, "a") != accept_prob(a, "b")


def test_width_reads_each_context_once(monkeypatch):
    # one walk over the width-5 contexts, no automaton built, and no two
    # matrices compared by value: the lift's contexts share matrix objects
    a = random_qfa(2, Alphabet("ab"), 1, seed=6)
    wide = lift(a, 5)
    built, read, compared = [], [], []
    iter_contexts = qfaeq.qfa._iter_contexts
    equal = CMatrix.__eq__

    def counting_eq(m, other):
        compared.append(m)
        return equal(m, other)

    class Counting(KLetterQFA):
        def __post_init__(self):
            built.append(self.k)
            super().__post_init__()

    def counting_contexts(alphabet, k):
        for ctx in iter_contexts(alphabet, k):
            read.append(ctx)
            yield ctx

    monkeypatch.setattr(qfaeq.qfa, "KLetterQFA", Counting)
    monkeypatch.setattr(qfaeq.qfa, "_iter_contexts", counting_contexts)
    monkeypatch.setattr(CMatrix, "__eq__", counting_eq)
    assert _width(wide) == 1
    assert built == [] and compared == []
    assert len(read) == len(wide.transitions)


def test_width_stops_at_full_width(monkeypatch):
    # no width exceeds k, so the walk ends at the first full-width context
    # that differs from its parent, before the last context
    a = random_qfa(2, Alphabet("ab"), 3, seed=6)
    read = []
    iter_contexts = qfaeq.qfa._iter_contexts

    def counting_contexts(alphabet, k):
        for ctx in iter_contexts(alphabet, k):
            read.append(ctx)
            yield ctx

    monkeypatch.setattr(qfaeq.qfa, "_iter_contexts", counting_contexts)
    assert _width(a) == 3
    assert len(read) < len(a.transitions)
    assert narrow_by_peeling(a).k == 3


def test_width_unary_grid():
    # every context the identity but the one with i real letters, a swap:
    # the contexts with i and i + 1 letters differ from their parents
    k = 64
    swap = CMatrix([[ZERO, ONE], [ONE, ZERO]])
    contexts = reachable_contexts(Alphabet("a"), k)
    for i in range(1, k + 1):
        transitions = dict.fromkeys(contexts, CMatrix.identity(2))
        transitions[contexts[i - 1]] = swap
        a = KLetterQFA(2, Alphabet("a"), k, (ONE, ZERO), {1}, transitions)
        narrowed = narrow_by_peeling(a)
        assert _width(a) == narrowed.k == min(k, i + 1)
        assert lift(narrowed, k) == a


def test_width_matches_peeling():
    # lifts, parsed lifts, one-context twists and one-context gaps of
    # seeded automata: the width found in one pass is the width peeling one
    # letter at a time reaches
    rng = random.Random(25)
    cases = 0
    for m in (1, 2, 3):
        alphabet = Alphabet("abc"[:m])
        for n in (1, 2, 3):
            for k in (1, 2, 3):
                a = random_qfa(n, alphabet, k, seed=rng.randrange(10**6))
                for wide in range(k, k + 3):
                    b = lift(a, wide)
                    ctx = rng.choice(sorted(b.transitions))
                    twist = random_unitary(n, rng)
                    gap = dict(b.transitions)
                    del gap[ctx]
                    # a document holds one matrix object per context
                    parsed = parse_qfa(serialize_qfa(b)).transitions
                    for transitions in (
                        b.transitions,
                        parsed,
                        {**b.transitions, ctx: twist},
                        {**b.transitions, ctx: b.transitions[ctx] * twist},
                        gap,
                    ):
                        c = KLetterQFA(
                            n, alphabet, wide, a.initial, a.accepting, transitions
                        )
                        assert _width(c) == narrow_by_peeling(c).k
                        cases += 1
    assert cases == 405


def test_word_iteration_order():
    assert list(iter_words(Alphabet("ab"), 2)) == [
        "",
        "a",
        "b",
        "aa",
        "ab",
        "ba",
        "bb",
    ]
    assert list(iter_words(Alphabet("ba"), 2)) == [
        "",
        "b",
        "a",
        "bb",
        "ba",
        "ab",
        "aa",
    ]


def test_automaton_equality_is_field_for_field():
    a = last_letter_qfa()
    b = last_letter_qfa()
    assert a == b
    c = dataclasses.replace(a, accepting={0})
    assert a != c
