import itertools
import random
from fractions import Fraction

import pytest

from qfaeq.equivalence import (
    QueueItem,
    basis_search,
    brute_force,
    decide,
    extend,
    join,
    theorem4_bound,
    verdict_from_search,
)
from qfaeq.linalg import (
    CMatrix,
    row_times_matrix,
    vector_is_zero,
)
from qfaeq.qfa import (
    Alphabet,
    KLetterQFA,
    _context_at,
    accept_prob,
    always_accept_qfa,
    iter_words,
    last_letter_qfa,
    mu_bar,
    random_qfa,
)
from qfaeq.scalars import GaussianRational

AB = Alphabet("ab")


def trace_difference(j, word):
    """The accepting diagonal of rho(word), computed from the joint
    automaton one step per letter and summed over the flattened accepting
    positions."""
    item = QueueItem("", j.rho)
    for s in word:
        item = extend(j, item, s)
    flat = [x for row in item.rho.data for x in row]
    total = GaussianRational(0)
    for p in j.accept_positions:
        total = total + flat[p]
    return total


def scale_initial(a, phase):
    scaled = tuple(phase * x for x in a.initial)
    return KLetterQFA(a.n, a.alphabet, a.k, scaled, a.accepting, a.transitions)


def test_theorem4_bound_spot_values():
    assert theorem4_bound(2, 2, 2, 2) == 32
    assert theorem4_bound(2, 2, 1, 1) == 16  # k=1 reduces to (n1+n2)^2
    assert theorem4_bound(1, 3, 1, 1) == 16
    assert theorem4_bound(2, 2, 1, 3) == 18  # unary reduces to n^2 + k - 1
    with pytest.raises(ValueError):
        theorem4_bound(0, 2, 1, 1)
    with pytest.raises(ValueError):
        theorem4_bound(2, 2, 2, 0)


def test_join_requires_matching_alphabets():
    with pytest.raises(ValueError):
        join(always_accept_qfa(Alphabet("a")), always_accept_qfa(AB))
    # same symbols in another order: the message names both alphabets
    ab, ba = always_accept_qfa(AB), always_accept_qfa(Alphabet("ba"))
    for check in (decide, brute_force):
        with pytest.raises(ValueError, match="'ab' vs 'ba'"):
            check(ab, ba)


def test_join_of_identity_with_itself_by_hand():
    a = always_accept_qfa(Alphabet("a"))
    j = join(a, a)
    assert (j.n1, j.n2, j.n, j.k) == (1, 1, 2, 1)
    # The two outer products sit in disjoint diagonal blocks with opposite
    # signs, so rho is nonzero even for a self-join.
    assert j.rho == CMatrix([[1, 0], [0, -1]])
    assert j.accept_positions == (0, 3)
    assert trace_difference(j, "") == 0
    assert trace_difference(j, "aa") == 0
    assert decide(a, a).equivalent


def test_join_block_structure():
    a1 = random_qfa(2, AB, 1, seed=1)
    a2 = random_qfa(1, AB, 1, seed=2)
    j = join(a1, a2)
    assert j.n == 3
    t = j.transitions["a"]
    assert t.nrows == 3
    # off-diagonal blocks are zero
    assert t[0, 2] == 0 and t[1, 2] == 0
    assert t[2, 0] == 0 and t[2, 1] == 0
    rho = j.rho
    assert (rho.nrows, rho.ncols) == (3, 3)
    assert rho[0, 2] == 0 and rho[1, 2] == 0
    assert rho[2, 0] == 0 and rho[2, 1] == 0


def test_join_lifts_mixed_window_widths():
    a1 = random_qfa(2, AB, 1, seed=7)
    a2 = random_qfa(2, AB, 2, seed=8)
    j = join(a1, a2)
    assert j.k == 2
    assert set(j.transitions) == {"_a", "_b", "aa", "ab", "ba", "bb"}


def test_bilinear_identity_on_seeded_samples():
    rng = random.Random(2024)
    cases = 0
    for n1, n2, m, k1, k2 in [
        (1, 1, 1, 1, 1),
        (2, 1, 2, 1, 1),
        (2, 2, 2, 2, 2),
        (3, 2, 2, 1, 2),
        (2, 3, 1, 2, 1),
    ]:
        alphabet = Alphabet("ab"[:m])
        a1 = random_qfa(n1, alphabet, k1, seed=rng.randrange(10**6))
        a2 = random_qfa(n2, alphabet, k2, seed=rng.randrange(10**6))
        j = join(a1, a2)
        for _ in range(8):
            word = "".join(
                rng.choice(alphabet.symbols)
                for _ in range(rng.randrange(0, 7))
            )
            lhs = trace_difference(j, word)
            rhs = accept_prob(a1, word) - accept_prob(a2, word)
            assert lhs == rhs
            cases += 1
    assert cases == 40


def test_rho_steps_match_mu_bar():
    # rho(x) stepped one letter at a time equals mubar(x)^dagger rho
    # mubar(x) over the joined transitions.
    a1 = random_qfa(2, AB, 2, seed=31)
    a2 = random_qfa(1, AB, 2, seed=32)
    j = join(a1, a2)
    joint = KLetterQFA(
        n=j.n,
        alphabet=j.alphabet,
        k=j.k,
        initial=tuple([1] + [0] * (j.n - 1)),
        accepting=frozenset(),
        transitions=j.transitions,
    )
    for word in ["", "a", "ba", "abb"]:
        m = mu_bar(joint, word)
        stepped = j.rho
        for i in range(1, len(word) + 1):
            t = j.transitions[_context_at(j.k, word, i)]
            stepped = t.dagger() * stepped * t
        assert stepped == m.dagger() * j.rho * m


def test_extend_grows_word_and_tracks_vector():
    a = random_qfa(2, AB, 2, seed=13)
    j = join(a, a)
    item = QueueItem("", j.rho)
    item = extend(j, item, "a")
    item = extend(j, item, "b")
    assert item.word == "ab"
    t_a, t_b = j.transitions["_a"], j.transitions["ab"]
    assert item.rho == t_b.dagger() * t_a.dagger() * j.rho * t_a * t_b
    with pytest.raises(ValueError):
        extend(j, item, "z")


def test_basis_search_resource_bounds_and_order():
    for n1, n2, m, k in [(2, 2, 2, 2), (3, 1, 2, 1), (2, 2, 1, 2), (3, 3, 2, 2)]:
        alphabet = Alphabet("ab"[:m])
        a1 = random_qfa(n1, alphabet, k, seed=50 + n1)
        a2 = random_qfa(n2, alphabet, k, seed=60 + n2)
        j = join(a1, a2)
        sbm = basis_search(j)
        n_sq = j.n * j.n
        assert all(size <= n_sq for size in sbm.basis_sizes().values())
        assert sbm.total_size() <= n_sq * m ** (k - 1)
        assert sbm.processed <= m**k * (n_sq + 1)
        # suffix classes are exactly the length k-1 words
        assert sorted(sbm.bases) == sorted(
            "".join(p) for p in itertools.product(alphabet.symbols, repeat=k - 1)
        )
        # records are strictly increasing in length-then-alphabet order
        keys = [
            (len(w), [alphabet.index(c) for c in w]) for w, _ in sbm.records()
        ]
        assert all(earlier < later for earlier, later in zip(keys, keys[1:]))
        # each member sits in the class of its length k-1 suffix
        for word, vec in sbm.member_records:
            cls = word[len(word) - k + 1 :] if len(word) >= k - 1 else word
            assert cls in sbm.bases
            assert sbm.bases[cls].contains(vec)
        # every recorded row is a flattened n x n Hermitian matrix with zero
        # off-diagonal blocks and trace 0 (tr rho1 = tr rho2 = 1)
        n, n1 = j.n, j.n1
        for _word, vec in sbm.records():
            r = [vec[i * n : (i + 1) * n] for i in range(n)]
            assert all(
                r[p][q] == r[q][p].conjugate()
                for p in range(n)
                for q in range(n)
            )
            assert all(
                not r[p][q] for p in range(n1) for q in range(n1, n)
            )
            assert sum((r[q][q] for q in range(n)), GaussianRational(0)) == 0


def test_basis_search_records_short_words():
    a1 = random_qfa(2, AB, 2, seed=71)
    a2 = random_qfa(2, AB, 2, seed=72)
    j = join(a1, a2)
    sbm = basis_search(j)
    assert [w for w, _ in sbm.short_records] == [""]
    assert sbm.short_records[0][1] == tuple(x for row in j.rho.data for x in row)


def test_decide_agrees_with_brute_force_small_grid():
    rng = random.Random(7)
    for n1, n2, m, k1, k2 in [
        (1, 1, 1, 1, 1),
        (1, 2, 2, 1, 1),
        (2, 2, 1, 2, 2),
        (2, 2, 2, 1, 2),
        (3, 2, 2, 2, 1),
    ]:
        alphabet = Alphabet("ab"[:m])
        for _ in range(4):
            a1 = random_qfa(n1, alphabet, k1, seed=rng.randrange(10**6))
            a2 = random_qfa(n2, alphabet, k2, seed=rng.randrange(10**6))
            fast = decide(a1, a2)
            cap = None if m == 1 else max(
                8, len(fast.witness) if fast.witness else 0
            )
            slow = brute_force(a1, a2, max_len=cap)
            assert fast.equivalent == slow.equivalent


def test_decide_on_equal_automata():
    for n, m, k in [(1, 1, 1), (2, 2, 2), (3, 1, 2)]:
        a = random_qfa(n, Alphabet("ab"[:m]), k, seed=5)
        v = decide(a, a)
        assert v.equivalent
        assert v.witness is None and v.p1 is None and v.p2 is None


def test_decide_last_letter_vs_always_accept():
    v = decide(last_letter_qfa(), always_accept_qfa(AB))
    assert not v.equivalent
    assert v.witness == ""
    assert v.p1 == 0 and v.p2 == 1
    w = brute_force(last_letter_qfa(), always_accept_qfa(AB), max_len=3)
    assert (w.witness, w.p1, w.p2) == ("", Fraction(0), Fraction(1))


def test_witness_soundness():
    rng = random.Random(99)
    found = 0
    for _ in range(12):
        n1, n2 = rng.choice([(1, 2), (2, 2), (2, 3)])
        k1, k2 = rng.choice([(1, 1), (2, 2), (1, 2)])
        a1 = random_qfa(n1, AB, k1, seed=rng.randrange(10**6))
        a2 = random_qfa(n2, AB, k2, seed=rng.randrange(10**6))
        v = decide(a1, a2)
        if v.equivalent:
            continue
        found += 1
        assert v.p1 == accept_prob(a1, v.witness)
        assert v.p2 == accept_prob(a2, v.witness)
        assert v.p1 != v.p2
        assert len(v.witness) <= theorem4_bound(n1, n2, 2, max(k1, k2))
    assert found >= 6  # random pairs are nearly always inequivalent


def test_brute_force_witness_is_least_counterexample():
    rng = random.Random(123)
    for _ in range(6):
        a1 = random_qfa(2, AB, 1, seed=rng.randrange(10**6))
        a2 = random_qfa(2, AB, 1, seed=rng.randrange(10**6))
        v = brute_force(a1, a2, max_len=4)
        differing = [
            w
            for w in iter_words(AB, 4)
            if accept_prob(a1, w) != accept_prob(a2, w)
        ]
        if v.equivalent:
            assert differing == []
        else:
            assert v.witness == differing[0]


def test_brute_force_honors_max_len():
    rot = KLetterQFA(
        n=2,
        alphabet=Alphabet("a"),
        k=1,
        initial=(1, 0),
        accepting=frozenset({0}),
        transitions={
            "a": CMatrix(
                [
                    [Fraction(3, 5), Fraction(-4, 5)],
                    [Fraction(4, 5), Fraction(3, 5)],
                ]
            )
        },
    )
    eye = always_accept_qfa(Alphabet("a"))
    assert brute_force(rot, eye, max_len=0).equivalent
    v = brute_force(rot, eye, max_len=1)
    assert not v.equivalent and v.witness == "a"


def test_brute_force_default_depth_is_the_bound():
    # Unary pair where enumeration to the full bound is cheap.
    a1 = random_qfa(2, Alphabet("a"), 1, seed=201)
    a2 = random_qfa(2, Alphabet("a"), 1, seed=202)
    v = brute_force(a1, a2)
    w = brute_force(a1, a2, max_len=theorem4_bound(2, 2, 1, 1))
    assert v == w


def test_k1_brute_force_to_corollary_bound_matches_decide():
    # For one-letter automata the guaranteed depth is (n1+n2)^2.
    rng = random.Random(55)
    for _ in range(3):
        a1 = random_qfa(1, AB, 1, seed=rng.randrange(10**6))
        a2 = random_qfa(2, AB, 1, seed=rng.randrange(10**6))
        bound = theorem4_bound(1, 2, 2, 1)
        assert bound == 9
        assert brute_force(a1, a2, max_len=bound).equivalent == decide(
            a1, a2
        ).equivalent


def test_decide_invariant_under_global_phase():
    phase = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    for n, m, k in [(2, 2, 1), (2, 2, 2), (3, 1, 2)]:
        a = random_qfa(n, Alphabet("ab"[:m]), k, seed=17)
        assert decide(a, scale_initial(a, phase)).equivalent
        assert decide(scale_initial(a, phase), a).equivalent


def test_mixed_k_decide_agrees_with_brute_force():
    a1 = random_qfa(2, AB, 1, seed=301)
    a2 = random_qfa(2, AB, 2, seed=302)
    fast = decide(a1, a2)
    cap = max(8, len(fast.witness) if fast.witness else 0)
    slow = brute_force(a1, a2, max_len=cap)
    assert fast.equivalent == slow.equivalent


def test_eta_is_never_zero_for_valid_pairs():
    for seed in range(5):
        a1 = random_qfa(2, AB, 1, seed=seed)
        a2 = random_qfa(2, AB, 1, seed=seed + 100)
        for j in (join(a1, a2), join(a1, a1)):
            assert any(not vector_is_zero(row) for row in j.rho.data)


def test_verdict_from_search_checks_raw_vectors():
    # The first record with a nonzero accepting diagonal is the witness; all
    # earlier records contract to zero.  This pins the raw-vector scan: a
    # fully reduced basis row could contract nonzero while its tag's own
    # raw row does not.
    rng = random.Random(404)
    for _ in range(10):
        a1 = random_qfa(2, AB, 2, seed=rng.randrange(10**6))
        a2 = random_qfa(2, AB, 2, seed=rng.randrange(10**6))
        j = join(a1, a2)
        sbm = basis_search(j)
        v = verdict_from_search(j, sbm, a1, a2)
        if v.equivalent:
            continue
        for word, vec in sbm.records():
            diff = GaussianRational(0)
            for p in j.accept_positions:
                diff = diff + vec[p]
            if word == v.witness:
                assert diff != 0
                break
            assert diff == 0
