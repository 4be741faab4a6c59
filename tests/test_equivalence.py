import collections
import itertools
import math
import random
from fractions import Fraction

import pytest

import qfaeq.equivalence
from qfaeq.equivalence import (
    brute_force,
    decide,
    extend,
    rank_bound,
    real_row,
    theorem4_bound,
)
from qfaeq.linalg import CMatrix, _row_vector, row_prob, span_insert
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
    validate,
)
from qfaeq.scalars import GaussianRational

from eager import class_of, eager_search
from reference import (
    accept_positions,
    adjoint,
    check_certificate,
    conj,
    in_span,
    matmul,
    mu_bar,
    narrow_by_peeling,
    rotation_qfa,
    row_step,
    scale_initial,
    start_item,
    with_phase_block,
)

AB = Alphabet("ab")


def trace_difference(a1, a2, word):
    """The accepting diagonal of both blocks of rho(word), computed from the
    two automata one step per letter and summed over the accepting
    positions of the real row."""
    item = start_item(a1, a2)
    for s in word:
        item = extend(a1, a2, item, s)
    row = real_row(item)
    return sum(row[p] for p in accept_positions(a1, a2))


def reference_vector(a, k, word):
    """v(word) = psi^dagger mubar(word) as a one-row matrix product over the
    transitions lifted to width k."""
    return row_step(conj(a.initial), mu_bar(lift(a, k), word))


def reference_blocks(a1, a2, k, word):
    """rho_i(word) = mubar_i^dagger rho_i mubar_i, formed in full from the
    starting blocks psi1 psi1^dagger and -psi2 psi2^dagger."""
    blocks = []
    for a, sign in ((a1, 1), (a2, -1)):
        m = mu_bar(lift(a, k), word)
        psi = a.initial
        start = CMatrix([[sign * x * y.conjugate() for y in psi] for x in psi])
        blocks.append(matmul(matmul(adjoint(m), start), m))
    return blocks


def hermitian_coordinates(blocks):
    """For each block its diagonal, then Re and Im above it, row-major."""
    row = []
    for block in blocks:
        assert block == adjoint(block)
        data = block.data
        row.extend(data[p][p].re for p in range(len(data)))
        for p, line in enumerate(data):
            for z in line[p + 1 :]:
                row.append(z.re)
                row.append(z.im)
    return tuple(row)


def test_theorem4_bound_spot_values():
    assert theorem4_bound(2, 2, 2, 2) == 32
    assert theorem4_bound(2, 2, 1, 1) == 16  # k=1 reduces to (n1+n2)^2
    assert theorem4_bound(1, 3, 1, 1) == 16
    assert theorem4_bound(2, 2, 1, 3) == 18  # unary reduces to n^2 + k - 1
    with pytest.raises(ValueError):
        theorem4_bound(0, 2, 1, 1)
    with pytest.raises(ValueError):
        theorem4_bound(2, 2, 2, 0)


def test_theorem4_bound_is_rank_bound_plus_cross_term():
    # n^2 m^(k-1) - m^(k-1) + k with n = n1 + n2 splits into the rank
    # bound, the cross term 2 n1 n2 m^(k-1) of n^2, and one
    sizes = range(1, 5)
    for n1, n2, m, k in itertools.product(sizes, sizes, range(1, 4), sizes):
        cross = 2 * n1 * n2 * m ** (k - 1)
        assert theorem4_bound(n1, n2, m, k) == rank_bound(n1, n2, m, k) + cross + 1


def test_rank_bound_spot_values():
    # R + k - 1 with R = (n1^2 + n2^2 - 1) * m^(k-1)
    assert rank_bound(2, 2, 2, 2) == 15
    assert rank_bound(2, 1, 2, 2) == 9
    assert rank_bound(2, 2, 1, 1) == 7
    for bad in [(0, 2, 1, 1), (2, 0, 1, 1), (2, 2, 0, 1), (2, 2, 2, 0)]:
        with pytest.raises(ValueError, match="must be positive"):
            rank_bound(*bad)
    # never deeper than the paper's Theorem 4 depth
    for shape in itertools.product((1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3), (1, 2, 3)):
        assert rank_bound(*shape) <= theorem4_bound(*shape)


def test_unary_rank_bound():
    # For a one-letter alphabet the total rank is at most
    # R1 = n1^2 + n2^2 - n1 - n2 + 1.  From length k - 1 on, each row is
    # Phi^L applied to the row of a^(k-1), with Phi = Phi1 (+) Phi2 and
    # Phi_i(X) = T_i^dagger X T_i for the transition T_i at window a^k.
    # Each Phi_i is diagonalizable because T_i is unitary, with eigenvalues
    # conj(lambda_p) * lambda_q; its n_i diagonal ones all equal 1, so at
    # most n_i^2 - n_i + 1 are distinct, and the eigenvalue 1 is shared by
    # Phi1 and Phi2.  A Krylov space has at most as many dimensions as Phi
    # has distinct eigenvalues, which bounds the one class's rank by R1.
    # With every state accepting each pair is equivalent, so every search
    # runs to its end.
    rng = random.Random(7)
    unary = Alphabet("a")
    attained = 0
    for _ in range(30):
        n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
        k = rng.choice((1, 2, 3))
        a1 = random_qfa(n1, unary, k, seed=rng.randrange(10**6))
        a2 = random_qfa(n2, unary, rng.randint(1, k), seed=rng.randrange(10**6))
        v = decide(
            with_accepting(a1, set(range(n1))), with_accepting(a2, set(range(n2)))
        )
        assert v.equivalent
        total = sum(v.basis_sizes.values())
        r1 = n1 * n1 + n2 * n2 - n1 - n2 + 1
        assert total <= r1, (n1, n2, k, total)
        attained += total == r1
    assert attained > 0


def test_checks_require_matching_alphabets():
    with pytest.raises(ValueError):
        decide(always_accept_qfa(Alphabet("a")), always_accept_qfa(AB))
    # same symbols in another order: the message names both alphabets
    ab, ba = always_accept_qfa(AB), always_accept_qfa(Alphabet("ba"))
    for check in (decide, brute_force):
        with pytest.raises(ValueError, match="'ab' vs 'ba'"):
            check(ab, ba)


def test_start_of_identity_with_itself_by_hand():
    a = always_accept_qfa(Alphabet("a"))
    start = start_item(a, a)
    assert start.v1 == start.v2 == (1, (1,), (0,))
    # The two blocks have opposite signs, so the row is nonzero even when
    # an automaton is paired with itself.
    assert reference_blocks(a, a, 1, "") == [CMatrix([[1]]), CMatrix([[-1]])]
    assert real_row(start) == (1, -1)
    assert accept_positions(a, a) == [0, 1]
    assert trace_difference(a, a, "") == 0
    assert trace_difference(a, a, "aa") == 0
    # k = 1: a single class, named by the empty suffix
    v = decide(a, a)
    assert (v.equivalent, v.witness, list(v.basis_sizes)) == (True, None, [""])
    assert list(eager_search(a, a)[1]) == [""]


def test_start_row_block_structure():
    a1 = random_qfa(2, AB, 1, seed=1)
    a2 = random_qfa(1, AB, 1, seed=2)
    start = start_item(a1, a2)
    v1, v2 = _row_vector(start.v1), _row_vector(start.v2)
    assert (v1, v2) == (conj(a1.initial), conj(a2.initial))
    # each row steps on its own automaton's transitions
    item = extend(a1, a2, start, "a")
    assert _row_vector(item.v1) == row_step(v1, a1.transitions["a"])
    assert _row_vector(item.v2) == row_step(v2, a2.transitions["a"])
    # n1^2 + n2^2 real coordinates of the blocks psi1 psi1^dagger and
    # -psi2 psi2^dagger: diagonals, then Re and Im above them
    rho1, rho2 = reference_blocks(a1, a2, 1, "")
    row = real_row(start)
    assert all(type(x) is Fraction for x in row)
    assert row == (
        rho1[0, 0].re, rho1[1, 1].re, rho1[0, 1].re, rho1[0, 1].im,
        rho2[0, 0].re,
    )
    assert row == hermitian_coordinates([rho1, rho2])


def search_record(a1, a2):
    """decide's verdict with the counts that Verdict equality leaves out,
    and the eager search's bases."""
    v = decide(a1, a2)
    return v, v.nodes_processed, v.basis_sizes, eager_search(a1, a2)[1]


def test_search_steps_mixed_window_widths():
    # Each automaton steps on its own window; lifting both to the common
    # width first changes no check, no count and no basis row.
    a = random_qfa(3, AB, 1, seed=5)
    b = lift(a, 2)
    twist = random_unitary(3, random.Random(9))
    twisted = KLetterQFA(
        b.n, b.alphabet, 2, b.initial, b.accepting,
        {**b.transitions, "bb": b.transitions["bb"] * twist},
    )
    pairs = [(a, b), (a, random_qfa(2, AB, 2, seed=8)), (a, twisted)]
    witnesses = []
    for a1, a2 in pairs:
        k = max(a1.k, a2.k)
        assert (a1.k, a2.k) == (1, 2)
        found = search_record(a1, a2)
        assert found == search_record(lift(a1, k), lift(a2, k))
        witnesses.append(found[0].witness)
    assert witnesses == [None, "a", "bb"]


def test_decide_searches_lifts_at_their_effective_width():
    # a lift is searched at the width it was lifted from: its classes, and
    # with them the counts, are those of the narrower pair
    for k, classes in [(1, [""]), (2, ["a", "b"])]:
        a = random_qfa(2, AB, k, seed=21)
        v, same = decide(a, lift(a, 3)), decide(a, a)
        assert v.equivalent
        assert sorted(v.basis_sizes) == classes
        assert (v.nodes_processed, v.basis_sizes) == (
            same.nodes_processed, same.basis_sizes
        )
    # inequivalent pairs with a lift: the search runs at the lift's
    # effective width, and the witness's probabilities are those of the
    # automata (seeds picked for a witness one letter long)
    for k, s1, s2 in [(1, 33, 25), (2, 25, 11)]:
        a1, a2 = random_qfa(2, AB, k, s1), lift(random_qfa(2, AB, k, s2), 3)
        assert _width(a2) == k
        v = decide(a1, a2)
        assert v.witness == "a"
        assert v == brute_force(a1, a2, len(v.witness))
        assert (v.p1, v.p2) == (
            accept_prob(a1, v.witness), accept_prob(a2, v.witness)
        )


def test_search_names_classes_at_effective_width():
    # a lift is searched with the classes of the automaton it was lifted
    # from: against a lift of itself, in either order, an automaton gets
    # the verdict, counts and bases it gets against itself
    for m in (1, 2):
        alphabet = Alphabet("ab"[:m])
        for k in (1, 2):
            a = random_qfa(2, alphabet, k, seed=70 + 10 * m + k)
            same = search_record(a, a)
            for wide in (k + 1, k + 2):
                b = lift(a, wide)
                assert search_record(a, b) == search_record(b, a) == same


def test_search_builds_no_automaton(monkeypatch):
    # decide, in either order, and brute_force walk a width-5 lift as it
    # is: sizing its classes and depth at width 1 builds no automaton
    a = random_qfa(2, AB, 1, seed=6)
    wide = lift(a, 5)
    built = []
    post_init = KLetterQFA.__post_init__

    def counting(self):
        built.append(self.k)
        post_init(self)

    monkeypatch.setattr(KLetterQFA, "__post_init__", counting)
    assert decide(a, wide).nodes_processed == decide(a, a).nodes_processed
    assert decide(wide, a).equivalent
    # the default depth is rank_bound(2, 2, 2, 1) = 7: 2^8 - 1 words
    assert brute_force(a, wide).nodes_processed == 255
    assert built == []


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
        for _ in range(8):
            word = "".join(
                rng.choice(alphabet.symbols)
                for _ in range(rng.randrange(0, 7))
            )
            lhs = trace_difference(a1, a2, word)
            rhs = accept_prob(a1, word) - accept_prob(a2, word)
            assert lhs == rhs
            cases += 1
    assert cases == 40


def test_rho_steps_match_mu_bar():
    # Each row stepped one letter at a time equals psi_i^dagger mubar_i(x),
    # and its real row holds the coordinates of mubar_i(x)^dagger rho_i
    # mubar_i(x), with mubar_i over that automaton's transitions lifted to
    # the common width.
    a1 = random_qfa(2, AB, 1, seed=31)
    a2 = random_qfa(1, AB, 2, seed=32)
    k = 2
    for word in ["", "a", "ba", "abb"]:
        item = start_item(a1, a2)
        for s in word:
            item = extend(a1, a2, item, s)
        assert _row_vector(item.v1) == reference_vector(a1, k, word)
        assert _row_vector(item.v2) == reference_vector(a2, k, word)
        assert real_row(item) == hermitian_coordinates(
            reference_blocks(a1, a2, k, word)
        )


def test_extend_grows_word_and_tracks_vector():
    a = random_qfa(2, AB, 2, seed=13)
    item = extend(a, a, start_item(a, a), "a")
    item = extend(a, a, item, "b")
    assert item.word == "ab"
    t = a.transitions["_a"] * a.transitions["ab"]
    v = _row_vector(item.v1)
    assert item.v1 == item.v2
    assert v == (CMatrix([conj(a.initial)]) * t).data[0]
    assert v == row_step(
        row_step(conj(a.initial), a.transitions["_a"]), a.transitions["ab"]
    )
    assert real_row(item) == hermitian_coordinates(
        reference_blocks(a, a, a.k, "ab")
    )


def with_accepting(a, accepting):
    return KLetterQFA(a.n, a.alphabet, a.k, a.initial, accepting, a.transitions)


def check_span_insert(monkeypatch, insert=span_insert):
    """Make the search's span_insert check its own answer: True must grow
    the basis by exactly one row, and False must leave it unchanged.  The
    search extends a class's second and later words only when their rows
    were inserted, so an insert that says True without growing the basis
    would keep it running; checked, it fails at the first such call.  A
    class's first word is extended before its row is built; that row goes
    into the empty basis when a second word of the class is grown, and the
    same check holds for it."""

    def checked(basis, row):
        before = {p: list(r) for p, r in basis.items()}
        grew = insert(basis, row)
        if grew:
            assert len(basis) == len(before) + 1, "True without a new row"
        else:
            assert basis == before, "False but the basis changed"
        return grew

    monkeypatch.setattr(qfaeq.equivalence, "span_insert", checked)


def test_check_span_insert_catches_lying_inserts(monkeypatch):
    a = random_qfa(2, AB, 1, seed=1)

    def says_new(basis, row):
        return True

    def hides_insert(basis, row):
        span_insert(basis, row)
        return False

    for mutant, message in [
        (says_new, "True without a new row"),
        (hides_insert, "False but the basis changed"),
    ]:
        calls = []

        def counted(basis, row, mutant=mutant):
            calls.append(row)
            return mutant(basis, row)

        check_span_insert(monkeypatch, counted)
        with pytest.raises(AssertionError, match=message):
            decide(a, a)
        # the very first insert is the lie that fails
        assert len(calls) == 1
    # the real insert passes the same check
    check_span_insert(monkeypatch)
    assert decide(a, a).witness is None


def test_search_resource_bounds_and_order(monkeypatch):
    check_span_insert(monkeypatch)
    searched = {"full": 0, "stopped": 0}
    for n1, n2, m, k in [(2, 2, 2, 2), (3, 1, 2, 1), (2, 2, 1, 2), (3, 3, 2, 2)]:
        alphabet = Alphabet("ab"[:m])
        a1 = random_qfa(n1, alphabet, k, seed=50 + n1)
        a2 = random_qfa(n2, alphabet, k, seed=60 + n2)
        for b1, b2 in [(a1, a2), (a1, a1), (a2, lift(a2, k + 1))]:
            # decide runs under the checked span_insert; the eager search,
            # whose bases decide builds, gives the same verdict and counts
            v = decide(b1, b2)
            eager, bases, _ = eager_search(b1, b2)
            assert v == eager and v.nodes_processed == eager.nodes_processed
            # a row has n1^2 + n2^2 real coordinates and its diagonal ones
            # sum to 0, so a class holds at most n1^2 + n2^2 - 1 rows;
            # searches that stop early keep within the same bounds
            d = b1.n**2 + b2.n**2 - 1
            # the classes are named at the larger effective width
            kk = max(narrow_by_peeling(b1).k, narrow_by_peeling(b2).k)
            sizes = [len(basis) for basis in bases.values()]
            assert v.basis_sizes == {w: len(b) for w, b in bases.items()}
            assert all(size <= d for size in sizes)
            assert sum(sizes) <= d * m ** (kk - 1)
            assert v.nodes_processed <= m**kk * d
            diagonal = [*range(b1.n), *range(b1.n**2, b1.n**2 + b2.n)]
            for basis in bases.values():
                for pivot, row in basis.items():
                    assert len(row) == d + 1
                    assert all(type(x) is Fraction for x in row)
                    assert row[pivot] == 1
                    assert sum(row[p] for p in diagonal) == 0
            if v.witness is not None:
                searched["stopped"] += 1
                continue
            searched["full"] += 1
            # suffix classes are exactly the length k-1 words
            assert sorted(bases) == sorted(
                "".join(p)
                for p in itertools.product(alphabet.symbols, repeat=kk - 1)
            )
            # the bases are closed: the row of every word from length k-1
            # on lies in the span of its class
            level = [start_item(b1, b2)]
            for length in range(kk + 3):
                if length >= kk - 1:
                    for item in level:
                        basis = bases[class_of(item.word, kk)]
                        assert in_span(basis.values(), real_row(item))
                level = [
                    extend(b1, b2, it, s) for it in level for s in alphabet
                ]
    assert searched == {"full": 9, "stopped": 3}


def test_class_rank_reaches_hermitian_bound():
    # Two automata that accept every word with probability 1 agree, and
    # only the traces tie their blocks together: with random unitaries each
    # class reaches n1^2 + n2^2 - 1 rows, for mixed widths too.  At full
    # rank every inserted row's two children are checked, which pins the
    # count of words of length k or more, here with 2^k - 1 words shorter.
    for n1, k1, n2, k2 in [
        (2, 1, 3, 1), (2, 2, 2, 2), (2, 1, 3, 2), (2, 2, 3, 3), (2, 3, 2, 3),
    ]:
        k = max(k1, k2)
        a1 = random_qfa(n1, AB, k1, seed=1)
        a2 = random_qfa(n2, AB, k2, seed=2)
        v = decide(with_accepting(a1, range(n1)), with_accepting(a2, range(n2)))
        rank = n1 * n1 + n2 * n2 - 1
        assert v.equivalent
        classes = ("".join(c) for c in itertools.product("ab", repeat=k - 1))
        assert v.basis_sizes == dict.fromkeys(classes, rank)
        assert sum(v.basis_sizes.values()) == rank * 2 ** (k - 1)
        assert v.nodes_processed == 2**k * rank


def test_equivalent_pairs_beyond_conjugation():
    # Two phase assignments give transitions with different spectra, so
    # neither automaton is a conjugate of the other, and unlike a conjugate
    # pair the joint rank of a class rises above n1^2.
    for n, k, rank, self_rank in [
        (3, 1, 12, 8), (4, 1, 21, 15), (3, 2, 24, 16), (4, 2, 42, 30),
    ]:
        a = random_qfa(n - 1, AB, k, 7)
        b1, b2 = with_phase_block(a, 0), with_phase_block(a, 1)
        assert validate(b1) == validate(b2) == []
        assert b1.transitions != b2.transitions
        v = decide(b1, b2)
        assert v.equivalent
        assert brute_force(b1, b2, max_len=6).equivalent
        assert len(v.basis_sizes) == 2 ** (k - 1)
        assert max(v.basis_sizes.values()) > n * n
        assert sum(v.basis_sizes.values()) == rank
        assert sum(decide(b1, b1).basis_sizes.values()) == self_rank


def test_search_records_short_words():
    # Words shorter than k-1 head no class: they are checked, and the search
    # stops at the first that differs before any class is seeded.
    assert last_letter_qfa().k == 2
    v = decide(last_letter_qfa(), always_accept_qfa(AB))
    assert (v.witness, v.nodes_processed, v.basis_sizes) == ("", 0, {})
    assert eager_search(last_letter_qfa(), always_accept_qfa(AB))[1] == {}
    # a pair that agrees on the empty word seeds every class
    v = decide(last_letter_qfa(), last_letter_qfa())
    assert v.witness is None
    assert sorted(v.basis_sizes) == ["a", "b"]


def twisted_at_last_context(a, seed):
    """a with the transition of its all-last-letter context multiplied by
    a random unitary: it agrees with a on every word shorter than the
    width."""
    ctx = a.alphabet.symbols[-1] * a.k
    twist = random_unitary(a.n, random.Random(seed))
    transitions = {**a.transitions, ctx: a.transitions[ctx] * twist}
    return KLetterQFA(a.n, a.alphabet, a.k, a.initial, a.accepting, transitions)


def test_no_span_work_past_the_witness(monkeypatch):
    # A word's real row is built when its children's turn comes, so on a
    # pair that differs no row is built for a word as long as the witness.
    lengths = []

    def recording(item):
        lengths.append(len(item.word))
        return real_row(item)

    def rows_built(a1, a2):
        lengths.clear()
        return decide(a1, a2), list(lengths)

    monkeypatch.setattr(qfaeq.equivalence, "real_row", recording)
    pairs = []
    for i, width in enumerate((2, 3, 4, 4, 5)):
        a = random_qfa(2, AB, 1, 90000 + i)
        a = KLetterQFA(a.n, AB, 1, a.initial, {0}, a.transitions)
        pairs.append((a, twisted_at_last_context(lift(a, width), 90100 + i)))
    for n, k in itertools.product((2, 3), (1, 2)):
        a = random_qfa(n, AB, k, 300 + 10 * n + k)
        pairs.append((a, twisted_at_last_context(a, 400 + 10 * n + k)))
    runs = [rows_built(a1, a2) for a1, a2 in pairs]
    differ = [(v, built) for v, built in runs if not v.equivalent]
    # every deep twist differs, and most twists do
    assert not any(v.equivalent for v, _ in runs[:5]) and len(differ) >= 7
    for v, built in differ:
        assert all(length < len(v.witness) for length in built), v
    # the first width-4 deep twist differs at "bbbb" and builds no row:
    # each of the eight length-3 words grown before it heads its own class
    v, built = runs[2]
    assert (v.witness, len(built)) == ("bbbb", 0)
    # an equivalent pair grows every checked word: one row per word of
    # length k-1, and one per word counted from length k on
    for m, k in itertools.product((1, 2), (1, 2, 3)):
        alphabet = Alphabet("ab"[:m])
        a = random_qfa(2, alphabet, k, 500 + 10 * m + k)
        for b in (a, lift(a, k + 1), scale_initial(a, GaussianRational(0, 1))):
            v, built = rows_built(a, b)
            assert v.equivalent
            assert len(built) == v.nodes_processed + m ** (_width(a) - 1)


def recording_real_row(monkeypatch):
    """Record the word of every real row the search builds, in order."""
    words = []

    def recording(item):
        words.append(item.word)
        return real_row(item)

    monkeypatch.setattr(qfaeq.equivalence, "real_row", recording)
    return words


def test_no_row_for_a_witness_of_length_k(monkeypatch):
    # a word of length k has only parents of length k - 1, each the one
    # grown word of its own class; a class's first row is independent, so
    # it is never built before a second word of its class is grown
    built = recording_real_row(monkeypatch)
    seen = 0
    for i, (width, m) in enumerate(itertools.product((2, 3, 4), (1, 2, 3))):
        alphabet = Alphabet("abc"[:m])
        a = with_accepting(random_qfa(2, alphabet, 1, 91000 + i), {0})
        for b in (lift(a, width), random_qfa(2, alphabet, width, 92000 + i)):
            b = twisted_at_last_context(b, 93000 + i)
            built.clear()
            v = decide(a, b)
            if not v.equivalent and len(v.witness) == _width(b):
                seen += 1
                assert built == [], v
                assert set(v.basis_sizes.values()) == {1}
    assert seen >= 5


def test_first_rows_wait_for_a_second_word(monkeypatch):
    # over a grid of equivalent and inequivalent pairs: the verdict's sizes
    # are the eager ones, counting a class with one grown word as 1, in the
    # same key order, and each class sees its rows in the eager order, its
    # first row built just before its second word's row, so every basis
    # that decide builds is the eager one by value
    kinds = collections.Counter()
    built = recording_real_row(monkeypatch)
    for n1, n2, m, (k1, k2) in itertools.product(
        (1, 2), (2, 3), (1, 2), ((1, 1), (2, 2), (1, 2), (2, 1))
    ):
        alphabet = Alphabet("ab"[:m])
        seed = 1000 * n1 + 100 * n2 + 10 * m + k1 + 3 * k2
        a1 = random_qfa(n1, alphabet, k1, seed)
        a2 = random_qfa(n2, alphabet, k2, seed + 1)
        twisted = twisted_at_last_context(a2, seed)
        for b1, b2 in [(a1, a2), (a2, lift(a2, k2 + 1)), (a2, twisted)]:
            built.clear()
            eager, eager_bases, k = eager_search(b1, b2)
            eager_rows = list(built)
            built.clear()
            v = decide(b1, b2)
            walk_rows = list(built)
            assert v == eager and v.nodes_processed == eager.nodes_processed
            assert list(v.basis_sizes.items()) == [
                (c, len(basis)) for c, basis in eager_bases.items()
            ]
            # decide builds the eager search's rows, in its order
            for c in eager_bases:
                mine = [w for w in walk_rows if class_of(w, k) == c]
                theirs = [w for w in eager_rows if class_of(w, k) == c]
                assert mine == theirs[: len(mine)]
                assert len(mine) != 1 and len(theirs) - len(mine) <= 1
                if mine:
                    first = walk_rows.index(mine[0])
                    assert walk_rows[first + 1] == mine[1]
            kinds[v.equivalent] += 1
            if v.equivalent:
                assert sorted(walk_rows) == sorted(eager_rows)
    assert kinds[True] >= 10 and kinds[False] >= 10


def test_certificate_checks_short_words():
    # check (1) of check_certificate: the last-letter automaton has width 2,
    # so the empty word heads no class, and its certificate against itself
    # fails there against the automaton with the other accepting state
    a = last_letter_qfa()
    _, bases, k = eager_search(a, a)
    assert k == 2 and check_certificate(a, a, k, bases) is None
    b = with_accepting(a, {0})
    assert decide(a, b).witness == ""
    assert check_certificate(a, b, k, bases).startswith("(1)")


def _reduced(s, re, im):
    g = math.gcd(s, *re, *im)
    return s // g, tuple(x // g for x in re), tuple(x // g for x in im)


def test_integer_check_agrees_with_row_prob():
    # the walk's integer test is row_prob's inequality, on random reduced
    # rows and on rows of equal probability at different scales
    rng = random.Random(17)
    equal = 0
    for _ in range(400):
        n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
        acc1 = frozenset(q for q in range(n1) if rng.random() < 0.5)
        acc2 = frozenset(q for q in range(n2) if rng.random() < 0.5)

        def row(n):
            parts = [rng.randint(-9, 9) for _ in range(2 * n)]
            return _reduced(rng.randint(1, 30), parts[:n], parts[n:])

        v1 = row(n1)
        # times 3 + 4i over 5: the same probability at another scale
        s, re, im = v1
        v2 = _reduced(5 * s, [3 * x - 4 * y for x, y in zip(re, im)],
                      [4 * x + 3 * y for x, y in zip(re, im)])
        for w1, a1, w2, a2 in [(v1, acc1, row(n2), acc2), (v1, acc1, v2, acc1)]:
            differ = row_prob(w1, a1) != row_prob(w2, a2)
            assert qfaeq.equivalence._differ(w1, w2, a1, a2) == differ
            assert qfaeq.equivalence._differ(w2, w1, a2, a1) == differ
        assert row_prob(v1, acc1) == row_prob(v2, acc1)
        equal += v1[0] != v2[0]
    assert equal >= 100


def test_brute_force_queues_no_word_at_its_cap(monkeypatch):
    # a word at the length cap is checked but never queued, so the queue
    # holds at most the level below the cap
    queued = []

    class RecordingDeque(collections.deque):
        def popleft(self):
            item = super().popleft()
            queued.append(len(item.word))
            return item

    monkeypatch.setattr(qfaeq.equivalence, "deque", RecordingDeque)
    a = random_qfa(2, AB, 1, seed=6)
    assert brute_force(a, a, 4).nodes_processed == 31
    assert max(queued) == 3 and len(queued) == 15


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
    # the search stops at the empty word, before any node or class
    assert (v.nodes_processed, v.basis_sizes) == (0, {})
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
    rot = rotation_qfa()
    eye = always_accept_qfa(Alphabet("a"))
    assert brute_force(rot, eye, max_len=0).equivalent
    v = brute_force(rot, eye, max_len=1)
    assert not v.equivalent and v.witness == "a"


def test_brute_force_default_depth_at_effective_width():
    # A lift keeps its behavior, so the default depth is sized at the width
    # decide searches at: rank_bound(2, 2, 1, 1) = 7, eight unary words,
    # where the declared width 4 would give 10.  The lift steps on its own
    # width-4 matrices.
    rot = rotation_qfa()
    wide = lift(rot, 4)
    assert wide.k == 4 and _width(wide) == 1
    v = brute_force(rot, wide)
    assert v.equivalent and v.nodes_processed == 8
    assert brute_force(wide, rot).nodes_processed == 8


def test_brute_force_rejects_negative_max_len():
    a = always_accept_qfa(AB)
    for cap in (-1, -5):
        with pytest.raises(ValueError, match="max_len must be at least 0"):
            brute_force(a, a, max_len=cap)


def test_brute_force_default_depth_is_the_bound():
    # The default depth is rank_bound's R + k - 1, with
    # R = (n1^2 + n2^2 - 1) * m^(k-1) and k the larger effective width,
    # here the declared one: no automaton below is a lift.
    # Each pair accepts every word with probability one, so brute_force
    # checks every word up to that depth.
    for alphabet, n2, k2, depth in [
        (Alphabet("a"), 2, 1, 4),
        (Alphabet("a"), 3, 3, 11),
        (AB, 2, 1, 4),
        (AB, 1, 3, 6),
    ]:
        a1 = always_accept_qfa(alphabet)
        a2 = with_accepting(random_qfa(n2, alphabet, k2, 3), set(range(n2)))
        m, k = len(alphabet), max(a1.k, a2.k)
        assert depth == (1 + n2 * n2 - 1) * m ** (k - 1) + k - 1
        assert depth == rank_bound(1, n2, m, k)
        assert depth < theorem4_bound(1, n2, m, k)
        v = brute_force(a1, a2)
        assert v.equivalent
        assert v.nodes_processed == sum(m**length for length in range(depth + 1))
    # with it, brute_force agrees with decide on unary and two-letter pairs:
    # a pair with one context's transition swapped, a global phase and a
    # random pair
    rng = random.Random(201)
    for n, m, k in [(2, 1, 1), (3, 1, 2), (2, 2, 1)]:
        alphabet = Alphabet("ab"[:m])
        for _ in range(2):
            a = random_qfa(n, alphabet, k, seed=rng.randrange(10**6))
            other = random_qfa(n, alphabet, k, seed=rng.randrange(10**6))
            ctx = max(a.transitions)
            swapped = {**a.transitions, ctx: other.transitions[ctx]}
            twist = KLetterQFA(n, alphabet, k, a.initial, a.accepting, swapped)
            for b in (twist, scale_initial(a, -1), other):
                fast, slow = decide(a, b), brute_force(a, b)
                assert (slow.equivalent, slow.witness, slow.p1, slow.p2) == (
                    fast.equivalent,
                    fast.witness,
                    fast.p1,
                    fast.p2,
                )


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


def test_start_row_is_never_zero_for_valid_pairs():
    for seed in range(5):
        a1 = random_qfa(2, AB, 1, seed=seed)
        a2 = random_qfa(2, AB, 1, seed=seed + 100)
        for b1, b2 in ((a1, a2), (a1, a1)):
            assert any(real_row(start_item(b1, b2)))
