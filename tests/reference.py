"""Reference computations the tests check the package against.

They form each product the plain way, entry by entry in GaussianRationals,
and never call the package's integer kernel (``CMatrix.__mul__``,
``row_times_matrix``, ``is_unitary``) or its span basis (``span_insert``),
so a bug in either cannot hide in both sides of a comparison.  The module
also holds two more oracles for equivalence: :func:`weighted_sums`, and
:func:`backward_decide`, an exact decider from the accepting side with
integer products and a Fraction elimination of its own; and
:func:`check_certificate`, which checks the search's bases as a proof of
equivalence with the same products and elimination.  It builds the
automata, the search's start node and the hostile input that
several tests share, the writer that serializes a document through the
standard library's json encoder, and a narrowing that peels one letter
at a time, :func:`narrow_by_peeling`.  Each pair family has one builder
here: :func:`twist`, :func:`scale_initial`, :func:`with_block` and
:func:`with_phase_block`; another accepting set is
``dataclasses.replace(a, accepting=...)``.  :func:`random_word` draws the
sampled words.
"""

import collections
import dataclasses
import itertools
import json
import random
from fractions import Fraction
from math import gcd, lcm

from qfaeq.equivalence import QueueItem
from qfaeq.linalg import CMatrix, _scaled_row, start_row
from qfaeq.qfa import (
    LAMBDA,
    Alphabet,
    KLetterQFA,
    _check_word,
    random_unitary,
    reachable_contexts,
)
from qfaeq.scalars import IMAG, ONE, ZERO, GaussianRational, _coerce, _ratio_text


def norm_sq(v) -> Fraction:
    """Squared Euclidean norm as an exact rational."""
    total = Fraction(0)
    for x in v:
        total += x.abs_sq()
    return total


def conj(v) -> tuple:
    """The entrywise complex conjugate of a vector."""
    return tuple(x.conjugate() for x in v)


def row_step(v, m: CMatrix) -> tuple:
    """Row vector times matrix, one GaussianRational product per entry."""
    assert len(v) == m.nrows
    data = m.data
    return tuple(
        sum((v[i] * data[i][j] for i in range(m.nrows)), ZERO)
        for j in range(m.ncols)
    )


def matmul(a: CMatrix, b: CMatrix) -> CMatrix:
    return CMatrix([row_step(row, b) for row in a.data])


def adjoint(a: CMatrix) -> CMatrix:
    return CMatrix([[x.conjugate() for x in col] for col in zip(*a.data)])


def unitary(a: CMatrix) -> bool:
    """adjoint(a) * a == I, each entry summed in GaussianRationals."""
    data = a.data
    n = len(data)
    return all(
        sum((data[r][p].conjugate() * data[r][q] for r in range(n)), ZERO)
        == (1 if p == q else 0)
        for p in range(n)
        for q in range(n)
    )


def divide(a, b) -> GaussianRational:
    """a / b for Gaussian rationals, b nonzero."""
    a, b = _coerce(a), _coerce(b)
    den = b.abs_sq()
    return GaussianRational(
        (a.re * b.re + a.im * b.im) / den, (a.im * b.re - a.re * b.im) / den
    )


def mu_bar(a: KLetterQFA, word: str) -> CMatrix:
    """Product of the per-position transition unitaries; identity for the
    empty word."""
    _check_word(a, word)
    m = CMatrix([[ONE if i == j else ZERO for j in range(a.n)] for i in range(a.n)])
    for i in range(1, len(word) + 1):
        m = matmul(m, a.transitions[(LAMBDA * a.k + word[:i])[-a.k :]])
    return m


def position_weights(alphabet, depth: int, seed: int = 2011) -> list:
    """Weights r(sigma, i) for positions i = 1..depth, at index i - 1: one
    integer in [1, 2**16) per letter and position, drawn from a fixed
    seed, so two automata over the same alphabet get the same weights."""
    rng = random.Random(seed)
    return [{s: rng.randrange(1, 2**16) for s in alphabet} for _ in range(depth)]


def weighted_sums(a: KLetterQFA, weights: list) -> list:
    """For each length l = 0..len(weights), the exact sum over all words w
    of length l of P(w) * r(w_1, 1) * ... * r(w_l, l), r given by weights.

    A randomized identity test for equivalence (Kiefer, Murawski, Ouaknine,
    Wachter & Worrell, CAV 2011): the sum at length l is a polynomial in the
    weights whose coefficients are the P(w), so two automata that differ
    on some word of length l give different sums at l unless the weights
    hit a root, which they do with probability at most l / (2**16 - 1)
    (Schwartz-Zippel).  It propagates one Hermitian matrix per history, the
    last k - 1 letters read padded with the blank: the weighted sum of
    rho(w) = mubar(w)^dagger psi psi^dagger mubar(w) over the words w of
    the current length with that history, stepped by S -> r(sigma, l) *
    T^dagger S T for the transition T at the window history + sigma.
    """
    n = a.n
    data = {ctx: m.data for ctx, m in a.transitions.items()}
    psi = a.initial
    states = {"_" * (a.k - 1): [[p * q.conjugate() for q in psi] for p in psi]}
    sums = []
    for length in range(len(weights) + 1):
        sums.append(
            sum((s[q][q].re for s in states.values() for q in a.accepting), Fraction(0))
        )
        if length == len(weights):
            return sums
        stepped = {}
        for history, s in states.items():
            for sigma, r in weights[length].items():
                t = data[history + sigma]
                # (T^dagger S T)[p][q] = sum over i, j of
                # conj(T[i][p]) S[i][j] T[j][q]
                st = [
                    [sum((row[j] * t[j][q] for j in range(n)), ZERO) for q in range(n)]
                    for row in s
                ]
                new = stepped.setdefault(
                    (history + sigma)[1:], [[ZERO] * n for _ in range(n)]
                )
                for p in range(n):
                    for q in range(n):
                        new[p][q] += r * sum(
                            (t[i][p].conjugate() * st[i][q] for i in range(n)), ZERO
                        )
        states = stepped


def naive_rank(vectors) -> int:
    """Rank by textbook Gaussian elimination over mutable row lists, with no
    pivots shared with the package's span basis."""
    rows = [list(v) for v in vectors]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        lead = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / lead
                rows[r] = [
                    x - factor * y for x, y in zip(rows[r], rows[rank])
                ]
        rank += 1
    return rank


def in_span(rows, row) -> bool:
    """Whether row is a linear combination of rows: adding it leaves the
    rank unchanged."""
    rows = list(rows)
    return naive_rank(rows + [row]) == naive_rank(rows)


def direct_sum(a: KLetterQFA, blocks: dict, initial, accepting) -> KLetterQFA:
    """The automaton whose transition at each context is a's transition
    there followed by the block blocks[ctx] on the diagonal, with the given
    initial vector and accepting set over the n + u states.  The blocks
    never mix, so the accepted mass adds across them."""
    transitions = {}
    for ctx, m in a.transitions.items():
        block = blocks[ctx].data
        pad = (ZERO,) * len(block)
        rows = [row + pad for row in m.data]
        rows += [(ZERO,) * a.n + row for row in block]
        transitions[ctx] = CMatrix(rows)
    return KLetterQFA(a.n + len(pad), a.alphabet, a.k, initial, accepting, transitions)


def rotation_qfa():
    """One-letter unary automaton rotating by the (3,4,5) angle; accepting
    state 0."""
    return KLetterQFA(
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


def scale_initial(a: KLetterQFA, phase) -> KLetterQFA:
    """a with its initial vector multiplied by phase."""
    return dataclasses.replace(a, initial=tuple(phase * x for x in a.initial))


def twist(a: KLetterQFA, seed: int) -> KLetterQFA:
    """a with the transition of its all-last-letter context multiplied by
    random_unitary(a.n, random.Random(seed)): the same initial vector and
    accepting set, so it agrees with a on every word shorter than a.k."""
    ctx = a.alphabet.symbols[-1] * a.k
    u = random_unitary(a.n, random.Random(seed))
    return dataclasses.replace(
        a, transitions={**a.transitions, ctx: matmul(a.transitions[ctx], u)}
    )


def random_word(rng: random.Random, symbols, max_len: int) -> str:
    """A word of rng.randrange(max_len + 1) letters, each rng.choice(symbols)."""
    return "".join(rng.choice(symbols) for _ in range(rng.randrange(max_len + 1)))


def narrow_by_peeling(a: KLetterQFA) -> KLetterQFA:
    """The automaton of width :func:`~qfaeq.qfa._width` whose lift is a,
    found one width at a time: while every context's matrix equals, by
    value, the first one stored under its last k - 1 characters, drop the
    first character of every context and build the narrower automaton; a
    missing context or a mismatch returns the automaton reached so far."""
    while a.k > 1:
        transitions = {}
        for ctx in reachable_contexts(a.alphabet, a.k):
            m = a.transitions.get(ctx)
            if m is None or transitions.setdefault(ctx[1:], m) != m:
                return a
        a = KLetterQFA(a.n, a.alphabet, a.k - 1, a.initial, a.accepting, transitions)
    return a


def start_item(a1: KLetterQFA, a2: KLetterQFA) -> QueueItem:
    """The empty word with the rows psi1^dagger and psi2^dagger."""
    return QueueItem("", start_row(a1.initial), start_row(a2.initial))


def accept_positions(a1: KLetterQFA, a2: KLetterQFA) -> list:
    """The accepting diagonal entries of both blocks in a real row: the
    block of a1 fills the first n1^2 coordinates."""
    return [*a1.accepting, *(a1.n * a1.n + q for q in a2.accepting)]


PHASES = (
    GaussianRational(Fraction(3, 5), Fraction(4, 5)),
    IMAG,
    -ONE,
    GaussianRational(Fraction(5, 13), Fraction(-12, 13)),
)


def with_block(a: KLetterQFA, blocks: dict) -> KLetterQFA:
    """The direct sum a + B for blocks, one d x d unitary per context of a.
    The initial vector is (3/5 psi, 4/5, 0, ..., 0) and every block state
    accepts, so every word is accepted with probability 9/25 P_a + 16/25,
    whatever the blocks: the block's share of the state stays of norm 4/5.
    Two different blocks give an equivalent pair that is not a
    conjugation, even when their sizes differ."""
    d = next(iter(blocks.values())).nrows
    initial = (
        *(Fraction(3, 5) * x for x in a.initial),
        Fraction(4, 5),
        *(0,) * (d - 1),
    )
    return direct_sum(a, blocks, initial, a.accepting | set(range(a.n, a.n + d)))


def with_phase_block(a: KLetterQFA, shift: int) -> KLetterQFA:
    """:func:`with_block` with a 1 x 1 block whose transition at the i-th
    context in sorted order is the phase PHASES[i + shift].  Two shifts
    give an equivalent pair whose transitions differ in spectrum."""
    return with_block(
        a,
        {
            ctx: CMatrix([[PHASES[(i + shift) % len(PHASES)]]])
            for i, ctx in enumerate(sorted(a.transitions))
        },
    )


def _conjugate_by(t: CMatrix, x: tuple) -> tuple:
    """T X T^dagger for a Hermitian X = (re + i*im)/s held as (s, re, im)
    with integer rows, in the same form, T read off its integer form
    (re + i*im)/den: the entries on and above the diagonal are summed, the
    rest mirrored, and the result is reduced by one gcd."""
    s, xr, xi = x
    tr, ti = t.re, t.im
    n = len(tr)
    cols = list(zip(zip(*xr), zip(*xi)))
    # the rows of T X
    yr = [
        [sum(a * c - b * d for a, b, c, d in zip(ar, ai, cr, ci)) for cr, ci in cols]
        for ar, ai in zip(tr, ti)
    ]
    yi = [
        [sum(a * d + b * c for a, b, c, d in zip(ar, ai, cr, ci)) for cr, ci in cols]
        for ar, ai in zip(tr, ti)
    ]
    zr = [[0] * n for _ in range(n)]
    zi = [[0] * n for _ in range(n)]
    for p in range(n):
        for q in range(p, n):
            # the sum over j of (T X)[p][j] * conj(T[q][j])
            terms = list(zip(yr[p], yi[p], tr[q], ti[q]))
            zr[p][q] = zr[q][p] = sum(a * c + b * d for a, b, c, d in terms)
            zi[p][q] = sum(b * c - a * d for a, b, c, d in terms)
            zi[q][p] = -zi[p][q]
    scale = s * t.den * t.den
    g = gcd(scale, *itertools.chain(*zr, *zi))
    return (
        scale // g,
        [[v // g for v in row] for row in zr],
        [[v // g for v in row] for row in zi],
    )


def _hermitian_coordinates(x: tuple) -> list:
    """The diagonal of a Hermitian X = (s, re, im), then the real and
    imaginary parts of each entry above it, as Fractions."""
    s, xr, xi = x
    n = len(xr)
    coords = [Fraction(xr[p][p], s) for p in range(n)]
    for p in range(n):
        for q in range(p + 1, n):
            coords += (Fraction(xr[p][q], s), Fraction(xi[p][q], s))
    return coords


def _ket(a: KLetterQFA) -> tuple:
    """a's initial vector as (e, pr, pi), the ket (pr + i*pi)/e with
    integer parts."""
    e = lcm(*(part.denominator for x in a.initial for part in (x.re, x.im)))
    return e, [int(x.re * e) for x in a.initial], [int(x.im * e) for x in a.initial]


def _projector(a: KLetterQFA) -> tuple:
    """The projector onto a's accepting states, as (1, re, im)."""
    n = a.n
    re = [[int(p == q and p in a.accepting) for q in range(n)] for p in range(n)]
    return 1, re, [[0] * n for _ in range(n)]


def _expectation(psi: tuple, x: tuple) -> Fraction:
    """psi^dagger X psi for a ket psi = (pr + i*pi)/e held as (e, pr, pi)
    and X = (s, re, im): a real number."""
    e, pr, pi = psi
    s, xr, xi = x
    total = 0
    for a, b, rr, ri in zip(pr, pi, xr, xi):
        for re, im, c, d in zip(rr, ri, pr, pi):
            # the real part of conj(psi_p) * X[p][q] * psi_q
            total += (a * re + b * im) * c - (a * im - b * re) * d
    return Fraction(total, e * e * s)


def _residual(basis: dict, row: list) -> list:
    """row less its part in the span of basis, a dict from pivot column to
    a row that is one at its own pivot and zero at every other: all zero
    exactly when row lies in that span."""
    for col, b in basis.items():
        c = row[col]
        if c:
            row = [x - c * y if y else x for x, y in zip(row, b)]
    return row


def _reduce_insert(basis: dict, row: list) -> bool:
    """Add row to basis, a dict as :func:`_residual` reads one, keeping it
    so; False, and basis unchanged, when row lies in its span."""
    row = _residual(basis, row)
    pivot = next((j for j, x in enumerate(row) if x), None)
    if pivot is None:
        return False
    lead = row[pivot]
    row = [x / lead for x in row]
    for col, b in basis.items():
        c = b[pivot]
        if c:
            basis[col] = [x - c * y if y else x for x, y in zip(b, row)]
    basis[pivot] = row
    return True


def backward_decide(a1: KLetterQFA, a2: KLetterQFA):
    """The least length of a word the two automata accept with different
    probabilities, or None when they are equivalent: Tzeng's span argument
    (SIAM J. Comput. 1992) run from the accepting side, sharing no code
    with the forward search.

    A class is a history c of k - 1 symbols, k = max(k1, k2), padded with
    LAMBDA as contexts are; the run starts in class LAMBDA^(k-1).  The
    observable of a word y read after c is O_c(y) = Tbar O Tbar^dagger
    for the product Tbar of the transitions y steps through and the
    accepting projector, taken in each automaton: O_c(empty) = (P1, P2)
    and O_c(sigma y) = (T1 X1 T1^dagger, T2 X2 T2^dagger) for
    (X1, X2) = O_c'(y), c' = (c sigma)[1:], Ti automaton i's transition at
    the last ki symbols of c sigma.  A word y is then accepted with
    probability psi_i^dagger Xi psi_i by automaton i from the start class.

    Each observable is held as (s, re, im), the matrix (re + i*im)/s with
    integer rows, and stepped with integer products.  Each class keeps a
    fully reduced span of the real coordinates of its observables, as
    Fractions, in breadth-first order of |y|.  An element of c' that is
    new to its span yields sigma y with sigma = c'[-1] in each class
    c = tau + c'[:-1]: tau is LAMBDA, or any letter when c' holds no
    LAMBDA (the start class yields nothing; for k = 1 the one class yields
    every letter).  A dependent element is a combination of kept ones no
    longer than itself, and so is every later observable built from it,
    so the first element of the start class whose two expectations differ
    has the least witness length, and when none does the pair agrees on
    every word.
    """
    k = max(a1.k, a2.k)
    symbols = a1.alphabet.symbols
    start = LAMBDA * (k - 1)
    psi1, psi2 = _ket(a1), _ket(a2)

    def differs(xs) -> bool:
        return _expectation(psi1, xs[0]) != _expectation(psi2, xs[1])

    def coordinates(xs) -> list:
        return _hermitian_coordinates(xs[0]) + _hermitian_coordinates(xs[1])

    observables = (_projector(a1), _projector(a2))
    if differs(observables):
        return 0
    classes = [
        LAMBDA * (k - 1 - j) + "".join(letters)
        for j in range(k)
        for letters in itertools.product(symbols, repeat=j)
    ]
    bases = {c: {} for c in classes}
    queue = collections.deque()
    for c in classes:
        if _reduce_insert(bases[c], coordinates(observables)):
            queue.append((c, 0, observables))
    while queue:
        # an element of class c' yields one in each class c before it
        later, length, xs = queue.popleft()
        if k == 1:
            heads = [("", sigma) for sigma in symbols]
        elif later[-1] == LAMBDA:
            heads = []
        else:
            taus = [LAMBDA] if LAMBDA in later else [LAMBDA, *symbols]
            heads = [(tau + later[:-1], later[-1]) for tau in taus]
        for c, sigma in heads:
            window = c + sigma
            ys = tuple(
                _conjugate_by(a.transitions[window[-a.k :]], x)
                for a, x in zip((a1, a2), xs)
            )
            if c == start and differs(ys):
                return length + 1
            if _reduce_insert(bases[c], coordinates(ys)):
                queue.append((c, length + 1, ys))
    return None


# a matrix (re + i*im)/den with integer rows, as _conjugate_by reads one
_Parts = collections.namedtuple("_Parts", "den re im")


def _adjoint(m: CMatrix) -> _Parts:
    """m^dagger read off m's integer form: the transpose, its imaginary
    part negated."""
    return _Parts(m.den, list(zip(*m.re)), [[-x for x in col] for col in zip(*m.im)])


def _outer(psi: tuple, sign: int) -> tuple:
    """sign * psi psi^dagger for a ket psi = (pr + i*pi)/e held as
    (e, pr, pi), as (s, re, im): entry (p, q) is psi_p conj(psi_q)."""
    e, pr, pi = psi
    pairs = list(zip(pr, pi))
    re = [[sign * (a * c + b * d) for c, d in pairs] for a, b in pairs]
    im = [[sign * (b * c - a * d) for c, d in pairs] for a, b in pairs]
    return e * e, re, im


def _from_coordinates(coords: list, n: int) -> tuple:
    """The n x n Hermitian matrix whose coordinates, as
    :func:`_hermitian_coordinates` reads them, are coords, as (s, re, im)."""
    coords = [Fraction(x) for x in coords]
    s = lcm(*(x.denominator for x in coords))
    ints = iter(x.numerator * (s // x.denominator) for x in coords)
    re = [[0] * n for _ in range(n)]
    im = [[0] * n for _ in range(n)]
    for p in range(n):
        re[p][p] = next(ints)
    for p in range(n):
        for q in range(p + 1, n):
            re[p][q] = re[q][p] = next(ints)
            im[p][q] = next(ints)
            im[q][p] = -im[p][q]
    return s, re, im


def check_certificate(a1: KLetterQFA, a2: KLetterQFA, k: int, bases: dict):
    """The first check that bases fail as a proof that a1 and a2 accept
    every word with equal probabilities, as a line naming it, or None when
    every check passes.  It shares no code with the search: the blocks are
    stepped with :func:`_conjugate_by`'s integer products and spans are
    tested with :func:`_residual`.

    bases maps each class c, a word of k - 1 letters, to a dict whose
    values span V_c: real rows in the search's coordinates, the diagonal
    of block 1, then Re and Im of each entry above it, then the same for
    block 2, n1^2 + n2^2 numbers.  The blocks of a word x are
    rho1(x) = Tbar1^dagger psi1 psi1^dagger Tbar1 and
    rho2(x) = -Tbar2^dagger psi2 psi2^dagger Tbar2, for Tbari the product
    of automaton i's transitions along x, and their accepting sum is
    P1(x) - P2(x).  The checks, in order:

    - width: for each automaton whose declared width ki exceeds k, every
      context has the matrix of ``'_' * (ki - k) + ctx[-k:]``, so its
      step depends only on the last k letters;
    - (1) every word shorter than k - 1 has accepting sum 0, so equal
      acceptance probabilities;
    - (2) the row of each class's own word c lies in V_c;
    - (3) every row of bases has accepting sum 0;
    - (4) closure: for each row b of V_c and each letter s,
      Phi_{c,s}(b) = (T1^dagger X1 T1, T2^dagger X2 T2) lies in
      V_{(cs)[1:]}, for (X1, X2) the blocks of b and Ti automaton i's
      transition at the window of cs, its last ki letters padded.

    They prove equivalence by induction on the length of a word x of k - 1
    letters or more: its row lies in the V of its last k - 1 letters by
    (2), and then that of xs by (4), since by the width check Ti at the
    window of cs is the transition x steps on at s.  Then P1 = P2 on x by
    (3), since the accepting sum is linear, and on shorter words by (1).
    Karr (Acta Informatica 6, 1976) checks inductive linear invariants of
    programs the same way.
    """
    automata = (a1, a2)
    if a1.alphabet != a2.alphabet:
        return "alphabets differ"
    for i, a in enumerate(automata, 1):
        for ctx, m in a.transitions.items() if a.k > k else ():
            same = a.transitions.get(LAMBDA * (a.k - k) + ctx[-k:])
            if same is None or (same.den, same.re, same.im) != (m.den, m.re, m.im):
                return f"width: automaton {i} at {ctx!r} reads more than {k} letters"
    n1, n2 = a1.n, a2.n
    symbols = a1.alphabet.symbols
    positions = accept_positions(a1, a2)
    daggers = [{ctx: _adjoint(m) for ctx, m in a.transitions.items()} for a in automata]

    def step(blocks, word):
        """The blocks of word from those of word[:-1]."""
        return tuple(
            _conjugate_by(d[word[-a.k :].rjust(a.k, LAMBDA)], x)
            for a, d, x in zip(automata, daggers, blocks)
        )

    def row(blocks):
        return _hermitian_coordinates(blocks[0]) + _hermitian_coordinates(blocks[1])

    def accepting_sum(r):
        return sum((r[p] for p in positions), Fraction(0))

    spans = {}
    for c, basis in bases.items():
        spans[c] = {}
        for b in basis.values():
            if len(b) != n1 * n1 + n2 * n2:
                return f"shape: class {c!r} has a row of {len(b)} coordinates"
            _reduce_insert(spans[c], [Fraction(x) for x in b])

    def outside(c, r):
        return any(_residual(spans.get(c, {}), r))

    level = {"": (_outer(_ket(a1), 1), _outer(_ket(a2), -1))}
    for _ in range(k - 1):
        for word, blocks in level.items():
            if accepting_sum(row(blocks)):
                return f"(1): the word {word!r} is accepted with unequal probabilities"
        level = {w + s: step(x, w + s) for w, x in level.items() for s in symbols}
    for c, blocks in level.items():
        if outside(c, row(blocks)):
            return f"(2): the row of {c!r} is not in its class's span"
    for c, basis in bases.items():
        for b in basis.values():
            if accepting_sum(b):
                return f"(3): a row of class {c!r} has a nonzero accepting sum"
    for c, basis in bases.items():
        for b in basis.values():
            blocks = (
                _from_coordinates(b[: n1 * n1], n1),
                _from_coordinates(b[n1 * n1 :], n2),
            )
            for s in symbols:
                if outside((c + s)[1:], row(step(blocks, c + s))):
                    return f"(4): a row of class {c!r} leaves the span at {s!r}"
    return None


def coprime_denominators(count):
    """2**e - 1 for the first `count` primes e above 10000, about 3000
    digits each and pairwise coprime: gcd(2**a - 1, 2**b - 1) is
    2**gcd(a, b) - 1.  Three of them have an lcm past 8600 digits."""
    primes = (e for e in range(10001, 20000) if all(e % d for d in range(2, 142)))
    return [2**e - 1 for e in itertools.islice(primes, count)]


def scaled_size_document():
    """A 64-state document whose one matrix has "1/1" entries except two
    over coprime denominators of about 3000 digits each: every common
    denominator stays under 8600 digits, but scaled to their lcm the 4096
    nonzero parts would take about 25 million digits."""
    n = 64
    dens = coprime_denominators(2)
    matrix = [[["1/1", "0/1"] for _ in range(n)] for _ in range(n)]
    for c, den in enumerate(dens):
        matrix[0][c] = [f"1/{den}", "0/1"]
    return {
        "format_version": 1,
        "k": 1,
        "alphabet": ["a"],
        "states": n,
        "initial": [["1/1", "0/1"]] + [["0/1", "0/1"]] * (n - 1),
        "accepting": [0],
        "transitions": {"a": matrix},
    }


def _format_rows(den: int, re: tuple, im: tuple) -> list:
    """Each entry of (re + i*im)/den as a reduced [re, im] pair of "p/q"
    strings, one gcd per part."""

    def part(x: int) -> str:
        g = gcd(x, den)
        return _ratio_text(x // g, den // g)

    return [
        [[part(x), part(y)] for x, y in zip(xs, ys)]
        for xs, ys in zip(re, im)
    ]


def serialize_reference(a: KLetterQFA) -> str:
    """The canonical document text built as a dict and written by
    json.dumps(doc, indent=2), the text :func:`qfaeq.io.serialize_qfa`
    must reproduce byte for byte."""
    s, xs, ys = _scaled_row(a.initial)
    doc = {
        "format_version": 1,
        "k": a.k,
        "alphabet": list(a.alphabet.symbols),
        "states": a.n,
        "initial": _format_rows(s, (xs,), (ys,))[0],
        "accepting": sorted(a.accepting),
        "transitions": {
            ctx: _format_rows(m.den, m.re, m.im)
            for ctx in reachable_contexts(a.alphabet, a.k)
            for m in [a.transitions[ctx]]
        },
    }
    return json.dumps(doc, indent=2) + "\n"
