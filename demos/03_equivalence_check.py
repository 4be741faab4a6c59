"""Deciding whether two automata accept every word with equal probability.

The decision procedure runs the two automata side by side, one row vector
each, stepped by the automaton's transition unitary T per letter.  The two
rows v1 and v2 stand for the Hermitian blocks rho1 = v1^dagger v1 and
rho2 = -v2^dagger v2, which are never formed: every word's pair of blocks
is read off the rows as one row of real rationals.  It grows a basis of those rows, grouped by
the length-(k-1) suffix of the word that produced each one, visiting words
in length-then-alphabet order.  The first row whose accepting diagonal
does not sum to zero ends the search: its word is the least witness.  If
no row differs, the span stops growing after polynomially many insertions
and the automata are equivalent.  A brute-force scan over all words up to
the length bound double-checks the verdicts here.
"""

from qfaeq import (
    Alphabet,
    GaussianRational,
    KLetterQFA,
    always_accept_qfa,
    brute_force,
    decide,
    last_letter_qfa,
    lift,
    random_qfa,
)
from qfaeq.equivalence import rank_bound
from fractions import Fraction

two = Alphabet("ab")

# An automaton that accepts words ending in 'b' versus one that accepts
# everything.  They already disagree on the empty word.
ll = last_letter_qfa()
v = decide(ll, always_accept_qfa(two))
print("last-letter vs always-accept:")
print("  equivalent:", v.equivalent)
print("  witness   :", repr(v.witness), " p1 =", v.p1, " p2 =", v.p2)

# Global phase on the initial state is unobservable, so scaling it by a
# unit-modulus number changes nothing measurable.
a = random_qfa(2, two, k=2, seed=7)
phase = GaussianRational(Fraction(3, 5), Fraction(4, 5))
b = KLetterQFA(a.n, a.alphabet, a.k,
               tuple(phase * x for x in a.initial),
               a.accepting, a.transitions)
same = decide(a, b)
same_cap = a.n ** 2 + b.n ** 2 - 1
print("\nphase-scaled copy equivalent:", same.equivalent)

# Two independent random automata almost always differ somewhere.  This
# pair happens to agree on the empty word and split on 'a'.
a = random_qfa(2, two, k=2, seed=2)
c = random_qfa(2, two, k=2, seed=11)
v = decide(a, c)
print("\ntwo random automata:")
print("  equivalent:", v.equivalent)
if not v.equivalent:
    print("  witness   :", repr(v.witness), " p1 =", v.p1, " p2 =", v.p2)

# Any difference must appear within this many letters, the rank bound
# R + k - 1 (the paper's Theorem 4 depth, theorem4_bound, is larger); the
# brute-force check below only needs to look that far (here it stops much
# earlier).
bound = rank_bound(a.n, c.n, len(two), max(a.k, c.k))
print("  length bound:", bound)
vb = brute_force(a, c, max_len=8)
print("  brute-force agrees:", vb == v,
      " least witness:", repr(vb.witness))

# The search itself is small.  Each row holds n1^2 + n2^2 real numbers
# whose diagonal entries sum to zero, so a suffix class never needs more
# than n1^2 + n2^2 - 1 rows; the verdict carries the counts.  On the
# equivalent pair the search ran to the end and seeded every class; on the
# random pair it stopped at the witness before seeding any.  A lifted
# automaton is searched at the width it was lifted from: a one-letter
# automaton against its three-letter lift grows the single class ''.
print("\nsearch statistics:")
print("  phase-scaled copy: class sizes", same.basis_sizes,
      " nodes processed", same.nodes_processed,
      " per-class cap", same_cap)
print("  random pair      : class sizes", v.basis_sizes,
      " nodes processed", v.nodes_processed)
one = random_qfa(2, two, k=1, seed=3)
lifted = decide(one, lift(one, 3))
print("  lifted pair      : class sizes", lifted.basis_sizes,
      " nodes processed", lifted.nodes_processed)
