"""Building automata and computing acceptance probabilities.

A k-letter automaton applies one unitary per step, chosen by the context:
the last k letters read, left-padded with '_' while fewer than k letters
are available.  Measurement at the end gives an exact rational probability.
"""

from fractions import Fraction

from qfaeq import (
    Alphabet,
    CMatrix,
    KLetterQFA,
    accept_prob,
    iter_words,
    last_letter_qfa,
    random_qfa,
    reachable_contexts,
    validate,
)

# A one-letter automaton (k=1) with a single rotation by the (3,4,5) angle.
rot = CMatrix([
    [Fraction(3, 5), Fraction(-4, 5)],
    [Fraction(4, 5), Fraction(3, 5)],
])
a = KLetterQFA(
    n=2,
    alphabet=Alphabet("a"),
    k=1,
    initial=(1, 0),
    accepting={0},
    transitions={"a": rot},
)
print("validate:", validate(a) or "ok")
for word in ["", "a", "aa", "aaa"]:
    print(f"P({word!r:6}) = {accept_prob(a, word)}")

# The rotation is irrational as an angle, so the probabilities never cycle.

# With k=2 the operator depends on the current letter and the one before.
# Contexts for the first steps carry the '_' padding:
two = Alphabet("ab")
print("\ncontexts for k=2 over {a,b}:", reachable_contexts(two, 2))
# The word is padded on the left with k - 1 blanks, and the step at
# position i (from 1) reads the window of k characters that ends with the
# letter being read, the one at padded[i].
padded = "_" * (2 - 1) + "abb"
print("context at each position of 'abb':",
      [padded[i - 1 : i + 1] for i in (1, 2, 3)])

# last_letter_qfa accepts exactly the words ending in 'b', built from
# permutation matrices only.
ll = last_letter_qfa()
hits = [w for w in iter_words(two, 3) if accept_prob(ll, w) == 1]
print("accepted with probability 1, length <= 3:", hits)

# Random instances are exactly unitary by construction: the generator
# multiplies rational rotations, signed permutations, and unit phases.
# Denominators grow with the word, which is what exactness costs.
r = random_qfa(3, two, k=2, seed=3)
print("\nrandom 3-state, k=2 automaton validates:", validate(r) or "ok")
for word in ("ab", "ba"):
    p = accept_prob(r, word)
    print(f"P({word!r}) = {p} ~ {float(p):.6f}")
