"""Exact complex rationals and the row-echelon span tracker.

Everything downstream rests on arithmetic that never rounds: Gaussian
rationals (complex numbers with Fraction parts), matrices over them, and
an incremental basis of rational rows that answers exact membership
questions.
"""

from fractions import Fraction

from qfaeq import CMatrix, GaussianRational, is_unitary
from qfaeq.linalg import span_insert

# A Gaussian rational is re + im*i with both parts Fraction.
z = GaussianRational(Fraction(3, 5), Fraction(4, 5))
print("z          =", z)
print("|z|^2      =", z.abs_sq())
print("z * conj z =", z * z.conjugate())

# Unit modulus means multiplying by z is a rotation; powers never drift.
w = z
for _ in range(5):
    w = w * z
print("z^6        =", w, " |z^6|^2 =", w.abs_sq())

# Compare with floats: the same six multiplications already lose the norm.
zf = complex(3 / 5, 4 / 5)
wf = zf
for _ in range(5):
    wf = wf * zf
print("float z^6 modulus^2 =", abs(wf) ** 2)

# Matrices: a rotation with rational entries, exactly unitary.
r = CMatrix([
    [Fraction(3, 5), Fraction(-4, 5)],
    [Fraction(4, 5), Fraction(3, 5)],
])
print("\nR unitary:", is_unitary(r))
print("R^2 =", r * r)

# The decision procedure tracks a growing span of rational rows with an
# exact, fully reduced echelon basis: a dict from pivot column to row,
# updated in place.
basis = {}
v1 = [Fraction(1), Fraction(2), Fraction(3)]
v2 = [Fraction(0), Fraction(1), Fraction(1)]
for name, v in [("v1", v1), ("v2", v2)]:
    added = span_insert(basis, v)
    print(f"insert {name}: new direction = {added}, rank = {len(basis)}")

# v1 + 2*v2 is already in the span, so the rank must not move.
combo = [Fraction(1), Fraction(4), Fraction(5)]
added = span_insert(basis, combo)
print(f"insert v1 + 2*v2: new direction = {added}, rank = {len(basis)}")
print("pivot columns:", sorted(basis))
