from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qfaeq.scalars import IMAG, ONE, ZERO, GaussianRational

from reference import divide

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=1000
)
scalars = st.builds(GaussianRational, rationals, rationals)
nonzero_scalars = scalars.filter(bool)


def test_construction_coerces_ints():
    z = GaussianRational(3, -2)
    assert z.re == Fraction(3)
    assert z.im == Fraction(-2)


def test_construction_refuses_inexact_parts():
    # only numbers.Rational parts; as_scalar's wording for anything else
    for bad in (0.1, "3/5", 1j, None):
        with pytest.raises(TypeError, match="as an exact scalar"):
            GaussianRational(bad)
        with pytest.raises(TypeError, match="as an exact scalar"):
            GaussianRational(1, bad)


def test_constants():
    assert not ZERO
    assert ONE.re == 1 and not ONE.im
    assert IMAG * IMAG == -1


@given(scalars, scalars)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(scalars, scalars, scalars)
def test_addition_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(scalars, scalars, scalars)
def test_multiplication_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(scalars, scalars)
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(scalars, scalars, scalars)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(scalars, scalars)
def test_subtraction_inverts_addition_exactly(a, b):
    assert (a + b) - b == a


@given(scalars, nonzero_scalars)
def test_division_inverts_multiplication_exactly(a, b):
    assert divide(a * b, b) == a


@given(scalars, scalars)
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(scalars)
def test_conjugation_is_an_involution(a):
    assert a.conjugate().conjugate() == a


@given(scalars)
def test_abs_sq_matches_self_times_conjugate(a):
    product = a * a.conjugate()
    assert product.im == 0
    assert product.re == a.abs_sq()
    assert a.abs_sq() >= 0


@given(scalars, scalars)
def test_abs_sq_is_multiplicative(a, b):
    assert (a * b).abs_sq() == a.abs_sq() * b.abs_sq()


def test_branchy_multiplication_cases():
    # One case per fast path: real*real, real*complex, complex*real, full.
    r1 = GaussianRational(Fraction(2, 3))
    r2 = GaussianRational(Fraction(-3, 4))
    c1 = GaussianRational(Fraction(1, 2), Fraction(5, 7))
    c2 = GaussianRational(Fraction(-2), Fraction(1, 3))
    assert r1 * r2 == GaussianRational(Fraction(-1, 2))
    assert r1 * c1 == GaussianRational(Fraction(1, 3), Fraction(10, 21))
    assert c1 * r2 == GaussianRational(Fraction(-3, 8), Fraction(-15, 28))
    assert c1 * c2 == GaussianRational(
        Fraction(1, 2) * -2 - Fraction(5, 7) * Fraction(1, 3),
        Fraction(1, 2) * Fraction(1, 3) + Fraction(5, 7) * -2,
    )


def test_mixed_type_arithmetic():
    z = GaussianRational(Fraction(1, 2), Fraction(1, 3))
    assert 1 + z == GaussianRational(Fraction(3, 2), Fraction(1, 3))
    assert z - Fraction(1, 2) == GaussianRational(0, Fraction(1, 3))
    assert 2 * z == GaussianRational(1, Fraction(2, 3))
    assert divide(z, 2) == GaussianRational(Fraction(1, 4), Fraction(1, 6))
    assert divide(1, IMAG) == -IMAG
    assert 3 - GaussianRational(1) == 2


def test_equality_against_plain_rationals():
    assert GaussianRational(Fraction(1, 2)) == Fraction(1, 2)
    assert GaussianRational(2) == 2
    assert GaussianRational(2, 1) != 2
    assert GaussianRational(Fraction(1, 2)) != Fraction(1, 3)


def test_hash_agrees_with_rational_hash():
    assert hash(GaussianRational(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert hash(GaussianRational(7)) == hash(7)
    d = {GaussianRational(Fraction(1, 2)): "x"}
    assert d[Fraction(1, 2)] == "x"


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        divide(ONE, ZERO)
    with pytest.raises(ZeroDivisionError):
        divide(IMAG, GaussianRational(0, 0))


@given(nonzero_scalars)
def test_reciprocal_is_conjugate_over_abs_sq(a):
    assert divide(1, a) == divide(a.conjugate(), a.abs_sq())


def test_str_forms():
    assert str(GaussianRational(Fraction(3, 5))) == "3/5"
    assert str(GaussianRational(0, Fraction(-4, 5))) == "-4/5i"
    assert str(GaussianRational(Fraction(3, 5), Fraction(4, 5))) == "3/5+4/5i"
    assert str(GaussianRational(Fraction(3, 5), Fraction(-4, 5))) == "3/5-4/5i"
    assert str(ZERO) == "0"
