import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfaeq.linalg import (
    CMatrix,
    _row_vector,
    _scaled_row,
    is_unitary,
    row_prob,
    row_times_matrix,
    span_insert,
    start_row,
    vector,
)
from qfaeq.qfa import random_unitary
from qfaeq.scalars import IMAG, ONE, ZERO, GaussianRational

from reference import (
    adjoint,
    conj,
    in_span,
    matmul,
    naive_rank,
    norm_sq,
    row_step,
    unitary,
)


def random_scalar(rng):
    return GaussianRational(
        Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)),
        Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)),
    )


def random_matrix(rng, rows, cols):
    return CMatrix(
        [[random_scalar(rng) for _ in range(cols)] for _ in range(rows)]
    )


small_dims = st.integers(min_value=1, max_value=3)


@st.composite
def matrices(draw, rows=None, cols=None):
    rng = random.Random(draw(st.integers(0, 10**6)))
    r = rows if rows is not None else draw(small_dims)
    c = cols if cols is not None else draw(small_dims)
    return random_matrix(rng, r, c)


def test_constructor_rejects_ragged_and_empty():
    with pytest.raises(ValueError):
        CMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        CMatrix([])
    with pytest.raises(ValueError):
        CMatrix([[]])
    for inexact in (0.5, None):
        with pytest.raises(TypeError, match="exact scalar"):
            CMatrix([[inexact]])


def test_identity_and_indexing():
    eye = CMatrix.identity(3)
    assert eye[0, 0] == ONE
    assert eye[0, 1] == ZERO
    assert eye.data[1] == (ZERO, ONE, ZERO)
    assert eye.column(2) == (ZERO, ZERO, ONE)


def test_multiplication_dimension_mismatch():
    with pytest.raises(ValueError):
        CMatrix.identity(2) * CMatrix.identity(3)


@settings(max_examples=40)
@given(matrices())
def test_identity_is_neutral(a):
    assert CMatrix.identity(a.nrows) * a == a
    assert a * CMatrix.identity(a.ncols) == a


@settings(max_examples=25)
@given(st.integers(0, 10**6))
def test_multiplication_associates(seed):
    rng = random.Random(seed)
    a = random_matrix(rng, 2, 3)
    b = random_matrix(rng, 3, 2)
    c = random_matrix(rng, 2, 2)
    assert (a * b) * c == a * (b * c)


@settings(max_examples=25)
@given(st.integers(0, 10**6))
def test_adjoint_reverses_products(seed):
    rng = random.Random(seed)
    a = random_matrix(rng, 2, 3)
    b = random_matrix(rng, 3, 2)
    assert adjoint(a * b) == adjoint(b) * adjoint(a)
    assert adjoint(adjoint(a)) == a
    d = adjoint(a)
    assert (d.nrows, d.ncols) == (3, 2)
    assert all(
        d[j, i] == a[i, j].conjugate() for i in range(2) for j in range(3)
    )


def test_is_unitary_rotation_by_hand():
    # Columns are orthonormal: (3/5)^2 + (4/5)^2 = 1, cross terms cancel.
    rot = CMatrix(
        [
            [Fraction(3, 5), Fraction(-4, 5)],
            [Fraction(4, 5), Fraction(3, 5)],
        ]
    )
    assert is_unitary(rot)


def test_is_unitary_counterexamples():
    assert not is_unitary(CMatrix([[1, 1], [0, 1]]))
    assert not is_unitary(CMatrix([[Fraction(1, 2)]]))
    assert is_unitary(CMatrix([[IMAG]]))
    assert is_unitary(CMatrix.identity(4))
    with pytest.raises(ValueError):
        is_unitary(CMatrix([[1, 0]]))


def test_vector_helpers():
    v = vector([1, Fraction(1, 2), 0])
    assert v == (ONE, GaussianRational(Fraction(1, 2)), ZERO)
    assert norm_sq(v) == Fraction(5, 4)
    # the start row is the conjugate: same scale, imaginary parts negated
    assert start_row((IMAG,)) == (1, (0,), (-1,))


@settings(max_examples=25)
@given(st.integers(0, 10**6))
def test_row_times_matrix_matches_full_product(seed):
    rng = random.Random(seed)
    m = random_matrix(rng, 3, 4)
    row = tuple(random_scalar(rng) for _ in range(3))
    via_matrix = (CMatrix([row]) * m).data[0]
    stepped = _row_vector(row_times_matrix(_scaled_row(row), m))
    assert stepped == via_matrix
    assert stepped == row_step(row, m)


def test_row_times_matrix_dimension_check():
    with pytest.raises(ValueError):
        row_times_matrix(_scaled_row((ONE,)), CMatrix.identity(2))


def random_rational(rng):
    return Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_span_insert_agrees_with_naive_rank(seed):
    rng = random.Random(seed)
    dim = rng.randrange(2, 6)
    basis = {}
    seen = []
    for step in range(8):
        if seen and rng.random() < 0.4:
            # a random linear combination, guaranteed dependent
            v = [Fraction(0)] * dim
            for w in seen:
                c = random_rational(rng)
                v = [x + c * y for x, y in zip(v, w)]
        else:
            v = [random_rational(rng) for _ in range(dim)]
        before = naive_rank(seen)
        after = naive_rank(seen + [v])
        inserted = span_insert(basis, v)
        assert inserted == (after > before)
        if inserted:
            seen.append(v)
        assert len(basis) == naive_rank(seen)
        assert in_span(basis.values(), v)


def test_span_insert_zero_vector_is_dependent():
    basis = {}
    assert not span_insert(basis, [Fraction(0)] * 3)
    assert basis == {}
    span_insert(basis, [Fraction(1), Fraction(2), Fraction(0)])
    before = {pivot: list(row) for pivot, row in basis.items()}
    assert not span_insert(basis, [Fraction(0)] * 3)
    assert basis == before


def test_span_insert_updates_in_place():
    basis = {}
    e0 = [Fraction(1), Fraction(0)]
    assert span_insert(basis, [Fraction(2), Fraction(4)])
    first = basis[0]
    assert first == [1, 2]
    assert span_insert(basis, [Fraction(0), Fraction(3)])
    # the older row is eliminated at the new pivot without being replaced
    assert basis[0] is first
    assert basis == {0: e0, 1: [0, 1]}
    # a dependent row changes nothing
    assert not span_insert(basis, [Fraction(5), Fraction(-7)])
    assert basis == {0: e0, 1: [0, 1]}
    # plain int rows stay exact: no entry becomes a float
    basis = {}
    assert span_insert(basis, [2, 4, 6])
    assert span_insert(basis, [0, 1, 3])
    assert basis == {0: [1, 0, -3], 1: [0, 1, 3]}
    assert all(type(x) is not float for row in basis.values() for x in row)


def test_in_span_detects_linear_combinations():
    v1 = [Fraction(1), Fraction(2), Fraction(0)]
    v2 = [Fraction(0), Fraction(1), Fraction(1)]
    basis = {}
    span_insert(basis, v1)
    span_insert(basis, v2)
    combo = [2 * x - Fraction(1, 3) * y for x, y in zip(v1, v2)]
    assert in_span(basis.values(), combo)
    assert not in_span(basis.values(), [Fraction(0), Fraction(0), Fraction(1)])


def test_echelon_invariant_fully_reduced():
    rng = random.Random(12345)
    basis = {}
    for _ in range(6):
        span_insert(basis, [random_rational(rng) for _ in range(5)])
    assert len(basis) == 5
    for pivot, row in basis.items():
        assert all(type(x) is Fraction for x in row)
        assert row[pivot] == 1
        for other in basis:
            if other != pivot:
                assert row[other] == 0


def test_rank_never_exceeds_dimension():
    rng = random.Random(999)
    basis = {}
    for _ in range(10):
        span_insert(basis, [random_rational(rng) for _ in range(3)])
    assert len(basis) <= 3
    # a full-rank basis contains everything
    if len(basis) == 3:
        assert in_span(basis.values(), [Fraction(7), Fraction(-1, 3), Fraction(2)])


def test_canonical_integer_form():
    m = CMatrix([[Fraction(2, 4), GaussianRational(0, Fraction(-1, 6))], [3, 0]])
    assert (m.den, m.re, m.im) == (6, ((3, 0), (18, 0)), ((0, -1), (0, 0)))
    # one gcd reduces a scaled form to the same canonical form
    same = CMatrix._from_ints(12, ((6, 0), (36, 0)), ((0, -2), (0, 0)))
    assert (same.den, same.re, same.im) == (m.den, m.re, m.im)
    assert same == m and hash(same) == hash(m)
    assert m[0, 1] == GaussianRational(0, Fraction(-1, 6))
    assert m.column(0) == (GaussianRational(Fraction(1, 2)), GaussianRational(3))
    # data is built on every access, never kept
    assert m.data == m.data and m.data is not m.data
    assert CMatrix([[1, 0], [0, 1]]) == CMatrix.identity(2)
    assert CMatrix([[Fraction(1, 3)]]) != CMatrix([[Fraction(2, 3)]])


@settings(max_examples=25)
@given(st.integers(0, 10**6))
def test_products_match_entrywise_reference(seed):
    rng = random.Random(seed)
    a = random_matrix(rng, 2, 3)
    b = random_matrix(rng, 3, 2)
    assert a * b == matmul(a, b)


def test_rows_by_hand():
    row = start_row((GaussianRational(Fraction(3, 5), Fraction(4, 5)), ZERO))
    assert row == (5, (3, 0), (-4, 0))
    assert row_prob(row, [0]) == 1 and row_prob(row, [1]) == 0
    assert _row_vector(row) == conj(
        (GaussianRational(Fraction(3, 5), Fraction(4, 5)), ZERO)
    )
    # (1/2, 1/2) times [[1, 1], [1, -1]] is (1, 0): the content 2 is removed
    half = _scaled_row(vector([Fraction(1, 2), Fraction(1, 2)]))
    assert half == (2, (1, 1), (0, 0))
    assert row_times_matrix(half, CMatrix([[1, 1], [1, -1]])) == (1, (1, 0), (0, 0))


def perturbations(m):
    """m with one entry conjugated, negated, or shifted by i/(den + 1), for
    a few entries."""
    rng = random.Random(m.den)
    n = m.nrows
    for _ in range(3):
        i, j = rng.randrange(n), rng.randrange(n)
        for change in (
            lambda z: z.conjugate(),
            lambda z: -z,
            lambda z: z + GaussianRational(0, Fraction(1, m.den + 1)),
        ):
            rows = [list(row) for row in m.data]
            rows[i][j] = change(rows[i][j])
            yield CMatrix(rows)


def test_is_unitary_agrees_with_entrywise_reference():
    seen = {True: 0, False: 0}
    for n in (1, 2, 3, 4, 6):
        for seed in range(4):
            u = random_unitary(n, random.Random(seed))
            assert is_unitary(u) and unitary(u)
            for v in perturbations(u):
                assert is_unitary(v) == unitary(v)
                seen[unitary(v)] += 1
    # the perturbed matrices include unitary and non-unitary ones
    assert seen[True] > 0 and seen[False] > 0
