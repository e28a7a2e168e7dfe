import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blrc.gf import GF256
from blrc.linalg import (
    GfMatrix,
    SingularMatrixError,
    in_span,
    insert_row,
    rank,
    solve,
    span_coefficients,
)


def rand_matrix(rng, rows, cols, field=GF256):
    return GfMatrix(
        [[rng.randrange(field.order) for _ in range(cols)] for _ in range(rows)],
        field,
    )


def test_rank_identity_and_zero():
    assert rank(GfMatrix.identity(7, GF256)) == 7
    assert rank(GfMatrix.zeros(4, 6, GF256)) == 0


def test_rank_weight3_rows_with_distinct_supports():
    # two rows supported on columns {0,1,3} and {0,3,4} of a 5-column matrix
    rng = random.Random(11)
    M = GfMatrix(
        [
            [rng.randrange(1, 256), rng.randrange(1, 256), 0, rng.randrange(1, 256), 0],
            [rng.randrange(1, 256), 0, 0, rng.randrange(1, 256), rng.randrange(1, 256)],
        ],
        GF256,
    )
    assert rank(M) == 2


def test_rank_equals_transpose_rank():
    rng = random.Random(3)
    for _ in range(25):
        M = rand_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 7))
        assert rank(M) == rank(M.transpose())


def test_rank_invariant_under_row_swap_and_scaling():
    rng = random.Random(5)
    for _ in range(20):
        M = rand_matrix(rng, 5, 4)
        r0 = rank(M)
        data = [list(row) for row in M.data]
        i, j = rng.sample(range(5), 2)
        data[i], data[j] = data[j], data[i]
        scale = rng.randrange(1, 256)
        data[i] = [GF256.mul(scale, x) for x in data[i]]
        assert rank(GfMatrix(data, GF256)) == r0


def test_solve_identity():
    A = GfMatrix.identity(4, GF256)
    b = [9, 0, 255, 3]
    assert solve(A, b) == b


def test_solve_rank_deficient_raises():
    A = GfMatrix([[1, 2], [2, 4], [0, 0]], GF256)
    # second row is 2x the first over GF(2^8)? ensure deficiency explicitly
    A = GfMatrix([[1, 2], [1, 2], [0, 0]], GF256)
    with pytest.raises(SingularMatrixError):
        solve(A, [1, 0, 0])


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_solve_round_trip(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 6)
    while True:
        A = rand_matrix(rng, n, n)
        if rank(A) == n:
            break
    x = [rng.randrange(256) for _ in range(n)]
    b = A.mul_vec(x)
    assert solve(A, b) == x


def test_solve_overdetermined_consistent():
    rng = random.Random(17)
    A = rand_matrix(rng, 7, 4)
    while rank(A) < 4:
        A = rand_matrix(rng, 7, 4)
    x = [rng.randrange(256) for _ in range(4)]
    assert solve(A, A.mul_vec(x)) == x


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_insert_row_matches_rank_and_span(seed):
    rng = random.Random(seed)
    rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
    # few distinct entries make dependent rows and zero columns common
    values = [0, 0, 0] + [rng.randrange(1, 256) for _ in range(2)]
    data = [[rng.choice(values) for _ in range(cols)] for _ in range(rows)]
    basis = []
    for i, row in enumerate(data):
        grows = rank(GfMatrix(data[: i + 1], GF256)) > rank(
            GfMatrix(data[:i], GF256)
        )
        assert (insert_row(basis, row, GF256) is not None) == grows
    M = GfMatrix(data, GF256)
    assert len(basis) == rank(M)
    leads = [lead for lead, _ in basis]
    assert len(set(leads)) == len(leads)
    for lead, row in basis:
        assert row[lead] and not any(row[:lead])

    # membership: a combination of the rows, or a random vector
    if rng.random() < 0.5:
        target = M.transpose().mul_vec([rng.randrange(256) for _ in range(rows)])
    else:
        target = [rng.choice(values) for _ in range(cols)]
    inside = insert_row(list(basis), target, GF256) is None
    assert inside == (span_coefficients(M.transpose(), target) is not None)

    # the span reaches the target columns na.. iff some lead lies there
    na = rng.randrange(cols + 1)
    left = M.submatrix(list(range(rows)), list(range(na)))
    assert any(lead >= na for lead in leads) == (rank(M) > rank(left))


def test_in_span_zero_and_members():
    M = GfMatrix([[1, 0], [0, 1], [0, 0]], GF256)
    assert in_span([0, 0, 0], M)
    assert in_span([1, 0, 0], M)
    assert not in_span([0, 0, 1], M)


def test_span_coefficients_reconstruct():
    rng = random.Random(23)
    cols = rand_matrix(rng, 6, 4)
    target = cols.mul_vec([5, 0, 9, 1])
    coeffs = span_coefficients(cols, target)
    assert coeffs is not None
    assert cols.mul_vec(coeffs) == target


def test_span_coefficients_none_outside_span():
    M = GfMatrix([[1], [0]], GF256)
    assert span_coefficients(M, [0, 1]) is None


def test_matrix_vec_products_match():
    rng = random.Random(29)
    M = rand_matrix(rng, 3, 5)
    x = [rng.randrange(256) for _ in range(5)]
    assert M.mul_vec(x) == M.transpose().vec_mul(x)


def test_submatrix_and_column():
    M = GfMatrix([[1, 2, 3], [4, 5, 6]], GF256)
    assert M.column(1) == [2, 5]
    S = M.submatrix([1], [0, 2])
    assert S.data == [[4, 6]]
