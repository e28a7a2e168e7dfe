import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blrc.gf import GF256, FieldMismatchError, FieldSpec
from blrc.linalg import (
    GfMatrix,
    SingularMatrixError,
    _byte_reduce,
    _classes,
    _reduction,
    _tuple_reduce,
    insert_row,
    rank,
    solve,
    span_coefficients,
)
from util_oracles import (
    in_column_span,
    oracle_rank,
    oracle_span_coefficients,
    proportional_classes,
)

KERNEL_FIELDS = (FieldSpec(4, 0b10011), GF256, FieldSpec(16, 0x1002D))


def rand_matrix(rng, rows, cols, field=GF256):
    return GfMatrix(
        [[rng.randrange(field.order) for _ in range(cols)] for _ in range(rows)],
        field,
    )


def identity(n, field):
    return GfMatrix([[int(i == j) for j in range(n)] for i in range(n)], field)


def transpose(M):
    return GfMatrix([M.column(j) for j in range(M.cols)], M.field)


def test_rank_identity_and_zero():
    assert rank(identity(7, GF256)) == 7
    assert rank(GfMatrix([[0] * 6 for _ in range(4)], GF256)) == 0


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
        assert rank(M) == rank(transpose(M))


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
    A = identity(4, GF256)
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
        grows = oracle_rank(data[: i + 1], GF256) > oracle_rank(data[:i], GF256)
        assert (insert_row(basis, row, GF256) is not None) == grows
    M = GfMatrix(data, GF256)
    assert len(basis) == oracle_rank(data, GF256)
    leads = [lead for lead, _ in basis]
    assert len(set(leads)) == len(leads)
    for lead, row in basis:
        assert row[lead] == 1 and not any(row[:lead])

    # membership: a combination of the rows, or a random vector
    if rng.random() < 0.5:
        target = M.vec_mul([rng.randrange(256) for _ in range(rows)])
    else:
        target = [rng.choice(values) for _ in range(cols)]
    inside = insert_row(list(basis), target, GF256) is None
    assert inside == in_column_span(data, [target], GF256)

    # the span reaches the target columns na.. iff some lead lies there
    na = rng.randrange(cols + 1)
    left = [row[:na] for row in data]
    assert any(lead >= na for lead in leads) == (
        oracle_rank(data, GF256) > oracle_rank(left, GF256)
    )


@st.composite
def vector_lists(draw):
    """(field, vectors): a few vectors over few distinct entries, so that
    dependent and proportional ones are common, then the zero vector and
    combinations of them (vectors inside their span), shuffled."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    cols = draw(st.integers(1, 6))
    entries = [0, 0] + draw(
        st.lists(st.integers(1, field.order - 1), min_size=1, max_size=3)
    )
    vec = st.lists(st.sampled_from(entries), min_size=cols, max_size=cols)
    vecs = draw(st.lists(vec, min_size=1, max_size=6))
    scalars = st.lists(
        st.integers(0, field.order - 1), min_size=len(vecs), max_size=len(vecs)
    )
    M = GfMatrix(vecs, field)
    inside = [M.vec_mul(draw(scalars)) for _ in range(draw(st.integers(0, 3)))]
    return field, draw(st.permutations(vecs + inside + [[0] * cols]))


def _check_classes_by_rank(got, span, items, field):
    # the reference: the classes by rank, and each key the residual of
    # the class modulo the span scaled to 1: outside the span, on the line
    # of the class's first member modulo it, and zero at the first nonzero
    # entry of every span vector (in echelon form that pins it down)
    vecs = [v for v, _ in items]
    classes = proportional_classes(span, vecs, field)
    want = [sum(items[i][1] for i in members) for members in classes]
    assert list(got.values()) == want
    base = oracle_rank(span, field)
    pivots = [next(i for i, x in enumerate(d) if x) for d in span]
    for key, members in zip(got, classes):
        assert key[next(i for i, x in enumerate(key) if x)] == 1
        assert not any(key[p] for p in pivots)
        assert oracle_rank(span + [key], field) == base + 1
        assert oracle_rank(span + [key, vecs[members[0]]], field) == base + 1


@given(
    data=vector_lists(),
    picks=st.lists(st.integers(0, 10**6), max_size=2),
    scale=st.integers(1, 255),
)
@settings(max_examples=150, deadline=None)
def test_proportional_classes_match_rank(data, picks, scale):
    field, vecs = data
    nonzero = [v for v in vecs if any(v)]
    span = []
    if nonzero:
        # the span is taken in echelon form, as the rows of a Basis
        basis = []
        for pick in picks:
            insert_row(basis, nonzero[pick % len(nonzero)], field)
        span = [row for _, row in basis]
    if span:
        # scaled multiples of a direction lie in the span
        c = scale % (field.order - 1) + 1
        vecs = vecs + [[field.mul(c, x) for x in span[-1]]]
    items = [(v, 1 << i) for i, v in enumerate(vecs)]
    # _classes takes keys scaled to 1 at their first nonzero entry
    key, reduce = _reduction(field)
    span_keys = [reduce(key(d), key(d), 0) for d in span]
    item_keys = [(reduce(key(v), key(v), 0), rows) for v, rows in items]
    got = {tuple(v): rows for v, rows in _classes(span_keys, item_keys, field).items()}
    _check_classes_by_rank(got, [list(d) for d in span], items, field)


BYTE_FIELDS = (FieldSpec(1, 0b11), FieldSpec(2, 0b111), FieldSpec(4, 0b10011), GF256)


@st.composite
def reduction_cases(draw):
    """(field, direction, key): a nonzero direction scaled to 1 at its
    first nonzero entry, as the walks hold one, and a key of its length
    that is often zero at that pivot or zero altogether."""
    field = draw(st.sampled_from(BYTE_FIELDS))
    cols = draw(st.integers(1, 8))
    entries = st.sampled_from([0, 0, 1, field.order - 1]) | st.integers(
        0, field.order - 1
    )
    vec = st.lists(entries, min_size=cols, max_size=cols)
    d = draw(vec.filter(any))
    lead = next(x for x in d if x)
    return field, [field.div(x, lead) for x in d], draw(vec)


@given(case=reduction_cases())
@settings(max_examples=300, deadline=None)
def test_byte_and_tuple_reductions_agree(case):
    # the byte step must give the tuple step's normalized residual for
    # every field it serves, and both must equal v + a * d scaled by the
    # field's own arithmetic; a = 0 only scales, and zero stays zero
    field, d, v = case
    pivot = next(i for i, x in enumerate(d) if x)
    by_bytes, by_tuples = _byte_reduce(field), _tuple_reduce(field)
    for a in (v[pivot], 0, 1):
        total = [x ^ field.mul(a, y) for x, y in zip(v, d)]
        lead = next((x for x in total if x), 1)
        want = tuple(field.div(x, lead) for x in total)
        got = by_bytes(bytes(v), bytes(d), a)
        assert type(got) is bytes and tuple(got) == want
        assert by_tuples(tuple(v), tuple(d), a) == want
    # the selection: bytes for m <= 8, so a fallback to tuples fails here
    key, reduce = _reduction(field)
    assert key is bytes
    assert type(reduce(bytes(v), bytes(d), v[pivot])) is bytes
    key, reduce = _reduction(KERNEL_FIELDS[-1])  # GF(2^16)
    assert key is tuple
    assert type(reduce(tuple(v), tuple(d), v[pivot])) is tuple


def test_span_coefficients_zero_and_members():
    M = GfMatrix([[1, 0], [0, 1], [0, 0]], GF256)
    assert span_coefficients(M, [0, 0, 0]) is not None
    assert span_coefficients(M, [1, 0, 0]) is not None
    assert span_coefficients(M, [0, 0, 1]) is None


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
    assert M.mul_vec(x) == transpose(M).vec_mul(x)


def test_column():
    M = GfMatrix([[1, 2, 3], [4, 5, 6]], GF256)
    assert M.column(1) == [2, 5]


@st.composite
def systems(draw):
    """(field, rows, target): a matrix over few distinct entries, so that
    rank-deficient ones are common, and a target inside its column span
    or drawn like its entries."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entries = [0, 0] + draw(
        st.lists(st.integers(1, field.order - 1), min_size=1, max_size=3)
    )
    vec = st.lists(st.sampled_from(entries), min_size=cols, max_size=cols)
    data = draw(st.lists(vec, min_size=rows, max_size=rows))
    if draw(st.booleans()):
        x = draw(st.lists(st.integers(0, field.order - 1), min_size=cols, max_size=cols))
        target = GfMatrix(data, field).mul_vec(x)
    else:
        target = draw(st.lists(st.sampled_from(entries), min_size=rows, max_size=rows))
    return field, data, target


@given(case=systems())
@settings(max_examples=300, deadline=None)
def test_rank_solve_and_span_coefficients_match_oracle(case):
    field, data, target = case
    A = GfMatrix(data, field)
    full = oracle_rank(data, field)
    assert rank(A) == full
    want = oracle_span_coefficients(data, target, field)
    assert span_coefficients(A, target) == want
    if want is not None and full == A.cols:
        assert solve(A, target) == want
    else:
        with pytest.raises(SingularMatrixError):
            solve(A, target)


@pytest.mark.parametrize("call", [span_coefficients, solve])
def test_target_entry_outside_the_field_raises(call):
    field = FieldSpec(4, 0b10011)
    with pytest.raises(FieldMismatchError):
        call(identity(2, field), [20, 0])
    with pytest.raises(FieldMismatchError):
        call(identity(2, field), [0, -1])


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=lambda f: f"m{f.m}")
def test_rank_and_span_of_wide_matrices(field):
    # keys far longer than 4,095 entries, first nonzero early
    width = 5000
    data = [[0, 5] + [0] * (width - 2), [0, 0, 3] + [0] * (width - 4) + [7]]
    A = GfMatrix(data, field)
    assert rank(A) == 2
    assert rank(transpose(A)) == 2
    for target in ([5, 3], [0, 1]):
        assert span_coefficients(A, target) == oracle_span_coefficients(
            data, target, field
        )
    assert span_coefficients(A, [5, 3])[:3] == [0, 1, 1]
    if field.m <= 8:
        # a zero key still scales through div_tables[0]
        zero = bytes(width)
        assert _byte_reduce(field)(zero, zero, 0) == zero
