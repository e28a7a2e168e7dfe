import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blrc.analysis import minimum_distance
from blrc.code import (
    BlrcCode,
    CodeSpec,
    ConstructionError,
    SystematicCode,
    UndecodableError,
    assign_coefficients,
    check_support,
    decodable,
    decode_erasure,
    encode,
    gopalan_bound,
    recovery_coefficients,
    recovery_steps,
    support_of,
    update_complexity,
    validate,
)
from blrc.gf import GF256, FieldSpec
from blrc.linalg import GfMatrix
from blrc.presets import SUPPORT_15_10_W3, SUPPORT_16_10_W2
from util_oracles import min_distance_by_patterns, oracle_product, random_valid_code


def test_spec_derivations():
    spec = CodeSpec(15, 10, 3)
    assert (spec.r, spec.d, spec.l, spec.heavy_columns) == (5, 4, 6, 0)
    spec = CodeSpec(16, 10, 2)
    assert (spec.r, spec.d, spec.l, spec.heavy_columns) == (6, 3, 3, 2)


def test_spec_rejects_bad_parameters():
    with pytest.raises(ValueError):
        CodeSpec(10, 10, 2)
    with pytest.raises(ValueError):
        CodeSpec(12, 10, 3)  # w exceeds r = 2
    with pytest.raises(ValueError):
        CodeSpec(4, 2, 2)  # w must stay below k


def test_validate_bundled_code_passes(code_15_10):
    report = validate(code_15_10.P, code_15_10.spec)
    assert report.passed
    names = [c.name for c in report.clauses]
    assert names == [
        "row_weights",
        "column_weights",
        "column_census",
        "rank_condition",
    ]


def test_validate_flags_zeroed_coefficient(code_15_10):
    data = [list(row) for row in code_15_10.P.data]
    j = next(i for i, x in enumerate(data[0]) if x)
    data[0][j] = 0
    report = validate(GfMatrix(data, GF256), code_15_10.spec)
    failed = {c.name for c in report.failures()}
    assert "row_weights" in failed


def test_validate_flags_duplicate_row():
    spec = CodeSpec(15, 10, 3)
    code = assign_coefficients(SUPPORT_15_10_W3, spec, seed=2)
    data = [list(row) for row in code.P.data]
    data[1] = list(data[0])  # same support, same coefficients: rank 1 < 2
    report = validate(GfMatrix(data, GF256), spec)
    failed = {c.name: c for c in report.failures()}
    # column weights break as well; the rank clause must name the rows
    assert "rank_condition" in failed
    assert "(1, 2)" in failed["rank_condition"].detail


def test_validate_dimension_mismatch_raises(code_15_10):
    with pytest.raises(ValueError):
        validate(GfMatrix([[1, 2]], GF256), code_15_10.spec)


def test_check_support_census():
    spec = CodeSpec(16, 10, 2)
    assert check_support(SUPPORT_16_10_W2, spec) == []
    bad = (SUPPORT_16_10_W2[0],) + SUPPORT_16_10_W2  # wrong row count
    assert check_support(bad, spec)


def test_assign_deterministic():
    spec = CodeSpec(15, 10, 3)
    a = assign_coefficients(SUPPORT_15_10_W3, spec, seed=9)
    b = assign_coefficients(SUPPORT_15_10_W3, spec, seed=9)
    assert a.P == b.P
    c = assign_coefficients(SUPPORT_15_10_W3, spec, seed=10)
    assert a.P != c.P


def test_assign_preserves_support():
    spec = CodeSpec(15, 10, 3)
    code = assign_coefficients(SUPPORT_15_10_W3, spec, seed=3)
    assert support_of(code.P) == SUPPORT_15_10_W3


def test_assign_impossible_support_fails():
    # identical weight-2 rows over GF(2): every draw is all-ones, rank 1
    gf2 = FieldSpec(1, 0b11)
    spec = CodeSpec(8, 4, 2, gf2)
    support = ((0, 1), (0, 1), (2, 3), (2, 3))
    with pytest.raises(ConstructionError) as exc:
        assign_coefficients(support, spec, seed=0)
    assert "dependent" in str(exc.value)


def test_assign_rejects_bad_support():
    spec = CodeSpec(15, 10, 3)
    with pytest.raises(ConstructionError):
        assign_coefficients(SUPPORT_15_10_W3[:9], spec, seed=0)


def test_encode_zero_and_units(code_15_10):
    code = code_15_10
    assert encode(code, [0] * 10) == [0] * 15
    for i in (0, 4, 9):
        data = [0] * 10
        data[i] = 1
        cw = encode(code, data)
        assert cw[:10] == data
        assert cw[10:] == list(code.P.data[i])


@pytest.mark.parametrize(
    "field",
    (FieldSpec(4, 0b10011), GF256, FieldSpec(16, 0x1002D)),
    ids=lambda f: f"m{f.m}",
)
def test_encode_matches_an_independent_product(field):
    # the parities are data @ P by the oracle's arithmetic, for random
    # codes and a [5, 3] code whose parity 5 covers no data block
    rng = random.Random(field.m)
    shapes = ((8, 5, 2), (15, 10, 3))
    codes = [random_valid_code(rng, *shape, field) for shape in shapes]
    codes.append(SystematicCode(GfMatrix([[1, 0], [2, 0], [3, 0]], field)))
    for code in codes:
        columns = list(zip(*code.P.data))
        for _ in range(5):
            data = [rng.randrange(field.order) for _ in range(code.k)]
            assert encode(code, data) == data + oracle_product(columns, data, field)
    assert encode(code, [5, 6, 7])[4] == 0


@given(seed=st.integers(min_value=0, max_value=10**6), scale=st.integers(1, 255))
@settings(max_examples=25, deadline=None)
def test_encode_linearity(code_15_10, seed, scale):
    code = code_15_10
    rng = random.Random(seed)
    x = [rng.randrange(256) for _ in range(10)]
    y = [rng.randrange(256) for _ in range(10)]
    ax_y = [GF256.add(GF256.mul(scale, a), b) for a, b in zip(x, y)]
    lhs = encode(code, ax_y)
    ex, ey = encode(code, x), encode(code, y)
    rhs = [GF256.add(GF256.mul(scale, a), b) for a, b in zip(ex, ey)]
    assert lhs == rhs


def test_decode_no_erasures_round_trip(code_15_10):
    rng = random.Random(77)
    data = [rng.randrange(256) for _ in range(10)]
    cw = encode(code_15_10, data)
    assert decode_erasure(code_15_10, list(cw), ()) == cw


def test_decode_recovers_any_three_erasures(code_15_10):
    rng = random.Random(78)
    data = [rng.randrange(256) for _ in range(10)]
    cw = encode(code_15_10, data)
    for _ in range(40):
        erased = tuple(sorted(rng.sample(range(1, 16), 3)))
        received = [None if b in erased else cw[b - 1] for b in range(1, 16)]
        assert decode_erasure(code_15_10, received, erased) == cw


def test_decode_from_any_full_rank_k_subset(code_15_10):
    # whenever the survivors' generator columns have rank k, the original
    # data comes back, regardless of which blocks survived
    rng = random.Random(80)
    data = [rng.randrange(256) for _ in range(10)]
    cw = encode(code_15_10, data)
    hits = 0
    while hits < 10:
        survivors = sorted(rng.sample(range(1, 16), 10))
        erased = tuple(b for b in range(1, 16) if b not in survivors)
        if not decodable(code_15_10, erased):
            continue
        received = [None if b in erased else cw[b - 1] for b in range(1, 16)]
        assert decode_erasure(code_15_10, received, erased) == cw
        hits += 1


def test_decode_row_and_its_parities_is_undecodable(code_15_10):
    # block 1 plus the three parities its row feeds cannot be recovered
    cols = support_of(code_15_10.P)[0]
    erased = tuple(sorted([1] + [11 + j for j in cols]))
    rng = random.Random(79)
    data = [rng.randrange(256) for _ in range(10)]
    cw = encode(code_15_10, data)
    received = [None if b in erased else cw[b - 1] for b in range(1, 16)]
    with pytest.raises(UndecodableError) as exc:
        decode_erasure(code_15_10, received, erased)
    assert exc.value.pattern == erased
    assert not decodable(code_15_10, erased)


def test_decode_input_validation(code_15_10):
    cw = encode(code_15_10, [1] * 10)
    with pytest.raises(ValueError):
        decode_erasure(code_15_10, cw[:14], ())
    received = list(cw)
    received[0] = None
    with pytest.raises(ValueError):
        decode_erasure(code_15_10, received, ())  # missing value not declared


def test_recovery_steps_rebuild_every_pattern(bundled_recoveries):
    # every decodable pattern of at most three blocks of the bundled codes,
    # from the plan's helpers and from every survivor: each step reads
    # helpers and earlier steps only, the steps take no more terms than
    # the joint solution, and they rebuild the codeword
    rng = random.Random(81)
    for code, pattern, helper_sets in bundled_recoveries:
        cw = encode(code, [rng.randrange(256) for _ in range(code.k)])
        for helpers in helper_sets:
            steps = recovery_steps(code, helpers, pattern)
            assert sorted(e for e, _ in steps) == list(pattern)
            known = {b: cw[b - 1] for b in helpers}
            for e, terms in steps:
                assert all(c and b in known for c, b in terms)
                acc = 0
                for c, b in terms:
                    acc ^= GF256.mul(c, known[b])
                known[e] = acc
            assert {e: known[e] for e in pattern} == {e: cw[e - 1] for e in pattern}
            joint = recovery_coefficients(code, helpers, pattern)
            assert sum(len(terms) for _, terms in steps) <= sum(
                1 for row in joint for c in row if c
            )


def test_single_erasure_is_rebuilt_from_its_local_group(
    code_15_10, code_16_10_w3, code_16_10_w2
):
    # with one of its local groups (a row of H = [P^T | I_r]) surviving, a
    # lost block is rebuilt from exactly that group's other l or l + 1
    # blocks, the lightest group when several survive
    for code in (code_15_10, code_16_10_w3, code_16_10_w2):
        k, l = code.k, code.spec.l
        groups = [
            [i + 1 for i in range(k) if code.P.data[i][j]] + [k + 1 + j]
            for j in range(code.r)
        ]
        for b in range(1, code.n + 1):
            own = [g for g in groups if b in g]
            for group in own:
                others = [x for x in group if x != b]
                assert len(others) in (l, l + 1)
                [(e, terms)] = recovery_steps(code, others, (b,))
                assert e == b and sorted(s for _, s in terms) == others
            survivors = [x for x in range(1, code.n + 1) if x != b]
            [(_, terms)] = recovery_steps(code, survivors, (b,))
            assert len(terms) == min(len(g) for g in own) - 1


def test_zero_column_parity_is_rebuilt_as_zero_from_nothing():
    # parity 5 of this [5, 3] code covers no data block, so its row of H
    # is its own unit and the block is always zero
    code = SystematicCode(GfMatrix([[1, 0], [2, 0], [3, 0]], GF256))
    assert recovery_steps(code, [1, 2, 3, 4], (5,)) == [(5, [])]
    steps = recovery_steps(code, [2, 3, 4], (1, 5))
    assert (5, []) in steps
    cw = encode(code, [7, 8, 9])
    assert cw[4] == 0
    received = [None, 8, 9, cw[3], None]
    assert decode_erasure(code, received, (1, 5)) == cw


def test_recovery_steps_refuse_what_the_joint_solve_refuses(code_15_10):
    # block 1 with the parities of its row is undecodable; a parity of
    # another row is peeled first, and the error still names the whole
    # pattern as given
    cols = support_of(code_15_10.P)[0]
    row = (1, *[11 + j for j in cols])
    other = next(11 + j for j in range(5) if j not in cols)
    for erased in (row + (other,), (other, *row)):
        helpers = [b for b in range(1, 16) if b not in erased]
        with pytest.raises(UndecodableError) as exc:
            recovery_steps(code_15_10, helpers, erased)
        assert exc.value.pattern == erased
        with pytest.raises(UndecodableError) as exc:
            recovery_coefficients(code_15_10, helpers, erased)
        assert exc.value.pattern == erased


def test_minimum_distance_bundled(code_15_10, code_16_10_w2):
    assert minimum_distance(code_15_10) == 4
    assert minimum_distance(code_16_10_w2) == 3


def test_minimum_distance_matches_locality_bound(code_15_10):
    assert gopalan_bound(15, 10, 6) == 5
    assert minimum_distance(code_15_10) <= gopalan_bound(15, 10, 6)


def test_update_complexity(code_15_10, code_16_10_w3, code_16_10_w2):
    assert update_complexity(code_15_10) == 4
    assert update_complexity(code_16_10_w3) == 4
    assert update_complexity(code_16_10_w2) == 3


def test_distance_is_row_weight_plus_one_small_random():
    rng = random.Random(4242)
    checked = 0
    while checked < 8:
        n = rng.randrange(8, 13)
        k = rng.randrange(4, n - 2)
        r = n - k
        w = rng.randrange(1, min(k - 1, r) + 1) if min(k - 1, r) >= 1 else 1
        try:
            code = random_valid_code(rng, n, k, w, GF256)
        except ValueError:
            continue
        if code is None:
            continue
        assert minimum_distance(code) == w + 1
        assert min_distance_by_patterns(code) == w + 1
        checked += 1
