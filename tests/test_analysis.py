import itertools
import math
import random

import pytest

from blrc import analysis
from blrc.analysis import (
    DoubleRepairStats,
    _bits,
    _closed_flats,
    _directions,
    _outside_classes,
    _pattern_costs,
    avg_repair_bandwidth_double,
    avg_repair_bandwidth_single,
    build_report,
    decodability_profile,
    minimal_repair,
    repair_values,
    undecodable_counts,
)
from blrc.code import (
    CodeSpec,
    SystematicCode,
    UndecodableError,
    assign_coefficients,
    encode,
    support_of,
)
from blrc.gf import GF256, FieldSpec
from blrc.linalg import GfMatrix, _flats
from blrc.presets import blrc_15_10_w3, blrc_16_10_w2, blrc_16_10_w3
from blrc.refcodes import build_replication, build_rs
from blrc.search import random_support
from util_oracles import (
    certify_plan,
    decodable_by_generator,
    minimal_repair_all_subsets,
    oracle_rank,
    proportional_classes,
    random_valid_code,
)


def test_single_repairs_cost_six(code_15_10):
    for b in range(1, 16):
        plan = minimal_repair(code_15_10, (b,))
        assert plan.cost == 6


def test_parity_repair_helpers_are_its_support(code_15_10):
    plan = minimal_repair(code_15_10, (11,))
    support_rows = [
        i + 1 for i in range(10) if code_15_10.P.data[i][0] != 0
    ]
    assert plan.helpers == tuple(support_rows)
    assert plan.cost == 6


def test_w2_code_data_block_repairs_via_weight3_column(code_16_10_w2):
    plan = minimal_repair(code_16_10_w2, (1,))
    assert plan.cost == 3
    # block 1 is covered by parity columns 11 (weight 4) and 16 (weight 3)
    assert 16 in plan.helpers


def test_empty_and_invalid_patterns(code_15_10):
    assert minimal_repair(code_15_10, ()).cost == 0
    with pytest.raises(ValueError):
        minimal_repair(code_15_10, (0,))
    with pytest.raises(ValueError):
        minimal_repair(code_15_10, (1, 1))


def test_undecodable_pattern_raises(code_15_10):
    cols = support_of(code_15_10.P)[0]
    erased = tuple(sorted([1] + [11 + j for j in cols]))
    with pytest.raises(UndecodableError):
        minimal_repair(code_15_10, erased)


def test_avg_single_bandwidths(code_15_10, code_16_10_w3, code_16_10_w2):
    assert avg_repair_bandwidth_single(code_15_10) == 6.0
    assert avg_repair_bandwidth_single(code_16_10_w3) == 5.0
    assert avg_repair_bandwidth_single(code_16_10_w2) == 3.125


def test_avg_double_bandwidths(code_15_10, code_16_10_w3, code_16_10_w2):
    d1 = avg_repair_bandwidth_double(code_15_10)
    assert (d1.mean_cost, d1.pairs, d1.undecodable_pairs) == (9.0, 105, 0)
    # the published figures for the two [16, 10] layouts are 7.0 and 5.22;
    # the exhaustive joint minimum over all pairs is provably higher for
    # these supports (see the repository notes), and these are the values
    # the pipeline stands behind
    d2 = avg_repair_bandwidth_double(code_16_10_w3)
    assert d2.mean_cost == pytest.approx(7.4, abs=1e-9)
    d3 = avg_repair_bandwidth_double(code_16_10_w2)
    assert d3.mean_cost == pytest.approx(5.766667, abs=1e-4)
    assert d3.undecodable_pairs == 0


def test_single_repair_cost_is_l_or_l_plus_one(code_15_10, code_16_10_w2):
    for code in (code_15_10, code_16_10_w2):
        l = code.spec.l
        for b in range(1, code.n + 1):
            assert minimal_repair(code, (b,)).cost in (l, l + 1)


def dense_global_code(seed: int) -> SystematicCode:
    """[14, 8] code laid out like the Azure LRC: two local parities over the
    halves of the data and four dense global parities.  Dense columns are
    the hard case for planning; balanced supports rarely have them."""
    rng = random.Random(seed)
    rows = [
        [1 if i // 4 == j else 0 for j in range(2)]
        + [rng.randrange(1, 256) for _ in range(4)]
        for i in range(8)
    ]
    return SystematicCode(GfMatrix(rows, GF256))


def test_dense_global_pair_plans_match_oracle():
    code = dense_global_code(5)
    pairs = list(itertools.combinations(range(1, code.n + 1), 2))
    for pair in random.Random(3).sample(pairs, 10):
        cost, helpers = minimal_repair_all_subsets(code, pair)
        plan = minimal_repair(code, pair)
        assert (plan.cost, plan.helpers) == (cost, tuple(sorted(helpers)))


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _first_nonzero(vec) -> int:
    return next(i for i, x in enumerate(vec) if x)


def _rank_of_submasks(cols, nonzero, field):
    return {
        F: oracle_rank([cols[b] for b in _bits(F)], field) if F else 0
        for F in _submasks(nonzero)
    }


def test_flats_hold_every_low_rank_row_set():
    # the rows of [P; I_r], one per block, are the parity-check columns the
    # double average splits into flats: every set F of more than kappa of
    # them spanning at most kappa dimensions lies in one mask _flats
    # returns, every mask spans exactly kappa dimensions, and its basis is
    # in echelon order and spans exactly the mask's columns
    rng = random.Random(404)
    codes = [dense_global_code(5), proportional_rows_code()]
    codes += [code for code, _ in itertools.islice(small_alphabet_codes(), 4)]
    for _ in range(4):
        # 0/1 coefficients make low-rank sets of columns common
        k, r = rng.randrange(6, 9), rng.randrange(5, 7)
        rows = [[int(rng.random() < 0.5) for _ in range(r)] for _ in range(k)]
        codes.append(SystematicCode(GfMatrix(rows, GF256)))
    # a GF(2^16) code, walked by the tuple step: small coefficients and a
    # row scaled by a wide element
    wide, wide_rng = FieldSpec(16, 0x1100B), random.Random(406)
    rows = [[wide_rng.choice((0, 0, 1, 2, 3)) for _ in range(5)] for _ in range(7)]
    rows[3] = [wide.mul(40503, x) for x in rows[0]]
    codes.append(SystematicCode(GfMatrix(rows, wide)))
    checked = 0
    for code in codes:
        cols, dirs = _directions(code)
        nonzero = 0
        for _, mask in dirs:
            nonzero |= mask
        rank_of = _rank_of_submasks(cols, nonzero, code.field)
        for kappa in range(1, code.r - 1):
            listed = [
                (f, tuple(map(tuple, basis)))
                for f, basis in _flats(dirs, kappa, kappa, code.field)
            ]
            masks = [f for f, _ in listed]
            assert all(rank_of[f] == kappa for f in masks)
            assert all(not f & ~nonzero for f in masks)
            for f, basis in listed:
                assert len(basis) == kappa
                pivots = [_first_nonzero(v) for v in basis]
                for i, v in enumerate(basis):
                    assert v[pivots[i]] == 1
                    assert not any(v[p] for p in pivots[:i]), (kappa, basis)
                both = [cols[b] for b in _bits(f)] + list(basis)
                assert oracle_rank(list(basis), code.field) == kappa
                assert oracle_rank(both, code.field) == kappa
            for F, rank_F in rank_of.items():
                if F.bit_count() > kappa and rank_F <= kappa:
                    checked += 1
                    assert any(not F & ~f for f in masks), (kappa, _bits(F))
    assert checked > 1000


def test_flats_above_a_larger_need_lists_the_larger_masks():
    # a larger need prunes the walk, and at the last level skips the
    # directions no line through which holds more than need columns, but
    # drops no mask holding more, nor reorders or changes the bases
    rng = random.Random(405)
    codes = [dense_global_code(6), proportional_rows_code()]
    codes += [blrc_15_10_w3(), blrc_16_10_w3(), blrc_16_10_w2()]
    codes += [code for code, _ in itertools.islice(small_alphabet_codes(), 6)]
    for _ in range(4):
        k, r = rng.randrange(6, 10), rng.randrange(4, 7)
        rows = [[int(rng.random() < 0.5) for _ in range(r)] for _ in range(k)]
        codes.append(SystematicCode(GfMatrix(rows, GF256)))
    dropped = 0
    for code in codes:
        _, dirs = _directions(code)
        for kappa in range(1, code.r):
            listed = _flats(dirs, kappa, kappa, code.field)
            for need in range(kappa + 1, code.n):
                larger = [item for item in listed if item[0].bit_count() > need]
                assert _flats(dirs, kappa, need, code.field) == larger
                dropped += len(listed) - len(larger)
    assert dropped > 1000


def small_field_codes():
    """Codes over GF(4) and GF(8) from few coefficients, each with a zero
    data row (a zero parity-check column) and a scaled copy of another
    row (proportional parity-check columns)."""
    rng = random.Random(1313)
    for field in (FieldSpec(2, 0b111), FieldSpec(3, 0b1011)):
        for _ in range(4):
            k, r = rng.randrange(4, 8), rng.randrange(3, 6)
            rows = [
                [rng.choice((1, 2)) if rng.random() < 0.5 else 0 for _ in range(r)]
                for _ in range(k - 2)
            ]
            rows.append([0] * r)
            rows.append([field.mul(3, x) for x in rows[0]])
            rng.shuffle(rows)
            yield SystematicCode(GfMatrix(rows, field))


def test_closed_flats_are_each_closed_flat_once_largest_first():
    # every closed kappa-flat with more than need columns, by the rank of
    # every set of columns, comes exactly once and largest first; and its
    # outside classes are the split of the other nonzero columns into
    # classes proportional modulo the flat's span, by rank
    checked = 0
    for code in small_field_codes():
        field = code.field
        cols, dirs = _directions(code)
        assert any(not any(col) for col in cols)
        nonzero = 0
        for _, mask in dirs:
            nonzero |= mask
        rank_of = _rank_of_submasks(cols, nonzero, field)
        for kappa in range(1, code.r):
            closed = [
                F
                for F, rank_F in rank_of.items()
                if rank_F == kappa
                and all(rank_of[F | 1 << b] > kappa for b in _bits(nonzero & ~F))
            ]
            for need in range(kappa + 2):
                got = list(_closed_flats(dirs, kappa, need, field))
                masks = [flat for flat, _ in got]
                assert len(set(masks)) == len(masks)
                assert set(masks) == {F for F in closed if F.bit_count() > need}
                sizes = [flat.bit_count() for flat in masks]
                assert sizes == sorted(sizes, reverse=True)
                for flat, basis in got:
                    outside = _bits(nonzero & ~flat)
                    span = [cols[b] for b in _bits(flat)]
                    members = proportional_classes(
                        span, [cols[b] for b in outside], field
                    )
                    want = [sum(1 << outside[i] for i in m) for m in members]
                    classes = _outside_classes(dirs, nonzero & ~flat, basis, field)
                    assert classes == want, (kappa, _bits(flat))
                    checked += 1
    assert checked > 200, checked


def _check_against_oracle(code, patterns):
    for pattern in patterns:
        expected = minimal_repair_all_subsets(code, pattern)
        if expected is None:
            with pytest.raises(UndecodableError):
                minimal_repair(code, pattern)
            continue
        plan = minimal_repair(code, pattern)
        assert (plan.cost, plan.helpers) == expected, pattern


def _check_certificates(code, patterns):
    # the oracle's answer, certified from the generator side without
    # trying the smaller sizes one by one
    for pattern in patterns:
        try:
            helpers = minimal_repair(code, pattern).helpers
        except UndecodableError:
            helpers = None
        certify_plan(code, pattern, helpers)


def test_mds_plans_take_the_greedy_basis():
    # every coordinate flat of an MDS code has r - f columns, so no listed
    # flat is skew and the plan takes the greedy basis of the contraction:
    # the last r - f survivors stay unfetched and the first k help
    code = build_rs(14, 10).code
    blocks = range(1, code.n + 1)
    triples = random.Random(14).sample(list(itertools.combinations(blocks, 3)), 30)
    patterns = [(b,) for b in blocks] + list(itertools.combinations(blocks, 2))
    patterns += triples
    _check_certificates(code, patterns)
    for pattern in patterns:
        survivors = [b for b in blocks if b not in pattern]
        assert minimal_repair(code, pattern).helpers == tuple(survivors[: code.k])


def test_r_block_patterns_read_every_survivor(code_15_10):
    # r erased blocks leave a flat of rank 0: every survivor helps
    code = code_15_10
    blocks = range(1, code.n + 1)
    patterns = random.Random(5).sample(
        list(itertools.combinations(blocks, code.r)), 24
    )
    _check_against_oracle(code, patterns)
    decodable = 0
    for pattern in patterns:
        if decodable_by_generator(code, pattern):
            decodable += 1
            survivors = tuple(b for b in blocks if b not in pattern)
            assert minimal_repair(code, pattern).helpers == survivors
    assert 0 < decodable < len(patterns)


def test_bundled_16_10_triples_match_oracle(code_16_10_w3, code_16_10_w2):
    # the shard workload's codes and deepest losses
    rng = random.Random(1610)
    for code in (code_16_10_w3, code_16_10_w2):
        triples = list(itertools.combinations(range(1, code.n + 1), 3))
        _check_certificates(code, rng.sample(triples, 40))


def test_dense_global_pairs_and_triples_match_oracle():
    # four dense global parities: the plans are the all-subsets oracle's
    code = dense_global_code(28)
    blocks = range(1, code.n + 1)
    rng = random.Random(8)
    patterns = rng.sample(list(itertools.combinations(blocks, 2)), 40)
    patterns += rng.sample(list(itertools.combinations(blocks, 3)), 10)
    _check_against_oracle(code, patterns)


def proportional_rows_code() -> SystematicCode:
    """[10, 7]: rows 1-4 restrict to one direction on parities 8 and 9, so
    p8 + p9 = 3 * d5 and d5 is rebuilt from two blocks."""
    rows = [[1, 1, 0]] * 4 + [[1, 2, 1]] + [[0, 0, 1]] * 2
    return SystematicCode(GfMatrix([list(row) for row in rows], GF256))


def tied_halves_code() -> SystematicCode:
    """[6, 4]: p6 = p5 + 3 * (d3 + d4) = 2 * p5 + 3 * (d1 + d2)."""
    return SystematicCode(GfMatrix([[1, 1], [1, 1], [1, 2], [1, 2]], GF256))


def small_alphabet_codes():
    """Twelve codes with coefficients drawn from {1, 2, 3}, which make rows
    proportional within a parity set far more often than random GF(2^8)
    coefficients do, each with five sampled triples."""
    rng = random.Random(17)
    for _ in range(12):
        k, r = rng.randrange(3, 8), rng.randrange(2, 5)
        rows = [
            [rng.choice((1, 2, 3)) if rng.random() < 0.6 else 0 for _ in range(r)]
            for _ in range(k)
        ]
        code = SystematicCode(GfMatrix(rows, GF256))
        blocks = range(1, code.n + 1)
        yield code, rng.sample(list(itertools.combinations(blocks, 3)), 5)


def test_rows_proportional_across_parities_match_oracle():
    # erasing 8 or 9 needs rows only one fetched parity covers to stay
    # unfetched, and erasing 5 needs more unfetched rows than the erased
    # data rows leave dimensions for
    code = proportional_rows_code()
    assert minimal_repair(code, (5,)).helpers == (8, 9)
    assert minimal_repair(code, (8,)).helpers == (5, 9)
    blocks = range(1, code.n + 1)
    _check_against_oracle(
        code,
        [(b,) for b in blocks] + list(itertools.combinations(blocks, 2)),
    )


def test_tie_inside_one_parity_set_takes_smallest_helpers():
    # with parity 5 alone either half of the data can stay unfetched
    code = tied_halves_code()
    assert minimal_repair(code, (6,)).helpers == (1, 2, 5)
    blocks = range(1, code.n + 1)
    _check_against_oracle(
        code,
        [(b,) for b in blocks] + list(itertools.combinations(blocks, 2)),
    )


def test_small_alphabet_codes_match_oracle():
    for code, triples in small_alphabet_codes():
        blocks = range(1, code.n + 1)
        patterns = [(b,) for b in blocks] + list(itertools.combinations(blocks, 2))
        _check_against_oracle(code, patterns + triples)


def zero_column_code() -> SystematicCode:
    """[5, 3]: data block 2 is in no parity's support."""
    return SystematicCode(GfMatrix([[1, 1], [0, 0], [1, 2]], GF256))


def test_pair_costs_match_repair_search():
    # both walk the same closed flats, but the averages price blocks and
    # pairs in bulk by the proportional classes outside each flat, and a
    # plan tests one pattern's skewness by rank; they agree on every
    # single and pair, and one the averages leave unpriced is one the
    # plan refuses as undecodable
    codes = [dense_global_code(5), dense_global_code(28)]
    codes += [code for code, _ in small_alphabet_codes()]
    codes += [proportional_rows_code(), tied_halves_code()]
    rng = random.Random(909)
    for n, k, w in [(10, 6, 2), (12, 8, 2), (12, 8, 3), (13, 9, 3), (14, 8, 4)]:
        for _ in range(2):
            code = random_valid_code(rng, n, k, w, GF256)
            assert code is not None
            codes.append(code)
    assert len(codes) == 26
    # MDS codes: no start beats r - f, so the walk leaves every pattern
    # to reads - need
    codes += [build_rs(9, 6).code, build_replication().code]
    codes.append(zero_column_code())
    for code in codes:
        blocks = range(1, code.n + 1)
        plans = {}
        for pattern in [(b,) for b in blocks] + list(
            itertools.combinations(blocks, 2)
        ):
            try:
                plans[pattern] = minimal_repair(code, pattern).cost
            except UndecodableError:
                pass
        lost = [b for b in blocks if (b,) not in plans]
        if lost:
            # a zero column: the single average refuses the first such block
            with pytest.raises(UndecodableError) as exc:
                avg_repair_bandwidth_single(code)
            assert exc.value.pattern == (lost[0],)
        singles = {(p[0], p[0]): c for p, c in plans.items() if len(p) == 1}
        assert _pattern_costs(code, 1) == singles
        pairs = {p: c for p, c in plans.items() if len(p) == 2}
        assert _pattern_costs(code, 2) == pairs


def test_zero_parity_check_column_pairs_are_undecodable():
    # data block 2 is in no parity's support: every pair holding it is
    # lost, and the other pairs leave it unfetched
    code = zero_column_code()
    assert avg_repair_bandwidth_double(code) == DoubleRepairStats(2.0, 6, 4)
    costs = _pattern_costs(code, 2)
    for pair in itertools.combinations(range(1, code.n + 1), 2):
        expected = minimal_repair_all_subsets(code, pair)
        assert costs.get(pair) == (expected and expected[0]), pair


def _coordinate_starts(code):
    """Each decodable pair's start, by brute force: the most nonzero
    columns zero on two rows of H on which the pair's columns are
    independent; and the columns every pair reads before any stays
    unfetched."""
    cols = [code.parity_check_column(b) for b in range(1, code.n + 1)]
    nonzero = [c for c in range(code.n) if any(cols[c])]
    starts = {}
    for a, b in itertools.combinations(range(code.n), 2):
        for i, j in itertools.combinations(range(code.r), 2):
            square = [[cols[a][i], cols[b][i]], [cols[a][j], cols[b][j]]]
            if oracle_rank(square, code.field) == 2:
                size = sum(1 for c in nonzero if not cols[c][i] | cols[c][j])
                starts[a + 1, b + 1] = max(starts.get((a + 1, b + 1), 0), size)
    return starts, len(nonzero) - 2


def _seeded_code(n, k, w, seed):
    spec = CodeSpec(n, k, w, GF256)
    return assign_coefficients(random_support(spec, seed), spec, seed=seed)


@pytest.mark.parametrize(
    "build, smallest_start, beaten",
    [
        # the bundled codes: every pair costs its start, and every start
        # is above r - 2, so the walk lists fewer flats
        (blrc_15_10_w3, 4, []),
        (blrc_16_10_w3, 5, []),
        (blrc_16_10_w2, 6, []),
        # one pair beats its start, so the walk still runs after the starts
        (lambda: _seeded_code(15, 10, 3, 1), 3, [(11, 13)]),
        (lambda: _seeded_code(18, 12, 3, 5), 4, [(15, 16)]),
        # r - 2 = 2: no starts are computed, and the walk lists lines
        (lambda: _seeded_code(11, 7, 2, 1), 3, []),
    ],
    ids=["15-10-w3", "16-10-w3", "16-10-w2", "15-10-w3-s1", "18-12-w3-s5", "11-7-w2-s1"],
)
def test_pair_costs_from_coordinate_starts(build, smallest_start, beaten):
    # a pair costs at most reads - its start; the walk lists only flats
    # above the smallest start and prices the pairs it leaves at it
    code = build()
    starts, reads = _coordinate_starts(code)
    assert min(starts.values()) == smallest_start
    costs = _pattern_costs(code, 2)
    plans = {pair: minimal_repair(code, pair) for pair in starts}
    assert costs == {pair: plan.cost for pair, plan in plans.items()}
    assert all(costs[pair] <= reads - start for pair, start in starts.items())
    assert [p for p in sorted(costs) if costs[p] < reads - starts[p]] == beaten
    checked = beaten if code.r > 4 else sorted(costs)
    for pair in checked:
        plan = plans[pair]
        assert minimal_repair_all_subsets(code, pair) == (plan.cost, plan.helpers)


def test_parity_pair_plans_match_oracle():
    # patterns erasing only parities (the small-alphabet codes' parity
    # pairs are among the pairs of the test above)
    code = dense_global_code(28)
    parities = range(code.k + 1, code.n + 1)
    _check_against_oracle(code, list(itertools.combinations(parities, 2)))


def test_plan_replay_reproduces_erased_blocks(code_15_10):
    rng = random.Random(99)
    data = [rng.randrange(256) for _ in range(10)]
    cw = encode(code_15_10, data)
    for erased in [(1,), (12,), (2, 7), (3, 14), (11, 15)]:
        plan = minimal_repair(code_15_10, erased)
        helpers = {b: cw[b - 1] for b in plan.helpers}
        recovered = repair_values(code_15_10, plan, helpers)
        for e in erased:
            assert recovered[e] == cw[e - 1]


def test_oracle_equivalence_on_small_random_codes():
    rng = random.Random(20240)
    cases = 0
    while cases < 12:
        n = rng.randrange(8, 13)
        k = rng.randrange(4, n - 2)
        w = min(k - 1, n - k, rng.randrange(1, 4))
        if w < 1:
            continue
        code = random_valid_code(rng, n, k, w, GF256)
        if code is None:
            continue
        patterns = [(rng.randrange(1, n + 1),) for _ in range(2)]
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        rng.shuffle(pairs)
        patterns += pairs[:3]
        for pattern in patterns:
            pattern = tuple(sorted(set(pattern)))
            expected = minimal_repair_all_subsets(code, pattern)
            try:
                plan = minimal_repair(code, pattern)
            except UndecodableError:
                assert expected is None
                continue
            assert expected is not None
            assert plan.cost == expected[0]
            assert plan.helpers == tuple(sorted(expected[1]))
        cases += 1


def test_decodability_profile_exact(code_15_10):
    profile = decodability_profile(code_15_10, 6)
    assert profile[1] == profile[2] == profile[3] == 1.0
    assert profile[4] == pytest.approx(1 - 10 / 1365, abs=1e-12)
    assert profile[5] == pytest.approx(1 - 310 / 3003, abs=1e-12)
    assert profile[6] == 0.0


def test_decodability_monotone(code_16_10_w3, code_16_10_w2):
    for code in (code_16_10_w3, code_16_10_w2):
        profile = decodability_profile(code, code.n)
        values = [profile[f] for f in sorted(profile)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert all(0.0 <= p <= 1.0 for p in values)


def test_undecodable_counts_match_direct_rank(code_16_10_w2):
    code = code_16_10_w2
    bad = undecodable_counts(code, 4)
    for f in (2, 3, 4):
        direct = sum(
            0 if decodable_by_generator(code, pattern) else 1
            for pattern in itertools.combinations(range(1, code.n + 1), f)
        )
        assert bad[f] == direct


def test_undecodable_counts_random_codes_match_direct_rank():
    rng = random.Random(31337)
    done = 0
    while done < 6:
        n = rng.randrange(7, 11)
        k = rng.randrange(3, n - 1)
        r = n - k
        w_cap = min(k - 1, r)
        if w_cap < 1 or w_cap * k < r:
            continue
        w = rng.randrange(1, w_cap + 1)
        if w * k < r:
            continue
        code = random_valid_code(rng, n, k, w, GF256)
        if code is None:
            continue
        bad = undecodable_counts(code, n)
        for f in range(1, n + 1):
            direct = sum(
                0 if decodable_by_generator(code, pattern) else 1
                for pattern in itertools.combinations(range(1, n + 1), f)
            )
            assert bad[f] == direct, (n, k, w, f)
        done += 1


def test_profile_beyond_r_is_zero(code_15_10):
    profile = decodability_profile(code_15_10, 8)
    assert profile[6] == profile[7] == profile[8] == 0.0
    assert math.comb(15, 7) == undecodable_counts(code_15_10, 7)[7]


def test_build_report_fields(code_15_10):
    report = build_report(code_15_10)
    assert report.storage_overhead == 0.5
    assert report.avg_repair_single == 6.0
    assert report.avg_repair_double == 9.0
    assert report.avg_column_weight == 6.0
    assert report.update_complexity == 4
    assert report.min_distance == 4
    assert set(report.decodability) == {1, 2, 3, 4, 5, 6}
    assert report.double_undecodable_pairs == 0


def test_report_for_w2_code(code_16_10_w2):
    report = build_report(code_16_10_w2)
    assert report.storage_overhead == 0.6
    assert report.avg_column_weight == pytest.approx(10 / 3, abs=1e-12)
    assert report.update_complexity == 3
    assert report.min_distance == 3
    assert set(report.decodability) == {1, 2, 3, 4, 5, 6}


def test_exact_single_plans_beyond_n_24_match_oracle():
    # one exact plan answers every length: the cheapest helper set and,
    # among those, the lexicographically first, as the all-subsets oracle
    rng = random.Random(5)
    n, k, w = 30, 20, 2
    code = random_valid_code(rng, n, k, w, GF256)
    assert code is not None
    data = [rng.randrange(256) for _ in range(k)]
    cw = encode(code, data)
    for b in (1, 3, 20, 21, 30):
        plan = minimal_repair(code, (b,))
        assert (plan.cost, plan.helpers) == minimal_repair_all_subsets(
            code, (b,)
        ), b
        helpers = {h: cw[h - 1] for h in plan.helpers}
        assert repair_values(code, plan, helpers)[b] == cw[b - 1]


def test_disjoint_groups_beyond_n_24_closed_form():
    # w = 1 splits [28, 24] into four groups of six data blocks and one
    # parity: a lost block reads the other six of its group, two losses in
    # different groups read twelve, and two in one group are undecodable
    code = random_valid_code(random.Random(5), 28, 24, 1, GF256)
    assert code is not None
    rows = support_of(code.P)
    assert all(len(cols) == 1 for cols in rows)
    assert sorted(cols[0] for cols in rows) == sorted(list(range(4)) * 6)
    assert avg_repair_bandwidth_single(code) == 6.0
    stats = avg_repair_bandwidth_double(code)
    assert stats.mean_cost == 12.0
    assert stats.pairs == 294
    assert stats.undecodable_pairs == 4 * math.comb(7, 2) == 84


def test_long_code_double_averages():
    # exact double averages past n = 24 (random_support(spec, 1) with
    # assign_coefficients(..., seed=1)), and sampled [26, 20] pairs priced
    # alike by minimal_repair
    for n, k, total in [(26, 20, 4759), (30, 24, 7872)]:
        spec = CodeSpec(n, k, 3, GF256)
        code = assign_coefficients(random_support(spec, 1), spec, seed=1)
        pairs = math.comb(n, 2)
        assert avg_repair_bandwidth_double(code) == DoubleRepairStats(
            total / pairs, pairs, 0
        )
        if n == 26:
            costs = _pattern_costs(code, 2)
            for pair in random.Random(26).sample(sorted(costs), 24):
                assert minimal_repair(code, pair).cost == costs[pair], pair


def test_long_code_averages_with_the_longest_listings():
    # both averages, pinned with ==, of the random_support(spec, 1) codes
    # with coefficient seed 1 whose flat listings are the longest measured:
    # 37,409 masks for [28, 20] w = 3 and 346,303 for [30, 20] w = 2
    for n, k, w, total, single in [(28, 20, 3, 4561, 202), (30, 20, 2, 3130, 120)]:
        spec = CodeSpec(n, k, w, GF256)
        code = assign_coefficients(random_support(spec, 1), spec, seed=1)
        pairs = math.comb(n, 2)
        assert avg_repair_bandwidth_double(code) == DoubleRepairStats(
            total / pairs, pairs, 0
        )
        assert avg_repair_bandwidth_single(code) == single / n
