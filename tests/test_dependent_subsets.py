"""Dependent subsets of parity-check columns and of parity-matrix rows:
the decodability census, the minimum distance (from minimum_distance and
from build_report, both read off the census) and the rank condition (the
census's verdict on the rows, and the first dependent subset that
validate and assign_coefficients name).

The pinned figures below were taken from the per-prefix elimination walk
that preceded the quotient walk; every count, distance and message must
stay exactly as it was.  The small-field codes check the census, the
rank condition at every row weight w and the first dependent subset
against brute force where proportional and zero vectors are common.
"""

import itertools
import random

import pytest

from blrc.analysis import build_report, minimum_distance, undecodable_counts
from blrc.code import (
    CodeSpec,
    ConstructionError,
    SystematicCode,
    UndecodableError,
    _dependent_rows,
    assign_coefficients,
    validate,
)
from blrc.gf import GF256, FieldSpec
from blrc.linalg import GfMatrix
from blrc.presets import BUNDLED, blrc_15_10_w3, blrc_16_10_w3
from blrc.refcodes import build_azure_lrc, build_rs
from blrc.search import random_support
from util_oracles import min_distance_by_patterns, oracle_rank

# name -> (undecodable f-subsets for f = 1..n, minimum distance)
PINNED = {
    "blrc-15-10-w3": (
        [0, 0, 0, 10, 310, 5005, 6435, 6435, 5005, 3003, 1365, 455, 105, 15, 1],
        4,
    ),
    "blrc-16-10-w2": (
        [0, 0, 10, 166, 1214, 4991, 11440, 12870, 11440, 8008, 4368, 1820,
         560, 120, 16, 1],
        3,
    ),
    "blrc-16-10-w3": (
        [0, 0, 0, 10, 174, 1629, 11440, 12870, 11440, 8008, 4368, 1820, 560,
         120, 16, 1],
        4,
    ),
    "azure": (
        [0, 0, 0, 0, 2, 452, 11440, 12870, 11440, 8008, 4368, 1820, 560, 120,
         16, 1],
        5,
    ),
    "rs-14-10": (
        [0, 0, 0, 0, 2002, 3003, 3432, 3003, 2002, 1001, 364, 91, 14, 1],
        5,
    ),
    "random-18-12-w3": (
        [0, 0, 0, 31, 539, 4432, 31824, 43758, 48620, 43758, 31824, 18564,
         8568, 3060, 816, 153, 18, 1],
        4,
    ),
    "random-20-14-w3": (
        [0, 0, 0, 20, 534, 7255, 77520, 125970, 167960, 184756, 167960,
         125970, 77520, 38760, 15504, 4845, 1140, 190, 20, 1],
        4,
    ),
}


def _pinned_code(name):
    if name in BUNDLED:
        return BUNDLED[name]()
    if name == "azure":
        return build_azure_lrc().code
    if name == "rs-14-10":
        return build_rs(14, 10).code
    n, k, w, seed = {
        "random-18-12-w3": (18, 12, 3, 5),
        "random-20-14-w3": (20, 14, 3, 6),
    }[name]
    spec = CodeSpec(n, k, w)
    return assign_coefficients(random_support(spec, seed), spec, seed)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_census_and_distance_pinned(name):
    code = _pinned_code(name)
    counts, distance = PINNED[name]
    assert undecodable_counts(code, code.n) == dict(enumerate(counts, 1))
    assert minimum_distance(code) == distance
    assert build_report(code).min_distance == distance


def _with_row(builder, target, a, b, scale):
    """A bundled parity matrix whose row target is scale * row a + row b."""
    code = builder()
    data = [list(row) for row in code.P.data]
    data[target] = [GF256.mul(scale, x) ^ y for x, y in zip(data[a], data[b])]
    return GfMatrix(data, GF256), code.spec


@pytest.mark.parametrize(
    "builder, target, a, b, scale, detail",
    [
        (blrc_15_10_w3, 6, 1, 3, 3, "rows (2, 4, 7) are linearly dependent"),
        (blrc_16_10_w3, 8, 0, 4, 7, "rows (1, 5, 9) are linearly dependent"),
        (blrc_16_10_w3, 4, 4, 4, 1, "rows (1, 2, 5) are linearly dependent"),
    ],
)
def test_rank_condition_detail_pinned(builder, target, a, b, scale, detail):
    P, spec = _with_row(builder, target, a, b, scale)
    clause = {c.name: c for c in validate(P, spec).clauses}["rank_condition"]
    assert not clause.passed
    assert clause.detail == detail


@pytest.mark.parametrize(
    "seed, subset",
    [(1, (2, 5, 6)), (2, (1, 7, 8)), (3, (2, 4, 8)), (4, (1, 6, 7)),
     (6, (1, 4, 6)), (7, (1, 3, 5))],
)
def test_construction_error_text_pinned(seed, subset):
    spec = CodeSpec(12, 8, 3, FieldSpec(2, 0b111))
    with pytest.raises(ConstructionError) as exc:
        assign_coefficients(random_support(spec, seed), spec, seed, max_attempts=2)
    assert str(exc.value) == (
        "rank condition unsatisfied after 2 coefficient draws;"
        f" last dependent row subset: {subset}"
    )


SMALL_FIELDS = (
    FieldSpec(1, 0b11),
    FieldSpec(2, 0b111),
    FieldSpec(3, 0b1011),
    FieldSpec(4, 0b10011),
)


def _small_field_code(rng, field=None, r=None):
    """A SystematicCode over field, by default one of GF(2)..GF(16) drawn
    from rng, with r parities, by default 1 to 4 drawn from rng, whose
    parity matrix is 70% filled, with some rows zeroed and some made
    multiples of others."""
    field = field or rng.choice(SMALL_FIELDS)
    k, r = rng.randint(2, 6), r or rng.randint(1, 4)
    data = [
        [rng.randrange(1, field.order) if rng.random() < 0.7 else 0
         for _ in range(r)]
        for _ in range(k)
    ]
    for i in range(k):
        roll = rng.random()
        if roll < 0.1:
            data[i] = [0] * r
        elif roll < 0.35 and i:
            scale = rng.randrange(1, field.order)
            data[i] = [field.mul(scale, x) for x in data[rng.randrange(i)]]
    return SystematicCode(GfMatrix(data, field))


def _dependent(vectors, subset, field):
    return oracle_rank([vectors[i] for i in subset], field) < len(subset)


def _first_dependent_by_brute_force(vectors, max_size, field):
    """The 1-based positions of the lexicographically first dependent
    subset of at most max_size vectors, or None."""
    dependent = [
        tuple(i + 1 for i in subset)
        for size in range(1, max_size + 1)
        for subset in itertools.combinations(range(len(vectors)), size)
        if _dependent(vectors, subset, field)
    ]
    return min(dependent, default=None)


def _check_against_brute_force(code):
    n, field = code.n, code.field
    hcols = [code.parity_check_column(b) for b in range(1, n + 1)]
    want = {
        f: sum(
            _dependent(hcols, s, field)
            for s in itertools.combinations(range(n), f)
        )
        for f in range(1, n + 1)
    }
    for f_max in range(1, n + 1):
        got = undecodable_counts(code, f_max)
        assert got == {f: want[f] for f in range(1, f_max + 1)}, code.P.data
    for vectors in (code.P.data, hcols):
        M = GfMatrix(vectors, field)
        for max_size in range(1, len(vectors) + 1):
            assert _dependent_rows(M, max_size) == (
                _first_dependent_by_brute_force(vectors, max_size, field)
            ), (vectors, max_size)
    # the rank condition: the census's verdict, and the DFS's subset
    for w in range(1, min(code.k - 1, code.r) + 1):
        spec = CodeSpec(n, code.k, w, field)
        clause = {c.name: c for c in validate(code.P, spec).clauses}["rank_condition"]
        subset = _first_dependent_by_brute_force(code.P.data, w, field)
        assert clause.passed == (subset is None), (code.P.data, w)
        if subset is not None:
            assert clause.detail == f"rows {subset} are linearly dependent"
    distance = min_distance_by_patterns(code)
    assert minimum_distance(code) == distance
    if distance == 1:  # a zero column, whose single repair is undefined
        with pytest.raises(UndecodableError):
            build_report(code)
    else:
        assert build_report(code).min_distance == distance, code.P.data
    return distance


def test_small_field_codes_match_brute_force():
    rng = random.Random(20161)
    distances = [
        _check_against_brute_force(_small_field_code(rng)) for _ in range(200)
    ]
    # GF(2^16) codes, walked by the tuple step, with scaled-copy rows
    rng, wide = random.Random(20162), FieldSpec(16, 0x1100B)
    for _ in range(40):
        distances.append(_check_against_brute_force(_small_field_code(rng, wide)))
    # build_report reads distances 2 to 4 off its census here
    assert set(distances) == {1, 2, 3, 4}


def test_deep_census_matches_brute_force():
    # at r = 5 and 6 the census walks classes two and three levels down
    # before its last level, and small fields merge many of them
    rng = random.Random(20163)
    for _ in range(40):
        code = _small_field_code(rng, r=rng.choice((5, 6)))
        n, field = code.n, code.field
        hcols = [code.parity_check_column(b) for b in range(1, n + 1)]
        want = {
            f: sum(
                _dependent(hcols, s, field)
                for s in itertools.combinations(range(n), f)
            )
            for f in range(1, n + 1)
        }
        assert undecodable_counts(code, n) == want, code.P.data
