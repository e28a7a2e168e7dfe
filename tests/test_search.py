import math
import random

import pytest

from blrc import search
from blrc.analysis import avg_repair_bandwidth_double
from blrc.code import CodeSpec, ConstructionError, check_support, validate
from blrc.search import (
    SearchConfig,
    _neighbor,
    hill_climb,
    random_support,
)


def test_random_support_census_15_10():
    spec = CodeSpec(15, 10, 3)
    support = random_support(spec, seed=3)
    assert check_support(support, spec) == []
    weights = [0] * 5
    for cols in support:
        for j in cols:
            weights[j] += 1
    assert weights == [6] * 5


def test_random_support_census_16_10_w2():
    spec = CodeSpec(16, 10, 2)
    support = random_support(spec, seed=3)
    assert check_support(support, spec) == []
    weights = [0] * 6
    for cols in support:
        for j in cols:
            weights[j] += 1
    assert sorted(weights) == [3, 3, 3, 3, 4, 4]


def test_random_support_deterministic():
    spec = CodeSpec(16, 10, 3)
    assert random_support(spec, seed=8) == random_support(spec, seed=8)
    assert random_support(spec, seed=8) != random_support(spec, seed=9)


def test_neighbor_preserves_censuses():
    spec = CodeSpec(16, 10, 3)
    support = random_support(spec, seed=1)
    rng = random.Random(2)
    for _ in range(25):
        nxt = _neighbor(support, spec, rng)
        assert nxt is not None
        assert check_support(nxt, spec) == []
        assert nxt != support
        support = nxt


def test_infeasible_parameters_raise():
    with pytest.raises(ConstructionError):
        SearchConfig(12, 10, 4).code_spec()  # w = 3 > r = 2
    with pytest.raises(ConstructionError, match="need 0 < k < n"):
        SearchConfig(8, 12, 3).code_spec()  # k >= n: no parity slots at all
    with pytest.raises(ConstructionError):
        SearchConfig(16, 10, 1)
    with pytest.raises(ConstructionError):
        SearchConfig(16, 10, 4, restarts=0)


def test_hill_climb_small_and_deterministic():
    config = SearchConfig(
        12, 8, 3, seed=4, max_iterations=30, patience=10, restarts=2
    )
    code_a, trace_a = hill_climb(config)
    code_b, trace_b = hill_climb(config)
    assert code_a.P == code_b.P
    assert trace_a.entries == trace_b.entries
    assert validate(code_a.P, code_a.spec).passed


def test_hill_climb_improves_or_keeps_initial():
    config = SearchConfig(
        12, 8, 3, seed=11, max_iterations=40, patience=12, restarts=1
    )
    code, trace = hill_climb(config)
    initial = trace.entries[0].objective
    final = avg_repair_bandwidth_double(code).mean_cost
    assert final <= initial + 1e-12


def test_15_10_search_single_average_is_forced():
    # every [15,10] w=3 support has all parity columns at weight 6, so the
    # single-failure average is 6.0 for any code the search returns
    config = SearchConfig(
        15, 10, 4, seed=2, max_iterations=6, patience=3, restarts=1
    )
    code, _ = hill_climb(config)
    from blrc.analysis import avg_repair_bandwidth_single

    assert avg_repair_bandwidth_single(code) == 6.0


def test_trace_invariants():
    config = SearchConfig(
        12, 8, 3, seed=7, max_iterations=25, patience=8, restarts=2
    )
    _, trace = hill_climb(config)
    best_values = [e.best for e in trace.entries]
    assert all(a >= b - 1e-12 for a, b in zip(best_values, best_values[1:]))
    # accepted objectives strictly decrease within a restart
    per_restart: dict[int, list[float]] = {}
    for e in trace.entries:
        if e.accepted:
            per_restart.setdefault(e.restart, []).append(e.objective)
    for seq in per_restart.values():
        assert all(a > b for a, b in zip(seq, seq[1:]))
    rows = list(trace.csv_rows())
    assert rows[0] == "restart,iteration,objective,accepted,best"
    assert len(rows) == len(trace.entries) + 1


def test_hill_climb_golden_16_10():
    # a fixed seed pins the whole trace and the returned code, so any drift
    # in an exact repair cost changes one of them
    code, trace = hill_climb(
        SearchConfig(16, 10, 4, seed=778, max_iterations=4, restarts=1)
    )
    assert code.P.data == [
        [176, 2, 145, 0, 0, 0],
        [159, 0, 132, 0, 152, 0],
        [0, 116, 126, 145, 0, 0],
        [187, 85, 0, 26, 0, 0],
        [0, 0, 23, 0, 182, 8],
        [11, 0, 0, 74, 0, 250],
        [0, 0, 128, 0, 84, 217],
        [0, 244, 0, 0, 40, 53],
        [207, 249, 0, 103, 0, 0],
        [0, 0, 0, 116, 67, 78],
    ]
    # objectives are sums of the 120 pair costs over 120
    expected = [
        (0, 0, 888, True, 888),
        (0, 1, 881, True, 881),
        (0, 2, 877, True, 877),
        (0, 3, 858, True, 858),
        (0, 4, 877, False, 858),
    ]
    assert [
        (e.restart, e.iteration, e.objective, e.accepted, e.best)
        for e in trace.entries
    ] == [(r, i, o / 120, a, b / 120) for r, i, o, a, b in expected]


@pytest.mark.parametrize(
    "config, ties, expected_calls",
    [
        # the seed of test_hill_climb_golden_16_10: every proposal wins or
        # loses on the double average alone
        (SearchConfig(16, 10, 4, seed=778, max_iterations=4, restarts=1), 0, 0),
        # w = 2 averages tie often; each tie needs the single average
        (SearchConfig(11, 7, 3, seed=1, max_iterations=10, restarts=1), 6, 7),
    ],
    ids=["16-10-seed778", "11-7-seed1"],
)
def test_single_average_only_for_exact_ties(
    config, ties, expected_calls, monkeypatch
):
    calls = 0
    single = search.avg_repair_bandwidth_single

    def counted(code):
        nonlocal calls
        calls += 1
        return single(code)

    monkeypatch.setattr(search, "avg_repair_bandwidth_single", counted)
    _, trace = hill_climb(config)
    needed = tied = 0
    current = math.inf
    current_known = False  # the current code's single average is computed
    for e in trace.entries:
        if not math.isfinite(e.objective):
            continue  # no code to evaluate
        if e.iteration > 0 and e.objective == current:
            # an exact tie needs the candidate's single average and, the
            # first time only, the current code's
            tied += 1
            needed += 1 + (not current_known)
            current_known = True
        elif e.accepted:
            current_known = False  # a new current code won outright
        if e.accepted:
            current = e.objective
    assert tied == ties
    assert calls == needed == expected_calls
