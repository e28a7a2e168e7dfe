"""Acceptance criteria, one test per criterion (split where independent
sub-claims deserve separate verdicts).  Each test prints a pass line; run
with -s or check captured output.

Four figures quoted by the paper cannot hold together with its other
figures.  Their tests assert the value the paper's own numbers leave, and
each carries the executable evidence that the quoted value is wrong:

* [16,10] w=3 double-repair average: quoted 7.0, asserted 888/120 = 7.4.
  Only two classes of supports have the paper's decodability census, and
  their averages are 888/120 and 889/120 (criterion 3).
* [16,10] w=2 double-repair average: quoted 5.22 +/- 0.25, asserted
  692/120 = 5.7667.  No support with the paper's single average reaches
  5.22, and the ones inside the tolerance miss the paper's own MTTDL for
  this code by more than 40% (criterion 4).
* [16,10] w=3 MTTDL: quoted 5.7378e14 days, which needs the unreachable
  7.0-block double transfer.  The test feeds the chain the quoted
  transfers and checks the library's own figure lies below (criterion 5).
* RS and implied-parity MTTDL baselines: published 3.3118e13 and
  1.2180e15 days, from another paper's chain.  Under the documented chain
  their ratio to the 3-replication baseline is off by four orders, so the
  test checks the pipeline against a closed form instead (criterion 5).

Repair minima are checked against the all-subsets oracle in
util_oracles; support classes and generic censuses come from
util_supports.
"""

import itertools
import math
import random
import time
from collections import Counter

import pytest

from blrc.analysis import (
    avg_repair_bandwidth_double,
    avg_repair_bandwidth_single,
    build_report,
    decodability_profile,
    minimal_repair,
    undecodable_counts,
)
from blrc.code import CodeSpec, minimum_distance, update_complexity
from blrc.codefile import write_code_text
from blrc.gf import GF256
from blrc.presets import (
    GENERIC_SEEDS,
    SUPPORT_16_10_W2,
    SUPPORT_16_10_W3,
    blrc_15_10_w3,
    blrc_16_10_w2,
    blrc_16_10_w3,
)
from blrc.refcodes import (
    build_azure_lrc,
    build_replication,
    build_rs,
    build_xorbas_lrc,
)
from blrc.reliability import (
    MarkovModel,
    ReliabilityParams,
    build_model,
    mttdl_stripe,
    mttdl_system,
)
from blrc.search import SearchConfig, hill_climb
from blrc.sharding import decode_stream, encode_stream, repair_stream
from util_oracles import (
    minimal_repair_all_subsets,
    min_distance_by_patterns,
    random_valid_code,
)
from util_simulation import simulate_mttdl
from util_supports import (
    GF65536,
    canonical_support,
    generic_code,
    generic_undecodable_counts,
    support_classes,
)

UNITS = "decimal"  # the convention under which the MTTDL figures reproduce


def _system_mttdl(report, n, k, params, **transfers):
    model = build_model(report, n, k, params, **transfers)
    return mttdl_system(mttdl_stripe(model), n, params)


def _pair_costs(code):
    """Exact joint repair cost of every block pair."""
    return {
        pair: minimal_repair(code, pair).cost
        for pair in itertools.combinations(range(1, code.n + 1), 2)
    }


def _check_pairs_against_oracle(code, costs):
    """One pair per (cost, number of parities in the pair), plus every pair
    of the highest cost, must cost the same under the all-subsets oracle."""
    sample = {}
    for pair, cost in costs.items():
        sample.setdefault((cost, sum(b > code.k for b in pair)), pair)
    top = max(costs.values())
    pairs = set(sample.values()) | {p for p, c in costs.items() if c == top}
    for pair in sorted(pairs):
        assert minimal_repair_all_subsets(code, pair)[0] == costs[pair], pair
    return len(pairs)


def _counts_rounding_to(quoted, n):
    """Undecodable counts u_f whose p_f = 1 - u_f / C(n, f) rounds to the
    quoted four-digit figure; each figure must leave exactly one count."""
    counts = {}
    for f, p in quoted.items():
        total = math.comb(n, f)
        matches = [
            u for u in range(total + 1) if round(1 - u / total, 4) == p
        ]
        assert len(matches) == 1, (f, matches)
        counts[f] = matches[0]
    return counts


def _birth_death_mttdl(report, n, k, params):
    """System MTTDL in days of a chain with no partially decodable state,
    by the closed form for absorption in a birth-death chain:

        T = sum_{i=0..F} sum_{j=0..i} (1/lam_j) prod_{m=j+1..i} mu_m/lam_m

    with lam_i = (n - i) / mttf, mu_i the repair rate with i blocks lost
    and F the number of failures tolerated.  Every term is positive, so
    float evaluation loses nothing to cancellation.
    """
    p = report.decodability
    assert set(p.values()) <= {0.0, 1.0}
    tolerated = max(f for f, pf in p.items() if pf == 1.0)
    lam = [(n - i) / params.mttf_days for i in range(tolerated + 1)]
    transfer = {1: report.avg_repair_single, 2: report.avg_repair_double}
    bytes_per_day = params.repair_bandwidth_bps * 86400 / 8
    mu = [None] + [
        bytes_per_day / (transfer.get(i, k) * params.block_bytes)
        for i in range(1, tolerated + 1)
    ]
    stripe = 0.0
    for i in range(tolerated + 1):
        for j in range(i + 1):
            term = 1 / lam[j]
            for m in range(j + 1, i + 1):
                term *= mu[m] / lam[m]
            stripe += term
    return stripe / (params.total_bytes / (n * params.block_bytes))


def test_criterion_01_15_10_metrics(code_15_10):
    t0 = time.perf_counter()
    single = avg_repair_bandwidth_single(code_15_10)
    double = avg_repair_bandwidth_double(code_15_10)
    d = minimum_distance(code_15_10)
    update = update_complexity(code_15_10)
    overhead = code_15_10.r / code_15_10.k
    elapsed = time.perf_counter() - t0
    assert single == 6.0
    assert double.mean_cost == 9.0
    assert d == 4
    assert update == 4
    assert overhead == 0.5
    assert elapsed < 10.0
    print(
        f"criterion 1: PASS ([15,10]: single 6.0, double 9.0, d 4,"
        f" update 4, overhead 0.5; {elapsed:.2f}s)"
    )


def test_criterion_02_15_10_decodability(code_15_10):
    t0 = time.perf_counter()
    profile = decodability_profile(code_15_10, 5)
    elapsed = time.perf_counter() - t0
    assert math.comb(15, 4) == 1365 and math.comb(15, 5) == 3003
    assert profile[4] == pytest.approx(0.992674, abs=0.5e-6)
    assert profile[5] == pytest.approx(0.89677, abs=0.5e-5)
    assert elapsed < 5.0
    print(
        f"criterion 2: PASS (p4 {profile[4]:.6f}, p5 {profile[5]:.5f};"
        f" {elapsed:.2f}s)"
    )


def test_criterion_03_16_10_w3_metrics():
    code = blrc_16_10_w3()
    assert avg_repair_bandwidth_single(code) == 5.0
    profiles = []
    for seed in GENERIC_SEEDS["blrc-16-10-w3"][:3]:
        c = blrc_16_10_w3(seed=seed)
        profiles.append(decodability_profile(c, 6))
    for profile in profiles:
        assert profile[4] == pytest.approx(0.9945, abs=0.002)
        assert profile[5] == pytest.approx(0.9602, abs=0.002)
        assert profile[6] == pytest.approx(0.7966, abs=0.002)
    assert profiles[0] == profiles[1] == profiles[2]
    print(
        "criterion 3 (single, decodability, seed stability): PASS"
        f" (single 5.0; p4/p5/p6 {profiles[0][4]:.4f}/"
        f"{profiles[0][5]:.4f}/{profiles[0][6]:.4f} on three seeds)"
    )


def test_criterion_03_16_10_w3_double_exactly_seven():
    """Quoted value: 7.0 exactly.  No [16,10] w=3 support with the paper's
    decodability reaches it; the bundled support averages 888/120 = 7.4.

    * The bundled code costs 7 on 75 pairs, 8 on 42, and 9 on the three
      parity pairs (11,13), (12,15) and (14,16).  A sample of one pair per
      cost and pair type, plus the cost-9 pairs, matches the all-subsets
      oracle.
    * The paper's p4/p5/p6 = 0.9945/0.9602/0.7966, which the criterion 3
      metrics test asserts, leave one undecodable count each: 10, 174 and
      1629.
    * There are 12,904 balanced supports, in 46 classes up to relabelling
      the parity columns.  Only two classes have that census, and their
      exact double averages are 888/120 and 889/120.
    """
    code = blrc_16_10_w3()
    double = avg_repair_bandwidth_double(code)
    assert double.mean_cost == 888 / 120
    costs = _pair_costs(code)
    assert Counter(costs.values()) == {7: 75, 8: 42, 9: 3}
    assert [p for p, c in costs.items() if c == 9] == [
        (11, 13), (12, 15), (14, 16)
    ]
    sampled = _check_pairs_against_oracle(code, costs)

    census = _counts_rounding_to({4: 0.9945, 5: 0.9602, 6: 0.7966}, 16)
    assert census == {4: 10, 5: 174, 6: 1629}
    bundled = generic_undecodable_counts(SUPPORT_16_10_W3, 6, 6)
    assert bundled == undecodable_counts(code, 6)
    spec = CodeSpec(16, 10, 3, GF65536)
    classes = support_classes(spec)
    assert len(classes) == 46 and sum(classes.values()) == 12904
    like_paper = [
        s for s in classes
        if all(
            generic_undecodable_counts(s, 6, 6)[f] == u
            for f, u in census.items()
        )
    ]
    assert canonical_support(SUPPORT_16_10_W3, 6) in like_paper
    doubles = sorted(
        avg_repair_bandwidth_double(generic_code(s, spec)).mean_cost
        for s in like_paper
    )
    assert doubles == [888 / 120, 889 / 120]
    print(
        "criterion 3 (double average): PASS (888/120 = 7.4; quoted 7.0 is"
        f" below both supports with the paper's census; {sampled} pairs"
        " oracle-checked)"
    )


def test_criterion_04_16_10_w2_metrics():
    code = blrc_16_10_w2()
    report = build_report(code)
    assert report.avg_column_weight == pytest.approx(3.333, abs=0.001)
    assert report.avg_repair_single == 3.125
    print(
        "criterion 4 (column weight, exact single): PASS"
        f" (avg column weight {report.avg_column_weight:.4f},"
        f" single {report.avg_repair_single})"
    )


def test_criterion_04_16_10_w2_double_within_tolerance():
    """Quoted value: 5.22 +/- 0.25.  It contradicts the paper's own MTTDL
    for this code; the bundled support averages 692/120 = 5.7667.

    * The bundled code costs 5 on 30 pairs, 6 on 89, and 8 on the parity
      pair (11,15).  A sample of one pair per cost and pair type matches
      the all-subsets oracle.
    * There are 16,395 balanced supports, in 51 classes up to relabelling
      the parity columns; 14 classes have the single average 3.125 that
      criterion 4 asserts.  Their exact double averages start at
      163/30 = 5.4333, so none reaches 5.22.
    * The three inside the tolerance (5.4333 twice, 5.4583) give a system
      MTTDL of 39-57% of the paper's 7.2338e8 days.  Of the 14, only the
      bundled class is within the 5% that criterion 5 allows (6.994e8).
    """
    code = blrc_16_10_w2()
    double = avg_repair_bandwidth_double(code)
    assert double.mean_cost == 692 / 120
    costs = _pair_costs(code)
    assert Counter(costs.values()) == {5: 30, 6: 89, 8: 1}
    assert [p for p, c in costs.items() if c == 8] == [(11, 15)]
    sampled = _check_pairs_against_oracle(code, costs)

    bundled = generic_undecodable_counts(SUPPORT_16_10_W2, 6, 6)
    assert bundled == undecodable_counts(code, 6)
    spec = CodeSpec(16, 10, 2, GF65536)
    classes = support_classes(spec)
    assert len(classes) == 51 and sum(classes.values()) == 16395
    params = ReliabilityParams.defaults(UNITS)
    found = {}
    for support in classes:
        candidate = generic_code(support, spec)
        if avg_repair_bandwidth_single(candidate) == 3.125:
            report = build_report(candidate)
            found[support] = (
                report.avg_repair_double,
                _system_mttdl(report, 16, 10, params) / 7.2338e8,
            )
    assert len(found) == 14
    assert min(d for d, _ in found.values()) == 163 / 30
    inside = [ratio for d, ratio in found.values() if abs(d - 5.22) <= 0.25]
    assert len(inside) == 3 and max(inside) < 0.6
    reproducing = [s for s, (_, q) in found.items() if abs(q - 1) <= 0.05]
    assert reproducing == [canonical_support(SUPPORT_16_10_W2, 6)]
    print(
        "criterion 4 (double average): PASS (692/120 = 5.7667; supports"
        f" within 5.22 +/- 0.25 miss the paper's MTTDL; {sampled} pairs"
        " oracle-checked)"
    )


def test_criterion_05_mttdl_15_10(code_15_10):
    params = ReliabilityParams.defaults(UNITS)
    system = _system_mttdl(build_report(code_15_10), 15, 10, params)
    assert system == pytest.approx(3.3647e14, rel=0.05)
    print(
        f"criterion 5 ([15,10] MTTDL): PASS ({system:.5g} days vs 3.3647e14,"
        f" convention: {UNITS})"
    )


def test_criterion_05_mttdl_16_10_w2():
    params = ReliabilityParams.defaults(UNITS)
    code = blrc_16_10_w2()
    system = _system_mttdl(build_report(code), 16, 10, params)
    assert system == pytest.approx(7.2338e8, rel=0.05)
    print(
        f"criterion 5 ([16,10] w=2 MTTDL): PASS ({system:.5g} days vs"
        f" 7.2338e8, convention: {UNITS})"
    )


def test_criterion_05_mttdl_16_10_w3():
    """Quoted value: 5.7378e14 days, computed from the quoted transfers of
    5.0 blocks (single) and 7.0 (double).  Fed those transfers and the
    bundled decodability, which equals the paper's p4-p6, the chain lands
    at 5.5452e14 (-3.4%).  The same chain reproduces the [15,10] figure to
    +0.14%.

    The library's own double average is 7.4, since criterion 3 shows 7.0
    is out of reach.  With it the system MTTDL is 5.2455e14 (-8.6%).  The
    quoted figure would need a 6.77-block double transfer, which matches
    neither.
    """
    params = ReliabilityParams.defaults(UNITS)
    report = build_report(blrc_16_10_w3())
    assert report.avg_repair_single == 5.0
    assert {f: round(report.decodability[f], 4) for f in (4, 5, 6)} == {
        4: 0.9945, 5: 0.9602, 6: 0.7966
    }
    quoted = _system_mttdl(report, 16, 10, params, b1=5.0, b2=7.0)
    assert quoted == pytest.approx(5.7378e14, rel=0.05)
    own = _system_mttdl(report, 16, 10, params)
    assert own < quoted
    print(
        f"criterion 5 ([16,10] w=3 MTTDL): PASS ({quoted:.5g} days with the"
        f" quoted transfers vs 5.7378e14; {own:.5g} with the exact 7.4)"
    )


def test_criterion_05_mttdl_replication_baseline():
    params = ReliabilityParams.defaults(UNITS)
    ref = build_replication(3)
    system = _system_mttdl(ref.report, ref.n, ref.k, params)
    assert 2.3079e9 <= system <= 2.3079e11
    print(
        f"criterion 5 (3-replication baseline): PASS ({system:.5g} days vs"
        " 2.3079e10, within one order)"
    )


def test_criterion_05_mttdl_rs_and_xorbas_baselines():
    """Published baselines: RS 3.3118e13 days and implied-parity LRC
    1.2180e15 days, from Sathiamoorthy et al., "XORing Elephants" (VLDB
    2013), computed with their own chain.

    Under the documented chain neither code has a partially decodable
    state, so the chain is a pure birth-death chain.  There the ratio of
    the RS to the 3-replication MTTDL is fixed by (rho/lambda)^2 and the
    stripe counts: about 4.4e7, against a published 3.3118e13 / 2.3079e10
    = 1.4e3.  Both figures cannot lie within an order of magnitude of
    their published values while 3-replication does, and criterion 5's
    replication test asserts that it does.

    The test therefore checks the pipeline's figures for RS [14,10]
    (1.045e18 days) and the implied-parity [16,10] code (1.0947e18) against
    the closed form of the birth-death chain.
    """
    params = ReliabilityParams.defaults(UNITS)
    rs = build_rs(14, 10)
    xorbas = build_xorbas_lrc()
    replication = build_replication(3)
    system = {}
    for ref in (rs, xorbas, replication):
        pipeline = _system_mttdl(ref.report, ref.n, ref.k, params)
        closed = _birth_death_mttdl(ref.report, ref.n, ref.k, params)
        assert pipeline == pytest.approx(closed, rel=1e-12)
        system[ref.label] = pipeline
    assert system[rs.label] == pytest.approx(1.045e18, rel=1e-3)
    assert system[xorbas.label] == pytest.approx(1.0947e18, rel=1e-4)
    ratio = system[rs.label] / system[replication.label]
    published_ratio = 3.3118e13 / 2.3079e10
    assert ratio == pytest.approx(4.4e7, rel=0.01)
    assert ratio / published_ratio > 100
    print(
        f"criterion 5 (RS and implied-parity baselines): PASS (RS"
        f" {system[rs.label]:.5g}, implied-parity {system[xorbas.label]:.5g}"
        " days, equal to the closed form; published figures use another"
        " chain)"
    )


def test_criterion_06_azure_single_average():
    ref = build_azure_lrc()
    assert ref.report.avg_repair_single == (5 * 12 + 10 * 4) / 16 == 6.25
    print("criterion 6: PASS (local/global layout single average 6.25)")


def test_criterion_07_property_suites():
    rng = random.Random(777)
    lemma_checked = 0
    bound_checked = 0
    while lemma_checked < 50:
        n = rng.randrange(6, 15)
        k = rng.randrange(3, n - 1)
        r = n - k
        w_cap = min(k - 1, r)
        if w_cap < 1:
            continue
        w = rng.randrange(1, w_cap + 1)
        if w * k < r:  # keep the base locality at least 1
            continue
        try:
            code = random_valid_code(rng, n, k, w, GF256)
        except ValueError:
            continue
        if code is None:
            continue
        spec = code.spec
        d = minimum_distance(code)
        assert d == w + 1, (n, k, w)
        # (b) every single-block repair costs l or l+1
        for b in range(1, n + 1):
            assert minimal_repair(code, (b,)).cost in (spec.l, spec.l + 1)
        # (c) locality distance bound, with the worst-case locality (l+1
        # when heavy columns exist; the floor alone is not a valid bound)
        from blrc.code import effective_locality, gopalan_bound

        assert d <= gopalan_bound(n, k, effective_locality(spec))
        lemma_checked += 1
        bound_checked += 1
    assert lemma_checked == 50

    # (d) oracle agreement on 20 random codes with n <= 12
    rng = random.Random(2024)
    agreed = 0
    while agreed < 20:
        n = rng.randrange(7, 13)
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
        patterns = [(b,) for b in rng.sample(range(1, n + 1), 3)]
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        rng.shuffle(pairs)
        patterns += pairs[:3]
        for pattern in patterns:
            expected = minimal_repair_all_subsets(code, pattern)
            try:
                plan = minimal_repair(code, pattern)
            except Exception:
                assert expected is None
                continue
            assert expected is not None
            assert (plan.cost, plan.helpers) == (
                expected[0],
                tuple(sorted(expected[1])),
            )
        agreed += 1
    print(
        "criterion 7: PASS (50 codes: d = w+1, repairs in {l, l+1}, bound"
        " holds; 20 codes agree with the all-subsets oracle)"
    )


def test_criterion_08_search_quality_and_determinism():
    config = SearchConfig(16, 10, 4, seed=0)
    t0 = time.perf_counter()
    code_a, trace_a = hill_climb(config)
    first = time.perf_counter() - t0
    assert first < 300.0
    double = avg_repair_bandwidth_double(code_a)
    assert double.mean_cost <= 7.5
    code_b, trace_b = hill_climb(config)
    assert write_code_text(code_a) == write_code_text(code_b)
    assert trace_a.entries == trace_b.entries
    print(
        f"criterion 8: PASS (double {double.mean_cost:.4f} <= 7.5 in"
        f" {first:.0f}s; rerun bit-identical)"
    )


def test_criterion_09_markov_solver_checks():
    f1, r1, f2 = 1.4, 2000.0, 0.3
    model = MarkovModel(births=(f1, 0.0), repairs=(0.0, r1), kills=(0.0, f2))
    closed_form = (f1 + r1 + f2) / (f1 * f2)
    solved = mttdl_stripe(model)
    assert abs(solved - closed_form) / closed_form < 1e-9

    five = MarkovModel(
        births=(5.0, 3.2, 0.0),
        repairs=(0.0, 40.0, 25.0),
        kills=(0.0, 0.8, 3.0),
    )
    exact = mttdl_stripe(five)
    est, stderr = simulate_mttdl(five, trials=100_000, seed=5)
    assert abs(est - exact) <= 3 * stderr
    print(
        f"criterion 9: PASS (closed form to {abs(solved-closed_form)/closed_form:.2e};"
        f" Monte Carlo within {abs(est-exact)/stderr:.2f} sigma)"
    )


def test_criterion_10_ten_megabyte_round_trip(code_15_10):
    rng = random.Random(1234)
    data = rng.randbytes(10 * 10**6)
    shards = encode_stream(code_15_10, data)
    all_shards = {i + 1: s for i, s in enumerate(shards)}

    erased = tuple(sorted(rng.sample(range(1, 16), 3)))
    partial = {b: v for b, v in all_shards.items() if b not in erased}
    assert decode_stream(code_15_10, partial, len(data)) == data

    plan = minimal_repair(code_15_10, (erased[0],))
    assert plan.cost == 6
    helpers = {b: all_shards[b] for b in plan.helpers}
    assert len(helpers) == 6
    rebuilt = repair_stream(code_15_10, plan, helpers)
    assert rebuilt[erased[0]] == all_shards[erased[0]]
    print(
        f"criterion 10: PASS (10 MB file, erased {erased}, byte-identical"
        " decode; repair read exactly 6 helpers)"
    )
