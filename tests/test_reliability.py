import math
from dataclasses import replace

import pytest

from blrc.analysis import MetricsReport, build_report
from blrc.presets import blrc_15_10_w3, blrc_16_10_w2, blrc_16_10_w3
from blrc.refcodes import (
    build_azure_lrc,
    build_replication,
    build_rs,
    build_xorbas_lrc,
)
from blrc.reliability import (
    DAYS_PER_YEAR,
    MarkovModel,
    ParamsError,
    ProfileError,
    ReliabilityParams,
    build_model,
    mttdl_stripe,
    mttdl_system,
    parse_params,
)
from util_simulation import simulate_mttdl


def two_state_chain(lam):
    return MarkovModel(births=(0.0,), repairs=(0.0,), kills=(lam,))


def three_state_chain(f1, r1, f2):
    return MarkovModel(births=(f1, 0.0), repairs=(0.0, r1), kills=(0.0, f2))


def test_two_state_exponential_sojourn():
    lam = 0.37
    assert mttdl_stripe(two_state_chain(lam)) == pytest.approx(1 / lam)


def test_three_state_closed_form():
    f1, r1, f2 = 0.002, 180.0, 0.0007
    model = three_state_chain(f1, r1, f2)
    expected = (f1 + f2 + r1) / (f1 * f2)
    assert mttdl_stripe(model) == pytest.approx(expected, rel=1e-9)


def test_unreachable_absorption_is_infinite():
    model = MarkovModel(
        births=(1.0, 0.0), repairs=(0.0, 2.0), kills=(0.0, 0.0)
    )
    assert mttdl_stripe(model) == math.inf


def test_zero_failure_rate_gives_infinite_mttdl(code_15_10):
    report = build_report(code_15_10)
    params = ReliabilityParams(
        total_bytes=30e15,
        nodes=3000,
        block_bytes=256e6,
        repair_bandwidth_bps=1e9,
        mttf_days=float("inf"),
    )
    model = build_model(report, 15, 10, params)
    assert mttdl_stripe(model) == math.inf


def test_model_structure_for_15_10(code_15_10):
    report = build_report(code_15_10)
    params = ReliabilityParams.defaults()
    model = build_model(report, 15, 10, params)
    model.check()
    # states f = 0..5 (15 down to 10 available); the sixth failure loses data
    assert len(model.births) == 6
    lam = params.failure_rate_per_day
    bw = params.repair_bytes_per_day
    B = params.block_bytes
    # failure cascade and one-step-down repairs
    assert model.births[0] == pytest.approx(15 * lam)
    assert model.repairs[0] == 0.0
    assert model.repairs[1] == pytest.approx(bw / (6 * B))
    assert model.repairs[2] == pytest.approx(bw / (9 * B))
    assert model.repairs[3] == pytest.approx(bw / (10 * B))
    p4 = report.decodability[4]
    p5 = report.decodability[5]
    assert model.births[3] == pytest.approx(12 * lam * p4)
    assert model.kills[3] == pytest.approx(12 * lam * (1 - p4))
    assert model.kills[4] == pytest.approx(11 * lam * (1 - p5))
    assert model.kills[5] == pytest.approx(10 * lam)
    assert model.births[5] == 0.0
    # only the fourth, fifth and sixth failures can lose data
    assert [f for f, x in enumerate(model.kills) if x] == [3, 4, 5]
    for f in range(6):
        assert model.births[f] + model.repairs[f] + model.kills[f] > 0


def test_mds_like_profile_has_no_f_states():
    report = MetricsReport(
        storage_overhead=0.4,
        avg_repair_single=10.0,
        avg_repair_double=10.0,
        avg_column_weight=10.0,
        update_complexity=5,
        decodability={1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 0.0},
        min_distance=5,
    )
    model = build_model(report, 14, 10, ReliabilityParams.defaults())
    # no failure short of the fifth loses data
    assert len(model.kills) == 5
    assert not any(model.kills[:-1]) and model.kills[-1] > 0


def test_increasing_profile_rejected():
    report = MetricsReport(
        storage_overhead=0.5,
        avg_repair_single=6.0,
        avg_repair_double=9.0,
        avg_column_weight=6.0,
        update_complexity=4,
        decodability={1: 1.0, 2: 0.5, 3: 0.9},
        min_distance=2,
    )
    with pytest.raises(ProfileError):
        build_model(report, 15, 10, ReliabilityParams.defaults())


def test_mttdl_monotone_in_failure_and_repair_rates(code_16_10_w2):
    report = build_report(code_16_10_w2)
    base = ReliabilityParams.defaults()
    results = []
    for mttf_years in (2, 4, 8):
        params = ReliabilityParams(
            total_bytes=base.total_bytes,
            nodes=base.nodes,
            block_bytes=base.block_bytes,
            repair_bandwidth_bps=base.repair_bandwidth_bps,
            mttf_days=mttf_years * DAYS_PER_YEAR,
        )
        results.append(mttdl_stripe(build_model(report, 16, 10, params)))
    assert results[0] < results[1] < results[2]
    results = []
    for gbps in (0.5, 1.0, 2.0):
        params = ReliabilityParams(
            total_bytes=base.total_bytes,
            nodes=base.nodes,
            block_bytes=base.block_bytes,
            repair_bandwidth_bps=gbps * 1e9,
            mttf_days=base.mttf_days,
        )
        results.append(mttdl_stripe(build_model(report, 16, 10, params)))
    assert results[0] < results[1] < results[2]


def test_simulation_agrees_with_solver():
    # five-state repairable chain kept failure-heavy so absorption happens
    # within a few transitions and 1e5 trials stay cheap
    model = MarkovModel(
        births=(4.0, 2.4, 0.0),
        repairs=(0.0, 30.0, 20.0),
        kills=(0.0, 0.6, 2.0),
    )
    exact = mttdl_stripe(model)
    est, stderr = simulate_mttdl(model, trials=100_000, seed=11)
    assert abs(est - exact) <= 3 * stderr


def _pinned_reports():
    for builder in (blrc_15_10_w3, blrc_16_10_w2, blrc_16_10_w3):
        code = builder()
        yield builder.__name__, build_report(code), code.n, code.k
    for ref in (build_rs(14, 10), build_replication(3), build_xorbas_lrc()):
        yield ref.label, ref.report, ref.n, ref.k
    azure = build_azure_lrc()
    yield "azure designed", azure.report, 16, 10
    yield "azure structural", azure.structural_report, 16, 10


# stripe MTTDLs (days) under the default parameters; any exact solve of
# the same chain rounds to these floats, so they hold bit for bit
PINNED_STRIPE_MTTDL = {
    "blrc_15_10_w3": 2.63237394772168e21,
    "blrc_16_10_w2": 5122663064161932.0,
    "blrc_16_10_w3": 3.841884429229749e21,
    "[14, 10] RS": 8.746933256675941e24,
    "3-replication": 9.231556361231276e17,
    "[16, 10] Xorbas LRC": 8.018016944924353e24,
    "azure designed": 6.414415638754978e24,
    "azure structural": 1.5317118817914681e28,
}


def test_stripe_mttdl_pinned_exactly():
    params = ReliabilityParams.defaults()
    solved = {
        name: mttdl_stripe(build_model(report, n, k, params))
        for name, report, n, k in _pinned_reports()
    }
    assert solved == PINNED_STRIPE_MTTDL


def test_system_mttdl_divides_by_stripe_count():
    params = ReliabilityParams.defaults()
    assert params.stripe_count(15) == pytest.approx(30e15 / (15 * 256e6))
    assert mttdl_system(1000.0, 15, params) == pytest.approx(
        1000.0 / (30e15 / (15 * 256e6))
    )
    one_stripe = ReliabilityParams(
        total_bytes=15 * 256e6,
        nodes=15,
        block_bytes=256e6,
        repair_bandwidth_bps=1e9,
        mttf_days=1460,
    )
    assert mttdl_system(123.0, 15, one_stripe) == pytest.approx(123.0)


def test_params_parsing_defaults_and_overrides():
    params = parse_params("C 30PB\nB = 256MB\ngamma 1Gbps\nmttf 4y\nN 3000\n")
    assert params == ReliabilityParams.defaults()
    binary = parse_params("units binary\nC 30PB\n")
    assert binary.total_bytes == 30 * 2**50
    assert parse_params("mttf 1460d\n").mttf_days == 1460
    with pytest.raises(ParamsError):
        parse_params("C -1\n")
    with pytest.raises(ParamsError):
        parse_params("unknown 4\n")
    with pytest.raises(ParamsError):
        parse_params("units metric\n")


NUMERIC_FIELDS = (
    "total_bytes",
    "nodes",
    "block_bytes",
    "repair_bandwidth_bps",
    "mttf_days",
)


@pytest.mark.parametrize("name", NUMERIC_FIELDS)
def test_params_reject_nan(name):
    with pytest.raises(ParamsError, match=name):
        replace(ReliabilityParams.defaults(), **{name: math.nan})


@pytest.mark.parametrize("name", NUMERIC_FIELDS[:-1])
def test_params_reject_infinity_except_mttf(name):
    # mttf alone may be infinite: see the zero-failure-rate test
    with pytest.raises(ParamsError, match=name):
        replace(ReliabilityParams.defaults(), **{name: math.inf})


def test_published_table_reconciliation(code_16_10_w3):
    """The [16, 10] w=3 published MTTDL (5.7378e14 days) assumed a 7-block
    double repair; with that transfer size the chain lands within 5%, while
    the exhaustive-minimum double average (7.4) falls short.  This pins the
    divergence to the bandwidth figure, not the chain."""
    report = build_report(code_16_10_w3)
    params = ReliabilityParams.defaults()
    with_published_b2 = mttdl_system(
        mttdl_stripe(build_model(report, 16, 10, params, b2=7.0)), 16, params
    )
    assert with_published_b2 == pytest.approx(5.7378e14, rel=0.05)
    own = mttdl_system(
        mttdl_stripe(build_model(report, 16, 10, params)), 16, params
    )
    assert own < 5.7378e14 * 0.95
