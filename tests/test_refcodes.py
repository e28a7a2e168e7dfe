import itertools

import pytest

from blrc.code import decodable, minimum_distance
from blrc.gf import FieldSpec
from blrc.linalg import GfMatrix, rank
from blrc.refcodes import (
    build_azure_lrc,
    build_replication,
    build_rs,
    build_xorbas_lrc,
)


def test_rs_14_10_metrics():
    ref = build_rs(14, 10)
    r = ref.report
    assert r.storage_overhead == 0.4
    assert r.avg_repair_single == 10.0
    assert r.avg_repair_double == 10.0
    assert r.update_complexity == 5
    assert r.min_distance == 5
    assert ref.divergences() == []


def test_rs_is_mds():
    ref = build_rs(14, 10)
    code = ref.code
    # any 4 erasures decode; rank of every v-row parity submatrix is full
    for pattern in itertools.combinations(range(1, 15), 4):
        assert decodable(code, pattern)
    for v in range(1, 5):
        for rows in itertools.combinations(range(10), v):
            sub = GfMatrix([code.P.data[i] for i in rows], code.field)
            assert rank(sub) == v


def test_rs_single_parity():
    ref = build_rs(11, 10)
    assert ref.report.avg_repair_single == 10.0
    assert ref.report.min_distance == 2


def test_rs_field_too_small():
    with pytest.raises(ValueError):
        build_rs(20, 10, FieldSpec(4, 0b10011))


def test_azure_designed_metrics():
    ref = build_azure_lrc()
    r = ref.report
    assert r.avg_repair_single == pytest.approx(6.25)
    assert r.avg_repair_double == 10.0
    assert r.update_complexity == 6
    assert r.storage_overhead == 0.6


def test_azure_structural_report_surfaced():
    ref = build_azure_lrc()
    s = ref.structural_report
    assert s is not None
    # designed single repair: group reads, 5 for 12 blocks and 10 for the
    # four globals; the exhaustive minimum can only be cheaper
    assert s.avg_repair_single <= 6.25
    assert ref.divergences()  # the difference is reported, not hidden


def test_azure_group_repair_costs():
    from blrc.analysis import minimal_repair

    ref = build_azure_lrc()
    for b in (1, 4, 8, 11, 12):
        assert minimal_repair(ref.code, (b,)).cost == 5


def test_xorbas_metrics():
    ref = build_xorbas_lrc()
    r = ref.report
    assert r.avg_repair_single == 5.0
    assert r.avg_repair_double == 10.0
    assert r.update_complexity == 6
    assert r.storage_overhead == 0.6
    assert r.decodability[4] == 1.0
    assert r.decodability[5] == 0.0


def test_replication_metrics():
    ref = build_replication(3)
    r = ref.report
    assert r.storage_overhead == 2.0
    assert r.avg_repair_single == 1.0
    assert r.avg_repair_double == 1.0
    assert r.update_complexity == 3
    assert r.min_distance == 3
    assert r.decodability == {1: 1.0, 2: 1.0, 3: 0.0}


def test_replication_factor_two():
    ref = build_replication(2)
    assert ref.report.storage_overhead == 1.0
    assert ref.report.min_distance == 2
    with pytest.raises(ValueError):
        build_replication(1)


def test_replication_copy_counting():
    code = build_replication(3).code
    assert decodable(code, (1, 2))
    assert not decodable(code, (1, 2, 3))
    assert minimum_distance(code) == 3
