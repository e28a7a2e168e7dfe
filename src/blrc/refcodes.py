"""Reference schemes evaluated through the same metric pipeline: a
systematic MDS (Reed-Solomon style) code, a local/global-parity layout, an
implied-parity variant, and plain replication.

RS and replication reports come straight from the structural pipeline.  The
local/global layouts are reported with their *designed* repair procedure
(group reads for local repairs, a full k-block decode otherwise): with
random dense global parities the exhaustive minimal-repair search
occasionally finds cheaper coefficient-accident plans that no deployed
repair path would use.  The structural report is kept alongside so the
divergence stays visible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .analysis import MetricsReport, build_report
from .code import SystematicCode
from .gf import GF256, FieldSpec
from .linalg import GfMatrix


@dataclass(frozen=True)
class ReferenceCode:
    """A comparison scheme.

    report holds the metrics of the scheme's designed repair procedure;
    structural_report (when a generator matrix exists) holds the exhaustive
    pipeline's numbers for the same matrix.
    """

    label: str
    n: int
    k: int
    report: MetricsReport
    code: SystematicCode | None = None
    structural_report: MetricsReport | None = None


def build_rs(n: int, k: int, field: FieldSpec = GF256) -> ReferenceCode:
    """Systematic MDS code with a Cauchy parity block: P[i][j] =
    1 / (x_i + y_j) over distinct points, so every square submatrix is
    invertible and any k surviving blocks decode."""
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    if n > field.order:
        raise ValueError(
            f"field with {field.order} elements is too small for a"
            f" length-{n} Cauchy construction"
        )
    r = n - k
    data = [
        [field.inv(i ^ (k + j)) for j in range(r)] for i in range(k)
    ]
    code = SystematicCode(GfMatrix(data, field))
    report = build_report(code)
    return ReferenceCode(f"[{n}, {k}] RS", n, k, report, code, report)


def build_azure_lrc(seed: int = 7, field: FieldSpec = GF256) -> ReferenceCode:
    """[16,10] layout: two XOR local parities (data 1-5 and 6-10) and four
    dense random global parities.

    Designed repairs: any data or local-parity block reads its 5-block
    group; a global parity reads the 10 data blocks.  The average single
    repair is (5*12 + 10*4) / 16 = 6.25.
    """
    rng = random.Random(seed)
    k, r = 10, 6
    data = [[0] * r for _ in range(k)]
    for i in range(5):
        data[i][0] = 1
    for i in range(5, 10):
        data[i][1] = 1
    for i in range(k):
        for j in range(2, r):
            data[i][j] = rng.randrange(1, field.order)
    code = SystematicCode(GfMatrix(data, field))
    designed = MetricsReport(
        storage_overhead=0.6,
        avg_repair_single=(5 * 12 + 10 * 4) / 16,
        avg_repair_double=10.0,
        avg_column_weight=(5 + 5 + 4 * 10) / 6,
        update_complexity=6,
        decodability={1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 0.0, 6: 0.0},
        min_distance=5,
    )
    return ReferenceCode(
        "[16, 10] Azure LRC", 16, 10, designed, code, build_report(code)
    )


def build_xorbas_lrc() -> ReferenceCode:
    """[16,10] implied-parity layout, modeled at the metric level: local
    groups give every single block a 5-block repair, doubles fall back to a
    full 10-block decode, and any four erasures are tolerated."""
    report = MetricsReport(
        storage_overhead=0.6,
        avg_repair_single=5.0,
        avg_repair_double=10.0,
        avg_column_weight=5.0,
        update_complexity=6,
        decodability={1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 0.0, 6: 0.0},
        min_distance=5,
    )
    return ReferenceCode("[16, 10] Xorbas LRC", 16, 10, report)


def build_replication(factor: int = 3, field: FieldSpec = GF256) -> ReferenceCode:
    """factor-way replication as a [factor, 1] code with unit parities."""
    if factor < 2:
        raise ValueError("replication factor must be at least 2")
    code = SystematicCode(GfMatrix([[1] * (factor - 1)], field))
    report = build_report(code)
    return ReferenceCode(
        f"{factor}-replication", factor, 1, report, code, report
    )
