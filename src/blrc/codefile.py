"""Text formats: code files and metric reports.

A code file is line-oriented and round-trip stable: parsing a canonical
file and rewriting it reproduces the bytes exactly.

    blrc-code v1
    n 15
    k 10
    w 3
    field m 8 poly 0x11d
    P
    1f 00 5c 00 8a
    ...            (k rows of r hex coefficients, 00 marks a structural zero)
    meta seed 123  (optional provenance lines, in order)
"""

from __future__ import annotations

import hashlib

from .analysis import MetricsReport
from .code import BlrcCode, CodeSpec
from .gf import FieldSpec
from .linalg import GfMatrix

MAGIC = "blrc-code v1"


class CodeFileError(ValueError):
    """The code file is malformed."""


def _hex_width(m: int) -> int:
    return 2 if m <= 8 else 4


def write_code_text(code: BlrcCode, meta: dict[str, str] | None = None) -> str:
    spec = code.spec
    width = _hex_width(spec.field.m)
    lines = [
        MAGIC,
        f"n {spec.n}",
        f"k {spec.k}",
        f"w {spec.w}",
        f"field m {spec.field.m} poly 0x{spec.field.poly:x}",
        "P",
    ]
    for row in code.P.data:
        lines.append(" ".join(f"{x:0{width}x}" for x in row))
    items = dict(meta or {})
    if code.seed is not None and "seed" not in items:
        items["seed"] = str(code.seed)
    for key, value in items.items():
        lines.append(f"meta {key} {value}")
    return "\n".join(lines) + "\n"


def read_code_text(text: str) -> tuple[BlrcCode, dict[str, str]]:
    """Parse a code file.  Structural problems raise CodeFileError; the
    balanced-LRC clauses are checked by the caller via validate()."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != MAGIC:
        raise CodeFileError(f"missing '{MAGIC}' header")
    header: dict[str, str] = {}
    pos = 1
    while pos < len(lines):
        line = lines[pos].strip()
        if line == "P":
            pos += 1
            break
        if line:
            key, _, value = line.partition(" ")
            header[key] = value.strip()
        pos += 1
    else:
        raise CodeFileError("missing P section")

    try:
        n = int(header["n"])
        k = int(header["k"])
        w = int(header["w"])
    except KeyError as exc:
        raise CodeFileError(f"missing header key {exc}") from None
    except ValueError as exc:
        raise CodeFileError(f"bad header value: {exc}") from None
    field_parts = header.get("field", "").split()
    if len(field_parts) != 4 or field_parts[0] != "m" or field_parts[2] != "poly":
        raise CodeFileError("field line must read 'field m <deg> poly 0x<hex>'")
    try:
        m = int(field_parts[1])
        poly = int(field_parts[3], 16)
        field = FieldSpec(m, poly)
    except ValueError as exc:
        raise CodeFileError(f"bad field parameters: {exc}") from None

    rows: list[list[int]] = []
    meta: dict[str, str] = {}
    for lineno in range(pos, len(lines)):
        line = lines[lineno].strip()
        if not line:
            continue
        if line.startswith("meta "):
            parts = line.split(None, 2)
            if len(parts) < 3:
                raise CodeFileError(f"line {lineno + 1}: bad meta line")
            meta[parts[1]] = parts[2]
            continue
        try:
            row = [int(tok, 16) for tok in line.split()]
        except ValueError:
            raise CodeFileError(
                f"line {lineno + 1}: expected hex coefficients"
            ) from None
        rows.append(row)
    if len(rows) != k:
        raise CodeFileError(f"expected {k} parity rows, found {len(rows)}")
    r = n - k
    for i, row in enumerate(rows):
        if len(row) != r:
            raise CodeFileError(
                f"parity row {i + 1} has {len(row)} entries, expected {r}"
            )
        for x in row:
            if not 0 <= x < field.order:
                raise CodeFileError(
                    f"parity row {i + 1}: coefficient 0x{x:x} outside GF(2^{m})"
                )
    try:
        spec = CodeSpec(n, k, w, field)
    except ValueError as exc:
        raise CodeFileError(str(exc)) from None
    seed = None
    if "seed" in meta:
        try:
            seed = int(meta["seed"])
        except ValueError:
            pass
    code = BlrcCode(GfMatrix(rows, field), spec, seed=seed)
    return code, meta


def code_digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def render_report(
    report: MetricsReport,
    n: int,
    k: int,
    mttdl_stripe_days: float | None = None,
    mttdl_system_days: float | None = None,
    units: str | None = None,
) -> str:
    """Key-value report text; every numeric line carries a unit suffix."""
    lines = [
        "blrc-report v1",
        f"n {n} blocks",
        f"k {k} blocks",
        f"storage_overhead {report.storage_overhead:g} ratio",
        f"avg_repair_single {report.avg_repair_single:g} blocks",
        f"avg_repair_double {report.avg_repair_double:g} blocks",
        f"avg_column_weight {report.avg_column_weight:g} blocks",
        f"update_complexity {report.update_complexity} writes",
        f"min_distance {report.min_distance} blocks",
    ]
    if report.double_undecodable_pairs:
        lines.append(
            f"double_undecodable_pairs {report.double_undecodable_pairs} pairs"
        )
    for f in sorted(report.decodability):
        lines.append(
            f"decodability_p{f} {report.decodability[f]:.6f} probability"
        )
    if mttdl_stripe_days is not None:
        lines.append(f"mttdl_stripe {mttdl_stripe_days:.6g} days")
    if mttdl_system_days is not None:
        lines.append(f"mttdl_system {mttdl_system_days:.6g} days")
    if units is not None:
        lines.append(f"units {units} convention")
    return "\n".join(lines) + "\n"
