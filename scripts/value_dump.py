"""Print one digest line per section of the library's answers, to check
that a change leaves every number bit-identical.

Run it on two source trees and compare the lines:

    PYTHONPATH=src python scripts/value_dump.py

It uses only the public API, so it runs unchanged on any tree that has
it.  The sections are:

  averages  both repair averages of a fixed list of codes: the bundled
            codes, Reed-Solomon, the Azure layout, 3-replication, seeded
            random codes for r = 2..8, three long codes, a GF(2^16) code
            and a code with a zero parity-check column;
  plans     every single and pair plan of those codes with n <= 18;
  reports   build_report of the bundled and reference codes;
  search    hill_climb codes and traces: the default [16,10] d=4 search
            with seeds 0 and 7, and 15 short configurations;
  triples   every triple plan of the bundled codes, Reed-Solomon [14,10],
            the Azure layout and a GF(2^16) [15,10] code;
  linalg    rank and span_coefficients of seeded random matrices
            over GF(2^4), GF(2^8) and GF(2^16), and recovery_coefficients
            of every decodable pattern of 3 or fewer blocks of the bundled
            codes, with every survivor and with the plan's helpers;
  rank      validate's rank_condition clause of seeded parity matrices
            over GF(2^2), GF(2^4) and GF(2^8) with few distinct
            coefficients, so that dependent rows are common;
            assign_coefficients over GF(2^2) for seeds 0-29 (P, or the
            ConstructionError text); and minimum_distance of every code
            of the averages section;
  cli       stdout, stderr, exit code and the files written of blrc
            commands run in process from a temporary working directory
            with relative paths: compare (table, CSV, --bandwidth-csv),
            mttdl and analyze --fmax 4 --with-mttdl of each bundled code,
            a short search, every --help, and a [16,10] w=2 encode,
            decode, repair and decode with two shards lost.
"""

import argparse
import hashlib
import io
import itertools
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from blrc import (
    CodeSpec,
    ConstructionError,
    FieldSpec,
    GfMatrix,
    RepairPlan,
    SystematicCode,
    UndecodableError,
    assign_coefficients,
    avg_repair_bandwidth_double,
    avg_repair_bandwidth_single,
    build_report,
    minimal_repair,
    minimum_distance,
    rank,
    validate,
)
from blrc import cli
from blrc.code import recovery_coefficients
from blrc.gf import GF256
from blrc.linalg import span_coefficients
from blrc.presets import blrc_15_10_w3, blrc_16_10_w2, blrc_16_10_w3
from blrc.refcodes import (
    build_azure_lrc,
    build_replication,
    build_rs,
    build_xorbas_lrc,
)
from blrc.search import SearchConfig, hill_climb, random_support

SHAPES = (
    (8, 6, 1), (8, 6, 2), (12, 10, 2),
    (9, 6, 2), (10, 7, 3), (12, 9, 2),
    (11, 7, 2), (12, 8, 3), (14, 10, 4),
    (13, 8, 4), (14, 9, 2), (15, 10, 3),
    (16, 10, 2), (16, 10, 3), (18, 12, 3),
    (17, 10, 3), (19, 12, 4), (20, 12, 3),
)
SEEDS = 10
LONG_SHAPES = ((28, 20, 3), (32, 24, 3), (30, 20, 2))
SHORT_SEARCHES = (
    (11, 7, 3), (12, 8, 3), (14, 10, 3), (15, 10, 4), (16, 10, 3),
)
GF65536 = FieldSpec(16, 0x1100B)
GF4 = FieldSpec(2, 0b111)
RANK_FIELDS = (GF4, FieldSpec(4, 0b10011), GF256)
RANK_SHAPES = ((12, 8, 3), (11, 7, 2), (16, 10, 3), (15, 10, 4))
RANK_MATRICES = 60
MATRIX_FIELDS = (FieldSpec(4, 0b10011), GF256, GF65536)
MATRICES = 400
BUNDLED_NAMES = ("blrc-15-10-w3", "blrc-16-10-w3", "blrc-16-10-w2")
COMMANDS = ("search", "analyze", "mttdl", "encode", "decode", "repair", "compare")


def _seeded(shape, seed, field=GF256):
    spec = CodeSpec(*shape, field)
    try:
        return assign_coefficients(random_support(spec, seed), spec, seed=seed)
    except ConstructionError:
        return None


def _codes():
    """(label, code) for every code of the averages section."""
    for build in (blrc_15_10_w3, blrc_16_10_w3, blrc_16_10_w2):
        yield build.__name__, build()
    refs = (build_rs(14, 10), build_rs(9, 6), build_azure_lrc(), build_replication())
    for ref in refs:
        yield ref.label, ref.code
    zero_column = GfMatrix([[1, 1], [0, 0], [1, 2]], GF256)
    yield "zero column", SystematicCode(zero_column)
    yield "GF(2^16) [12,8] w=3", _seeded((12, 8, 3), 1, GF65536)
    for shape in SHAPES:
        for seed in range(SEEDS):
            code = _seeded(shape, seed)
            if code is not None:
                yield f"{shape} seed {seed}", code
    for shape in LONG_SHAPES:
        yield f"{shape} seed 1", _seeded(shape, 1)


def _outcome(call, *args):
    """call(*args), or the pattern of the UndecodableError it raised."""
    try:
        return call(*args)
    except UndecodableError as exc:
        return ("undecodable", exc.pattern)


def sections():
    """Yield (name, lines) for every section."""
    codes = list(_codes())
    yield "averages", [
        (
            label,
            _outcome(avg_repair_bandwidth_single, code),
            _outcome(avg_repair_bandwidth_double, code),
        )
        for label, code in codes
    ]
    plans = []
    for label, code in codes:
        if code.n <= 18:
            blocks = range(1, code.n + 1)
            patterns = [(b,) for b in blocks]
            patterns += itertools.combinations(blocks, 2)
            plans += [(label, _outcome(minimal_repair, code, p)) for p in patterns]
    yield "plans", plans
    bundled = (blrc_15_10_w3, blrc_16_10_w3, blrc_16_10_w2)
    reports = [(build.__name__, build_report(build())) for build in bundled]
    refs = [build_rs(14, 10), build_azure_lrc(), build_xorbas_lrc()]
    refs.append(build_replication())
    reports += [(ref.label, ref.report, ref.structural_report) for ref in refs]
    yield "reports", reports
    configs = [SearchConfig(16, 10, 4, seed=seed) for seed in (0, 7)]
    for (n, k, d), seed in itertools.product(SHORT_SEARCHES, range(3)):
        configs.append(
            SearchConfig(n, k, d, seed=seed, max_iterations=12, patience=6, restarts=2)
        )
    searches = []
    for config in configs:
        code, trace = hill_climb(config)
        searches.append((config, code.P.data, trace.entries))
    yield "search", searches
    triple_codes = [(build.__name__, build()) for build in bundled]
    triple_codes += [(ref.label, ref.code) for ref in refs[:2]]
    triple_codes.append(("GF(2^16) [15,10] w=3", _seeded((15, 10, 3), 1, GF65536)))
    yield "triples", [
        (label, _outcome(minimal_repair, code, p))
        for label, code in triple_codes
        for p in itertools.combinations(range(1, code.n + 1), 3)
    ]
    yield "linalg", _matrix_lines() + _recovery_lines(bundled)
    yield "rank", _rank_lines(codes)
    yield "cli", _cli_lines()


def _product(A, x):
    """A @ x by the field's own multiplication."""
    acc = [0] * A.rows
    for i, row in enumerate(A.data):
        for a, b in zip(row, x):
            acc[i] ^= A.field.mul(a, b)
    return acc


def _matrix_lines():
    """rank and span_coefficients of seeded random matrices, over few
    distinct entries so that rank-deficient ones are common, and targets
    inside the column span half the time."""
    rng, lines = random.Random(19), []
    for field, _ in itertools.product(MATRIX_FIELDS, range(MATRICES)):
        rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
        values = [0, 0] + [rng.randrange(1, field.order) for _ in range(3)]
        A = GfMatrix(
            [[rng.choice(values) for _ in range(cols)] for _ in range(rows)], field
        )
        if rng.random() < 0.5:
            target = _product(A, [rng.randrange(field.order) for _ in range(cols)])
        else:
            target = [rng.choice(values) for _ in range(rows)]
        lines.append((field.m, rank(A), span_coefficients(A, target)))
    return lines


def _rank_lines(codes):
    """validate's rank clause of seeded parity matrices, assign_coefficients
    over GF(2^2) with a short retry budget, and minimum_distance of codes."""
    rng, lines = random.Random(25), []
    for field, shape, _ in itertools.product(
        RANK_FIELDS, RANK_SHAPES, range(RANK_MATRICES)
    ):
        spec = CodeSpec(*shape, field)
        values = [rng.randrange(1, field.order) for _ in range(3)]
        support = random_support(spec, rng.randrange(2**32))
        data = [[0] * spec.r for _ in range(spec.k)]
        for i, cols in enumerate(support):
            for j in cols:
                data[i][j] = rng.choice(values)
        clause = validate(GfMatrix(data, field), spec).clauses[-1]
        lines.append((field.m, shape, clause.name, clause.passed, clause.detail))
    for shape, seed in itertools.product(RANK_SHAPES, range(30)):
        spec = CodeSpec(*shape, GF4)
        try:
            code = assign_coefficients(
                random_support(spec, seed), spec, seed=seed, max_attempts=4
            )
            lines.append((shape, seed, code.P.data))
        except ConstructionError as exc:
            lines.append((shape, seed, str(exc)))
    lines += [(label, minimum_distance(code)) for label, code in codes]
    return lines


def _recovery_lines(bundled):
    """recovery_coefficients of every decodable pattern of at most 3
    blocks of the bundled codes, with every survivor and with the plan's
    helpers."""
    lines = []
    for build in bundled:
        code = build()
        blocks = range(1, code.n + 1)
        for f in (1, 2, 3):
            for pattern in itertools.combinations(blocks, f):
                plan = _outcome(minimal_repair, code, pattern)
                if not isinstance(plan, RepairPlan):
                    continue
                survivors = [b for b in blocks if b not in pattern]
                lines.append((
                    build.__name__,
                    pattern,
                    recovery_coefficients(code, survivors, pattern),
                    recovery_coefficients(code, plan.helpers, pattern),
                ))
    return lines


def _cli_lines():
    """(argv, rc, stdout, stderr, files) per command, files being the
    digest of every file under the working directory afterwards."""
    lines = []

    def blrc(*argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:  # --help
                rc = exc.code
        files = sorted(
            (str(p), hashlib.sha256(p.read_bytes()).hexdigest())
            for p in Path().rglob("*")
            if p.is_file()
        )
        lines.append((argv, rc, out.getvalue(), err.getvalue(), files))

    home, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            blrc("compare")
            blrc("compare", "--format", "csv")
            blrc("compare", "--bandwidth-csv", "bandwidth.csv")
            for name in BUNDLED_NAMES:
                blrc("mttdl", name)
                blrc("analyze", name, "--fmax", "4", "--with-mttdl")
            blrc("search", "--n", "12", "--k", "8", "--d", "3", "--seed", "3",
                 "--max-iterations", "15", "--patience", "6", "--restarts", "1",
                 "--trace-out", "trace.csv")
            blrc("--help")
            for command in COMMANDS:
                blrc(command, "--help")
            rng = random.Random(21)
            Path("input.bin").write_bytes(bytes(rng.randrange(256) for _ in range(5000)))
            blrc("encode", "blrc-16-10-w2", "input.bin", "--out-dir", "shards")
            for lost in ("shards/input.bin.s03", "shards/input.bin.s12"):
                os.remove(lost)
            blrc("decode", "blrc-16-10-w2", "--shards", "shards", "--out", "decoded.bin")
            blrc("repair", "blrc-16-10-w2", "--shards", "shards")
            blrc("decode", "blrc-16-10-w2", "--shards", "shards", "--out", "again.bin")
        finally:
            os.chdir(home)
            if columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = columns
    return lines


def run() -> None:
    for name, lines in sections():
        digest = hashlib.sha256()
        for line in lines:
            digest.update(repr(line).encode() + b"\n")
        print(name, digest.hexdigest()[:16])


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.parse_args(argv)
    run()


if __name__ == "__main__":
    main()
