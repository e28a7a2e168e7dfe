"""Command-line interface.

Subcommands: search, analyze, encode, decode, repair, mttdl, compare.
Code files are passed by path, or by bundled name (blrc-15-10-w3,
blrc-16-10-w3, blrc-16-10-w2) for the ready-made examples.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import sys
from pathlib import Path

from . import presets, refcodes, sharding
from .analysis import (
    avg_repair_bandwidth_double,
    avg_repair_bandwidth_single,
    build_report,
    minimal_repair,
)
from .code import ConstructionError, UndecodableError, validate
from .codefile import (
    CodeFileError,
    code_digest,
    read_code_text,
    render_report,
    write_code_text,
)
from .gf import FieldSpec
from .reliability import (
    ParamsError,
    ReliabilityParams,
    build_model,
    mttdl_stripe,
    mttdl_system,
    parse_params,
)
from .search import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_PATIENCE,
    DEFAULT_RESTARTS,
    SearchConfig,
    hill_climb,
)


class CliError(RuntimeError):
    pass


def _load_valid_code(name: str):
    """The valid code a path or bundled name stands for, and the digest of
    its text that shard headers carry; an existing path wins over a bundled
    name."""
    path = Path(name)
    if path.exists():
        try:
            text = path.read_text(encoding="ascii")
        except UnicodeDecodeError as exc:
            raise CliError(f"{name}: not an ASCII code file ({exc})") from None
    elif name in presets.BUNDLED:
        text = write_code_text(presets.BUNDLED[name](), {"name": name})
    else:
        raise CliError(f"code file not found: {name}")
    try:
        code, _ = read_code_text(text)
    except CodeFileError as exc:
        raise CliError(f"{name}: {exc}") from None
    report = validate(code.P, code.spec)
    if not report.passed:
        failed = "; ".join(
            f"{c.name}: {c.detail}" for c in report.failures()
        )
        raise CliError(f"{name}: structural validation failed: {failed}")
    return code, code_digest(text)


def _params_from_args(args) -> ReliabilityParams:
    if getattr(args, "params", None):
        try:
            return parse_params(Path(args.params).read_text())
        except (OSError, ParamsError, UnicodeDecodeError) as exc:
            raise CliError(f"cannot read parameters: {exc}") from None
    return ReliabilityParams.defaults(getattr(args, "units", "decimal"))


def _mttdl(report, n: int, k: int, params: ReliabilityParams):
    """(stripe, system) MTTDL in days of an [n, k] code's report."""
    stripe = mttdl_stripe(build_model(report, n, k, params))
    return stripe, mttdl_system(stripe, n, params)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_search(args) -> int:
    try:
        field = FieldSpec(args.field_poly.bit_length() - 1, args.field_poly)
    except ValueError as exc:
        raise CliError(f"--field-poly: {exc}") from None
    config = SearchConfig(
        n=args.n,
        k=args.k,
        d=args.d,
        seed=args.seed,
        max_iterations=args.max_iterations,
        patience=args.patience,
        restarts=args.restarts,
        field=field,
    )
    code, trace = hill_climb(config)
    meta = {
        "search": f"n={args.n} k={args.k} d={args.d} seed={args.seed}",
        "budget": (
            f"max_iterations={args.max_iterations}"
            f" patience={args.patience} restarts={args.restarts}"
        ),
    }
    _emit(write_code_text(code, meta), args.out)
    if args.trace_out:
        Path(args.trace_out).write_text(
            "\n".join(trace.csv_rows()) + "\n", encoding="utf-8"
        )
    sys.stderr.write(
        f"best code: double {avg_repair_bandwidth_double(code).mean_cost:.4f},"
        f" single {avg_repair_bandwidth_single(code):.4f} blocks\n"
    )
    return 0


def cmd_analyze(args) -> int:
    code, _ = _load_valid_code(args.codefile)
    if args.fmax is not None and not 1 <= args.fmax <= code.n:
        raise CliError(f"--fmax {args.fmax} outside 1..{code.n}")
    # the chain needs the full-depth profile even when the displayed
    # report is cut or deepened with --fmax; the report's profile runs
    # through r, and more than r blocks are never decodable
    report = build_report(code)
    shown = report
    if args.fmax is not None:
        profile = report.decodability
        shown = dataclasses.replace(
            report,
            decodability={f: profile.get(f, 0.0) for f in range(1, args.fmax + 1)},
        )
    stripe = system = units = None
    if args.params or args.with_mttdl:
        params = _params_from_args(args)
        stripe, system = _mttdl(report, code.n, code.k, params)
        units = params.units
    _emit(
        render_report(shown, code.n, code.k, stripe, system, units),
        args.out,
    )
    return 0


def cmd_mttdl(args) -> int:
    code, _ = _load_valid_code(args.codefile)
    params = _params_from_args(args)
    stripe, system = _mttdl(build_report(code), code.n, code.k, params)
    lines = [
        f"mttdl_stripe {stripe:.6g} days",
        f"mttdl_system {system:.6g} days",
        f"stripe_count {params.stripe_count(code.n):.6g} stripes",
        f"units {params.units} convention",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_encode(args) -> int:
    code, digest = _load_valid_code(args.codefile)
    data = Path(args.input).read_bytes()
    shards = sharding.encode_stream(code, data)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.input).name
    stripes = len(shards[0])
    for idx, payload in enumerate(shards, start=1):
        header = sharding.ShardHeader(digest, idx, stripes, len(data))
        path = sharding.shard_path(out_dir, stem, idx)
        sharding.write_shard(path, header, payload)
    print(f"wrote {len(shards)} shards ({stripes} stripes) to {out_dir}")
    return 0


def _shard_set(directory: Path, stem: str | None) -> tuple[str, dict]:
    """The stem and shard files by block index of the set in directory:
    the one named, or else the only one there."""
    sets = sharding.shard_sets(directory)
    if stem is None:
        if len(sets) > 1:
            raise CliError(
                f"multiple shard sets in {directory}: {sorted(sets)};"
                " pass --stem"
            )
        stem = next(iter(sets), None)
    if stem not in sets:
        raise CliError(f"no shard files found in {directory}")
    return stem, sets[stem]


def cmd_decode(args) -> int:
    code, digest = _load_valid_code(args.codefile)
    directory = Path(args.shards)
    _, files = _shard_set(directory, args.stem)
    for b in files:
        if b > code.n:
            raise CliError(f"{files[b]}: shard index {b} out of range")
    shards, common = sharding.read_shard_set(files, files, digest)
    data = sharding.decode_stream(code, shards, common.data_length)
    Path(args.out).write_bytes(data)
    missing = [b for b in range(1, code.n + 1) if b not in shards]
    print(
        f"decoded {common.data_length} bytes from {len(shards)} shards"
        f" (missing: {missing or 'none'})"
    )
    return 0


def cmd_repair(args) -> int:
    code, digest = _load_valid_code(args.codefile)
    directory = Path(args.shards)
    stem, files = _shard_set(directory, args.stem)
    missing = [b for b in range(1, code.n + 1) if b not in files]
    if args.index is not None and not 1 <= args.index <= code.n:
        raise CliError(f"--index {args.index} outside 1..{code.n}")
    if not missing:
        print("all shards present; nothing to repair")
        return 0
    if args.index is not None and args.index not in missing:
        raise CliError(f"shard {args.index} is present; missing: {missing}")
    plan = minimal_repair(code, tuple(missing))
    # a plan reads no helper when every erased block's generator column is
    # zero: those shards are zeros, with the stripes of any shard
    reads = plan.helpers or [min(files)]
    helpers, common = sharding.read_shard_set(files, reads, digest)
    repaired = sharding.repair_stream(code, plan, helpers)
    out_dir = Path(args.out_dir) if args.out_dir else directory
    out_dir.mkdir(parents=True, exist_ok=True)
    for idx, payload in repaired.items():
        header = dataclasses.replace(common, index=idx)
        path = sharding.shard_path(out_dir, stem, idx)
        sharding.write_shard(path, header, payload)
    print(
        f"repaired shards {sorted(repaired)} by reading {plan.cost}"
        f" helpers: {list(plan.helpers)}"
    )
    return 0


# compare's columns: name, table width, table format and CSV format
COMPARE_COLUMNS = (
    ("scheme", 26, "{}", "{}"),
    ("storage_overhead", 18, "{:g}", "{:g}"),
    ("repair_single", 14, "{:g}", "{:g}"),
    ("repair_double", 14, "{:g}", "{:g}"),
    ("mttdl_days", 12, "{:.4g}", "{:.5g}"),
    ("update_complexity", 18, "{}", "{}"),
)


def _schemes() -> list[refcodes.ReferenceCode]:
    """compare's schemes: three baselines, then the bundled codes."""
    schemes = [
        refcodes.build_replication(3),
        refcodes.build_rs(14, 10),
        refcodes.build_xorbas_lrc(),
    ]
    for builder in presets.BUNDLED.values():
        code = builder()
        report = build_report(code)
        label = f"[{code.n}, {code.k}] BLRC w={code.spec.w}"
        schemes.append(
            refcodes.ReferenceCode(label, code.n, code.k, report, code, report)
        )
    return schemes


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def cmd_compare(args) -> int:
    params = _params_from_args(args)
    schemes, rows = _schemes(), []
    for ref in schemes:
        r = ref.report
        rows.append((ref.label, r.storage_overhead, r.avg_repair_single,
                     r.avg_repair_double, _mttdl(r, ref.n, ref.k, params)[1],
                     r.update_complexity))
    if args.format == "csv":
        table = [[name for name, *_ in COMPARE_COLUMNS]]
        table += [
            [fmt.format(v) for (*_, fmt), v in zip(COMPARE_COLUMNS, row)]
            for row in rows
        ]
        _emit(_csv(table), args.out)
    else:
        head = "".join(name.ljust(w) for name, w, *_ in COMPARE_COLUMNS)
        lines = [head, "-" * len(head)]
        for row in rows:
            lines.append("".join(
                fmt.format(v).ljust(w)
                for (_, w, fmt, _), v in zip(COMPARE_COLUMNS, row)
            ))
        _emit("\n".join(lines) + "\n", args.out)

    if args.bandwidth_csv:
        bandwidth = [["scheme", "failures", "avg_repair_bandwidth"]]
        for ref in schemes + [refcodes.build_azure_lrc()]:
            r = ref.report
            costs = {1: r.avg_repair_single, 2: r.avg_repair_double}
            for f in range(3, 5):
                if r.decodability.get(f, 0.0) > 0.0:
                    costs[f] = float(ref.k)
            for f, cost in sorted(costs.items()):
                bandwidth.append([ref.label, f, f"{cost:g}"])
        Path(args.bandwidth_csv).write_text(_csv(bandwidth), encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blrc",
        description=(
            "Balanced locally repairable codes: search, analysis, file"
            " coding, and reliability estimates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="hill-climb for a low-repair-cost code")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iterations", type=int, default=DEFAULT_MAX_ITERATIONS)
    p.add_argument("--patience", type=int, default=DEFAULT_PATIENCE)
    p.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
    p.add_argument(
        "--field-poly",
        type=lambda s: int(s, 0),
        default=0x11D,
        help="reduction polynomial (degree sets the field size)",
    )
    p.add_argument("--out", help="write the code file here (default stdout)")
    p.add_argument("--trace-out", help="write the search trace CSV here")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("analyze", help="full metrics report for a code file")
    p.add_argument("codefile")
    p.add_argument("--fmax", type=int, default=None,
                   help="decodability profile depth")
    p.add_argument("--params", help="reliability parameter file (adds MTTDL)")
    p.add_argument("--with-mttdl", action="store_true",
                   help="append MTTDL using default parameters")
    p.add_argument("--units", choices=["decimal", "binary"], default="decimal")
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("mttdl", help="stripe and system MTTDL for a code")
    p.add_argument("codefile")
    p.add_argument("--params")
    p.add_argument("--units", choices=["decimal", "binary"], default="decimal")
    p.add_argument("--out")
    p.set_defaults(func=cmd_mttdl)

    p = sub.add_parser("encode", help="split a file into n shards")
    p.add_argument("codefile")
    p.add_argument("input")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="rebuild a file from shards")
    p.add_argument("codefile")
    p.add_argument("--shards", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stem", help="shard file stem when the directory is shared")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("repair", help="rebuild missing shards in place")
    p.add_argument("codefile")
    p.add_argument("--shards", required=True)
    p.add_argument("--index", type=int, default=None,
                   help="assert that this shard is among the missing ones")
    p.add_argument("--stem")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser(
        "compare", help="metric comparison table across schemes"
    )
    p.add_argument("--params")
    p.add_argument("--units", choices=["decimal", "binary"], default="decimal")
    p.add_argument("--format", choices=["table", "csv"], default="table")
    p.add_argument("--out")
    p.add_argument(
        "--bandwidth-csv",
        help="also write per-failure-count average repair bandwidth rows",
    )
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        CliError,
        ConstructionError,
        UndecodableError,
        sharding.ShardError,
        ParamsError,
        CodeFileError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
