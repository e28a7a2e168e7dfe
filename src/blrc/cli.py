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

from . import presets
from .analysis import build_report, decodability_profile, minimal_repair
from .code import ConstructionError, UndecodableError, validate
from .codefile import (
    CodeFileError,
    code_digest,
    read_code_text,
    render_report,
    write_code_text,
)
from .gf import FieldSpec
from .refcodes import (
    ReferenceCode,
    build_azure_lrc,
    build_replication,
    build_rs,
    build_xorbas_lrc,
)
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
from .sharding import (
    ShardError,
    ShardHeader,
    decode_stream,
    encode_stream,
    read_shard,
    repair_stream,
    shard_path,
    write_shard,
)


class CliError(RuntimeError):
    pass


def _load_valid_code(name: str):
    """The valid code a path or bundled name stands for, and its text (what
    shard headers digest); an existing path wins over a bundled name."""
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
    return code, text


def _params_from_args(args) -> ReliabilityParams:
    if getattr(args, "params", None):
        try:
            return parse_params(Path(args.params).read_text())
        except (OSError, ParamsError, UnicodeDecodeError) as exc:
            raise CliError(f"cannot read parameters: {exc}") from None
    return ReliabilityParams.defaults(getattr(args, "units", "decimal"))


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
    report = build_report(code)
    sys.stderr.write(
        f"best code: double {report.avg_repair_double:.4f},"
        f" single {report.avg_repair_single:.4f} blocks\n"
    )
    return 0


def cmd_analyze(args) -> int:
    code, _ = _load_valid_code(args.codefile)
    if args.fmax is not None and not 1 <= args.fmax <= code.n:
        raise CliError(f"--fmax {args.fmax} outside 1..{code.n}")
    # the chain needs the full-depth profile even when the displayed
    # report is cut or deepened with --fmax
    report = build_report(code)
    shown = report
    if args.fmax is not None:
        shown = dataclasses.replace(
            report, decodability=decodability_profile(code, args.fmax)
        )
    stripe = system = units = None
    if args.params or args.with_mttdl:
        params = _params_from_args(args)
        model = build_model(report, code.n, code.k, params)
        stripe = mttdl_stripe(model)
        system = mttdl_system(stripe, code.n, params)
        units = params.units
    _emit(
        render_report(shown, code.n, code.k, stripe, system, units),
        args.out,
    )
    return 0


def cmd_mttdl(args) -> int:
    code, _ = _load_valid_code(args.codefile)
    params = _params_from_args(args)
    report = build_report(code)
    model = build_model(report, code.n, code.k, params)
    stripe = mttdl_stripe(model)
    system = mttdl_system(stripe, code.n, params)
    lines = [
        f"mttdl_stripe {stripe:.6g} days",
        f"mttdl_system {system:.6g} days",
        f"stripe_count {params.stripe_count(code.n):.6g} stripes",
        f"units {params.units} convention",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_encode(args) -> int:
    code, text = _load_valid_code(args.codefile)
    data = Path(args.input).read_bytes()
    digest = code_digest(text)
    shards = encode_stream(code, data)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.input).name
    stripes = len(shards[0]) if shards else 0
    for idx, payload in enumerate(shards, start=1):
        header = ShardHeader(digest, idx, stripes, len(data))
        write_shard(shard_path(out_dir, stem, idx), header, payload)
    print(f"wrote {len(shards)} shards ({stripes} stripes) to {out_dir}")
    return 0


def _shard_stem(directory: Path, stem: str | None) -> str:
    if stem:
        return stem
    paths = directory.glob("*.s[0-9][0-9]")
    stems = {p.name.rsplit(".s", 1)[0] for p in paths}
    if not stems:
        raise CliError(f"no shard files found in {directory}")
    if len(stems) > 1:
        raise CliError(
            f"multiple shard sets in {directory}: {sorted(stems)};"
            " pass --stem"
        )
    return stems.pop()


def _common_header(code_text: str, headers) -> ShardHeader:
    """The one header every shard shares but for its index; refuses shards
    of another code file and headers that disagree on stripes or length."""
    own = code_digest(code_text)
    foreign = sorted({h.code_digest for h in headers} - {own})
    if foreign:
        raise CliError(
            "shard headers reference a different code file"
            f" (expected digest {own[:12]}..., found {foreign[0][:12]}...)"
        )
    if len({(h.stripes, h.data_length) for h in headers}) > 1:
        raise CliError("shard headers disagree on data length or stripes")
    return headers[0]


def cmd_decode(args) -> int:
    code, text = _load_valid_code(args.codefile)
    directory = Path(args.shards)
    stem = _shard_stem(directory, args.stem)
    paths = sorted(directory.glob(f"{stem}.s[0-9][0-9]"))
    if not paths:
        raise CliError(f"no shard files found in {directory}")
    shards = {}
    headers = []
    for p in paths:
        header, payload = read_shard(p)
        if not 1 <= header.index <= code.n:
            raise CliError(f"{p}: shard index {header.index} out of range")
        shards[header.index] = payload
        headers.append(header)
    data_length = _common_header(text, headers).data_length
    data = decode_stream(code, shards, data_length)
    Path(args.out).write_bytes(data)
    missing = [b for b in range(1, code.n + 1) if b not in shards]
    print(
        f"decoded {data_length} bytes from {len(shards)} shards"
        f" (missing: {missing or 'none'})"
    )
    return 0


def cmd_repair(args) -> int:
    code, text = _load_valid_code(args.codefile)
    directory = Path(args.shards)
    stem = _shard_stem(directory, args.stem)
    missing = [
        b
        for b in range(1, code.n + 1)
        if not shard_path(directory, stem, b).exists()
    ]
    if args.index is not None and not 1 <= args.index <= code.n:
        raise CliError(f"--index {args.index} outside 1..{code.n}")
    if not missing:
        print("all shards present; nothing to repair")
        return 0
    if args.index is not None and args.index not in missing:
        raise CliError(f"shard {args.index} is present; missing: {missing}")
    plan = minimal_repair(code, tuple(missing))
    helper_payloads = {}
    headers = []
    for b in plan.helpers:
        p = shard_path(directory, stem, b)
        header, payload = read_shard(p)
        if header.index != b:
            raise CliError(f"{p}: header says shard {header.index}")
        helper_payloads[b] = payload
        headers.append(header)
    common = _common_header(text, headers)
    repaired = repair_stream(code, plan, helper_payloads)
    out_dir = Path(args.out_dir) if args.out_dir else directory
    out_dir.mkdir(parents=True, exist_ok=True)
    for idx, payload in repaired.items():
        header = ShardHeader(
            common.code_digest, idx, common.stripes, common.data_length
        )
        write_shard(shard_path(out_dir, stem, idx), header, payload)
    print(
        f"repaired shards {sorted(repaired)} by reading {plan.cost}"
        f" helpers: {list(plan.helpers)}"
    )
    return 0


def _comparison_rows(params: ReliabilityParams):
    schemes = [
        build_replication(3),
        build_rs(14, 10),
        build_xorbas_lrc(),
    ]
    for name, builder in presets.BUNDLED.items():
        code = builder()
        report = build_report(code)
        schemes.append(
            ReferenceCode(
                label=f"[{code.n}, {code.k}] BLRC w={code.spec.w}",
                n=code.n,
                k=code.k,
                report=report,
                code=code,
                structural_report=report,
            )
        )
    rows = []
    for ref in schemes:
        r = ref.report
        model = build_model(r, ref.n, ref.k, params)
        system = mttdl_system(mttdl_stripe(model), ref.n, params)
        rows.append(
            {
                "scheme": ref.label,
                "storage_overhead": r.storage_overhead,
                "repair_single": r.avg_repair_single,
                "repair_double": r.avg_repair_double,
                "mttdl_days": system,
                "update_complexity": r.update_complexity,
                "k": ref.k,
            }
        )
    return rows, schemes


def cmd_compare(args) -> int:
    params = _params_from_args(args)
    rows, schemes = _comparison_rows(params)
    headers = [
        "scheme",
        "storage_overhead",
        "repair_single",
        "repair_double",
        "mttdl_days",
        "update_complexity",
    ]
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        for row in rows:
            writer.writerow(
                [
                    row["scheme"],
                    f"{row['storage_overhead']:g}",
                    f"{row['repair_single']:g}",
                    f"{row['repair_double']:g}",
                    f"{row['mttdl_days']:.5g}",
                    row["update_complexity"],
                ]
            )
        _emit(buf.getvalue(), args.out)
    else:
        widths = [26, 18, 14, 14, 12, 18]
        head = "".join(h.ljust(w) for h, w in zip(headers, widths))
        lines = [head, "-" * len(head)]
        for row in rows:
            lines.append(
                row["scheme"].ljust(widths[0])
                + f"{row['storage_overhead']:g}".ljust(widths[1])
                + f"{row['repair_single']:g}".ljust(widths[2])
                + f"{row['repair_double']:g}".ljust(widths[3])
                + f"{row['mttdl_days']:.4g}".ljust(widths[4])
                + f"{row['update_complexity']}".ljust(widths[5])
            )
        _emit("\n".join(lines) + "\n", args.out)

    if args.bandwidth_csv:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["scheme", "failures", "avg_repair_bandwidth"])
        plot_schemes = list(schemes) + [build_azure_lrc()]
        for ref in plot_schemes:
            r = ref.report
            costs = {1: r.avg_repair_single, 2: r.avg_repair_double}
            for f in range(3, 5):
                if r.decodability.get(f, 0.0) > 0.0:
                    costs[f] = float(ref.k)
            for f, cost in sorted(costs.items()):
                writer.writerow([ref.label, f, f"{cost:g}"])
        Path(args.bandwidth_csv).write_text(buf.getvalue(), encoding="utf-8")
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
        ShardError,
        ParamsError,
        CodeFileError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
