#!/usr/bin/env python3
"""blrc benchmark: run one workload and print its metrics as one JSON line.

    python3 bench/run.py --workload search --seed 1 --seconds 40 --trace 0

Run from anywhere; the library is imported from src/ of the checkout that
holds this file, and nothing else is imported but the standard library.
With --trace 0 the last line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics, and the spans are written to
bench-out/trace-<workload>-<seed>.json.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = (
    "gf", "linalg", "code", "analysis", "search", "reliability",
    "refcodes", "codefile", "sharding", "presets",
)
SETUP_REPEATS = 5
MIN_ROUNDS = 2

import workloads  # noqa: E402  (bench/ is on sys.path as the script's directory)
from tracing import Tracer  # noqa: E402

perf = time.perf_counter


def load_library() -> SimpleNamespace:
    """Import blrc afresh from the checkout's src/, so each set-up pays
    for the import and the field tables it builds."""
    for name in [n for n in sys.modules if n == "blrc" or n.startswith("blrc.")]:
        del sys.modules[name]
    lib = SimpleNamespace(
        **{m: importlib.import_module(f"blrc.{m}") for m in MODULES}
    )
    where = Path(lib.code.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"blrc was imported from {where}, not from {SRC}")
    return lib


def setup(name: str, seed: int, workdir: Path):
    lib = load_library()
    rng = random.Random(seed)
    parts = workloads.WORKLOADS[name]()
    for part in parts:
        part.prepare(lib, rng, workdir)
    return lib, parts


def end_to_end(m: workloads.Measures, setups: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_MB": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "search_evals_per_s": (m.search_evals / m.search_s, "1/s"),
        "search_best_double": (statistics.fmean(m.best_doubles), "blocks"),
        "catalogue_s": (statistics.median(m.catalogue_s), "s"),
        "encode_MBps": (statistics.median(m.encode_MBps), "MB/s"),
        "decode_MBps": (statistics.median(m.decode_MBps), "MB/s"),
        "repair_ms_p50": (statistics.median(m.repair_ms), "ms"),
        "repair_ms_p90": (
            statistics.quantiles(m.repair_ms, n=10, method="inclusive")[8], "ms"),
    }


def per_layer(tr: Tracer, rounds: int) -> dict:
    """Seconds and counts per round; medians per call where named so."""
    out = {}
    for metric, span in (
        ("analysis.double_avg_s", "analysis.double_avg"),
        ("analysis.single_avg_s", "analysis.single_avg"),
        ("analysis.build_report_s", "analysis.build_report"),
        ("analysis.decodability_s", "analysis.decodability"),
        ("code.assign_coefficients_s", "code.assign_coefficients"),
        ("code.minimum_distance_s", "code.minimum_distance"),
        ("code.validate_s", "code.validate"),
        ("refcodes.build_s", "refcodes.build"),
        ("reliability.build_model_s", "reliability.build_model"),
        ("reliability.mttdl_stripe_s", "reliability.mttdl_stripe"),
        ("codefile.roundtrip_s", "codefile.roundtrip"),
        ("sharding.encode_stream_s", "sharding.encode_stream"),
        ("sharding.write_shard_s", "sharding.write_shard"),
        ("sharding.read_shard_s", "sharding.read_shard"),
        ("sharding.decode_stream_s", "sharding.decode_stream"),
        ("sharding.repair_stream_s", "sharding.repair_stream"),
    ):
        out[metric] = (tr.total[span] / rounds, "s")
    out["search.self_s"] = (tr.self_time["search.hill_climb"] / rounds, "s")
    out["analysis.minimal_repair_ms"] = (
        statistics.median(tr.durations["analysis.minimal_repair"]) * 1000.0, "ms")
    c = tr.counts
    for name in ("analysis.pairs_planned", "search.candidates",
                 "search.construction_failures", "sharding.bytes_read",
                 "sharding.bytes_written"):
        out[name] = (c[name] / rounds, "count")
    out["search.accept_ratio"] = (c["search.accepted"] / c["search.candidates"], "ratio")
    out["sharding.helper_bytes_per_repaired_byte"] = (
        c["sharding.helper_bytes"] / c["sharding.repaired_bytes"], "ratio")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "blrc" / "__init__.py").is_file():
        print(f"error: no blrc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = Path(tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT))
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = perf()
            lib, parts = setup(args.workload, args.seed, workdir)
            setups.append(perf() - t0)

        tr = Tracer(enabled=bool(args.trace))
        if tr.enabled:
            tr.wrap_globals(lib)
        m = workloads.Measures()
        rounds, start, last = 0, perf(), 0.0
        while rounds < MIN_ROUNDS or perf() - start + last <= args.seconds:
            t0 = perf()
            for part in parts:
                part.run(lib, tr, m, first=rounds == 0)
            last = perf() - t0
            rounds += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = per_layer(tr, rounds) if tr.enabled else end_to_end(m, setups)
    if tr.enabled:
        tr.write(ROOT / "bench-out" / f"trace-{args.workload}-{args.seed}.json")
    print(
        f"{args.workload} seed {args.seed}: {rounds} rounds in"
        f" {perf() - start:.2f} s, last round {last:.3f} s",
        file=sys.stderr,
    )
    correct = not m.problems and all(math.isfinite(v) for v, _ in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
