"""Run the benchmark of two source trees in alternating pairs and print,
per end-to-end metric, how the second tree compares with the first.

    python scripts/ab_pairs.py PARENT CHANGE --workload shards --pairs 10 \\
        --seconds 40 --seed 601 --json ab-shards.json

Pair i (from 0) runs bench/run.py of both trees with seed S0 + i, each
run in a fresh process from its own tree, the parent first in even pairs
and the change first in odd ones (ABBA order), since the second run of a
pair tends to read slower.  Per metric it prints both medians, the
change's median over the parent's, the pairs the change wins (ties count
for neither, and the better direction is the one CHANGE's BENCHMARK.json
gives) and the parent's quartiles.  --json writes every run's result
line and the summary.  It exits 1 when any run exits non-zero, prints no
result, is not correct or fails an operation.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_tree(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one bench/run.py run of tree, as a dict, with
    the exit code under "returncode"; an empty result when it printed
    none."""
    done = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    return {**result, "returncode": done.returncode}


def problems(label: str, result: dict) -> list[str]:
    """Why a run does not count: a non-zero exit, no result, a wrong
    output or a failed operation."""
    out = []
    if result.get("returncode"):
        out.append(f"{label}: exit code {result['returncode']}")
    if "metrics" not in result:
        out.append(f"{label}: no result line")
    elif not result.get("correct"):
        out.append(f"{label}: not correct")
    if result.get("failed"):
        out.append(f"{label}: {result['failed']} of {result.get('attempted')} failed")
    return out


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    """Per metric of the parent's runs: both medians, their ratio
    (change / parent), the change's wins over the pairs (None when the
    metric has no better direction) and the parent's quartiles."""
    out = {}
    for name in pairs[0][0]["metrics"]:
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = {"higher": 1, "lower": -1}.get(better.get(name))
        wins = None if sign is None else sum(
            sign * (c - p) > 0 for p, c in zip(parent, change))
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        p50, c50 = statistics.median(parent), statistics.median(change)
        out[name] = {
            "parent_median": p50,
            "change_median": c50,
            "ratio": c50 / p50 if p50 else float("nan"),
            "wins": wins,
            "pairs": len(pairs),
            "parent_q1": q1,
            "parent_q3": q3,
        }
    return out


def render(summary: dict) -> str:
    lines = [f"{'metric':<20}{'parent':>11}{'change':>11}{'ratio':>8}"
             f"{'wins':>7}  parent IQR"]
    for name, s in summary.items():
        wins = "-" if s["wins"] is None else f"{s['wins']}/{s['pairs']}"
        lines.append(
            f"{name:<20}{s['parent_median']:>11.4g}{s['change_median']:>11.4g}"
            f"{s['ratio']:>8.3f}{wins:>7}  {s['parent_q1']:.4g}-{s['parent_q3']:.4g}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent commit's tree")
    parser.add_argument("change", type=Path, help="the change's tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of pair 0")
    parser.add_argument("--json", type=Path, help="write runs and summary here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs, pairs, bad = [], [], []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {}
        for side in order:
            got[side] = run_tree(trees[side], args.workload, seed, args.seconds)
            bad += problems(f"pair {i} {side} seed {seed}", got[side])
            print(f"pair {i} seed {seed} {side} done", file=sys.stderr)
        runs.append({"pair": i, "seed": seed, "order": order, **got})
        pairs.append((got["parent"], got["change"]))

    summary = {}
    if not bad:
        summary = summarize(pairs, better)
        print(f"{args.workload}: {args.pairs} ABBA pairs of {args.seconds:g} s,"
              f" seeds {args.seed}-{args.seed + args.pairs - 1}")
        print(render(summary))
    if args.json:
        args.json.write_text(json.dumps({
            "workload": args.workload,
            "parent": str(trees["parent"]),
            "change": str(trees["change"]),
            "seconds": args.seconds,
            "runs": runs,
            "summary": summary,
            "problems": bad,
        }, indent=1))
    for line in bad:
        print(f"error: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
