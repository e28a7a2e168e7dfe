"""Produce the scheme comparison table and the per-failure-count average
repair bandwidth data, as printed text plus CSV files.

Usage: python scripts/run_comparison.py [output-dir]
"""

import argparse
from pathlib import Path

from blrc import cli


def run(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    cli.main(["compare", "--out", str(out_dir / "comparison.txt"),
          "--bandwidth-csv", str(out_dir / "bandwidth.csv")])
    cli.main(["compare", "--format", "csv",
          "--out", str(out_dir / "comparison.csv")])
    print((out_dir / "comparison.txt").read_text())
    print(f"wrote {out_dir}/comparison.txt, comparison.csv, bandwidth.csv")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "out_dir", nargs="?", type=Path, default=Path("out"),
        help="directory for comparison.txt, comparison.csv and bandwidth.csv"
        " (default: out)",
    )
    run(parser.parse_args(argv).out_dir)


if __name__ == "__main__":
    main()
