"""Sweep node MTTF and repair bandwidth for the bundled codes and write
system MTTDL curves as CSV (scheme, mttf_years, gamma_gbps, mttdl_days).

Usage: python scripts/mttdl_sweep.py [output.csv]
"""

import argparse
from pathlib import Path

from blrc.analysis import build_report
from blrc.presets import BUNDLED
from blrc.reliability import (
    DAYS_PER_YEAR,
    ReliabilityParams,
    build_model,
    mttdl_stripe,
    mttdl_system,
)

MTTF_YEARS = (1, 2, 4, 8, 16)
GAMMA_GBPS = (0.25, 0.5, 1.0, 2.0, 4.0)


def run(out_path: Path) -> None:
    base = ReliabilityParams.defaults()
    rows = ["scheme,mttf_years,gamma_gbps,mttdl_days"]
    for name, builder in BUNDLED.items():
        code = builder()
        report = build_report(code)
        for years in MTTF_YEARS:
            for gbps in GAMMA_GBPS:
                params = ReliabilityParams(
                    total_bytes=base.total_bytes,
                    nodes=base.nodes,
                    block_bytes=base.block_bytes,
                    repair_bandwidth_bps=gbps * 1e9,
                    mttf_days=years * DAYS_PER_YEAR,
                )
                model = build_model(report, code.n, code.k, params)
                system = mttdl_system(mttdl_stripe(model), code.n, params)
                rows.append(f"{name},{years},{gbps},{system:.6g}")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("\n".join(rows) + "\n")
    print(f"wrote {len(rows) - 1} rows to {out_path}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "out_path", nargs="?", type=Path, default=Path("out/mttdl_sweep.csv"),
        help="CSV file to write (default: out/mttdl_sweep.csv)",
    )
    run(parser.parse_args(argv).out_path)


if __name__ == "__main__":
    main()
