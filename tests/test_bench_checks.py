"""The benchmark's correctness checks carry their own unit tests under
bench/; running them here makes a library change that breaks a benchmark
oracle or check fail the main suite too."""

import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_unit_tests_pass():
    done = subprocess.run(
        [sys.executable, "-m", "unittest", "discover",
         "-s", str(BENCH), "-p", "test_*.py"],
        cwd=BENCH,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    ran = re.search(r"^Ran (\d+) tests? ", done.stderr, re.MULTILINE)
    assert ran and int(ran.group(1)) > 0, done.stderr
