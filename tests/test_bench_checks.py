"""The benchmark's correctness checks carry their own unit tests under
bench/; running them here makes a library change that breaks a benchmark
oracle or check fail the main suite too."""

import json
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


def test_catalogue_workload_smoke():
    """One catalogue pass, whose oracles check every report's decodability
    profile and distance, must come out correct with no failed operation."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"),
         "--workload", "catalogue", "--seed", "1", "--seconds", "0"],
        cwd=BENCH.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0, done.stderr


def test_search_workload_smoke():
    """One search pass, whose checks hold the trace order and the best
    objective against the exact double average of the returned code, must
    come out correct with no failed operation."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"),
         "--workload", "search", "--seed", "1", "--seconds", "0"],
        cwd=BENCH.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0, done.stderr
