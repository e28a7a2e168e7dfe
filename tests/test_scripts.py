import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blrc

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script",
    [
        "run_comparison.py",
        "mttdl_sweep.py",
        "long_codes.py",
        "value_dump.py",
        "ab_pairs.py",
    ],
)
def test_script_help_prints_usage_and_writes_nothing(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(blrc.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--help"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"usage: {script}")
    assert list(tmp_path.iterdir()) == []


def _ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPTS / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result_line(correct=True, failed=0, **metrics):
    return json.dumps({
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()},
    })


def test_ab_pairs_summary_of_made_up_result_lines():
    ab = _ab_pairs()
    parent = [(100, 2.0, 5), (110, 2.2, 5), (90, 1.8, 5), (120, 2.4, 5), (105, 1.0, 5)]
    change = [(150, 1.0, 5), (100, 2.0, 5), (135, 1.5, 5), (180, 2.4, 5), (160, 3.0, 5)]
    pairs = [
        tuple(
            {**json.loads(_result_line(up=u, down=d, flat=f)), "returncode": 0}
            for u, d, f in sides
        )
        for sides in zip(parent, change)
    ]
    better = {"up": "higher", "down": "lower"}
    summary = ab.summarize(pairs, better)
    assert list(summary) == ["up", "down", "flat"]
    up = summary["up"]
    assert (up["parent_median"], up["change_median"]) == (105, 150)
    assert up["ratio"] == 150 / 105
    assert (up["wins"], up["pairs"]) == (4, 5)
    assert (up["parent_q1"], up["parent_q3"]) == (100, 110)
    down = summary["down"]
    # the change wins pairs 1-3, ties pair 4 and loses pair 5; a tie
    # counts for neither side
    assert down["wins"] == 3
    assert (down["parent_median"], down["change_median"]) == (2.0, 2.0)
    assert summary["flat"]["wins"] is None and summary["flat"]["ratio"] == 1.0
    text = ab.render(summary)
    assert text.splitlines()[1].split()[:6] == ["up", "105", "150", "1.429", "4/5", "100-110"]


def test_ab_pairs_names_every_run_that_does_not_count():
    ab = _ab_pairs()
    good = {**json.loads(_result_line(x=1.0)), "returncode": 0}
    assert ab.problems("run", good) == []
    wrong = {**json.loads(_result_line(correct=False, x=1.0)), "returncode": 1}
    assert ab.problems("run", wrong) == ["run: exit code 1", "run: not correct"]
    failed = {**json.loads(_result_line(failed=2, x=1.0)), "returncode": 0}
    assert ab.problems("run", failed) == ["run: 2 of 10 failed"]
    assert ab.problems("run", {"returncode": 2}) == [
        "run: exit code 2", "run: no result line"]
