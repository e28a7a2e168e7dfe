import os
import subprocess
import sys
from pathlib import Path

import pytest

import blrc

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script",
    ["run_comparison.py", "mttdl_sweep.py", "long_codes.py", "value_dump.py"],
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
