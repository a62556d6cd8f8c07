"""The benchmark harness still runs against this source tree."""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_smoke_run_is_correct():
    """``perfbench/run.py --smoke`` imports the library, traces its layers and checks every workload's outputs."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
