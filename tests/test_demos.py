"""The scripts in demos/ run to completion against the package under test."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("[0-9][0-9]_*.py"))


def test_all_four_demos_are_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_exits_zero(demo, cli_env):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=cli_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
