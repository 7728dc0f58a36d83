"""Every demo script runs to completion against the package source."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS)
def test_demo_runs(script, tmp_path):
    # run a copy: some demos write their figures next to themselves
    demos = tmp_path / "demos"
    shutil.copytree(ROOT / "demos", demos, ignore=shutil.ignore_patterns("__pycache__", "*.svg"))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(demos / script)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
