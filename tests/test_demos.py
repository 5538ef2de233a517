"""Every demo script runs to completion against the current API, and
prints the same text on every run."""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True,
        env=env, cwd=demo.parent, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    # a temporary path would make the output differ from run to run
    assert tempfile.gettempdir() not in proc.stdout
