"""Every demo script, and the README's Quick start, runs to completion
against the current API, and prints the same text on every run."""

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 4


def run_python(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env=env, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = run_python([str(demo)], demo.parent)
    assert proc.returncode == 0, proc.stderr[-2000:]
    # a temporary path would make the output differ from run to run
    assert tempfile.gettempdir() not in proc.stdout


def test_readme_quick_start_runs(tmp_path):
    """The first python block under the README's Quick start heading
    runs, and its three routes agree."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Quick start\n", 1)[1]
    code = re.search(r"^```python\n(.*?)^```", section, re.S | re.M).group(1)
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert float(proc.stdout) < 1e-5
