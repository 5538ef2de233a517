"""Regenerate the golden outputs checked by ``tests/test_golden.py``.

    PYTHONPATH=src python tests/golden/regenerate.py

Runs ``run``, ``validate`` and ``oracle`` in-process on every scenario of
``SCENARIOS`` and overwrites ``goldens.json`` and the ``*_summary.json``
copies beside this file.  Regenerate only when a change is meant to move
an output, and name what moved in the change's notes.

The two scenarios under ``crosscheck_seed7`` were written once by the
benchmark's generator and are never regenerated here:

    python -c "import sys; sys.path.insert(0, 'bench'); from pathlib import Path; \\
        from workloads import write_workload; \\
        write_workload('crosscheck', 7, Path('tests/golden/crosscheck_seed7'))"
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import shutil
import tempfile
from pathlib import Path

import numpy as np

from ultracascade import cli

GOLDEN = Path(__file__).resolve().parent
SCENARIOS = (
    GOLDEN.parent.parent / "scenarios" / "nested_pair.json",
    GOLDEN.parent.parent / "scenarios" / "single_wavelet.json",
    GOLDEN / "crosscheck_seed7" / "p2d6_all.json",
    GOLDEN / "crosscheck_seed7" / "p4d3_all.json",
)


def host() -> dict[str, str]:
    """What the floating-point bytes depend on beyond the code."""
    return {"numpy": np.__version__, "machine": platform.machine()}


def _cli(*argv: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return {"exit": code, "stdout": out.getvalue()}


def capture(scenario: Path, out_dir: Path) -> dict:
    """``run``'s exit code and the sha256 of every file it writes into the
    empty ``out_dir``; ``validate``'s and ``oracle``'s exit code and stdout."""
    code = _cli("run", str(scenario), "--out-dir", str(out_dir))["exit"]
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(out_dir.iterdir())}
    return {"run": {"exit": code, "sha256": digests},
            "validate": _cli("validate", str(scenario)),
            "oracle": _cli("oracle", str(scenario))}


def summary_name(record: dict) -> str:
    return next(n for n in record["run"]["sha256"] if n.endswith("_summary.json"))


def main() -> None:
    goldens: dict = {"host": host(), "scenarios": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in SCENARIOS:
            out_dir = Path(tmp) / scenario.stem
            record = capture(scenario, out_dir)
            goldens["scenarios"][scenario.stem] = record
            name = summary_name(record)
            shutil.copyfile(out_dir / name, GOLDEN / name)
    text = json.dumps(goldens, indent=1, sort_keys=True) + "\n"
    (GOLDEN / "goldens.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
