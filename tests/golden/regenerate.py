"""Regenerate the golden outputs checked by ``tests/test_golden.py``.

    PYTHONPATH=src python tests/golden/regenerate.py

Runs ``run``, ``validate`` and ``oracle`` in-process on every scenario of
``SCENARIOS`` and overwrites ``goldens.json`` and the ``*_summary.json``
copies beside this file.  The scenarios of ``RUN_AND_VALIDATE_ONLY`` skip
``oracle``: its dense eigen check would take minutes on their 512 and
4096 leaves.  Regenerate only when a change is meant to move an output,
and name what moved in the change's notes: the script prints each file
whose sha256 changed, each ``validate`` or ``oracle`` output that
changed, and for a moved summary every changed key path with its old and
new value.

The scenarios under ``crosscheck_seed7`` and ``ladder_seed7`` were
written once by the benchmark's generator and are never regenerated
here:

    python -c "import sys; sys.path.insert(0, 'bench'); from pathlib import Path; \\
        from workloads import write_workload; \\
        write_workload('crosscheck', 7, Path('tests/golden/crosscheck_seed7')); \\
        write_workload('ladder', 7, Path('tests/golden/ladder_seed7'))"
    rm tests/golden/ladder_seed7/p2d11_recurrent.json

``ladder``'s scenarios share one random stream, so ``p2d11_recurrent`` is
written first and then removed: the goldens keep the rk rung and the
sparse recurrent rung, and leave out the dense recurrent one to keep the
test short.
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
    GOLDEN / "ladder_seed7" / "p2d9_rk.json",
    GOLDEN / "ladder_seed7" / "p2d12_path10.json",
)
RUN_AND_VALIDATE_ONLY = frozenset(SCENARIOS[-2:])


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
    empty ``out_dir``; ``validate``'s and, unless the scenario is in
    ``RUN_AND_VALIDATE_ONLY``, ``oracle``'s exit code and stdout."""
    code = _cli("run", str(scenario), "--out-dir", str(out_dir))["exit"]
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(out_dir.iterdir())}
    record = {"run": {"exit": code, "sha256": digests},
              "validate": _cli("validate", str(scenario))}
    if scenario not in RUN_AND_VALIDATE_ONLY:
        record["oracle"] = _cli("oracle", str(scenario))
    return record


def summary_name(record: dict) -> str:
    return next(n for n in record["run"]["sha256"] if n.endswith("_summary.json"))


def changed_keys(old, new, path: str = ""):
    """(dotted key path, old value, new value) of every entry that differs
    between two parsed JSON documents; a key on one side only reads
    ``<absent>`` on the other."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from changed_keys(old.get(key, "<absent>"), new.get(key, "<absent>"),
                                    f"{path}.{key}" if path else key)
    elif old != new:
        yield path, old, new


def moved(old: dict, new: dict, old_summary: str | None, new_summary: str) -> list[str]:
    """Report lines for one scenario: each output whose sha256 changed,
    each changed ``validate`` or ``oracle`` record, and the changed keys of
    a moved summary."""
    lines = []
    old_sha = old.get("run", {}).get("sha256", {})
    for name, digest in new["run"]["sha256"].items():
        if old_sha.get(name) == digest:
            continue
        lines.append(f"moved: {name}")
        if name.endswith("_summary.json") and old_summary is not None:
            lines += [f"    {path}: {json.dumps(a)} -> {json.dumps(b)}" for path, a, b
                      in changed_keys(json.loads(old_summary), json.loads(new_summary))]
    lines += [f"moved: {command} {name}" for command in ("validate", "oracle")
              for name in ("exit", "stdout")
              if old.get(command, {}).get(name) != new.get(command, {}).get(name)]
    return lines


def main() -> None:
    goldens: dict = {"host": host(), "scenarios": {}}
    index = GOLDEN / "goldens.json"
    before = json.loads(index.read_text(encoding="utf-8")) if index.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in SCENARIOS:
            out_dir = Path(tmp) / scenario.stem
            record = capture(scenario, out_dir)
            goldens["scenarios"][scenario.stem] = record
            name = summary_name(record)
            kept = GOLDEN / name
            old_summary = kept.read_text(encoding="utf-8") if kept.exists() else None
            new_summary = (out_dir / name).read_text(encoding="utf-8")
            for line in moved(before.get("scenarios", {}).get(scenario.stem, {}),
                              record, old_summary, new_summary):
                print(line)
            shutil.copyfile(out_dir / name, kept)
    text = json.dumps(goldens, indent=1, sort_keys=True) + "\n"
    index.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
