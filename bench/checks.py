"""Correctness checks on the outputs of one CLI op.

Each check returns a list of problems (empty when the op is correct) and
never raises on malformed output: a missing, truncated or unparsable
file is a problem of the op, not of the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

CHECK_LINES = ("eigenvalue check", "interaction check", "solver check")

# largest allowed cross_disagreement.max; pinned here, at the value of
# ultracascade.oracles.CROSS_SOLVER_TOL when the benchmark was defined, so
# that loosening the package's tolerance cannot make a run pass
CROSS_SOLVER_TOL = 1e-5


def output_names(stem: str) -> dict[str, str]:
    """Default output file names the CLI derives from a config stem."""
    return {
        "trajectory": f"{stem}_trajectory.csv",
        "energy": f"{stem}_energy.csv",
        "summary": f"{stem}_summary.json",
    }


def _parse_csv(text: str, header: str | None, rows: int, cols: int,
               what: str) -> list[str]:
    lines = text.split("\n")
    if lines[-1] != "":
        return [f"{what}: no trailing newline"]
    head, body = lines[0], lines[1:-1]
    if header is not None and head != header:
        return [f"{what}: header {head[:40]!r} != {header!r}"]
    if len(head.split(",")) != cols:
        return [f"{what}: header has {len(head.split(','))} columns, want {cols}"]
    if len(body) != rows:
        return [f"{what}: {len(body)} rows, want {rows}"]
    if any(line.count(",") != cols - 1 for line in body):
        return [f"{what}: a row does not have {cols} columns"]
    try:
        values = np.fromstring(",".join(body), sep=",")
    except ValueError:
        return [f"{what}: unparsable number"]
    if values.size != rows * cols:
        return [f"{what}: {values.size} numbers, want {rows * cols}"]
    if not np.all(np.isfinite(values)):
        return [f"{what}: non-finite value"]
    return []


def check_run(rec: dict, out_dir: Path) -> tuple[list[str], dict]:
    """Check the three files ``run`` wrote for scenario ``rec``.

    Returns (problems, info) where info holds the sha256 of every output
    file and, for scenarios with the cross-solver check, ``route_spread``.
    """
    problems: list[str] = []
    info: dict = {"sha256": {}}
    texts: dict[str, str] = {}
    for kind, name in output_names(rec["stem"]).items():
        try:
            blob = (out_dir / name).read_bytes()
            texts[kind] = blob.decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            problems.append(f"{name}: {exc}")
            continue
        info["sha256"][name] = hashlib.sha256(blob).hexdigest()
    if problems:
        return problems, info

    slots, steps = rec["slots"], rec["steps"]
    problems += _parse_csv(texts["trajectory"], None, steps + 1,
                           2 * slots + 1, "trajectory")
    # a complete tree carries slots on every depth below the leaves
    problems += _parse_csv(texts["energy"], "t,depth,energy",
                           (steps + 1) * rec["depth"], 3, "energy")
    try:
        summary = json.loads(texts["summary"])
    except ValueError as exc:
        return problems + [f"summary: {exc}"], info
    if not isinstance(summary, dict) or summary.get("n_slots") != slots:
        problems.append(f"summary: n_slots != {slots}")
        return problems, info
    for name, res in summary.get("oracle_checks", {}).items():
        if not (isinstance(res, dict) and res.get("pass") is True):
            problems.append(f"summary: oracle check {name} failed")
    if rec["cross"]:
        try:
            spread = float(summary["cross_disagreement"]["max"])
        except (KeyError, TypeError, ValueError):
            return problems + ["summary: no cross-solver result"], info
        info["route_spread"] = spread
        if not (math.isfinite(spread) and spread <= CROSS_SOLVER_TOL):
            problems.append(f"route_spread {spread:.3e} exceeds {CROSS_SOLVER_TOL:g}")
    return problems, info


def check_oracle(stdout: str) -> list[str]:
    """Every check line of ``oracle`` must be present and end in PASS."""
    problems = []
    lines = stdout.splitlines()
    for label in CHECK_LINES:
        found = [ln for ln in lines if ln.startswith(label + ":")]
        if len(found) != 1 or not found[0].endswith(": PASS"):
            problems.append(f"oracle: {label} {found[:1] or 'missing'}")
    return problems


def check_validate(stdout: str, rec: dict) -> list[str]:
    want = f"ok: {rec['slots']} wavelet slots,"
    if not stdout.startswith(want):
        return [f"validate: {stdout.strip()[:80]!r} does not start {want!r}"]
    return []
