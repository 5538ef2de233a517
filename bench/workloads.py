"""Seeded scenario generator for the benchmark workloads.

Every workload uses interaction kernel ``power(1, 0.5)``, dissipation
``power(1, 0)``, dt = 1e-3 and complex initial coefficients of modulus
0.2 with seeded phases.  The same seed always yields byte-identical
scenario files.  Stdlib only, so generating inputs imports nothing from
the package under test.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import random
from pathlib import Path
from typing import NamedTuple

AMPLITUDE = 0.2
DT = 1e-3


class Spec(NamedTuple):
    """One scenario of a workload, on the complete p-ary tree of a depth."""

    stem: str
    p: int
    depth: int
    steps: int
    solver: str
    path_slots: int = 0  # n > 0: only n slots, on one root-to-leaf path; 0: every slot
    oracles: bool = False  # all three oracle flags on, and ``oracle`` timed too


# name -> (one-line reason, scenario specs)
WORKLOADS: dict[str, tuple[str, tuple[Spec, ...]]] = {
    "crosscheck": (
        "three-route validation on 64-leaf trees: the O(L^2) leaf route "
        "dominates run and oracle",
        (
            Spec("p2d6_all", 2, 6, 1000, "all", oracles=True),
            Spec("p4d3_all", 4, 3, 1000, "all", oracles=True),
        ),
    ),
    # the dense scenarios and the sparse one share a workload: with two
    # workloads a run is long enough for several samples of every op
    # (see README)
    "ladder": (
        "coefficient routes at production size, dense and 10-slot sparse: "
        "CSV writers, assemble, rk's dense W @ y and the basis matrix; no leaf route",
        (
            Spec("p2d11_recurrent", 2, 11, 200, "recurrent"),
            Spec("p2d9_rk", 2, 9, 1000, "rk"),
            Spec("p2d12_path10", 2, 12, 200, "recurrent", path_slots=10),
        ),
    ),
}


def internal_paths(p: int, depth: int) -> list[str]:
    """Root paths of every internal vertex of the complete p-ary tree, in
    preorder (the order the package numbers vertices in)."""
    out: list[str] = []

    def visit(path: str, d: int) -> None:
        if d == depth:
            return
        out.append(path)
        for m in range(p):
            visit(f"{path}.{m}" if path else str(m), d + 1)

    visit("", 0)
    return out


def _coefficient(rng: random.Random) -> tuple[float, float]:
    z = AMPLITUDE * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return z.real, z.imag


def _initial_records(rng: random.Random, p: int, depth: int,
                     path_slots: int) -> list[list]:
    if path_slots == 0:
        slots = [(path, j) for path in internal_paths(p, depth)
                 for j in range(p - 1)]
    else:
        digits = [str(rng.randrange(p)) for _ in range(depth - 1)]
        path_vertices = [".".join(digits[:k]) for k in range(depth)]
        chosen = sorted(rng.sample(range(depth), path_slots))
        slots = [(path_vertices[k], rng.randrange(p - 1)) for k in chosen]
    return [[path, j, *_coefficient(rng)] for path, j in slots]


def scenario(spec: Spec, rng: random.Random) -> dict:
    doc = {
        "tree": {"p": spec.p, "depth": spec.depth, "A": 1.0, "q": 2.0},
        "interaction": {"type": "power", "a": [1.0, 0.0], "b": 0.5},
        "dissipation": {"type": "power", "a": [1.0, 0.0], "b": 0.0},
        "basis": "gram-schmidt",
        "initial": {"wavelets": _initial_records(rng, spec.p, spec.depth,
                                                 spec.path_slots)},
        "t_end": round(spec.steps * DT, 12),
        "dt": DT,
        "solver": spec.solver,
    }
    if spec.oracles:
        doc["oracles"] = {"check_eigen": True, "check_phi": True,
                          "check_cross": True}
    return doc


def write_workload(name: str, seed: int, out_dir: Path) -> list[dict]:
    """Write the workload's scenario files into ``out_dir``.

    Returns one record per scenario: its path, expected dimensions and
    the CLI ops to time on it, ``validate`` first.
    """
    rng = random.Random(f"{name}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for spec in WORKLOADS[name][1]:
        path = out_dir / f"{spec.stem}.json"
        text = json.dumps(scenario(spec, rng), sort_keys=True)
        path.write_text(text + "\n", encoding="utf-8")
        records.append({
            "stem": spec.stem, "path": path, "steps": spec.steps,
            "depth": spec.depth, "slots": spec.p ** spec.depth - 1,
            "cross": spec.oracles,
            "ops": ("validate", "run", "oracle") if spec.oracles else ("validate", "run"),
        })
    return records


def inputs_hash(paths: list[Path]) -> str:
    """sha256 over the names and bytes of the generated files."""
    h = hashlib.sha256()
    for path in sorted(paths, key=lambda q: q.name):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def ops(records: list[dict]) -> list[tuple[str, dict]]:
    """The closed-loop op sequence of one round: (subcommand, scenario)."""
    return [(op, rec) for rec in records for op in rec["ops"]]
