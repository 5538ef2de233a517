"""Span recorder and the layer wrappers of the traced run.

The traced run executes the workload's CLI ops in this process and
rebinds the public functions of each package module to recording
wrappers for the duration of the run only (``installed``).  A span is
(name, start, end, parent, op id); spans stay in memory and are written
out when the run ends.  The untraced run installs no wrapper: its ops
run in child processes that never import this module.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

MIB = float(2 ** 20)
PACKAGE = "ultracascade"

PER_LAYER_SPANS = (
    "config.load_config", "config.build_scenario", "tree.build_tree",
    "wavelets.build_basis", "wavelets.synthesize", "solver.assemble",
    "spectral.interaction_table", "spectral.eigenvalue",
    "solver.solve_recurrent", "solver.solve_rk", "solver.solve_leaf",
    "solver.leaf_rhs", "spectral.apply_pdo_direct",
    "spectral.interaction_integral_direct", "solver.analyze_trajectory",
    "solver.solve_all", "oracles.eigen_check", "oracles.interaction_check",
    "solver.energy_by_level", "cli.write_trajectory_csv",
    "cli.write_energy_csv", "cli.main",
)
PER_LAYER_CALLS = (
    "spectral.eigenvalue", "solver.leaf_rhs", "spectral.apply_pdo_direct",
    "spectral.interaction_integral_direct",
)
PER_LAYER_COUNTS = (
    ("tree.vertices", "count"), ("solver.couplings", "count"),
    ("solver.slots", "count"), ("cli.trajectory_csv_bytes", "B"),
    ("cli.energy_csv_bytes", "B"),
)
PER_LAYER_MAXIMA = (
    ("wavelets.basis_matrix_mb", "MB"), ("solver.trajectory_mb", "MB"),
    ("solver.rk.max_step_error", "1"), ("solver.leaf.max_step_error", "1"),
)


def per_layer_units() -> dict[str, str]:
    units = {"import.ultracascade_s": "s", "import.numpy_s": "s"}
    units.update({f"{name}_s": "s" for name in PER_LAYER_SPANS})
    units.update({f"{name}_calls": "count" for name in PER_LAYER_CALLS})
    units.update(dict(PER_LAYER_COUNTS))
    units.update(dict(PER_LAYER_MAXIMA))
    units["trace.overhead_s"] = "s"
    return units


class SpanRecorder:
    """In-memory spans plus exact counters, for one traced round."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.op: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = self.clock()

    def wrap(self, name: str, fn: Callable, observe: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.counts[name + "_calls"] += 1
            if observe is not None:
                observe(self, args, result)
            return result

        wrapper.__bench_wrapped__ = fn
        return wrapper

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    def peak(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima[name], float(value))


def self_times(spans: list) -> dict[tuple[str, str | None], float]:
    """Self time per (span name, op id): each span's duration minus the
    durations of its direct children.  Spans come from one stack, so
    children are nested in their parent and never overlap."""
    out: dict[tuple[str, str | None], float] = defaultdict(float)
    for name, start, end, parent, op in spans:
        out[(name, op)] += end - start
        if parent is not None:
            p_name, _start, _end, _parent, p_op = spans[parent]
            out[(p_name, p_op)] -= end - start
    return dict(out)


def inclusive_times(spans: list) -> dict[str, float]:
    """Summed duration per span name, children included."""
    out: dict[str, float] = defaultdict(float)
    for name, start, end, _parent, _op in spans:
        out[name] += end - start
    return dict(out)


def layer_values(recorder: SpanRecorder) -> dict[str, float]:
    """Per-layer metric values of one traced round."""
    self_s: dict[str, float] = {}
    for (name, _op), value in self_times(recorder.spans).items():
        self_s[name] = self_s.get(name, 0.0) + value
    values = {f"{name}_s": self_s.get(name, 0.0) for name in PER_LAYER_SPANS}
    values.update({f"{name}_calls": recorder.counts.get(f"{name}_calls", 0.0)
                   for name in PER_LAYER_CALLS})
    values.update({name: recorder.counts.get(name, 0.0)
                   for name, _unit in PER_LAYER_COUNTS})
    values.update({name: recorder.maxima.get(name, 0.0)
                   for name, _unit in PER_LAYER_MAXIMA})
    return values


def _trajectory_mb(rec: SpanRecorder, args, traj) -> None:
    rec.peak("solver.trajectory_mb", traj.values.nbytes / MIB)


def _rk_solved(rec: SpanRecorder, args, traj) -> None:
    _trajectory_mb(rec, args, traj)
    rec.peak("solver.rk.max_step_error", traj.metadata["max_step_error"])


def _leaf_solved(rec: SpanRecorder, args, leaf_traj) -> None:
    rec.peak("solver.leaf.max_step_error", leaf_traj.metadata["max_step_error"])


def _csv_bytes(metric: str) -> Callable:
    def observe(rec: SpanRecorder, args, _result) -> None:
        rec.add(metric, os.path.getsize(args[0]))
    return observe


def _assembled(rec: SpanRecorder, args, system) -> None:
    rec.add("solver.couplings", system.n_couplings)
    rec.add("solver.slots", system.n_slots)


# (module, public function, observer of (recorder, args, result))
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("config", "load_config", None),
    ("config", "build_scenario", None),
    ("tree", "build_tree",
     lambda rec, a, tree: rec.add("tree.vertices", tree.n_vertices)),
    ("wavelets", "build_basis",
     lambda rec, a, basis: rec.peak("wavelets.basis_matrix_mb",
                                    basis.n_slots * basis.tree.n_leaves * 16 / MIB)),
    ("wavelets", "synthesize", None),
    ("spectral", "interaction_table", None),
    ("spectral", "eigenvalue", None),
    ("spectral", "apply_pdo_direct", None),
    ("spectral", "interaction_integral_direct", None),
    ("solver", "assemble", _assembled),
    ("solver", "solve_recurrent", _trajectory_mb),
    ("solver", "solve_rk", _rk_solved),
    ("solver", "solve_leaf", _leaf_solved),
    ("solver", "leaf_rhs", None),
    ("solver", "analyze_trajectory", _trajectory_mb),
    ("solver", "solve_all", None),
    ("solver", "energy_by_level", None),
    ("oracles", "eigen_check", None),
    ("oracles", "interaction_check", None),
    ("cli", "write_trajectory_csv", _csv_bytes("cli.trajectory_csv_bytes")),
    ("cli", "write_energy_csv", _csv_bytes("cli.energy_csv_bytes")),
)


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[None]:
    """Rebind every reference to a target function inside the package
    (its defining module and every ``from .x import f`` copy) to a
    recording wrapper; restore the originals on exit."""
    saved: list[tuple[object, str, Callable]] = []
    try:
        for modname, attr, observe in TARGETS:
            orig = getattr(sys.modules[f"{PACKAGE}.{modname}"], attr)
            wrapper = recorder.wrap(f"{modname}.{attr}", orig, observe)
            for mod in _package_modules():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        saved.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        yield
    finally:
        for mod, key, orig in reversed(saved):
            setattr(mod, key, orig)


def wrapped_left() -> list[str]:
    """Names in the package still bound to a recording wrapper."""
    return [f"{m.__name__}.{k}" for m in _package_modules()
            for k, v in vars(m).items() if hasattr(v, "__bench_wrapped__")]
