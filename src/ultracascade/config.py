"""Scenario configuration: parsing, validation, and object assembly.

A scenario is one JSON document describing everything a run needs: the
tree, the two kernels, the basis scheme, the initial condition, the time
grid, the solver choice, output file names, and optional self-check
flags.  Complex numbers appear as [real, imag] pairs throughout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .solver import CascadeSystem, assemble, check_trajectory_budget, grid_steps
from .spectral import Kernel
from .tree import BallTree, build_tree
from .wavelets import SCHEMES, LeafField, WaveletField, analyze, build_basis

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "Scenario",
    "parse_config",
    "load_config",
    "build_kernel",
    "build_scenario",
    "config_hash",
]

SOLVERS = ("recurrent", "rk", "leaf", "all")

_TOP_KEYS = {
    "tree", "interaction", "dissipation", "basis", "initial",
    "t_end", "dt", "solver", "outputs", "oracles",
}
_REQUIRED_KEYS = {"tree", "interaction", "dissipation", "initial", "t_end", "dt"}
_OUTPUT_KEYS = {"trajectory", "energy", "summary"}
_ORACLE_KEYS = {"check_eigen", "check_phi", "check_cross"}


class ConfigError(ValueError):
    """A scenario document is malformed or inconsistent."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed, validated scenario document (plain data, no tree objects)."""

    tree: dict
    interaction: dict
    dissipation: dict
    initial: dict
    t_end: float
    dt: float
    basis: str = "gram-schmidt"
    solver: str = "recurrent"
    outputs: dict = field(default_factory=dict)
    oracles: dict = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form that reparses to an equal ScenarioConfig."""
        return {
            "tree": self.tree,
            "interaction": self.interaction,
            "dissipation": self.dissipation,
            "basis": self.basis,
            "initial": self.initial,
            "t_end": self.t_end,
            "dt": self.dt,
            "solver": self.solver,
            "outputs": dict(self.outputs),
            "oracles": dict(self.oracles),
        }


def _is_number(x: Any) -> bool:
    """An int or float; JSON true/false decode to bool, an int subclass."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _complex_pair(value: Any, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(_is_number(x) for x in value)
    ):
        raise ConfigError(f"{where} must be a [real, imag] pair, got {value!r}")
    return complex(float(value[0]), float(value[1]))


def _check_kernel_spec(spec: Any, where: str) -> dict:
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object")
    kind = spec.get("type")
    if kind == "power":
        extra = set(spec) - {"type", "a", "b", "overrides"}
        if extra:
            raise ConfigError(f"{where}: unknown keys {sorted(extra)}")
        if "a" not in spec or "b" not in spec:
            raise ConfigError(f"{where}: power kernel needs 'a' and 'b'")
        _complex_pair(spec["a"], f"{where}.a")
        if not _is_number(spec["b"]):
            raise ConfigError(f"{where}.b must be a number")
        _check_records(spec.get("overrides", []), f"{where}.overrides")
    elif kind == "table":
        extra = set(spec) - {"type", "entries"}
        if extra:
            raise ConfigError(f"{where}: unknown keys {sorted(extra)}")
        entries = spec.get("entries")
        if not isinstance(entries, list) or not entries:
            raise ConfigError(f"{where}: table kernel needs nonempty 'entries'")
        _check_records(entries, f"{where}.entries")
    else:
        raise ConfigError(
            f"{where}.type must be 'power' or 'table', got {kind!r}"
        )
    return spec


def _check_records(records: Any, where: str, width: int = 1) -> None:
    """Check a list of [path, real, imag] records, or of [path, index,
    real, imag] ones when ``width`` is 2, and refuse two that name one key
    (their first ``width`` fields) rather than let the last one win.  A
    path has one spelling (``BallTree.vertices`` rejects "01", " 0" and
    "+1"), so equal text is the only way to name one ball twice."""
    if not isinstance(records, list):
        raise ConfigError(f"{where} must be a list of records")
    shape = "[path, real, imag]" if width == 1 else "[path, index, real, imag]"
    first: dict[tuple, int] = {}
    for i, rec in enumerate(records):
        if (
            not isinstance(rec, (list, tuple))
            or len(rec) != width + 2
            or not isinstance(rec[0], str)
            or not all(isinstance(x, int) and _is_number(x) for x in rec[1:width])
            or not all(_is_number(x) for x in rec[width:])
        ):
            raise ConfigError(f"{where} records must be {shape}, got {rec!r}")
        j = first.setdefault(tuple(rec[:width]), i)
        if j != i:
            raise ConfigError(f"{where}: records {j} and {i} (counted from 0) "
                              f"both name {list(rec[:width])!r}")


def parse_config(raw: Any) -> ScenarioConfig:
    """Validate a decoded scenario document into a ScenarioConfig."""
    if not isinstance(raw, dict):
        raise ConfigError("scenario config must be a JSON object")
    extra = set(raw) - _TOP_KEYS
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    missing = _REQUIRED_KEYS - set(raw)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")

    if not isinstance(raw["tree"], dict):
        raise ConfigError("'tree' must be an object")
    _check_kernel_spec(raw["interaction"], "interaction")
    _check_kernel_spec(raw["dissipation"], "dissipation")

    basis = raw.get("basis", "gram-schmidt")
    if basis not in SCHEMES:
        raise ConfigError(f"'basis' must be one of {SCHEMES}, got {basis!r}")
    solver = raw.get("solver", "recurrent")
    if solver not in SOLVERS:
        raise ConfigError(f"'solver' must be one of {SOLVERS}, got {solver!r}")

    initial = raw["initial"]
    if (
        not isinstance(initial, dict)
        or len(initial) != 1
        or next(iter(initial)) not in ("wavelets", "leaves")
    ):
        raise ConfigError(
            "'initial' must be an object with exactly one of the keys "
            "'wavelets' (records [path, index, real, imag]) or "
            "'leaves' (records [path, real, imag])"
        )
    kind, records = next(iter(initial.items()))
    _check_records(records, f"initial.{kind}", 1 if kind == "leaves" else 2)

    for key in ("t_end", "dt"):
        if not _is_number(raw[key]):
            raise ConfigError(f"'{key}' must be a positive number")
    try:
        grid_steps(raw["t_end"], raw["dt"])  # the check time_grid makes
    except (ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from None

    outputs = raw.get("outputs", {})
    if not isinstance(outputs, dict) or set(outputs) - _OUTPUT_KEYS:
        raise ConfigError(
            f"'outputs' keys must be among {sorted(_OUTPUT_KEYS)}"
        )
    for k, v in outputs.items():
        if (not isinstance(v, str) or v in ("", ".", "..")
                or "/" in v or "\\" in v):
            raise ConfigError(f"outputs.{k} must be a nonempty file name "
                              f"with no directory part, got {v!r}")

    oracles = raw.get("oracles", {})
    if not isinstance(oracles, dict) or set(oracles) - _ORACLE_KEYS:
        raise ConfigError(
            f"'oracles' keys must be among {sorted(_ORACLE_KEYS)}"
        )
    for k, v in oracles.items():
        if not isinstance(v, bool):
            raise ConfigError(f"oracles.{k} must be true or false")

    return ScenarioConfig(
        tree=raw["tree"],
        interaction=raw["interaction"],
        dissipation=raw["dissipation"],
        basis=basis,
        initial=initial,
        t_end=float(raw["t_end"]),
        dt=float(raw["dt"]),
        solver=solver,
        outputs=dict(outputs),
        oracles=dict(oracles),
    )


def load_config(path: Path | str) -> ScenarioConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: nested too deeply to parse") from exc
    return parse_config(raw)


def config_hash(cfg: ScenarioConfig) -> str:
    """Stable hash of the canonical serialized form."""
    import hashlib  # imported here: loading OpenSSL costs validate ~5 ms

    blob = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def build_kernel(tree: BallTree, spec: dict) -> Kernel:
    """Realize a validated kernel spec on a tree."""
    try:
        if spec["type"] == "power":
            return Kernel.power(
                tree,
                _complex_pair(spec["a"], "kernel amplitude"),
                float(spec["b"]),
                spec.get("overrides"),
            )
        return Kernel.from_table(tree, spec["entries"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass
class Scenario:
    """Fully built scenario: the parsed config, the assembled system and
    the coefficient state ``v0`` that every route, the leaf route too,
    starts from.  The tree, basis and kernels are read through
    ``system``, which owns them, so each has one way to be reached."""

    config: ScenarioConfig
    system: CascadeSystem
    v0: WaveletField


def build_scenario(cfg: ScenarioConfig) -> Scenario:
    """Build every object a run needs; all errors surface as ConfigError.

    A shorthand tree over ``tree.MAX_VERTICES`` balls, or a stored
    trajectory over ``solver.MAX_TRAJECTORY_BYTES``, is refused before
    either is allocated, the trajectory before the basis too.  It is
    checked as the leaf route stores it, one column per leaf, whichever
    route the scenario runs (``oracle`` runs them all), so a trajectory
    that fits one column over the slots but not the leaves is refused
    too.  So is a tree of a single ball, which has no wavelet slot to
    solve.  Wavelet-initial input is read straight into
    ``v0`` with no synthesis pass; leaf-initial input is parsed into a
    ``LeafField`` that goes to ``analyze`` and is not kept.
    """
    try:
        tree = build_tree(cfg.tree)  # refuses a shorthand tree over budget
        if len(tree.internal) == 0:
            raise ConfigError("tree needs at least one internal ball: "
                              "a single ball carries no wavelet slot")
        # the leaf route's array: L leaves carry L - 1 wavelet slots on
        # any tree, so this bounds the slot trajectory too
        check_trajectory_budget(grid_steps(cfg.t_end, cfg.dt), tree.n_leaves,
                                "leaves")
        basis = build_basis(tree, cfg.basis)
        interaction = build_kernel(tree, cfg.interaction)
        dissipation = build_kernel(tree, cfg.dissipation)
        kind, records = next(iter(cfg.initial.items()))
        if kind == "wavelets":
            v0 = WaveletField.from_records(basis, records)
        else:  # analyze rejects non-mean-zero input
            v0 = analyze(basis, LeafField.from_records(tree, records))
        system = assemble(tree, basis, interaction, dissipation)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return Scenario(config=cfg, system=system, v0=v0)
