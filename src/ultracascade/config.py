"""Scenario configuration: parsing, validation, and object assembly.

A scenario is one JSON document describing everything a run needs: the
tree, the two kernels, the basis scheme, the initial condition, the time
grid, the solver choice, output file names, and optional self-check
flags.  Complex numbers appear as [real, imag] pairs throughout.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .solver import CascadeSystem, assemble, grid_steps
from .spectral import Kernel
from .tree import BallTree, build_tree
from .wavelets import (
    SCHEMES,
    LeafField,
    WaveletBasis,
    WaveletField,
    analyze,
    build_basis,
    synthesize,
)

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
        for rec in spec.get("overrides", []):
            _check_value_record(rec, f"{where}.overrides")
    elif kind == "table":
        extra = set(spec) - {"type", "entries"}
        if extra:
            raise ConfigError(f"{where}: unknown keys {sorted(extra)}")
        entries = spec.get("entries")
        if not isinstance(entries, list) or not entries:
            raise ConfigError(f"{where}: table kernel needs nonempty 'entries'")
        for rec in entries:
            _check_value_record(rec, f"{where}.entries")
    else:
        raise ConfigError(
            f"{where}.type must be 'power' or 'table', got {kind!r}"
        )
    return spec


def _check_value_record(rec: Any, where: str) -> None:
    if (
        not isinstance(rec, (list, tuple))
        or len(rec) != 3
        or not isinstance(rec[0], str)
        or not all(_is_number(x) for x in rec[1:])
    ):
        raise ConfigError(
            f"{where} records must be [path, real, imag], got {rec!r}"
        )


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
    if not isinstance(records, list):
        raise ConfigError(f"initial.{kind} must be a list of records")
    for rec in records:
        if kind == "leaves":
            _check_value_record(rec, "initial.leaves")
        else:
            if (
                not isinstance(rec, (list, tuple))
                or len(rec) != 4
                or not isinstance(rec[0], str)
                or not isinstance(rec[1], int) or isinstance(rec[1], bool)
                or not all(_is_number(x) for x in rec[2:])
            ):
                raise ConfigError(
                    "initial.wavelets records must be "
                    f"[path, index, real, imag], got {rec!r}"
                )

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
        if not isinstance(v, str) or not v:
            raise ConfigError(f"outputs.{k} must be a nonempty file name")

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
    return parse_config(raw)


def config_hash(cfg: ScenarioConfig) -> str:
    """Stable hash of the canonical serialized form."""
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
    """Fully built scenario: objects ready for solving."""

    config: ScenarioConfig
    tree: BallTree
    basis: WaveletBasis
    interaction: Kernel
    dissipation: Kernel
    system: CascadeSystem
    v0: WaveletField
    f0: LeafField


def build_scenario(cfg: ScenarioConfig) -> Scenario:
    """Build every object a run needs; all errors surface as ConfigError."""
    try:
        tree = build_tree(cfg.tree)
        basis = build_basis(tree, cfg.basis)
        interaction = build_kernel(tree, cfg.interaction)
        dissipation = build_kernel(tree, cfg.dissipation)
        kind, records = next(iter(cfg.initial.items()))
        if kind == "wavelets":
            v0 = WaveletField.from_records(basis, records)
            f0 = synthesize(v0)
        else:
            f0 = LeafField.from_records(tree, records)
            v0 = analyze(basis, f0)  # rejects non-mean-zero input
        system = assemble(tree, basis, interaction, dissipation)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return Scenario(
        config=cfg,
        tree=tree,
        basis=basis,
        interaction=interaction,
        dissipation=dissipation,
        system=system,
        v0=v0,
        f0=f0,
    )
