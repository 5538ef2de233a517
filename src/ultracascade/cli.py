"""Command-line scenario runner.

Subcommands:

* ``run <config>``: solve the scenario (or every ``*.json`` scenario in a
  directory, optionally in parallel) and write trajectory/energy CSVs
  plus a summary JSON.
* ``validate <config>``: dry-run checks and system dimensions, no solve.
* ``oracle <config>``: spectral and solver self-check sweeps with
  pass/fail verdicts and worst deviations.

Exit codes: 0 success, 1 failed check, 2 configuration error, 3 solver
abort.  Outputs are deterministic: running the same config twice yields
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from .config import (
    ConfigError,
    Scenario,
    ScenarioConfig,
    build_scenario,
    config_hash,
    load_config,
)
from .oracles import (
    CROSS_SOLVER_TOL,
    EIGEN_TOL,
    INTERACTION_TOL,
    dense_check_refusal,
    eigen_check,
    interaction_check,
    random_kernel,
)
from .solver import (
    SolverAbort,
    Trajectory,
    analyze_trajectory,
    energy_by_level,
    grid_steps,
    solve_all,
    solve_leaf,
    solve_recurrent,
    solve_rk,
)
from .spectral import Kernel

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_ABORT = 3

# random kernels added to the oracle sweeps on top of the scenario's own
ORACLE_RANDOM_KERNELS = 3


# numbers formatted by one C-level ``%`` call: bounds the text and the
# row block a writer holds at once
CSV_BLOCK_NUMBERS = 1 << 14


@contextmanager
def _replaced_atomically(path: Path) -> Iterator[TextIO]:
    """Text handle on a temp file beside ``path`` that replaces ``path`` in
    one rename once the block exits cleanly.  On any error the temp file
    is removed and ``path`` keeps its old content, or stays absent."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    """Header ``t,<slot>.re,<slot>.im,...`` with slots in lexicographic order.

    Rows go out in blocks of about ``CSV_BLOCK_NUMBERS`` numbers, each
    gathered from the trajectory in column order and formatted by one
    ``%`` call: ``%.17g`` is ``format(x, ".17g")``, 17 significant digits,
    enough to reproduce any double exactly.
    """
    order = sorted(range(len(traj.labels)), key=lambda i: traj.labels[i])
    n_cols = 1 + 2 * len(order)
    row_fmt = ",".join(["%.17g"] * n_cols) + "\n"
    step = max(1, CSV_BLOCK_NUMBERS // n_cols)
    columns = np.asarray(order, dtype=np.intp)
    with _replaced_atomically(path) as fh:
        fh.write(
            "t" + "".join(
                f",{traj.labels[i]}.re,{traj.labels[i]}.im" for i in order
            ) + "\n"
        )
        for k in range(0, len(traj.grid), step):
            grid = traj.grid[k:k + step]
            block = np.empty((len(grid), n_cols))
            block[:, 0] = grid
            # complex columns viewed as interleaved (re, im) float pairs
            block[:, 1:] = np.ascontiguousarray(
                traj.values[k:k + step, columns]
            ).view(np.float64)
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def write_energy_csv(path: Path, rows: np.ndarray) -> None:
    """``t,depth,energy`` rows, formatted in blocks as the trajectory's."""
    step = max(1, CSV_BLOCK_NUMBERS // 3)
    with _replaced_atomically(path) as fh:
        fh.write("t,depth,energy\n")
        for k in range(0, len(rows), step):
            block = rows[k:k + step]
            fh.write(
                ("%.17g,%d,%.17g\n" * len(block)) % tuple(block.ravel().tolist())
            )


def _solve_canonical(scen: Scenario) -> tuple[Trajectory, dict, dict | None]:
    """Run the configured solver(s); return (canonical trajectory,
    per-solver metadata, cross-solver disagreement or None)."""
    cfg = scen.config
    need_all = cfg.solver == "all" or scen.config.oracles.get("check_cross", False)
    if need_all:
        trajs, disagreement = solve_all(scen.system, scen.v0, cfg.t_end, cfg.dt)
        canonical_name = "recurrent" if cfg.solver == "all" else cfg.solver
        canonical = trajs[canonical_name]
        metadata = {name: t.metadata for name, t in trajs.items()}
        return canonical, metadata, disagreement
    if cfg.solver == "recurrent":
        traj = solve_recurrent(scen.system, scen.v0, cfg.t_end, cfg.dt)
    elif cfg.solver == "rk":
        traj = solve_rk(scen.system, scen.v0, cfg.t_end, cfg.dt)
    else:
        leaf = solve_leaf(
            scen.tree, scen.interaction, scen.dissipation,
            scen.f0, cfg.t_end, cfg.dt,
        )
        traj = analyze_trajectory(leaf, scen.basis)
    return traj, {cfg.solver: traj.metadata}, None


def _self_checks(scen: Scenario, eigen_kernels: list[tuple[str, Kernel]],
                 phi_kernels: list[tuple[str, Kernel]], spread: dict | None) -> dict:
    """Self-check records: the dense eigen and interaction checks over
    (name, kernel) lists, and the route spread of ``solve_all``.  An empty
    list or a None spread leaves its check out; a dense check the tree is
    too big for gets a ``skipped`` record with the reason."""
    out: dict = {}
    for name, kernels in (("eigen", eigen_kernels), ("interaction", phi_kernels)):
        reason = kernels and dense_check_refusal(name, scen.tree)
        if reason:
            out[name] = {"skipped": reason}
        elif kernels and name == "eigen":
            devs = {k: eigen_check(kernel, scen.basis) for k, kernel in kernels}
            out[name] = {"per_kernel": devs,
                         **_verdict(max(devs.values()), EIGEN_TOL)}
        elif kernels:
            found = [interaction_check(kernel, scen.basis) for _, kernel in kernels]
            out[name] = {"pairs": sum(n for _, n in found),
                         **_verdict(max(d for d, _ in found), INTERACTION_TOL)}
    if spread is not None:
        out["cross_solver"] = _verdict(spread["max"], CROSS_SOLVER_TOL,
                                       "max_disagreement")
    return out


def _verdict(found: float, tolerance: float, key: str = "max_deviation") -> dict:
    return {key: found, "tolerance": tolerance, "pass": found <= tolerance}


def _check_line(name: str, rec: dict, n_slots: int) -> str:
    """The line ``oracle`` prints for one self-check record."""
    title = {"eigen": "eigenvalue", "cross_solver": "solver"}.get(name, name)
    if "skipped" in rec:
        return f"{title} check: skipped ({rec['skipped']})"
    if name == "cross_solver":
        found = f"max pairwise disagreement {rec['max_disagreement']:.3e}"
    else:
        cases = (f"{len(rec['per_kernel']) * n_slots} wavelet/kernel cases"
                 if name == "eigen" else f"{rec['pairs']} wavelet pairs")
        found = f"max deviation {rec['max_deviation']:.3e} over {cases}"
    verdict = "PASS" if rec["pass"] else "FAIL"
    return f"{title} check: {found} (tolerance {rec['tolerance']:g}): {verdict}"


def _refuse_oversized_flags(scen: Scenario) -> None:
    """Refuse, before any solve, a dense check flag the tree is too big for."""
    for name, flag in (("eigen", "check_eigen"), ("interaction", "check_phi")):
        reason = scen.config.oracles.get(flag) and dense_check_refusal(name, scen.tree)
        if reason:
            raise ConfigError(f"oracles.{flag}: {reason}")


def _output_names(config_path: Path, cfg: ScenarioConfig) -> dict[str, str]:
    defaults = {"trajectory": "trajectory.csv", "energy": "energy.csv",
                "summary": "summary.json"}
    return {kind: cfg.outputs.get(kind, f"{config_path.stem}_{suffix}")
            for kind, suffix in defaults.items()}


def _check_output_collisions(files: list[Path], out_dir: Path | None) -> None:
    """Refuse, before any solve, a run that would write one path twice or
    overwrite one of its scenario files."""
    owner = {path.resolve(): path.name for path in files}
    for path in files:
        try:
            names = _output_names(path, load_config(path)).values()
        except (ValueError, OSError):
            continue  # reported when the file itself runs
        for name in names:
            dest = (Path(out_dir or path.parent) / name).resolve()
            if dest in owner:
                raise ConfigError(
                    f"{path.name}: output {name!r} would overwrite {owner[dest]}"
                )
            owner[dest] = f"an output of {path.name}"


def run_scenario_file(config_path: Path, out_dir: Path | None) -> int:
    """Solve one scenario file and write its outputs; returns an exit code."""
    cfg = load_config(config_path)
    scen = build_scenario(cfg)
    _refuse_oversized_flags(scen)
    target = Path(out_dir) if out_dir is not None else config_path.parent
    target.mkdir(parents=True, exist_ok=True)
    names = _output_names(config_path, cfg)

    canonical, solver_metadata, disagreement = _solve_canonical(scen)
    flags = cfg.oracles
    own = [("interaction", scen.interaction), ("dissipation", scen.dissipation)]
    checks = _self_checks(scen, own if flags.get("check_eigen") else [],
                          own[:1] if flags.get("check_phi") else [],
                          disagreement if flags.get("check_cross") else None)

    summary = {
        "config_file": config_path.name,
        "config_hash": config_hash(cfg),
        "solver": cfg.solver,
        "basis": cfg.basis,
        "t_end": cfg.t_end,
        "dt": cfg.dt,
        "n_leaves": scen.tree.n_leaves,
        "n_slots": scen.system.n_slots,
        "n_couplings": scen.system.n_couplings,
        "solver_metadata": solver_metadata,
        "outputs": names,
    }
    if disagreement is not None:
        summary["cross_disagreement"] = disagreement
    if checks:
        summary["oracle_checks"] = checks

    write_trajectory_csv(target / names["trajectory"], canonical)
    write_energy_csv(target / names["energy"], energy_by_level(canonical))
    with _replaced_atomically(target / names["summary"]) as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    failed = [name for name, res in checks.items() if not res["pass"]]
    status = "ok" if not failed else f"check failed ({', '.join(failed)})"
    print(
        f"{status}: {config_path.name}: wrote {names['trajectory']}, "
        f"{names['energy']}, {names['summary']} in {target}"
    )
    return EXIT_OK if not failed else EXIT_CHECK_FAILED


def _run_worker(args: tuple[str, str | None]) -> tuple[str, int, str]:
    """Process-pool entry: run one scenario, mapping exceptions to codes."""
    path_str, out_dir_str = args
    path = Path(path_str)
    out_dir = Path(out_dir_str) if out_dir_str is not None else None
    try:
        code = run_scenario_file(path, out_dir)
        return (path.name, code, "")
    except SolverAbort as exc:
        return (path.name, EXIT_ABORT, f"abort: {path.name}: {exc}")
    except (ConfigError, ValueError, OSError) as exc:
        return (path.name, EXIT_CONFIG, f"error: {path.name}: {exc}")


def _cmd_run(args: argparse.Namespace) -> int:
    config = Path(args.config)
    files = sorted(config.glob("*.json")) if config.is_dir() else [config]
    if not files:
        raise ConfigError(f"no *.json scenario files in {config}")
    _check_output_collisions(files, args.out_dir)
    if config.is_dir():
        # a fork-context pool starts every worker at its first submit
        jobs = max(1, min(args.jobs, len(files)))
        work = [(str(p), str(args.out_dir) if args.out_dir else None)
                for p in files]
        if jobs == 1:
            results = [_run_worker(w) for w in work]
        else:
            # imported here: it costs every other process ~30 ms at start
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_run_worker, work))
        worst = EXIT_OK
        for _name, code, message in results:
            if message:
                print(message, file=sys.stderr)
            worst = max(worst, code)
        return worst
    return run_scenario_file(config, args.out_dir)


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        cfg = load_config(Path(args.config))
        scen = build_scenario(cfg)
        _refuse_oversized_flags(scen)
    except ConfigError as exc:
        print(f"invalid: {exc}")
        return EXIT_CONFIG
    sys_ = scen.system
    print(
        f"ok: {sys_.n_slots} wavelet slots, {sys_.n_couplings} couplings, "
        f"{scen.tree.n_leaves} leaves over {scen.tree.n_vertices} balls; "
        f"solver={cfg.solver}, basis={cfg.basis}, "
        f"grid={grid_steps(cfg.t_end, cfg.dt)} steps"
    )
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    cfg = load_config(Path(args.config))
    scen = build_scenario(cfg)
    rng = np.random.default_rng(args.seed)
    kernels = [("interaction", scen.interaction), ("dissipation", scen.dissipation)]
    kernels += [(f"random-{i}", random_kernel(scen.tree, rng))
                for i in range(ORACLE_RANDOM_KERNELS)]
    checks = _self_checks(scen, kernels, kernels, None)
    # the dense checks report before the solve, which may abort
    for name, rec in checks.items():
        print(_check_line(name, rec, scen.basis.n_slots))
    _, spread = solve_all(scen.system, scen.v0, cfg.t_end, cfg.dt)
    checks.update(_self_checks(scen, [], [], spread))
    print(_check_line("cross_solver", checks["cross_solver"], scen.basis.n_slots))
    passed = all(rec.get("pass", True) for rec in checks.values())
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultracascade",
        description=(
            "Hierarchical cascade dynamics on finite ultrametric spaces: "
            "solve scenarios, validate configs, run self-checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run",
        help="solve one scenario file, or every *.json scenario in a directory",
    )
    run_p.add_argument("config", help="scenario file or directory")
    run_p.add_argument(
        "--out-dir", type=Path, default=None,
        help="directory for output files (default: next to each config)",
    )
    run_p.add_argument(
        "--jobs", type=int, default=1,
        help="parallel workers when running a directory of scenarios",
    )
    run_p.set_defaults(func=_cmd_run)

    val_p = sub.add_parser("validate", help="check a scenario without solving")
    val_p.add_argument("config", help="scenario file")
    val_p.set_defaults(func=_cmd_validate)

    orc_p = sub.add_parser(
        "oracle",
        help="run spectral and solver self-check sweeps on a scenario",
    )
    orc_p.add_argument("config", help="scenario file")
    orc_p.add_argument(
        "--seed", type=int, default=0,
        help="seed for the randomized kernels added to the sweeps",
    )
    orc_p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SolverAbort as exc:
        print(f"abort: {exc}", file=sys.stderr)
        return EXIT_ABORT
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
