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

Two kinds of forked helper work beside the main process, one at a time,
so at most ``_usable_cpus()`` processes are busy at once:

* when a scenario needs all three solver routes (``solver: "all"`` or
  ``check_cross``, and always in ``oracle``), one helper runs the leaf
  route while this process runs the recurrent and rk routes and the
  dense checks.  It is reaped before any output is written.
* a large trajectory CSV is cut into parts, and a helper formats each
  part past the first; constant columns are written once as text.

Both give the bytes the inline work gives, and both run inline with one
usable CPU, while SIGCHLD is ignored, and in ``--jobs`` workers.  Run as
``python -m ultracascade`` or the ``ultracascade`` script, BLAS runs on
one thread unless ``OPENBLAS_NUM_THREADS`` is set.
"""

from __future__ import annotations

import argparse
import functools
import json
import mmap
import os
import pickle
import shutil
import signal
import sys
from contextlib import contextmanager, nullcontext, suppress
from pathlib import Path
from typing import Callable, Iterator, TextIO

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
    coefficient_trajectory,
    energy_by_level,
    grid_steps,
    leaf_route,
    route_spread,
    solve_leaf,
    solve_recurrent,
    solve_rk,
    time_grid,
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

# fewest varying numbers per part of a trajectory CSV: a forked helper
# formats each part past the first, and below about twice this many
# numbers the fork, wait and copy cost more than the second CPU saves
# (measured crossover, see CHANGES.md)
CSV_SPLIT_NUMBERS = 1 << 13

# most parts a trajectory CSV is cut into: the split was measured with
# two CPUs only, so further CPUs are left unused until measured
CSV_MAX_PARTS = 2

# true in the workers of ``run <dir> --jobs N``: they share the CPUs
# already, so their trajectory writers fork no helper
_in_pool_worker = False


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


def _usable_cpus() -> int:
    """CPUs the forked helpers work on beside this process: those this
    process may run on, at most ``CSV_MAX_PARTS``, so at most that many
    processes are busy at once.  1 without ``os.fork`` or
    ``os.sched_getaffinity``, and 1 while SIGCHLD is ignored, as the
    kernel then reaps a helper before its exit status can be read; at 1
    every helper's work runs inline."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if signal.getsignal(signal.SIGCHLD) == signal.SIG_IGN:
        return 1
    return min(len(os.sched_getaffinity(0)), CSV_MAX_PARTS)


def _start_helper(task: Callable[[], None]) -> int:
    """Fork a helper that runs ``task``; its pid.

    The helper leaves only through ``os._exit``, so it never flushes a
    buffer it inherited and never prints: its exit status is 0, the
    errno of an ``OSError``, or 255 for any other failure.
    """
    status = 255
    pid = os.fork()
    if pid:
        return pid
    try:
        task()
        status = 0
    except OSError as exc:
        status = exc.errno if 0 < (exc.errno or 0) < 255 else 255
    finally:
        os._exit(status)


@contextmanager
def _helpers(tasks: list[tuple[str, Callable[[], None]]]) -> Iterator[Iterator[str]]:
    """Fork one helper per (name, task); yield an iterator that waits for
    the helpers in order and gives the name of each that finished.  A
    failed helper raises ``OSError``.  On exit every helper still running
    is killed and every helper reaped."""
    running: dict[int, str] = {}

    def finished() -> Iterator[str]:
        for pid, name in list(running.items()):
            status = os.waitpid(pid, 0)[1]
            del running[pid]
            code = os.waitstatus_to_exitcode(status)
            if code == 255 or code < 0:
                raise OSError(f"{name} failed with status {code}")
            if code:
                raise OSError(code, os.strerror(code))
            yield name

    try:
        for name, task in tasks:
            running[_start_helper(task)] = name
        yield finished()
    finally:
        # a helper reaped elsewhere is gone already
        for pid in running:
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        for pid in running:
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    """Header ``t,<slot>.re,<slot>.im,...`` with slots in lexicographic order.

    Every number is written as ``%.17g`` writes it: ``format(x, ".17g")``,
    17 significant digits, enough to reproduce any double exactly.  A
    value column whose bit pattern is the same in every row is formatted
    once into the row template as text, so each ``%`` call formats only
    the numbers that vary, in blocks of about ``CSV_BLOCK_NUMBERS`` of
    them.  From ``2 * CSV_SPLIT_NUMBERS`` varying numbers on, the rows
    are cut into up to one contiguous part per usable CPU (at most
    ``CSV_MAX_PARTS``), each of at least ``CSV_SPLIT_NUMBERS`` numbers:
    this process formats the first, a forked helper each other one into
    a part file, and the parts are appended in order.  Every helper is reaped before this returns or
    raises.
    """
    order = sorted(range(len(traj.labels)), key=lambda i: traj.labels[i])
    floats = np.ascontiguousarray(traj.values, dtype=np.complex128).view(np.float64)
    # float columns in output order: (re, im) per slot
    columns = (2 * np.asarray(order, dtype=np.intp)[:, None] + (0, 1)).ravel()
    bits = floats.view(np.uint64)
    same = np.ones(floats.shape[1], dtype=bool)
    chunk = max(1, CSV_BLOCK_NUMBERS // max(1, floats.shape[1]))
    for k in range(1, len(bits), chunk):
        same &= (bits[k:k + chunk] == bits[0]).all(axis=0)
    vary = columns[~same[columns]]
    fields = ["%.17g" % x if same[c] else "%.17g"
              for c, x in zip(columns.tolist(), floats[0, columns].tolist())]
    row_fmt = ",".join(["%.17g", *fields]) + "\n"
    n_rows, per_row = len(traj.grid), 1 + len(vary)
    step = max(1, CSV_BLOCK_NUMBERS // per_row)

    def write_rows(fh: TextIO, lo: int, hi: int) -> None:
        for k in range(lo, hi, step):
            grid = traj.grid[k:min(k + step, hi)]
            block = np.empty((len(grid), per_row))
            block[:, 0] = grid
            block[:, 1:] = floats[k:k + len(grid), vary]
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))

    def write_part(part: Path, lo: int, hi: int) -> None:
        with open(part, "w", encoding="utf-8", newline="") as fh:
            write_rows(fh, lo, hi)

    cpus = 1 if _in_pool_worker else _usable_cpus()
    n_parts = max(1, min(cpus, n_rows * per_row // CSV_SPLIT_NUMBERS, n_rows))
    cuts = [n_rows * i // n_parts for i in range(n_parts + 1)]
    parts = [path.with_name(f".{path.name}.{os.getpid()}.part{i}.tmp")
             for i in range(1, n_parts)]
    tasks = [(f"trajectory CSV helper for {part.name}",
              functools.partial(write_part, part, lo, hi))
             for part, lo, hi in zip(parts, cuts[1:-1], cuts[2:])]
    try:
        with _replaced_atomically(path) as fh:
            fh.write(
                "t" + "".join(
                    f",{traj.labels[i]}.re,{traj.labels[i]}.im" for i in order
                ) + "\n"
            )
            with _helpers(tasks) as done:
                write_rows(fh, cuts[0], cuts[1])
                for part, _name in zip(parts, done):
                    fh.flush()
                    with open(part, "rb") as src:
                        shutil.copyfileobj(src, fh.buffer)
    finally:
        for part in parts:
            part.unlink(missing_ok=True)


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


@contextmanager
def _leaf_route_beside(scen: Scenario) -> Iterator[Callable[[], Trajectory]]:
    """Yield a join function that gives ``leaf_route``'s trajectory of the
    scenario, or raises the error it raised.

    With more than one usable CPU, outside ``--jobs`` workers, one forked
    helper runs the route while the block runs: the parent first checks
    the trajectory budget and allocates a shared anonymous map for the
    coefficients, the helper writes them there, and only the metadata or
    the exception comes back pickled over a pipe.  On exit the helper is
    killed if still running, and reaped.  Otherwise the join function runs
    the route inline when called.
    """
    cfg, system = scen.config, scen.system
    args = (system, scen.v0, cfg.t_end, cfg.dt)
    if _in_pool_worker or _usable_cpus() == 1:
        yield functools.partial(leaf_route, *args)
        return
    grid = time_grid(cfg.t_end, cfg.dt, system.n_slots)
    shape = (len(grid), system.n_slots)
    shared = mmap.mmap(-1, max(1, 16 * shape[0] * shape[1]))
    values = np.frombuffer(shared, np.complex128, shape[0] * shape[1]).reshape(shape)
    read_fd, write_fd = os.pipe()
    with open(read_fd, "rb") as reader, open(write_fd, "wb") as writer:

        def run_route() -> None:
            try:
                traj = leaf_route(*args)
                values[...] = traj.values
                result = traj.metadata
            except Exception as exc:  # sent to the parent, which raises it
                result = exc
            pickle.dump(result, writer)
            writer.close()

        def join() -> Trajectory:
            sent = reader.read()  # to the end: until the helper closes its end
            next(done)
            result = pickle.loads(sent)
            if isinstance(result, BaseException):
                raise result
            return coefficient_trajectory(system.basis, grid, values, result)

        with _helpers([("leaf-route helper", run_route)]) as done:
            writer.close()  # the helper holds the only write end
            yield join


def _all_routes(scen: Scenario, leaf: Callable[[], Trajectory]
                ) -> tuple[dict[str, Trajectory], dict[str, float]]:
    """``solve_all`` of the scenario, with the leaf route's trajectory
    from ``leaf``, called after the recurrent and rk routes."""
    cfg = scen.config
    args = (scen.system, scen.v0, cfg.t_end, cfg.dt)
    trajs = {"recurrent": solve_recurrent(*args), "rk": solve_rk(*args),
             "leaf": leaf()}
    return trajs, route_spread(trajs)


def _solve_canonical(scen: Scenario, leaf: Callable[[], Trajectory] | None
                     ) -> tuple[Trajectory, dict, dict | None]:
    """Run the configured solver(s); return (canonical trajectory,
    per-solver metadata, cross-solver disagreement or None).  With a
    ``leaf`` join function all three routes run, as ``_all_routes``."""
    cfg = scen.config
    if leaf is not None:
        trajs, disagreement = _all_routes(scen, leaf)
        canonical = trajs["recurrent" if cfg.solver == "all" else cfg.solver]
        metadata = {name: t.metadata for name, t in trajs.items()}
        return canonical, metadata, disagreement
    if cfg.solver == "recurrent":
        traj = solve_recurrent(scen.system, scen.v0, cfg.t_end, cfg.dt)
    elif cfg.solver == "rk":
        traj = solve_rk(scen.system, scen.v0, cfg.t_end, cfg.dt)
    else:
        leaf_traj = solve_leaf(
            scen.tree, scen.interaction, scen.dissipation,
            scen.f0, cfg.t_end, cfg.dt,
        )
        traj = analyze_trajectory(leaf_traj, scen.basis)
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

    flags = cfg.oracles
    own = [("interaction", scen.interaction), ("dissipation", scen.dissipation)]
    all_routes = cfg.solver == "all" or flags.get("check_cross", False)
    # the dense checks run while a helper may run the leaf route
    with _leaf_route_beside(scen) if all_routes else nullcontext() as leaf:
        checks = _self_checks(scen, own if flags.get("check_eigen") else [],
                              own[:1] if flags.get("check_phi") else [], None)
        canonical, solver_metadata, disagreement = _solve_canonical(scen, leaf)
    if flags.get("check_cross"):
        checks.update(_self_checks(scen, [], [], disagreement))

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


def _run_pooled(args: tuple[str, str | None]) -> tuple[str, int, str]:
    """``_run_worker`` in a worker of a process pool: no writer helpers."""
    global _in_pool_worker
    _in_pool_worker = True
    try:
        return _run_worker(args)
    finally:
        _in_pool_worker = False


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
                results = list(pool.map(_run_pooled, work))
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
    with _leaf_route_beside(scen) as leaf:
        checks = _self_checks(scen, kernels, kernels, None)
        # the dense checks report before the solve, which may abort
        for name, rec in checks.items():
            print(_check_line(name, rec, scen.basis.n_slots))
        _, spread = _all_routes(scen, leaf)
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
