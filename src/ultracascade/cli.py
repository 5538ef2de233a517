"""Command-line scenario runner.

Subcommands:

* ``run <config>``: solve the scenario (or every ``*.json`` scenario in a
  directory, optionally in parallel) and write trajectory/energy CSVs
  plus a summary JSON.
* ``validate <config>``: dry-run checks and system dimensions, no solve.
* ``oracle <config>``: spectral and solver self-check sweeps with
  pass/fail verdicts and worst deviations.

Exit codes: 0 success, 1 failed check, 2 configuration error (or out of
memory), 3 solver abort.  Outputs are deterministic: running the same
config twice yields byte-identical files.  ``run`` writes a scenario's
three outputs to temp files beside them and renames them only once all
three are written, so an error leaves the old set, or none, in place.

Work runs in another process only through ``_helpers``: it forks a
helper per task, gives back each task's return value, pickled over a
pipe, or raises its exception, and a helper forks none of its own.
Three kinds of helper:

* ``run <dir> --jobs N``: ``min(N, files)`` workers, worker i running
  files i, i+N, ... in turn; sequential where ``_can_fork`` is false.
* the leaf route, when a scenario needs all three solver routes
  (``solver: "all"`` or ``check_cross``, and always in ``oracle``),
  beside this process's recurrent and rk routes and dense checks.  A
  recurrent or rk canonical trajectory's CSVs are written while it
  runs; the summary, and a leaf canonical trajectory's CSVs, follow
  its join.
* each part past the first of a large trajectory CSV.

The last two run inline at one usable CPU, and a trajectory CSV written
while the leaf-route helper runs gets one CPU fewer, so at most
``_usable_cpus()`` processes are busy at once.  Every helper gives the
bytes the inline work gives.  Run as ``python -m ultracascade``
or the ``ultracascade`` script, BLAS runs on one thread unless
``OPENBLAS_NUM_THREADS`` is set.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import pickle
import shutil
import signal
import sys
from contextlib import contextmanager, nullcontext, suppress
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, TextIO

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
    CascadeSystem,
    SolverAbort,
    Trajectory,
    energy_by_level,
    grid_steps,
    leaf_route,
    route_spread,
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

# fewest varying numbers per part of a trajectory CSV: a forked helper
# formats each part past the first, and below about twice this many
# numbers the fork, wait and copy cost more than the second CPU saves.
# Measured crossover, see CHANGES.md: two parts break even near 32k
# numbers since each number costs about 0.3 us as text from its exact
# 17-digit integer, against 0.6-0.9 us through ``%.17g``
CSV_SPLIT_NUMBERS = 1 << 14

# most processes busy at once on one piece of work, this one included:
# caps every kind of helper but the ``--jobs`` workers, which follow N.
# The split was measured with two CPUs only, so further CPUs are left
# unused until measured
CSV_MAX_PARTS = 2

# |E| of the largest and smallest decimal exponents ``_exact_digits``
# formats: keeps Dekker's products clear of overflow and underflow
_EXACT_EXPONENT = 99

# 2**27 + 1: Dekker's split of a double into two 26-bit halves
_DEKKER_SPLIT = 134217729.0

# a fractional part this close to 1/2 may be a tie, or on the wrong side
# of one: far above the double-double's error of 1e-13
_NEAR_TIE = 1e-6

# true in a forked helper: its own work runs inline, never in helpers
_in_helper = False


@contextmanager
def _replaced_atomically(*paths: Path) -> Iterator[list[Path]]:
    """A temp path beside each of ``paths``, for the block to write.  Once
    the block exits cleanly, each temp file replaces its path in one
    rename, and no rename comes before the whole block is done.  On any
    error every temp file is removed and every path keeps its old content,
    or stays absent."""
    paths = [Path(path) for path in paths]
    tmps = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in paths]
    try:
        yield tmps
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise


def _can_fork() -> bool:
    """Whether this process may fork helpers: it has ``os.fork``, is no
    helper itself, and SIGCHLD is not ignored, as the kernel then reaps a
    helper before its exit status can be read."""
    return (hasattr(os, "fork") and not _in_helper
            and signal.getsignal(signal.SIGCHLD) != signal.SIG_IGN)


def _usable_cpus() -> int:
    """CPUs the leaf-route and CSV helpers work on beside this process:
    those this process may run on, at most ``CSV_MAX_PARTS``.  1 where
    ``_can_fork`` is false (in a ``--jobs`` worker, say) or without
    ``os.sched_getaffinity``; at 1 their work runs inline."""
    if not (_can_fork() and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), CSV_MAX_PARTS)


def _start_helper(task: Callable[[], object]) -> tuple[int, BinaryIO]:
    """Fork a helper that runs ``task``; its pid and the read end of a
    pipe that carries the pickled return value of ``task`` or its error.

    Both streams are flushed first, so no helper repeats what this
    process printed.  The helper flushes its own stdout and leaves only
    through ``os._exit``: status 0 once its result is sent, else 255.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    reader, writer = map(open, os.pipe(), ("rb", "wb"))
    with writer:  # the helper holds the only write end
        try:
            pid = os.fork()
        except BaseException:
            reader.close()
            raise
        if pid:
            return pid, reader
        global _in_helper
        _in_helper, status = True, 255
        try:
            reader.close()
            try:
                result = task()
                sys.stdout.flush()
            except Exception as exc:  # sent to the parent, which raises it
                result = exc
            # protocol 5 writes an array's buffer to the pipe as it is,
            # where protocol 4 would copy it into a bytes object first
            pickle.dump(result, writer, protocol=5)
            writer.flush()
            status = 0
        finally:
            os._exit(status)


@contextmanager
def _helpers(tasks: list[tuple[str, Callable[[], object]]]
             ) -> Iterator[Iterator[object]]:
    """Fork one helper per (name, task); yield an iterator that waits for
    the helpers in order and gives each task's return value, or raises
    the exception the task raised.  A helper that died any other way
    raises ``OSError``.  On exit every helper still running is killed and
    every helper reaped."""
    running: dict[int, tuple[str, BinaryIO]] = {}

    def results() -> Iterator[object]:
        for pid, (name, reader) in list(running.items()):
            # straight from the pipe, so no copy of the whole pickle is held
            try:
                sent = [pickle.load(reader)]
            except (EOFError, pickle.UnpicklingError):
                sent = []  # cut short: the helper died, its status says how
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del running[pid]
            reader.close()
            if code or not sent:
                raise OSError(f"{name} failed with status {code}")
            result = sent[0]
            if isinstance(result, BaseException):
                raise result
            yield result

    try:
        for name, task in tasks:
            pid, reader = _start_helper(task)
            running[pid] = (name, reader)
        yield results()
    finally:
        # a helper reaped elsewhere is gone already
        for pid, (_name, reader) in running.items():
            reader.close()
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        for pid in running:
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)


@functools.cache
def _digit_tables() -> tuple[np.ndarray, ...]:
    """The tables of ``_exact_digits``, built on the first write.

    * ``pieces``: the ``%`` piece of each layout code.  0 an integer
      ``%d``; 1-16 ``%d.%0{w}d`` with w fraction digits; 17-20 ``0.``
      and 0-3 zeros before ``%d``; 21-37 and 38-54 ``%d.%0{s-1}de+%02d``
      and ``e-`` with s = 1-17 significant digits (no point at s = 1);
      55 more for a minus sign; 110 the fallback; 111 and 112 ``0`` and
      ``-0``.  The last three take no integer.
    * ``takes``: which of (leading part, other digits, |E|) each code's
      piece takes.
    * by E = -99..99 (row E + 99) and s (column): the layout code, and
      by E the power of ten that cuts the leading part off N.
    * 10**k for k = 16 - E, as hi + lo, both doubles correctly rounded
      from Python ints, and hi in two 26-bit halves for Dekker's product.
    * the powers of ten up to 10**17 as int64.
    """
    layouts = (["%d"] + [f"%d.%0{w}d" for w in range(1, 17)]
               + ["0." + "0" * z + "%d" for z in range(4)]
               + [f"%d{f'.%0{s - 1}d' if s > 1 else ''}e{sign}%02d"
                  for sign in "+-" for s in range(1, 18)])
    pieces = np.array(layouts + ["-" + p for p in layouts] + ["", "0", "-0"],
                      dtype=object)
    takes = ([(1, 0, 0)] + [(1, 1, 0)] * 16 + [(0, 1, 0)] * 4
             + [(1, 0, 1), *[(1, 1, 1)] * 16] * 2)
    takes = np.array(takes * 2 + [(0, 0, 0)] * 3, dtype=bool).T.copy()
    exponents = range(-_EXACT_EXPONENT, _EXACT_EXPONENT + 1)
    code, s = np.zeros((len(exponents), 18), dtype=np.intp), np.arange(18)
    cut, hi, lo = np.zeros(len(exponents), dtype=np.intp), [], []
    for row, e10 in enumerate(exponents):
        if e10 < -4 or e10 > 16:  # scientific
            code[row], cut[row] = 20 + 17 * (e10 < 0) + s, 16
        elif e10 < 0:
            code[row], cut[row] = 16 - e10, 17
        else:
            code[row], cut[row] = np.maximum(s - 1 - e10, 0), 16 - e10
        num, den = (10 ** (16 - e10), 1) if e10 <= 16 else (1, 10 ** (e10 - 16))
        hi.append(num / den)
        a, b = hi[-1].as_integer_ratio()
        lo.append((num * b - a * den) / (den * b))
    hi = np.array(hi)
    split = _DEKKER_SPLIT * hi
    hi_hi = split - (split - hi)
    return (pieces, takes, code.ravel(), cut, hi, hi_hi, hi - hi_hi,
            np.array(lo), 10 ** np.arange(18))


def _exact_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Layout code of each number of ``x`` (see ``_digit_tables``) and the
    integers its ``%`` piece takes, all in one flat array, in order.

    With E = floor(log10|x|), |x| * 10**(16 - E) is formed as a
    double-double: Dekker's exact product of |x| with hi, plus |x| * lo.
    Its error is below 1e-13 of a unit, so its correctly rounded integer
    N is the 17 digits ``%.17g`` prints whenever its fractional part lies
    farther than ``_NEAR_TIE`` from 1/2.  Zeros get codes of their own.
    Code 110, the fallback, is left to near-ties (``1 + 2**-17`` is an
    exact one), N outside [10**16, 10**17) (log10 off by one, or N rounded
    up to 10**17), |E| > ``_EXACT_EXPONENT``, subnormals, infinities and
    nan.
    """
    _, takes, code_of, cut_of, hi, hi_hi, hi_lo, lo, pow10 = _digit_tables()
    a = np.abs(x)
    zero = np.flatnonzero(a == 0)
    exact = (a >= 10.0 ** -_EXACT_EXPONENT) & (a < 10.0 ** (_EXACT_EXPONENT + 1))
    a[~exact] = 1.0
    e10 = np.floor(np.log10(a)).astype(np.intp)
    # log10 may be off by one at the window's edges: N is then out of range
    row = np.clip(e10 + _EXACT_EXPONENT, 0, 2 * _EXACT_EXPONENT, out=e10)
    split = _DEKKER_SPLIT * a
    a_hi = split - (split - a)
    a_lo = a - a_hi
    h_hi, h_lo = hi_hi[row], hi_lo[row]
    head = a * hi[row]
    tail = ((a_hi * h_hi - head) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo
    tail += a * lo[row]
    whole = np.floor(tail)
    tail -= whole
    n = head.astype(np.int64)
    n += whole.astype(np.int64)
    exact &= (n >= pow10[16]) & (np.abs(tail - 0.5) > _NEAR_TIE)
    n += tail > 0.5
    exact &= n < pow10[17]
    n[~exact] = pow10[16]
    lead = n // pow10[cut_of[row]]
    rest = n - lead * pow10[cut_of[row]]
    # strip trailing zeros, from the 10% or so of numbers that have any
    col = np.full(len(n), 17)
    ends = np.flatnonzero(n // 10 * 10 == n)
    digits, zeros = n[ends], 0
    for z in (16, 8, 4, 2, 1):
        q, r = np.divmod(digits, pow10[z])
        digits = np.where(r == 0, q, digits)
        zeros = zeros + z * (r == 0)
    col[ends] -= zeros
    rest[ends] //= pow10[zeros]
    code = code_of[row * 18 + col]
    code += 55 * (x < 0)
    code[~exact] = 110
    code[zero] = 111 + np.signbit(x[zero])
    args = np.stack((lead, rest, np.abs(row - _EXACT_EXPONENT)), axis=1)
    used = np.stack([take[code] for take in takes], axis=1)
    return code, args.ravel().take(np.flatnonzero(used))


def _row_formatter(seps: list[str]) -> Callable[[np.ndarray], str]:
    """Function that gives the CSV text of a block of rows: number j of
    each row as ``format(x, ".17g")`` writes it, then ``seps[j]``.

    Each number's ``%`` piece, its separator included, is picked from a
    table by layout code and separator, and the block's text is
    ``"".join(pieces) % tuple(integers)``: Python's integer formatting
    writes the digits ``_exact_digits`` found.  A number of code 110
    gets ``"%.17g" % x`` as literal text in its piece.
    """
    pieces = _digit_tables()[0]
    escaped = [sep.replace("%", "%%") for sep in seps]
    unique = {sep: i for i, sep in enumerate(dict.fromkeys(escaped))}
    sep_id = np.array([unique[sep] for sep in escaped])
    table = np.add.outer(pieces, np.array(list(unique), dtype=object)).ravel()

    def text(block: np.ndarray) -> str:
        x = np.asarray(block, dtype=np.float64).ravel()
        code, args = _exact_digits(x)
        out = table[code * len(unique) + np.tile(sep_id, len(x) // len(seps))]
        fall = np.flatnonzero(code == 110)
        out[fall] = ["%.17g" % v + escaped[j] for v, j in
                     zip(x[fall].tolist(), (fall % len(seps)).tolist())]
        return "".join(out.tolist()) % tuple(args.tolist())

    return text


def write_trajectory_csv(path: Path, traj: Trajectory,
                         cpus: int | None = None) -> None:
    """Header ``t,<slot>.re,<slot>.im,...`` with slots in lexicographic order.

    Every number is written as ``%.17g`` writes it: ``format(x, ".17g")``,
    17 significant digits, enough to reproduce any double exactly.  The
    text is built from exact 17-digit integers by ``_row_formatter``, in
    blocks of about ``CSV_BLOCK_NUMBERS`` numbers.  A value column whose
    bit pattern is the same in every row is formatted once and becomes
    literal text in the separators, so only the numbers that vary are
    formatted per row.  From ``2 * CSV_SPLIT_NUMBERS`` varying numbers on,
    the rows are cut into up to one contiguous part per CPU of ``cpus``
    (default ``_usable_cpus()``), each of at least ``CSV_SPLIT_NUMBERS``
    numbers: this process formats the first, a forked helper each other
    one into a part file, and the parts are appended in order.  Every
    helper is reaped before this returns or raises.
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
    # the text after each varying number: constant columns' text up to the next
    first = _row_formatter([","])(floats[0, columns]).split(",")
    runs: list[list[str]] = [[]]
    for c, text in zip(columns.tolist(), first):
        if same[c]:
            runs[-1].append(text)
        else:
            runs.append([])
    seps = ["".join(f",{text}" for text in run) + "," for run in runs]
    seps[-1] = seps[-1][:-1] + "\n"
    rows_text = _row_formatter(seps)
    n_rows, per_row = len(traj.grid), 1 + len(vary)
    step = max(1, CSV_BLOCK_NUMBERS // per_row)

    def write_rows(fh: TextIO, lo: int, hi: int) -> None:
        for k in range(lo, hi, step):
            grid = traj.grid[k:min(k + step, hi)]
            block = np.empty((len(grid), per_row))
            block[:, 0] = grid
            block[:, 1:] = floats[k:k + len(grid), vary]
            fh.write(rows_text(block))

    def write_part(part: Path, lo: int, hi: int) -> None:
        with open(part, "w", encoding="utf-8", newline="") as fh:
            write_rows(fh, lo, hi)

    cpus = _usable_cpus() if cpus is None else cpus
    n_parts = max(1, min(cpus, n_rows * per_row // CSV_SPLIT_NUMBERS, n_rows))
    cuts = [n_rows * i // n_parts for i in range(n_parts + 1)]
    parts = [path.with_name(f".{path.name}.{os.getpid()}.part{i}.tmp")
             for i in range(1, n_parts)]
    tasks = [(f"trajectory CSV helper for {part.name}",
              functools.partial(write_part, part, lo, hi))
             for part, lo, hi in zip(parts, cuts[1:-1], cuts[2:])]
    try:
        with (_replaced_atomically(path) as (tmp,),
              open(tmp, "w", encoding="utf-8", newline="") as fh):
            fh.write(
                "t" + "".join(
                    f",{traj.labels[i]}.re,{traj.labels[i]}.im" for i in order
                ) + "\n"
            )
            with _helpers(tasks) as done:
                write_rows(fh, cuts[0], cuts[1])
                for part, _ in zip(parts, done):
                    fh.flush()
                    with open(part, "rb") as src:
                        shutil.copyfileobj(src, fh.buffer)
    finally:
        for part in parts:
            part.unlink(missing_ok=True)


def write_energy_csv(path: Path, rows: np.ndarray) -> None:
    """``t,depth,energy`` rows, formatted in blocks as the trajectory's.
    The depths are small integers, for which ``%.17g`` writes what ``%d``
    writes."""
    rows_text = _row_formatter([",", ",", "\n"])
    step = max(1, CSV_BLOCK_NUMBERS // 3)
    with (_replaced_atomically(path) as (tmp,),
          open(tmp, "w", encoding="utf-8", newline="") as fh):
        fh.write("t,depth,energy\n")
        for k in range(0, len(rows), step):
            fh.write(rows_text(rows[k:k + step]))


@contextmanager
def _leaf_route_beside(scen: Scenario) -> Iterator[Callable[[], Trajectory]]:
    """Yield a join function that gives ``leaf_route``'s trajectory of the
    scenario, or raises the error it raised.  The route is one task: at
    one usable CPU the join function is that task, run inline; otherwise
    a helper runs it while the block runs, and the join function waits
    for its result.  On exit the helper is killed if running, and reaped.
    """
    cfg = scen.config
    task = functools.partial(leaf_route, scen.system, scen.v0, cfg.t_end, cfg.dt)
    if _usable_cpus() == 1:
        yield task
        return
    with _helpers([("leaf-route helper", task)]) as done:
        yield lambda: next(done)


def _solve_routes(scen: Scenario, leaf: Callable[[], Trajectory] | None,
                  stage: Callable[[Trajectory, int], None] | None = None
                  ) -> tuple[dict, dict | None]:
    """Run the configured solver(s), each from ``scen.v0`` (the leaf one is
    ``leaf_route``); return (per-solver metadata, cross-solver disagreement or
    None), and hand the canonical trajectory and a CPU budget for its writers
    to ``stage``, if given.  With a ``leaf`` join function all three routes run
    as ``solve_all`` runs them, the leaf route's trajectory from ``leaf`` last.
    A recurrent or rk canonical trajectory is staged before the join, so while
    a helper runs the leaf route it is written on one CPU fewer."""
    cfg = scen.config
    stage = stage or (lambda traj, cpus: None)
    args = (scen.system, scen.v0, cfg.t_end, cfg.dt)
    if leaf is not None:
        trajs = {"recurrent": solve_recurrent(*args), "rk": solve_rk(*args)}
        canonical = "recurrent" if cfg.solver == "all" else cfg.solver
        if canonical in trajs:
            stage(trajs[canonical], max(1, _usable_cpus() - 1))
        trajs["leaf"] = leaf()
        if canonical == "leaf":
            stage(trajs["leaf"], _usable_cpus())
        metadata = {name: t.metadata for name, t in trajs.items()}
        return metadata, route_spread(trajs)
    # built here, not at module level, so rebinding a route's name reaches it
    route = {"recurrent": solve_recurrent, "rk": solve_rk, "leaf": leaf_route}
    traj = route[cfg.solver](*args)
    stage(traj, _usable_cpus())
    return {cfg.solver: traj.metadata}, None


def _self_checks(system: CascadeSystem, eigen_kernels: list[tuple[str, Kernel]],
                 phi_kernels: list[tuple[str, Kernel]]) -> dict:
    """Self-check records: the dense eigen and interaction checks over
    (name, kernel) lists.  An empty list leaves its check out; a check
    the tree is too big for gets a ``skipped`` record with the reason."""
    out: dict = {}
    for name, kernels in (("eigen", eigen_kernels), ("interaction", phi_kernels)):
        reason = kernels and dense_check_refusal(name, system.tree)
        if reason:
            out[name] = {"skipped": reason}
        elif kernels and name == "eigen":
            devs = {k: eigen_check(kernel, system.basis) for k, kernel in kernels}
            out[name] = {"per_kernel": devs,
                         **_verdict(max(devs.values()), EIGEN_TOL)}
        elif kernels:
            found = [interaction_check(kernel, system.basis) for _, kernel in kernels]
            out[name] = {"pairs": sum(n for _, n in found),
                         **_verdict(max(d for d, _ in found), INTERACTION_TOL)}
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
        reason = (scen.config.oracles.get(flag)
                  and dense_check_refusal(name, scen.system.tree))
        if reason:
            raise ConfigError(f"oracles.{flag}: {reason}")


def _output_names(config_path: Path, cfg: ScenarioConfig) -> dict[str, str]:
    defaults = {"trajectory": "trajectory.csv", "energy": "energy.csv",
                "summary": "summary.json"}
    return {kind: cfg.outputs.get(kind, f"{config_path.stem}_{suffix}")
            for kind, suffix in defaults.items()}


def _load_configs(files: list[Path]) -> list[ScenarioConfig | Exception]:
    """Each file's config, or the error parsing it raised: the run raises
    that error when the file's turn comes."""
    configs: list[ScenarioConfig | Exception] = []
    for path in files:
        try:
            configs.append(load_config(path))
        except (ValueError, OSError) as exc:
            configs.append(exc)
    return configs


def _check_output_collisions(files: list[Path],
                             configs: list[ScenarioConfig | Exception],
                             out_dir: Path | None) -> None:
    """Refuse, before any solve, a run that would write one path twice or
    overwrite one of its scenario files."""
    owner = {path.resolve(): path.name for path in files}
    for path, cfg in zip(files, configs):
        if isinstance(cfg, Exception):
            continue  # reported when the file itself runs
        for name in _output_names(path, cfg).values():
            dest = (Path(out_dir or path.parent) / name).resolve()
            if dest in owner:
                raise ConfigError(
                    f"{path.name}: output {name!r} would overwrite {owner[dest]}"
                )
            owner[dest] = f"an output of {path.name}"


def run_scenario_file(config_path: Path, out_dir: Path | None,
                      cfg: ScenarioConfig | Exception) -> tuple[int, str]:
    """Solve one scenario file, parsed into ``cfg``, and write its outputs;
    returns an exit code and the status line to print.  ``cfg`` may be
    the error parsing the file raised, which is raised here."""
    if isinstance(cfg, Exception):
        raise cfg
    scen = build_scenario(cfg)
    _refuse_oversized_flags(scen)
    target = Path(out_dir) if out_dir is not None else config_path.parent
    target.mkdir(parents=True, exist_ok=True)
    names = _output_names(config_path, cfg)

    flags = cfg.oracles
    sys_ = scen.system
    own = [("interaction", sys_.interaction), ("dissipation", sys_.dissipation)]
    all_routes = cfg.solver == "all" or flags.get("check_cross", False)
    outputs = (target / names[kind] for kind in ("trajectory", "energy", "summary"))
    # all three outputs are written in full before any of them is replaced
    with _replaced_atomically(*outputs) as (trajectory, energy, summary_file):
        def stage(canonical: Trajectory, cpus: int) -> None:
            write_trajectory_csv(trajectory, canonical, cpus)
            write_energy_csv(energy, energy_by_level(canonical))

        # the dense checks run while a helper may run the leaf route
        with _leaf_route_beside(scen) if all_routes else nullcontext() as leaf:
            checks = _self_checks(sys_, own if flags.get("check_eigen") else [],
                                  own[:1] if flags.get("check_phi") else [])
            solver_metadata, disagreement = _solve_routes(scen, leaf, stage)
        if flags.get("check_cross"):
            checks["cross_solver"] = _verdict(disagreement["max"], CROSS_SOLVER_TOL,
                                              "max_disagreement")

        summary = {
            "config_file": config_path.name,
            "config_hash": config_hash(cfg),
            "solver": cfg.solver,
            "basis": cfg.basis,
            "t_end": cfg.t_end,
            "dt": cfg.dt,
            "n_leaves": sys_.tree.n_leaves,
            "n_slots": sys_.n_slots,
            "n_couplings": sys_.n_couplings,
            "solver_metadata": solver_metadata,
            "outputs": names,
        }
        if disagreement is not None:
            summary["cross_disagreement"] = disagreement
        if checks:
            summary["oracle_checks"] = checks
        with open(summary_file, "w", encoding="utf-8", newline="") as fh:
            fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    failed = [name for name, res in checks.items() if not res["pass"]]
    status = "ok" if not failed else f"check failed ({', '.join(failed)})"
    return EXIT_OK if not failed else EXIT_CHECK_FAILED, (
        f"{status}: {config_path.name}: wrote {names['trajectory']}, "
        f"{names['energy']}, {names['summary']} in {target}"
    )


def _run_files(files: list[Path], configs: list[ScenarioConfig | Exception],
               out_dir: Path | None) -> list[tuple[int, str, str]]:
    """Run scenario files one after another; an (exit code, stdout line,
    stderr line) triple per file, a line empty when it has nothing to say."""
    results = []
    for path, cfg in zip(files, configs):
        try:
            results.append((*run_scenario_file(path, out_dir, cfg), ""))
        except SolverAbort as exc:
            results.append((EXIT_ABORT, "", f"abort: {path.name}: {exc}"))
        except (ConfigError, ValueError, OSError, MemoryError) as exc:
            results.append((EXIT_CONFIG, "", f"error: {path.name}: {exc}"))
    return results


def _cmd_run(args: argparse.Namespace) -> int:
    config = Path(args.config)
    files = sorted(config.glob("*.json")) if config.is_dir() else [config]
    if not files:
        raise ConfigError(f"no *.json scenario files in {config}")
    configs = _load_configs(files)
    _check_output_collisions(files, configs, args.out_dir)
    if not config.is_dir():
        code, line = run_scenario_file(config, args.out_dir, configs[0])
        print(line)
        return code
    jobs = max(1, min(args.jobs, len(files)))
    if jobs == 1 or not _can_fork():
        results = _run_files(files, configs, args.out_dir)
    else:
        # worker i runs files i, i + jobs, ...
        tasks = [(f"--jobs worker {i}", functools.partial(
                     _run_files, files[i::jobs], configs[i::jobs], args.out_dir))
                 for i in range(jobs)]
        with _helpers(tasks) as done:
            strided = list(done)
        results = [strided[i % jobs][i // jobs] for i in range(len(files))]
    # both streams in file order, whichever worker finished first
    worst = EXIT_OK
    for code, line, message in results:
        if line:
            print(line)
        if message:
            print(message, file=sys.stderr)
        worst = max(worst, code)
    return worst


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
        f"{sys_.tree.n_leaves} leaves over {sys_.tree.n_vertices} balls; "
        f"solver={cfg.solver}, basis={cfg.basis}, "
        f"grid={grid_steps(cfg.t_end, cfg.dt)} steps"
    )
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    cfg = load_config(Path(args.config))
    scen = build_scenario(cfg)
    sys_ = scen.system
    rng = np.random.default_rng(args.seed)
    kernels = [("interaction", sys_.interaction), ("dissipation", sys_.dissipation)]
    kernels += [(f"random-{i}", random_kernel(sys_.tree, rng))
                for i in range(ORACLE_RANDOM_KERNELS)]
    with _leaf_route_beside(scen) as leaf:
        checks = _self_checks(sys_, kernels, kernels)
        # the dense checks report before the solve, which may abort
        for name, rec in checks.items():
            print(_check_line(name, rec, sys_.n_slots))
        _, spread = _solve_routes(scen, leaf)
    checks["cross_solver"] = _verdict(spread["max"], CROSS_SOLVER_TOL,
                                      "max_disagreement")
    print(_check_line("cross_solver", checks["cross_solver"], sys_.n_slots))
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
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
