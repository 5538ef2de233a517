"""Benchmark of the ``ultracascade`` command line, end to end and per layer.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload crosscheck --seed 1 --seconds 60 --trace 0

The seed generates the workload's scenario files.  With ``--trace 0`` the
ops run through the real CLI as a closed loop with one client: one
``python -m ultracascade`` process at a time, the next started after the
previous one exits.  Each process is timed, its rusage read, and its
outputs checked.  With ``--trace 1`` the same ops run in this process
with the package's public functions wrapped by span recorders, which
gives the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the full result record (every metric with its sample count, the
input hash, output hashes and the environment).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_PARENT = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_results"

IMPORT_REPEATS = 3

# (name, unit, statistic over the run's samples); the ones BENCHMARK.json
# lists are on the last line, the rest only in the result record
END_TO_END = (
    ("setup_s", "s", "median"), ("run_s", "s", "median"),
    ("run_cpu_s", "s", "median"), ("oracle_s", "s", "median"),
    ("peak_rss_mb", "MB", "max"), ("route_spread", "1", "max"),
    ("fail_ratio", "1", "ratio"),
)


def child_env() -> dict[str, str]:
    """The caller's environment with the checkout's ``src`` first on the
    import path; BLAS thread settings are passed through untouched."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_cli(args: list[str], env: dict, work: Path) -> dict:
    """Run one CLI process to completion; wall time, rusage and output."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "ultracascade", *args],
            env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
        )
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss * 1024 / tracing.MIB,  # ru_maxrss is in KiB
        "rc": proc.returncode,
        "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
        "stderr": err_path.read_text(encoding="utf-8", errors="replace"),
    }


def check_op(op: str, rec: dict, rc: int, stdout: str, out_dir: Path,
             stderr: str = "") -> tuple[list[str], dict]:
    """Problems with one op's exit code and outputs, plus output info."""
    problems = [] if rc == 0 else [f"exit code {rc}: {stderr.strip()[-200:]}"]
    info: dict = {}
    if op == "run":
        found, info = checks.check_run(rec, out_dir)
        problems += found
    elif op == "oracle":
        problems += checks.check_oracle(stdout)
    else:
        problems += checks.check_validate(stdout, rec)
    return problems, info


class Tally:
    """Attempted and failed ops, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems)}")


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def summed_median(samples: dict, op: str, field: str) -> tuple[float | None, int]:
    """Sum over the op's scenarios of the median of each scenario's
    samples of one field, with the sample count."""
    groups = [v for (o, _stem), v in samples.items() if o == op]
    if not groups:
        return None, 0
    value = sum(statistics.median(s[field] for s in group) for group in groups)
    return value, sum(len(group) for group in groups)


def untraced(records: list[dict], seconds: float, work: Path) -> tuple[Tally, dict, dict]:
    """The closed loop of CLI ops, in rounds of ``validate`` then ``run``
    (then ``oracle``) per scenario, until ``seconds`` is used up.  Setup is
    sampled in every round, so it and the solves see the same stretch of
    machine time; the medians keep a first round that fills the bytecode
    and page caches from counting."""
    env = child_env()
    tally = Tally()
    start = time.perf_counter()
    seq = workloads.ops(records)
    samples: dict[tuple[str, str], list[dict]] = {}
    outputs: dict[str, dict] = {}
    spreads: list[float] = []
    out_dir = work / "out"
    for i in itertools.count():
        op, rec = seq[i % len(seq)]
        key = (op, rec["stem"])
        # after one full round, start an op only if its last time still fits
        if i >= len(seq) and (time.perf_counter() - start
                              + samples[key][-1]["wall"] > seconds):
            break
        args = [op, str(rec["path"])]
        if op == "run":
            args += ["--out-dir", str(fresh_dir(out_dir))]
        res = run_cli(args, env, work)
        problems, info = check_op(op, rec, res["rc"], res["stdout"], out_dir,
                                  res["stderr"])
        tally.record(f"{op} {rec['stem']}", problems)
        samples.setdefault(key, []).append(res)
        if "sha256" in info:
            seen = outputs.setdefault(rec["stem"], {"sha256": info["sha256"],
                                                    "identical_repeats": True})
            seen["identical_repeats"] &= seen["sha256"] == info["sha256"]
        if "route_spread" in info:
            spreads.append(info["route_spread"])

    metrics: dict[str, tuple[float | None, int]] = {
        "setup_s": summed_median(samples, "validate", "wall"),
        "run_s": summed_median(samples, "run", "wall"),
        "run_cpu_s": summed_median(samples, "run", "cpu"),
        "oracle_s": summed_median(samples, "oracle", "wall"),
    }
    rss = [s["rss_mb"] for (op, _), group in samples.items() if op == "run"
           for s in group]
    metrics["peak_rss_mb"] = (max(rss), len(rss))
    metrics["route_spread"] = (max(spreads), len(spreads)) if spreads else (None, 0)
    metrics["fail_ratio"] = (tally.failed / tally.attempted, tally.attempted)
    walls = {f"{op} {stem}": [round(s["wall"], 4) for s in group]
             for (op, stem), group in samples.items()}
    # each scenario's own figure, as the summed metrics leave it out
    medians = {f"{op} {stem}": {field: statistics.median(s[field] for s in group)
                                for field in ("wall", "cpu")}
               for (op, stem), group in samples.items()}
    return tally, metrics, {"outputs": outputs, "wall_samples_s": walls,
                            "median_by_op_s": medians}


def import_seconds(module: str, env: dict) -> float:
    code = ("import time; t = time.perf_counter(); import " + module +
            "; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def traced(records: list[dict], seconds: float, work: Path) -> tuple[Tally, dict, dict]:
    """Per-layer metrics from in-process rounds, alternating untraced and
    traced, each traced round with a fresh recorder."""
    env = child_env()
    start = time.perf_counter()
    imports = {"numpy": [], "ultracascade": []}
    for _ in range(IMPORT_REPEATS):
        for module, times in imports.items():
            times.append(import_seconds(module, env))

    sys.path.insert(0, str(SRC))
    import ultracascade.cli as cli

    tally = Tally()
    out_dir = work / "out"
    seq = workloads.ops(records)

    def one_round(recorder: tracing.SpanRecorder | None) -> float:
        begin = time.perf_counter()
        for n, (op, rec) in enumerate(seq):
            args = [op, str(rec["path"])]
            if op == "run":
                args += ["--out-dir", str(fresh_dir(out_dir))]
            buf, crash = io.StringIO(), ""
            with contextlib.redirect_stdout(buf):
                try:
                    if recorder is None:
                        rc = cli.main(args)
                    else:
                        recorder.op = f"{n}:{op}:{rec['stem']}"
                        with recorder.span("cli.main"):
                            rc = cli.main(args)
                except Exception as exc:  # an op that crashes is a failed op
                    rc, crash = -1, f"{type(exc).__name__}: {exc}"
            problems, _ = check_op(op, rec, rc, buf.getvalue(), out_dir, crash)
            tally.record(f"{op} {rec['stem']}", problems)
        return time.perf_counter() - begin

    plain_walls, traced_walls, rounds = [], [], []
    while True:
        plain_walls.append(one_round(None))
        recorder = tracing.SpanRecorder()
        with tracing.installed(recorder):
            traced_walls.append(one_round(recorder))
        rounds.append(recorder)
        pair = plain_walls[-1] + traced_walls[-1]
        if time.perf_counter() - start + pair > seconds:
            break
    left = tracing.wrapped_left()
    if left:
        tally.record("trace", [f"wrappers not removed: {left}"])

    per_round = [tracing.layer_values(rec) for rec in rounds]
    metrics = {name: (statistics.median(r[name] for r in per_round), len(per_round))
               for name in per_round[0]}
    metrics["import.numpy_s"] = (statistics.median(imports["numpy"]), IMPORT_REPEATS)
    metrics["import.ultracascade_s"] = (statistics.median(imports["ultracascade"]),
                                        IMPORT_REPEATS)
    metrics["trace.overhead_s"] = (
        statistics.median(t - p for t, p in zip(traced_walls, plain_walls)),
        len(traced_walls),
    )

    # self time of every span, split by op and scenario, and inclusive
    # time, from the last round
    by_op: dict[str, dict[str, float]] = {}
    for (name, op), value in tracing.self_times(rounds[-1].spans).items():
        times = by_op.setdefault(" ".join(op.split(":")[1:]), {})
        times[name] = times.get(name, 0.0) + value
    extra = {
        "self_s_by_op": {k: _descending(v) for k, v in by_op.items()},
        "inclusive_s": _descending(tracing.inclusive_times(rounds[-1].spans)),
        "round_wall_s": {"untraced": plain_walls, "traced": traced_walls},
        "spans_file": write_spans(rounds[-1].spans, records),
    }
    return tally, metrics, extra


def _descending(values: dict[str, float]) -> dict[str, float]:
    return dict(sorted(values.items(), key=lambda kv: -kv[1]))


def write_spans(spans: list, records: list[dict]) -> str:
    """Write one traced round's spans as JSON lines; returns the path."""
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"spans-{records[0]['workload']}-{records[0]['seed']}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, op in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "op": op}) + "\n")
    return str(path.relative_to(ROOT))


def environment() -> dict:
    """Machine and toolchain record; reads only, changes no setting."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=30).stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS")},
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
    }


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ultracascade" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    bench_cfg = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    load_before = loadavg()
    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_PARENT))
    try:
        records = workloads.write_workload(args.workload, args.seed, work / "inputs")
        for rec in records:
            rec.update(workload=args.workload, seed=args.seed)
        input_hash = workloads.inputs_hash([r["path"] for r in records])
        run = traced if args.trace else untraced
        tally, metrics, extra = run(records, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_PARENT.rmdir()

    if args.trace:
        units = tracing.per_layer_units()
        stats = dict.fromkeys(units, "median")
        listed = [m["name"] for m in bench_cfg["per_layer"]]
    else:
        units = {name: unit for name, unit, _stat in END_TO_END}
        stats = {name: stat for name, _unit, stat in END_TO_END}
        listed = [m["name"] for m in bench_cfg["end_to_end"]]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs_sha256": input_hash,
        "metrics": {name: {"value": value, "unit": units[name], "n": n,
                           "stat": stats[name]}
                    for name, (value, n) in metrics.items()},
        "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems,
        **extra,
        "environment": environment(),
        "loadavg": {"before": load_before, "after": loadavg()},
    }
    for name, (value, n) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{args.workload:>12} {name:<42} {shown:>14} {units[name]:<5} "
              f"{stats[name]:<6} n={n}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": units[name]}
                    for name in listed},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
