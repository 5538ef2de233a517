"""Tests of the benchmark itself: ``python3 -m pytest bench``."""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, name):
    first = workloads.write_workload(name, 7, tmp_path / "a")
    second = workloads.write_workload(name, 7, tmp_path / "b")
    other = workloads.write_workload(name, 8, tmp_path / "c")
    for r1, r2 in zip(first, second):
        assert r1["path"].read_bytes() == r2["path"].read_bytes()
    digest = workloads.inputs_hash([r["path"] for r in first])
    assert digest == workloads.inputs_hash([r["path"] for r in second])
    assert digest != workloads.inputs_hash([r["path"] for r in other])


def test_sparse_initial_slots_lie_on_one_path(tmp_path):
    recs = workloads.write_workload("ladder", 3, tmp_path)
    (rec,) = [r for r in recs if r["stem"] == "p2d12_path10"]
    records = json.loads(rec["path"].read_text())["initial"]["wavelets"]
    paths = [r[0] for r in records]
    assert len(paths) == 10 and paths == sorted(paths, key=len)
    for shorter, longer in zip(paths, paths[1:]):
        assert longer.startswith(shorter)
    assert all(abs(complex(r[2], r[3])) == pytest.approx(0.2) for r in records)


def _write_outputs(out_dir: Path, rec: dict, rows: int, value: str = "0.5",
                   spread: float = 1e-10, tolerance: float = 1e-5) -> None:
    names = checks.output_names(rec["stem"])
    cols = 2 * rec["slots"] + 1
    traj = ["t" + ",x" * (cols - 1)] + [",".join([value] * cols)] * rows
    (out_dir / names["trajectory"]).write_text("\n".join(traj) + "\n")
    energy = ["t,depth,energy"] + ["0,0,1"] * (rows * rec["depth"])
    (out_dir / names["energy"]).write_text("\n".join(energy) + "\n")
    summary = {
        "n_slots": rec["slots"],
        "cross_disagreement": {"max": spread},
        "oracle_checks": {"cross_solver": {"pass": True, "tolerance": tolerance}},
    }
    (out_dir / names["summary"]).write_text(json.dumps(summary))


@pytest.mark.parametrize("corrupt", [
    None, "exit", "rows", "nan", "missing", "spread", "oracle-fail",
])
def test_failing_op_is_counted_in_fail_ratio(tmp_path, corrupt):
    rec = {"stem": "s", "slots": 1, "depth": 1, "steps": 2, "cross": True}
    rows = 2 if corrupt == "rows" else 3
    _write_outputs(tmp_path, rec, rows, "nan" if corrupt == "nan" else "0.5",
                   1.0 if corrupt == "spread" else 1e-10)
    if corrupt == "missing":
        (tmp_path / "s_summary.json").unlink()
    tally = run.Tally()
    problems, _ = run.check_op("run", rec, 3 if corrupt == "exit" else 0, "", tmp_path)
    tally.record("run s", problems)
    oracle_out = "eigenvalue check: x: PASS\ninteraction check: x: PASS\n"
    oracle_out += "solver check: x: " + ("FAIL" if corrupt == "oracle-fail" else "PASS")
    problems, _ = run.check_op("oracle", rec, 0, oracle_out, tmp_path)
    tally.record("oracle s", problems)
    assert tally.attempted == 2
    assert tally.failed == (0 if corrupt is None else 1)


def test_route_spread_is_held_to_the_pinned_tolerance(tmp_path):
    # a summary that reports a loose tolerance and passes its own check
    # still fails when the spread exceeds the benchmark's pinned value
    rec = {"stem": "s", "slots": 1, "depth": 1, "steps": 2, "cross": True}
    _write_outputs(tmp_path, rec, 3, spread=1e-3, tolerance=1.0)
    problems, info = run.check_op("run", rec, 0, "", tmp_path)
    assert info["route_spread"] == 1e-3
    assert problems == ["route_spread 1.000e-03 exceeds 1e-05"]


def test_cli_failure_is_a_failed_op(tmp_path):
    (tmp_path / "bad.json").write_text('{"tree": {}}')
    rec = {"stem": "bad", "slots": 1}
    res = run.run_cli(["validate", str(tmp_path / "bad.json")], run.child_env(), tmp_path)
    tally = run.Tally()
    tally.record("validate bad", run.check_op("validate", rec, res["rc"],
                                              res["stdout"], tmp_path)[0])
    assert res["rc"] == 2 and tally.failed == 1


def test_self_time_subtracts_direct_children():
    # root [0, 10] with children [1, 4] and [5, 7], and a grandchild
    # [2, 3] under the first child
    spans = [
        ["root", 0.0, 10.0, None, "op"],
        ["a", 1.0, 4.0, 0, "op"],
        ["c", 2.0, 3.0, 1, "op"],
        ["b", 5.0, 7.0, 0, "op"],
    ]
    got = tracing.self_times(spans)
    assert got == {("root", "op"): 5.0, ("a", "op"): 2.0,
                   ("b", "op"): 2.0, ("c", "op"): 1.0}


def test_recorder_nests_spans_and_counts_calls():
    ticks = iter(range(100))
    rec = tracing.SpanRecorder(clock=lambda: float(next(ticks)))
    rec.op = "0:run:s"
    inner = rec.wrap("m.inner", lambda x: x + 1, lambda r, a, res: r.add("m.n", res))
    outer = rec.wrap("m.outer", lambda: inner(1) + inner(2), None)
    assert outer() == 5
    # outer [0, 5]; inner [1, 2] and [3, 4]
    assert tracing.self_times(rec.spans) == {
        ("m.outer", "0:run:s"): 3.0, ("m.inner", "0:run:s"): 2.0,
    }
    assert rec.counts["m.inner_calls"] == 2 and rec.counts["m.n"] == 5


def test_metric_names_match_benchmark_json():
    listed_e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
    units = {name: unit for name, unit, _stat in run.END_TO_END}
    assert listed_e2e <= set(units)
    for m in BENCHMARK["end_to_end"]:
        assert m["unit"] == units[m["name"]]
    units = tracing.per_layer_units()
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == units
    measured = set(tracing.layer_values(tracing.SpanRecorder()))
    measured |= {"import.numpy_s", "import.ultracascade_s", "trace.overhead_s"}
    assert measured == set(units)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, workload", [(0, "crosscheck"), (1, "ladder")])
def test_end_to_end_smoke(trace, workload):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", workload, "--seed", "1",
                         "--seconds", "1", "--trace", str(trace)])
    last = json.loads(out.getvalue().splitlines()[-1])
    assert code == 0 and last["correct"] and last["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    assert list(last["metrics"]) == [m["name"] for m in BENCHMARK[section]]
    if trace:
        assert tracing.wrapped_left() == []
        assert last["metrics"]["solver.solve_leaf_s"]["value"] == 0.0
