"""Scenario configs and the command-line interface."""

import csv
import dataclasses
import importlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ultracascade as uc
from ultracascade import cli

from conftest import leftovers, no_child_left, random_mean_zero_field, slot_field


def minimal_config() -> dict:
    return {
        "tree": {"p": 2, "depth": 2},
        "interaction": {"type": "power", "a": [1.0, 0.0], "b": 1.0},
        "dissipation": {"type": "power", "a": [1.0, 0.0], "b": 0.0},
        "initial": {"wavelets": [["", 0, 1.0, 0.0]]},
        "t_end": 1.0,
        "dt": 0.01,
    }


def test_parse_config_round_trip(scenario_dir):
    for name in ("single_wavelet.json", "nested_pair.json"):
        cfg = uc.load_config(scenario_dir / name)
        again = uc.parse_config(cfg.to_dict())
        assert again == cfg


def test_parse_config_defaults():
    cfg = uc.parse_config(minimal_config())
    assert cfg.basis == "gram-schmidt"
    assert cfg.solver == "recurrent"
    assert cfg.outputs == {}
    assert cfg.oracles == {}


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda c: c.update(extra=1), "unknown config keys"),
        (lambda c: c.pop("tree"), "missing config keys"),
        (lambda c: c.update(tree=[1, 2]), "'tree' must be an object"),
        (lambda c: c["interaction"].update(type="spline"), "power' or 'table"),
        (lambda c: c["interaction"].pop("a"), "needs 'a' and 'b'"),
        (lambda c: c["interaction"].update(c=3), "unknown keys"),
        (lambda c: c["interaction"].update(a=[1.0]), "real, imag"),
        (lambda c: c.update(dissipation={"type": "table", "entries": []}),
         "nonempty 'entries'"),
        (lambda c: c.update(dissipation={
            "type": "table", "entries": [["", 1.0]]}), "path, real, imag"),
        (lambda c: c.update(basis="haar"), "'basis' must be one of"),
        (lambda c: c.update(solver="euler"), "'solver' must be one of"),
        (lambda c: c.update(initial={}), "exactly one"),
        (lambda c: c.update(initial={"wavelets": [], "leaves": []}),
         "exactly one"),
        (lambda c: c.update(initial={"modes": []}), "exactly one"),
        (lambda c: c.update(initial={"wavelets": [["", 0.5, 1.0, 0.0]]}),
         "path, index, real, imag"),
        (lambda c: c.update(initial={"leaves": [["0.0", 1.0]]}),
         "path, real, imag"),
        (lambda c: c.update(initial={"wavelets": [["0", True, 1, 0]]}),
         "initial.wavelets records must be"),
        (lambda c: c["interaction"].update(a=[True, 0.0]),
         r"interaction\.a must be a \[real, imag\] pair"),
        (lambda c: c["dissipation"].update(a=[1.0, False]),
         r"dissipation\.a must be a \[real, imag\] pair"),
        (lambda c: c["interaction"].update(b=True), r"interaction\.b must be"),
        (lambda c: c["interaction"].update(overrides=[["0", True, 0.0]]),
         "overrides records must be"),
        (lambda c: c.update(dissipation={
            "type": "table", "entries": [["", 1.0, False]]}),
         "entries records must be"),
        (lambda c: c.update(initial={"leaves": [["0.0", True, 0.0]]}),
         "initial.leaves records must be"),
        (lambda c: c.update(initial={"wavelets": [["", 0, True, False]]}),
         r"initial\.wavelets records must be \[path, index"),
        (lambda c: c.update(t_end=0.0), "positive"),
        (lambda c: c.update(dt=-0.1), "positive"),
        (lambda c: c.update(t_end=float("inf")), "finite"),
        (lambda c: c.update(dt=float("nan")), "finite"),
        (lambda c: c.update(t_end=True), "'t_end' must be a positive number"),
        (lambda c: c.update(dt=True), "'dt' must be a positive number"),
        (lambda c: c.update(dt=0.3), "does not divide"),
        (lambda c: c.update(outputs={"log": "x.txt"}), "'outputs' keys"),
        (lambda c: c.update(outputs={"trajectory": ""}), "nonempty file name"),
        (lambda c: c.update(outputs={"trajectory": "../victim/keep.txt"}),
         "no directory part, got '../victim/keep.txt'"),
        (lambda c: c.update(outputs={"energy": "/abs/dir/abs.csv"}),
         "outputs.energy must be a nonempty file name with no directory part"),
        (lambda c: c.update(outputs={"summary": "sub\\s.json"}),
         "no directory part"),
        (lambda c: c.update(outputs={"trajectory": "out/"}),
         "no directory part"),
        (lambda c: c.update(outputs={"trajectory": "."}), "no directory part"),
        (lambda c: c.update(outputs={"energy": ".."}), "no directory part"),
        (lambda c: c.update(oracles={"check_all": True}), "'oracles' keys"),
        (lambda c: c.update(oracles={"check_eigen": 1}), "true or false"),
    ],
)
def test_parse_config_rejections(mutate, message):
    raw = minimal_config()
    mutate(raw)
    with pytest.raises(uc.ConfigError, match=message):
        uc.parse_config(raw)


def test_parse_config_rejects_non_object():
    with pytest.raises(uc.ConfigError, match="JSON object"):
        uc.parse_config([1, 2, 3])


def test_load_config_rejects_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(uc.ConfigError, match="not valid JSON"):
        uc.load_config(bad)


def test_config_hash_stable_and_sensitive():
    a = uc.parse_config(minimal_config())
    b = uc.parse_config(minimal_config())
    assert uc.config_hash(a) == uc.config_hash(b)
    raw = minimal_config()
    raw["dt"] = 0.02
    c = uc.parse_config(raw)
    assert uc.config_hash(c) != uc.config_hash(a)


def test_build_kernel_from_specs():
    tree = uc.build_tree({"p": 2, "depth": 2})
    power = uc.build_kernel(
        tree,
        {"type": "power", "a": [2.0, 0.0], "b": 1.0,
         "overrides": [["0", 9.0, 1.0]]},
    )
    assert power.value(tree.root) == 2.0
    assert power.value(tree.vertex("0")) == 9.0 + 1.0j
    table = uc.build_kernel(
        tree,
        {"type": "table",
         "entries": [[lab, float(i), 0.0] for i, lab in enumerate(tree.labels)]},
    )
    for v in range(tree.n_vertices):
        assert table.value(v) == float(v)
    with pytest.raises(uc.ConfigError, match="misses"):
        uc.build_kernel(tree, {"type": "table", "entries": [["", 1.0, 0.0]]})


def test_build_scenario_wavelet_initial():
    cfg = uc.parse_config(minimal_config())
    scen = uc.build_scenario(cfg)
    assert scen.system.tree.n_leaves == 4
    dense = scen.v0.values
    slot = scen.system.basis.slot_of(scen.system.tree.root, 0)
    assert dense[slot] == 1.0


def test_scenario_keeps_one_copy_of_each_built_object():
    scen = uc.build_scenario(uc.parse_config(minimal_config()))
    assert [f.name for f in dataclasses.fields(scen)] == ["config", "system", "v0"]
    assert scen.v0.basis is scen.system.basis
    assert scen.system.basis.tree is scen.system.tree


def test_build_scenario_makes_no_synthesis_pass(monkeypatch):
    """Wavelet-initial input is read straight into ``v0``: building the
    scenario never turns it into a leaf field."""
    def refuse(self, vec):
        raise AssertionError("synthesize_array called")

    monkeypatch.setattr(uc.WaveletBasis, "synthesize_array", refuse)
    scen = uc.build_scenario(uc.parse_config(minimal_config()))
    assert scen.v0.values[0] == 1.0


def test_build_scenario_leaf_initial_mean_zero():
    raw = minimal_config()
    raw["initial"] = {"leaves": [
        ["0.0", 1.0, 0.0], ["0.1", -1.0, 0.0],
        ["1.0", 0.5, 0.0], ["1.1", -0.5, 0.0],
    ]}
    scen = uc.build_scenario(uc.parse_config(raw))
    back = uc.synthesize(scen.v0)
    given = uc.LeafField.from_records(scen.system.tree, raw["initial"]["leaves"])
    assert np.abs(back.values - given.values).max() <= 1e-12


def test_build_scenario_rejects_nonzero_mean_leaves():
    raw = minimal_config()
    raw["initial"] = {"leaves": [["0.0", 1.0, 0.0]]}
    with pytest.raises(uc.ConfigError, match="mean"):
        uc.build_scenario(uc.parse_config(raw))


def test_build_scenario_rejects_unknown_paths():
    raw = minimal_config()
    raw["initial"] = {"wavelets": [["5.5", 0, 1.0, 0.0]]}
    with pytest.raises(uc.ConfigError):
        uc.build_scenario(uc.parse_config(raw))
    raw = minimal_config()
    raw["interaction"] = {
        "type": "power", "a": [1.0, 0.0], "b": 1.0,
        "overrides": [["9", 1.0, 0.0]],
    }
    with pytest.raises(uc.ConfigError, match="unknown vertex"):
        uc.build_scenario(uc.parse_config(raw))


def test_build_scenario_rejects_degenerate_tree():
    raw = minimal_config()
    raw["tree"] = {"children": [{"children": [
        {"measure": 1.0}, {"measure": 1.0}]}]}
    with pytest.raises(uc.ConfigError, match="single child"):
        uc.build_scenario(uc.parse_config(raw))


def test_csv_floats_round_trip_exactly(tmp_path):
    awkward = [1 / 3, 0.1, 1e-17, 2**-52, 1234567.891011121, 0.0]
    cli.write_energy_csv(tmp_path / "e.csv", np.array([[x, 0, x] for x in awkward]))
    _header, rows = read_csv_rows(tmp_path / "e.csv")
    assert [(float(t), float(e)) for t, _d, e in rows] == [(x, x) for x in awkward]


def read_csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_cli_run_single_scenario(tmp_path, scenario_dir):
    rc = cli.main([
        "run", str(scenario_dir / "single_wavelet.json"),
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    header, rows = read_csv_rows(tmp_path / "single_wavelet_trajectory.csv")
    # columns sorted by slot label, real before imaginary
    assert header == ["t", "0:0.re", "0:0.im", "1:0.re", "1:0.im",
                      ":0.re", ":0.im"]
    col = header.index("0:0.re")
    for row in rows[:: len(rows) // 7]:
        t, v = float(row[0]), float(row[col])
        assert v == pytest.approx(np.exp(-t), rel=1e-10)
    # every other coefficient stays zero
    for row in rows:
        for name in ("0:0.im", "1:0.re", "1:0.im", ":0.re", ":0.im"):
            assert float(row[header.index(name)]) == 0.0

    eh, erows = read_csv_rows(tmp_path / "single_wavelet_energy.csv")
    assert eh == ["t", "depth", "energy"]
    assert erows[0] == ["0", "0", "0"]
    assert erows[1][:2] == ["0", "1"] and float(erows[1][2]) == 1.0

    summary = json.loads((tmp_path / "single_wavelet_summary.json").read_text())
    assert summary["solver"] == "recurrent"
    assert summary["n_leaves"] == 4
    assert summary["n_slots"] == 3
    assert summary["oracle_checks"]["eigen"]["pass"] is True
    assert summary["oracle_checks"]["interaction"]["pass"] is True
    cfg = uc.load_config(scenario_dir / "single_wavelet.json")
    assert summary["config_hash"] == uc.config_hash(cfg)


def test_cli_run_solver_all_reports_cross_disagreement(tmp_path, scenario_dir):
    rc = cli.main([
        "run", str(scenario_dir / "nested_pair.json"),
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    summary = json.loads((tmp_path / "nested_pair_summary.json").read_text())
    cross = summary["cross_disagreement"]
    assert cross["max"] <= uc.CROSS_SOLVER_TOL
    assert set(summary["solver_metadata"]) == {"recurrent", "rk", "leaf"}
    assert summary["oracle_checks"]["cross_solver"]["pass"] is True


def test_cli_run_directory_parallel_matches_serial(tmp_path, scenario_dir):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert cli.main(["run", str(scenario_dir), "--out-dir", str(serial)]) == 0
    assert cli.main([
        "run", str(scenario_dir), "--out-dir", str(parallel), "--jobs", "2",
    ]) == 0
    names = sorted(p.name for p in serial.iterdir())
    assert names == sorted(p.name for p in parallel.iterdir())
    assert len(names) == 6
    for name in names:
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


def test_cli_run_starts_no_more_workers_than_files(
    tmp_path, scenario_dir, monkeypatch
):
    """``--jobs`` is capped at the file count: the two bundled files get
    two workers.  A third start raises before it forks, so a broken cap
    forks nothing past it."""
    started, start = [], cli._start_helper

    def capped(task):
        if len(started) == 2:
            raise AssertionError("a third --jobs worker")
        started.append(task)
        return start(task)

    monkeypatch.setattr(cli, "_start_helper", capped)
    assert cli.main([
        "run", str(scenario_dir), "--out-dir", str(tmp_path), "--jobs", "5000",
    ]) == 0
    assert len(started) == 2
    assert len(list(tmp_path.iterdir())) == 6
    assert leftovers(tmp_path) == []
    assert no_child_left()


def test_validate_and_run_call_no_oracle_code(tmp_path, monkeypatch):
    """The production path calls no oracle: with every public callable of
    ``oracles`` and the four references of ``spectral`` rebound to raise,
    in every package module that holds them, ``validate`` and ``run`` on
    all three solver routes still succeed."""

    def refuse(*args, **kwargs):
        raise AssertionError("the production path called oracle code")

    names = ("apply_pdo_direct", "interaction_integral_direct",
             "eigenvalue", "interaction_coefficient")
    targets = [getattr(uc.oracles, name) for name in uc.oracles.__all__]
    targets += [getattr(uc.spectral, name) for name in names]
    targets = [t for t in targets if callable(t)]
    modules = [m for name, m in sys.modules.items()
               if name == "ultracascade" or name.startswith("ultracascade.")]
    for module in modules:
        for key, value in list(vars(module).items()):
            if any(value is t for t in targets):
                monkeypatch.setattr(module, key, refuse)
    assert uc.oracles.sup is refuse and uc.spectral.eigenvalue is refuse

    config = minimal_config()
    config.update(tree={"p": 2, "depth": 6}, solver="all", t_end=0.1,
                  initial={"wavelets": [["", 0, 0.5, 0.0], ["0.1", 0, 0.3, 0.1]]})
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 0
    assert cli.main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 0


def test_cli_run_empty_directory_is_config_error(tmp_path):
    assert cli.main(["run", str(tmp_path)]) == 2


def test_cli_run_missing_file_is_config_error(tmp_path):
    assert cli.main(["run", str(tmp_path / "nope.json")]) == 2
    assert list(tmp_path.iterdir()) == []


def test_cli_run_writes_next_to_config_by_default(tmp_path, scenario_dir):
    target = tmp_path / "work"
    target.mkdir()
    src = scenario_dir / "single_wavelet.json"
    (target / src.name).write_bytes(src.read_bytes())
    assert cli.main(["run", str(target / src.name)]) == 0
    assert (target / "single_wavelet_trajectory.csv").exists()
    assert (target / "single_wavelet_energy.csv").exists()
    assert (target / "single_wavelet_summary.json").exists()


def test_cli_run_reports_failed_check_with_exit_1(
    tmp_path, scenario_dir, monkeypatch, capsys
):
    monkeypatch.setattr(cli, "EIGEN_TOL", -1.0)
    rc = cli.main([
        "run", str(scenario_dir / "single_wavelet.json"),
        "--out-dir", str(tmp_path),
    ])
    assert rc == 1
    out = capsys.readouterr().out
    assert out.startswith("check failed (eigen")
    summary = json.loads((tmp_path / "single_wavelet_summary.json").read_text())
    assert summary["oracle_checks"]["eigen"]["pass"] is False


def test_cli_abort_exit_code(tmp_path):
    raw = minimal_config()
    raw["dissipation"] = {"type": "power", "a": [-35.0, 0.0], "b": 0.0}
    path = tmp_path / "grow.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    rc = cli.main(["run", str(path), "--out-dir", str(tmp_path / "out")])
    assert rc == 3


def test_cli_directory_keeps_worst_exit_code(tmp_path, scenario_dir, capsys):
    work = tmp_path / "scenarios"
    work.mkdir()
    src = scenario_dir / "single_wavelet.json"
    (work / src.name).write_bytes(src.read_bytes())
    raw = minimal_config()
    raw["dissipation"] = {"type": "power", "a": [-35.0, 0.0], "b": 0.0}
    (work / "grow.json").write_text(json.dumps(raw), encoding="utf-8")
    rc = cli.main(["run", str(work), "--out-dir", str(tmp_path / "out")])
    assert rc == 3
    assert "abort: grow.json" in capsys.readouterr().err


def mixed_scenarios(work: Path, scenario_dir: Path) -> None:
    """Four scenario files in ``work``: a slow one first, then one that is
    not JSON, a fast one, and one whose solve aborts."""
    work.mkdir()
    for name, src in (("a_nested.json", "nested_pair.json"),
                      ("c_single.json", "single_wavelet.json")):
        (work / name).write_bytes((scenario_dir / src).read_bytes())
    (work / "b_bad.json").write_text("{", encoding="utf-8")
    raw = minimal_config()
    raw["dissipation"] = {"type": "power", "a": [-35.0, 0.0], "b": 0.0}
    (work / "d_grow.json").write_text(json.dumps(raw), encoding="utf-8")


@pytest.mark.parametrize("jobs", ["1", "3"])
def test_cli_run_parses_each_scenario_file_once(tmp_path, scenario_dir,
                                                monkeypatch, capsys, jobs):
    """The collision check and the run share one parse per file, and a
    file that does not parse is still reported in its turn."""
    work = tmp_path / "scenarios"
    mixed_scenarios(work, scenario_dir)
    parsed, load = [], cli.load_config

    def counted(path):
        parsed.append(Path(path).name)
        return load(path)

    monkeypatch.setattr(cli, "load_config", counted)
    out = tmp_path / "out"
    rc = cli.main(["run", str(work), "--out-dir", str(out), "--jobs", jobs])
    assert rc == 3
    assert parsed == ["a_nested.json", "b_bad.json", "c_single.json", "d_grow.json"]
    captured = capsys.readouterr()
    assert [line.split(": ")[1] for line in captured.out.splitlines()] == [
        "a_nested.json", "c_single.json"]
    err = captured.err.splitlines()
    assert len(err) == 2
    assert err[0].startswith("error: b_bad.json: ") and "not valid JSON" in err[0]
    assert err[1].startswith("abort: d_grow.json: ")
    assert len(list(out.iterdir())) == 6
    assert no_child_left()


def test_cli_jobs_print_both_streams_in_file_order_on_a_pipe(tmp_path, scenario_dir):
    """Three ``--jobs`` workers finish in another order than the files
    sort, stdout is a pipe: the parent prints every line, in file order."""
    work, out = tmp_path / "scenarios", tmp_path / "out"
    mixed_scenarios(work, scenario_dir)
    proc = subprocess.run(
        [sys.executable, "-m", "ultracascade", "run", str(work),
         "--out-dir", str(out), "--jobs", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
    )
    assert proc.returncode == 3
    assert [line.split(": ")[:2] for line in proc.stdout.splitlines()] == [
        ["ok", "a_nested.json"], ["ok", "c_single.json"]]
    assert [line.split(": ")[:2] for line in proc.stderr.splitlines()] == [
        ["error", "b_bad.json"], ["abort", "d_grow.json"]]
    assert leftovers(tmp_path) == []
    assert len(list(out.iterdir())) == 6
    assert no_child_left()


def deep_scenario(path: Path, depth: int = 495) -> Path:
    """Write a scenario whose explicit tree nests ``depth`` levels deep,
    each level ``{"children": [<node>, {"measure": 1.0}]}``: past what the
    JSON decoder reaches under the default recursion limit."""
    tree = ('{"children": [' * depth + '{"measure": 1.0}'
            + ', {"measure": 1.0}]}' * depth)
    text = json.dumps(dict(minimal_config(), tree="TREE"))
    path.write_text(text.replace('"TREE"', tree), encoding="utf-8")
    return path


@pytest.mark.parametrize("command, prefix", [
    ("validate", "invalid"), ("run", "error"), ("oracle", "error")])
def test_cli_refuses_a_too_deeply_nested_scenario_in_one_line(
    command, prefix, tmp_path, capsys
):
    path = deep_scenario(tmp_path / "deep.json")
    extra = ["--out-dir", str(tmp_path / "out")] if command == "run" else []
    assert cli.main([command, str(path), *extra]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    line = f"{prefix}: {path}: nested too deeply to parse\n"
    # validate reports on stdout, run and oracle on stderr
    assert (captured.out, captured.err) == (
        (line, "") if command == "validate" else ("", line))
    assert not (tmp_path / "out").exists()


def test_cli_jobs_run_the_other_files_beside_a_too_deeply_nested_one(
    tmp_path, scenario_dir, capsys
):
    work, out = tmp_path / "scenarios", tmp_path / "out"
    work.mkdir()
    for name in ("nested_pair.json", "single_wavelet.json"):
        (work / name).write_bytes((scenario_dir / name).read_bytes())
    deep = deep_scenario(work / "deep.json")
    rc = cli.main(["run", str(work), "--out-dir", str(out), "--jobs", "2"])
    assert rc == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: deep.json: {deep}: nested too deeply to parse\n")
    assert [line.split(": ")[:2] for line in captured.out.splitlines()] == [
        ["ok", "nested_pair.json"], ["ok", "single_wavelet.json"]]
    assert len(list(out.iterdir())) == 6
    assert no_child_left()


def test_cli_validate_ok(scenario_dir, capsys):
    rc = cli.main(["validate", str(scenario_dir / "nested_pair.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("ok: 3 wavelet slots")
    assert "4 leaves over 7 balls" in out
    assert "solver=all" in out
    assert "grid=1000 steps" in out


@pytest.mark.parametrize("command", ["run", "validate"])
def test_cli_rejects_infinite_t_end_without_traceback(tmp_path, command):
    raw = minimal_config()
    raw["t_end"] = float("inf")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw), encoding="utf-8")  # an Infinity literal
    proc = subprocess.run(
        [sys.executable, "-m", "ultracascade", command, str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len((proc.stdout + proc.stderr).strip().splitlines()) == 1
    assert "finite" in proc.stdout + proc.stderr


def _one_line_refusal(tmp_path, raw: dict, command: str) -> str:
    """Run ``command`` on ``raw``: exit 2, one line of output, and nothing
    else on stderr.  Returns that line."""
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    out = ["--out-dir", str(tmp_path / "out")] if command == "run" else []
    proc = subprocess.run(
        [sys.executable, "-m", "ultracascade", command, str(path), *out],
        capture_output=True, text=True,
    )
    lines = (proc.stdout + proc.stderr).splitlines()
    assert proc.returncode == 2
    assert len(lines) == 1
    assert proc.stderr in ("", lines[0] + "\n")
    return lines[0]


@pytest.mark.parametrize("command", ["validate", "run", "oracle"])
def test_cli_refuses_an_overflowing_ball_measure_in_one_line(tmp_path, command):
    """Two leaves of measure 1e308 sum past the float range at the root:
    one refusal naming the ball, no numpy warning."""
    raw = minimal_config()
    raw["tree"] = {"root": {"children": [{"measure": 1e308}, {"measure": 1e308}]}}
    line = _one_line_refusal(tmp_path, raw, command)
    assert line.endswith("ball '': its leaf measures sum past the largest float")


def test_cli_refuses_a_leaf_field_whose_mean_is_near_the_float_range(tmp_path):
    raw = minimal_config()
    raw["initial"] = {"leaves": [[path, x, 0.0] for path, x in zip(
        ("0.0", "0.1", "1.0", "1.1"), (1e308, 1e308, 1e308, -1e307))]}
    line = _one_line_refusal(tmp_path, raw, "validate")
    assert line.startswith("invalid: leaf field has mean 7.250e+307")


def test_cli_validates_a_mean_zero_field_of_1e308(tmp_path):
    raw = minimal_config()
    raw["initial"] = {"leaves": [[path, x, 0.0] for path, x in zip(
        ("0.0", "0.1", "1.0", "1.1"), (1e308, -1e308, 1e308, -1e308))]}
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "ultracascade", "validate", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("ok: ")


@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_refuses_a_step_count_past_the_float_range(tmp_path, command):
    raw = minimal_config()
    raw["t_end"], raw["dt"] = 1e300, 1e-300
    line = _one_line_refusal(tmp_path, raw, command)
    assert "t_end" in line and "dt" in line
    assert "past the float range" in line


def test_cli_rejects_overflowing_kernel_in_one_line(tmp_path):
    """An exponent that overflows the power kernel is one error line; no
    numpy warning reaches stderr."""
    raw = minimal_config()
    raw["interaction"]["b"] = -1e308
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "ultracascade", "validate", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == ""
    assert proc.stdout.strip() == "invalid: kernel values must be finite"


@pytest.mark.parametrize("command", ["run", "validate"])
def test_cli_rejects_boolean_numbers_in_one_line(tmp_path, capsys, command):
    raw = minimal_config()
    raw["interaction"]["b"] = True
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert cli.main([command, str(path), *(["--out-dir", str(tmp_path)]
                                           if command == "run" else [])]) == 2
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).strip().splitlines()
    assert len(lines) == 1 and "interaction.b must be a number" in lines[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bool.json"]


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize(
    "tree, message",
    [
        ({"p": None, "depth": 2}, "'p' must be an integer"),
        ({"p": 2, "depth": [2]}, "'depth' must be an integer"),
        ({"children": [{"measure": None}, {"measure": 1.0}]},
         "measure of '0' must be a finite number"),
        ({"p": "3", "depth": 2}, "'p' must be an integer"),
        ({"p": 2.9, "depth": 2}, "'p' must be an integer"),
        ({"p": 2, "depth": True}, "'depth' must be an integer"),
        ({"p": 2, "depth": 2, "A": True}, "'A' must be a finite number"),
        ({"p": 2, "depth": 2, "q": float("nan")}, "'q' must be a finite number"),
        ({"children": [{"measure": 1.0, "diameter": 0.5},
                       {"measure": 1.0, "diameter": True}], "diameter": 1.0},
         "diameter of '1' must be a finite number"),
    ],
    ids=["p-null", "depth-list", "measure-null", "p-string", "p-float",
         "depth-bool", "A-bool", "q-nan", "diameter-bool"],
)
def test_cli_rejects_malformed_tree_numbers_in_one_line(
    tmp_path, capsys, command, tree, message
):
    raw = minimal_config()
    raw["tree"] = tree
    raw["initial"] = {"wavelets": []}
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert cli.main([command, str(path), *(["--out-dir", str(tmp_path)]
                                           if command == "run" else [])]) == 2
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).strip().splitlines()
    assert len(lines) == 1 and message in lines[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tree.json"]


def _key_paths(node, prefix=()):
    """Every (container path, key or index) inside a decoded config."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield prefix, key
        yield from _key_paths(value, prefix + (key,))


FUZZ_VALUES = [None, True, False, float("nan"), float("inf"), -float("inf"),
               "x", "", [], {}, [1.0], {"p": 2}, 0, -1, 3, 0.5, -2.5, -1e308]


@pytest.mark.filterwarnings("error")  # a warning would reach stderr
@given(data=st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_validate_survives_mutated_configs(tmp_path, capsys, scenario_dir,
                                                data):
    """One key of a bundled config gets a wrong type, null, NaN/Inf or a
    bool, or is dropped, or a dict gets an extra key: ``validate`` answers
    with an exit code and one line, never an uncaught exception, a
    traceback or a warning."""
    name = data.draw(st.sampled_from(["single_wavelet.json", "nested_pair.json"]))
    raw = json.loads((scenario_dir / name).read_text(encoding="utf-8"))
    where, key = data.draw(st.sampled_from(list(_key_paths(raw))))
    parent = raw
    for step in where:
        parent = parent[step]
    action = data.draw(st.sampled_from(["replace", "drop", "extra"]))
    if action == "replace":
        parent[key] = data.draw(st.sampled_from(FUZZ_VALUES))
    elif action == "drop":
        del parent[key]
    elif isinstance(parent, dict):
        parent["unexpected"] = data.draw(st.sampled_from(FUZZ_VALUES))
    else:
        parent.append(data.draw(st.sampled_from(FUZZ_VALUES)))
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["validate", str(path)]) in (0, 1, 2, 3)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert len((captured.out + captured.err).strip().splitlines()) == 1


def test_cli_validate_rejects_grid_that_run_rejects(tmp_path, capsys):
    raw = minimal_config()
    raw["t_end"], raw["dt"] = 1.0, 0.3
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 2
    assert "does not divide" in capsys.readouterr().out
    assert cli.main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert "does not divide" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


SINGLE_BALL = "tree needs at least one internal ball"


@pytest.mark.parametrize("solver, flags", [
    ("recurrent", {}), ("rk", {}), ("leaf", {}), ("all", {}),
    ("recurrent", {"check_cross": True}), ("recurrent", {"check_phi": True}),
])
def test_single_ball_tree_is_refused_by_validate_run_and_oracle(
    tmp_path, capsys, solver, flags
):
    """A tree of one ball has no wavelet slot: every command gives one
    line with the same message and exit 2, and ``run`` writes nothing."""
    raw = minimal_config()
    raw["tree"] = {"root": {"measure": 1.0}}
    raw["initial"] = {"wavelets": []}
    raw["solver"], raw["oracles"] = solver, flags
    path = tmp_path / "single_ball.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    for args, prefix in ((["validate"], "invalid: "),
                         (["run", "--out-dir", str(out)], "error: "),
                         (["oracle"], "error: ")):
        assert cli.main([args[0], str(path), *args[1:]]) == 2
        captured = capsys.readouterr()
        lines = (captured.out + captured.err).splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix + SINGLE_BALL)
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["single_ball.json"]


def oversized_check_config(depth: int, flag: str) -> dict:
    raw = minimal_config()
    raw["tree"] = {"p": 2, "depth": depth}
    raw["solver"], raw["t_end"] = "all", 0.5
    raw["oracles"] = {flag: True}
    return raw


@pytest.mark.parametrize(
    "depth, flag, cap",
    [(7, "check_phi", "the direct-sum cap of 100"),
     (13, "check_eigen", "the cap of 1 GiB")],
    ids=["phi-128-leaves", "eigen-8192-leaves"],
)
def test_cli_validate_refuses_oversized_check_that_run_refuses(
    tmp_path, capsys, monkeypatch, depth, flag, cap
):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(oversized_check_config(depth, flag)),
                    encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith(f"invalid: oracles.{flag}: ")
    assert cap in captured.out and len(captured.out.splitlines()) == 1

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before refusing the flag")

    for name in ("solve_recurrent", "solve_rk", "leaf_route", "_start_helper"):
        monkeypatch.setattr(cli, name, no_solve)
    assert cli.main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: oracles.{flag}: ")
    assert cap in lines[0]
    assert not (tmp_path / "out").exists()


def test_cli_oracle_skips_interaction_check_above_leaf_cap(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(oversized_check_config(7, "check_phi")),
                    encoding="utf-8")
    assert cli.main(["oracle", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("eigenvalue check:") and lines[0].endswith("PASS")
    assert lines[1] == (
        "interaction check: skipped (128 leaves exceeds the direct-sum cap of 100)"
    )
    assert lines[2].startswith("solver check:") and lines[2].endswith("PASS")


def test_cli_oracle_skips_both_dense_checks_on_8192_leaves(tmp_path, capsys):
    raw = oversized_check_config(13, "check_eigen")
    raw["t_end"] = raw["dt"]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    tracemalloc.start()
    try:
        code = cli.main(["oracle", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 64 * 2 ** 20
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[:2] == [
        "eigenvalue check: skipped (8192 leaves need 2.25 GiB of dense "
        "tables, above the cap of 1 GiB)",
        "interaction check: skipped (8192 leaves exceeds the direct-sum cap "
        "of 100)",
    ]
    assert len(lines) == 3
    assert lines[2].startswith("solver check:") and lines[2].endswith("PASS")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_run_refuses_output_name_collisions(
    tmp_path, scenario_dir, capsys, jobs
):
    work = tmp_path / "scenarios"
    work.mkdir()
    src = (scenario_dir / "single_wavelet.json").read_bytes()
    (work / "a.json").write_bytes(src)  # both name the same output files
    (work / "b.json").write_bytes(src)
    out = tmp_path / "out"
    rc = cli.main(["run", str(work), "--out-dir", str(out), "--jobs", jobs])
    assert rc == 2
    assert "would overwrite an output of a.json" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_refuses_outputs_sharing_one_file(tmp_path, capsys):
    raw = minimal_config()
    raw["outputs"] = {"trajectory": "same.csv", "energy": "same.csv"}
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert cli.main(["run", str(path)]) == 2
    assert "'same.csv' would overwrite" in capsys.readouterr().err
    raw["outputs"] = {"summary": "dup.json"}  # the scenario file itself
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert cli.main(["run", str(path)]) == 2
    assert json.loads(path.read_text(encoding="utf-8")) == raw
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dup.json"]


@pytest.mark.parametrize("command, prefix", [
    ("validate", "invalid"), ("run", "error"), ("oracle", "error")])
def test_cli_refuses_outputs_outside_the_output_directory(
    command, prefix, tmp_path, capsys
):
    victim, elsewhere, out = (tmp_path / name
                              for name in ("victim", "elsewhere", "out"))
    victim.mkdir()
    elsewhere.mkdir()
    (victim / "keep.txt").write_text("keep\n", encoding="utf-8")
    raw = minimal_config()
    # out/../victim/keep.txt is the victim file itself
    raw["outputs"] = {"trajectory": "../victim/keep.txt",
                      "energy": str(elsewhere / "abs.csv")}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    extra = ["--out-dir", str(out)] if command == "run" else []
    assert cli.main([command, str(path), *extra]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    line = (f"{prefix}: outputs.trajectory must be a nonempty file name "
            "with no directory part, got '../victim/keep.txt'\n")
    # validate reports on stdout, run and oracle on stderr
    assert (captured.out, captured.err) == (
        (line, "") if command == "validate" else ("", line))
    assert (victim / "keep.txt").read_text(encoding="utf-8") == "keep\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == [
        "elsewhere", "keep.txt", "s.json", "victim"]
    assert leftovers(tmp_path) == []


TABLE = [[path, 1.0, 0.0] for path in ("", "0", "1", "0.0", "0.1", "1.0", "1.1")]


@pytest.mark.parametrize("command, prefix", [
    ("validate", "invalid"), ("run", "error"), ("oracle", "error")])
@pytest.mark.parametrize("mutate, message", [
    (lambda c: c.update(initial={"wavelets": [["", 0, 1, 0], ["", 0, 2, 0]]}),
     "initial.wavelets: records 0 and 1 (counted from 0) both name ['', 0]"),
    # the same value twice: last-one-wins would leave a valid mean-zero field
    (lambda c: c.update(initial={"leaves": [
        ["0.0", 1, 0], ["0.1", -1, 0], ["0.0", 1, 0]]}),
     "initial.leaves: records 0 and 2 (counted from 0) both name ['0.0']"),
    (lambda c: c["interaction"].update(overrides=[["0", 5, 0], ["0", 7, 0]]),
     "interaction.overrides: records 0 and 1 (counted from 0) both name ['0']"),
    (lambda c: c.update(dissipation={"type": "table",
                                     "entries": TABLE + [["0.1", 2.0, 0.0]]}),
     "dissipation.entries: records 4 and 7 (counted from 0) both name ['0.1']"),
], ids=["wavelets", "leaves", "overrides", "entries"])
def test_cli_refuses_duplicate_records(mutate, message, command, prefix,
                                       tmp_path, capsys):
    """A key named twice in one list is an error, not a silent
    last-one-wins: one line naming the list, both records and the key."""
    raw = minimal_config()
    mutate(raw)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    extra = ["--out-dir", str(tmp_path / "out")] if command == "run" else []
    assert cli.main([command, str(path), *extra]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    line = f"{prefix}: {message}\n"
    assert (captured.out, captured.err) == (
        (line, "") if command == "validate" else ("", line))
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["s.json"]


@pytest.mark.parametrize("overrides", [None, 5, {}, "", {"0": [1, 0]}])
def test_cli_refuses_overrides_that_are_not_a_list(overrides, tmp_path, capsys):
    raw = minimal_config()
    raw["interaction"]["overrides"] = overrides
    path = tmp_path / "s.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert cli.main(["validate", str(path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == (
        "invalid: interaction.overrides must be a list of records\n", "")


def test_cli_validate_reports_problem(tmp_path, capsys):
    raw = minimal_config()
    raw["initial"] = {"leaves": [["0.0", 1.0, 0.0]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    rc = cli.main(["validate", str(path)])
    assert rc == 2
    assert capsys.readouterr().out.startswith("invalid:")


def test_cli_oracle_passes_on_bundled_scenario(scenario_dir, capsys):
    rc = cli.main(["oracle", str(scenario_dir / "nested_pair.json")])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("eigenvalue check:")
    assert lines[1].startswith("interaction check:")
    assert lines[2].startswith("solver check:")
    assert all(line.endswith("PASS") for line in lines)


def test_cli_oracle_failure_exit_code(scenario_dir, monkeypatch, capsys):
    monkeypatch.setattr(cli, "EIGEN_TOL", -1.0)
    rc = cli.main(["oracle", str(scenario_dir / "single_wavelet.json")])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_module_entry_point(scenario_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "ultracascade", "validate",
         str(scenario_dir / "single_wavelet.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("ok:")


def without_blas_threads(**extra: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return {**env, **extra}


def test_import_loads_no_numpy_and_resolves_every_public_name():
    code = (
        "import sys\n"
        "import ultracascade as uc\n"
        "print('numpy' in sys.modules)\n"
        "print(set(uc._ORIGIN) | {'__version__'} == set(uc.__all__)\n"
        "      and all(getattr(uc, name) is not None for name in uc.__all__))\n"
        "print(uc.solve_all is uc.solver.solve_all, 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=without_blas_threads())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "True", "True"]


@pytest.mark.parametrize("given, seen", [(None, "1"), ("2", "2")])
def test_module_entry_sets_one_blas_thread_unless_the_caller_set_it(
    scenario_dir, given, seen
):
    """``python -m ultracascade`` runs ``ultracascade.__main__`` as runpy
    runs it here; a plain import of the package leaves the variable."""
    code = (
        "import os, runpy, sys\n"
        "import ultracascade\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "sys.argv = ['ultracascade', 'validate', sys.argv[1]]\n"
        "try:\n"
        "    runpy.run_module('ultracascade', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    )
    env = without_blas_threads(**({} if given is None else
                                  {"OPENBLAS_NUM_THREADS": given}))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(scenario_dir / "nested_pair.json")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == str(given) and lines[1].startswith("ok:")
    assert lines[2] == seen


def test_module_entry_freezes_the_start_up_heap(scenario_dir):
    """The module entry hands what numpy and the package made at import
    to ``gc.freeze``, so the collections at exit skip it."""
    code = (
        "import gc, runpy, sys\n"
        "sys.argv = ['ultracascade', 'validate', sys.argv[1]]\n"
        "try:\n"
        "    runpy.run_module('ultracascade', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(gc.get_freeze_count())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(scenario_dir / "nested_pair.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("ok:")
    assert 1_000 <= int(lines[1]) < 1_000_000


def test_console_script_shares_the_module_entry():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(
        (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text())
    module, _, name = project["project"]["scripts"]["ultracascade"].partition(":")
    assert module == "ultracascade.__main__"
    # the function ``python -m ultracascade`` calls, defined in that module
    assert getattr(importlib.import_module(module), name).__module__ == module


def test_importing_the_entry_module_changes_nothing(scenario_dir):
    """A plain import of ``ultracascade.__main__`` neither freezes the
    caller's heap nor sets the BLAS default; its ``main``, which the
    console script calls, does both and then runs the command line."""
    code = (
        "import gc, os, sys\n"
        "before = dict(os.environ)\n"
        "import ultracascade.__main__ as entry\n"
        "print(gc.get_freeze_count(), dict(os.environ) == before)\n"
        "sys.argv = ['ultracascade', 'validate', sys.argv[1]]\n"
        "code = entry.main()\n"
        "print(code, gc.get_freeze_count() > 0, os.environ['OPENBLAS_NUM_THREADS'])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(scenario_dir / "nested_pair.json")],
        capture_output=True, text=True, env=without_blas_threads(),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "0 True"
    assert lines[1].startswith("ok:")
    assert lines[2] == "0 True 1"


def test_trajectory_csv_values_round_trip_bitwise(tmp_path):
    cfg = uc.parse_config(minimal_config())
    scen = uc.build_scenario(cfg)
    traj = uc.solve_recurrent(scen.system, scen.v0, cfg.t_end, cfg.dt)
    path = tmp_path / "traj.csv"
    cli.write_trajectory_csv(path, traj)
    header, rows = read_csv_rows(path)
    assert len(rows) == len(traj.grid)
    for k in (0, len(rows) // 2, len(rows) - 1):
        assert float(rows[k][0]) == traj.grid[k]
        for i, label in enumerate(traj.labels):
            re = float(rows[k][header.index(f"{label}.re")])
            im = float(rows[k][header.index(f"{label}.im")])
            assert complex(re, im) == traj.values[k, i]


LEAF_BUDGET_REFUSAL = ("the trajectory of 16385 times x 4096 leaves needs "
                       "1.0001 GiB, above the limit of 1 GiB")
# p=4 depth 6 on 16,384 steps: its 4,095 slot columns fit the 1 GiB
# trajectory budget, and the leaf route's 4,096 leaf columns do not.  The
# leaf array is budgeted whatever the solver, as ``oracle`` runs every route
LEAF_BUDGET_CHANGE = {"tree": {"p": 4, "depth": 6}, "t_end": 16.384, "dt": 1e-3}


@pytest.mark.parametrize("command", ["validate", "run", "oracle"])
@pytest.mark.parametrize(
    "change, estimate",
    [
        ({"tree": {"p": 2, "depth": 40}}, "has 2.2e+12 balls"),
        ({"tree": {"p": 1000000, "depth": 3}}, "has 1e+18 balls"),
        ({"t_end": 1e9, "dt": 1e-9}, "x 4 leaves needs 5.96e+10 GiB"),
        (dict(LEAF_BUDGET_CHANGE, solver="leaf"), LEAF_BUDGET_REFUSAL),
        (dict(LEAF_BUDGET_CHANGE, solver="recurrent"), LEAF_BUDGET_REFUSAL),
    ],
    ids=["p2-depth40", "p1e6-depth3", "1e18-steps", "leaf-route",
         "leaf-array-recurrent"],
)
def test_cli_refuses_over_budget_before_allocating(
    tmp_path, capsys, command, change, estimate
):
    raw = minimal_config()
    raw.update(change)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    args = [command, str(path)] + (["--out-dir", str(tmp_path)]
                                   if command == "run" else [])
    tracemalloc.start()
    try:
        code = cli.main(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 2 ** 20
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).strip().splitlines()
    assert len(lines) == 1 and estimate in lines[0] and "above the limit" in lines[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.json"]


def test_budgets_admit_the_depth_20_tree_and_bundled_sizes(scenario_dir):
    assert uc.tree.padic_vertex_count(2, 20) <= uc.tree.MAX_VERTICES
    assert uc.tree.padic_vertex_count(2, 21) > uc.tree.MAX_VERTICES
    for path in sorted(scenario_dir.glob("*.json")):
        scen = uc.build_scenario(uc.load_config(path))
        steps = uc.solver.grid_steps(scen.config.t_end, scen.config.dt)
        uc.solver.check_trajectory_budget(steps, scen.system.tree.n_leaves)
    # the largest benchmark rungs: p=2 depth 12 at 200 steps, depth 9 at 1000
    uc.solver.check_trajectory_budget(200, 2 ** 12)
    uc.solver.check_trajectory_budget(1000, 2 ** 9)


def test_solvers_refuse_a_trajectory_over_budget():
    system = uc.build_scenario(uc.parse_config(minimal_config())).system
    v0 = slot_field(system.basis, {(0, 0): 0.5})
    for solve in (uc.solve_recurrent, uc.solve_rk):
        with pytest.raises(ValueError, match="above the limit"):
            solve(system, v0, 1e9, 1e-9)
    with pytest.raises(ValueError, match="above the limit"):
        uc.solve_leaf(system.tree, system.interaction, system.dissipation,
                      uc.synthesize(v0), 1e9, 1e-9)


@pytest.mark.parametrize("command", ["run", "oracle", "run --jobs 2"])
def test_cli_commands_load_no_numpy_ma_or_process_pool(tmp_path, scenario_dir, command):
    """``np.unique`` imports all of ``numpy.ma``; every helper, ``--jobs``
    workers included, uses ``os.fork`` itself, not ``multiprocessing``.
    ``validate`` is checked by the test below."""
    code = (
        "import sys\n"
        "from ultracascade import cli\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'numpy.ma'\n"
        "    or m.startswith(('numpy.ma.', 'multiprocessing', 'concurrent.futures'))))\n"
    )
    args = [command, str(scenario_dir / "nested_pair.json")]
    if command == "run":
        args += ["--out-dir", str(tmp_path)]
    elif command == "run --jobs 2":
        args = ["run", str(scenario_dir), "--out-dir", str(tmp_path), "--jobs", "2"]
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_cli_import_and_validate_load_no_process_pool_or_hashlib(scenario_dir):
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "loaded = lambda: sorted(m for m in set(sys.modules) - before\n"
        "    if m.split('.')[0] in ('concurrent', 'multiprocessing', 'hashlib')\n"
        "    or m == 'numpy.ma' or m.startswith('numpy.ma.'))\n"
        "from ultracascade import cli\n"
        "print(loaded())\n"
        "assert cli.main(['validate', sys.argv[1]]) == 0\n"
        "print(loaded())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(scenario_dir / "nested_pair.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "[]" and lines[-1] == "[]"
    assert lines[1].startswith("ok:")


def test_lone_leaf_run_writes_the_bytes_of_its_check_cross_twin(tmp_path):
    """A lone ``solver: "leaf"`` run takes the leaf route of an all-routes
    run, from ``synthesize(v0)``: on a leaf-initial scenario, adding
    ``check_cross`` moves no byte of its trajectory or energy CSV."""
    raw = dict(minimal_config(), tree={"p": 2, "depth": 3}, solver="leaf")
    tree = uc.build_tree(raw["tree"])
    field = random_mean_zero_field(tree, np.random.default_rng(26))
    raw["initial"] = {"leaves": [list(rec) for rec in field.records()]}
    written = {}
    for name, oracles in (("lone", {}), ("twin", {"check_cross": True})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(raw, oracles=oracles)), encoding="utf-8")
        assert cli.main(["run", str(path)]) == 0
        written[name] = [(tmp_path / f"{name}_{kind}.csv").read_bytes()
                         for kind in ("trajectory", "energy")]
    assert written["lone"] == written["twin"]


def scenario_with(tmp_path: Path, scenario_dir: Path, **changes) -> Path:
    """``single_wavelet.json`` with top-level keys changed, its outputs
    left at their defaults beside the new file."""
    raw = json.loads((scenario_dir / "single_wavelet.json").read_text())
    raw.pop("outputs")
    path = tmp_path / "changed.json"
    path.write_text(json.dumps({**raw, **changes}), encoding="utf-8")
    return path


def test_cli_recurrent_overflow_aborts_in_one_line(tmp_path, scenario_dir):
    """Coefficients near the top of the float range overflow in the
    recurrent passes: one ``abort:`` line naming the slot, no warning."""
    path = scenario_with(tmp_path, scenario_dir, dt=0.5, t_end=1,
                         initial={"wavelets": [["0", 0, 1e308, 1e308]]})
    proc = subprocess.run(
        [sys.executable, "-m", "ultracascade", "run", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == cli.EXIT_ABORT
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "abort: coefficient magnitude exceeded 1e+12 or was not finite "
        "at slot '0:0'"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["changed.json"]


@pytest.mark.parametrize("command", ["validate", "run", "oracle"])
@pytest.mark.parametrize("measure", [1e300, 1e305, 1e-300])
def test_cli_refuses_a_basis_that_is_not_orthonormal(
    tmp_path, scenario_dir, capsys, recwarn, command, measure
):
    """Child measures near the ends of the float range give Gram-Schmidt
    blocks of zeros or nan: refused in one line naming the ball, before
    any solve, with no warning and no output."""
    path = scenario_with(tmp_path, scenario_dir,
                         tree={"p": 2, "depth": 2, "A": measure, "q": 2.0})
    assert cli.main([command, str(path)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("invalid: " if command == "validate" else "error: ")
    assert lines[0].endswith(
        "ball '': its child measures give no orthonormal wavelets "
        "(a norm is not 1 within 1e-09)")
    assert [str(w.message) for w in recwarn] == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["changed.json"]


@pytest.mark.parametrize("command", ["validate", "run", "oracle", "run --jobs 2"])
def test_cli_reports_a_memory_error_in_one_line(
    tmp_path, scenario_dir, monkeypatch, capsys, command
):
    def out_of_memory(cfg):
        raise MemoryError("Unable to allocate 8.00 MiB")

    monkeypatch.setattr(cli, "build_scenario", out_of_memory)
    target = scenario_dir / "nested_pair.json"
    args = [command, str(target)]
    if command.startswith("run"):
        args = ["run", str(scenario_dir if "--jobs" in command else target),
                "--out-dir", str(tmp_path), *command.split()[1:]]
    assert cli.main(args) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    if command == "run --jobs 2":
        assert captured.err.splitlines() == [
            f"error: {path.name}: Unable to allocate 8.00 MiB"
            for path in sorted(scenario_dir.glob("*.json"))]
    else:
        assert captured.err == "error: Unable to allocate 8.00 MiB\n"
    assert list(tmp_path.iterdir()) == []
    assert no_child_left()


def test_cli_validate_out_of_address_space_exits_2_in_one_line(tmp_path,
                                                               scenario_dir):
    """A depth-20 ``validate`` in a child whose address space is capped a
    little above what an idle ``validate`` maps: numpy's allocation error
    is one ``error:`` line with exit 2, never a traceback."""
    resource = pytest.importorskip("resource")
    status = Path("/proc/self/status")
    if not status.exists():
        pytest.skip("needs /proc/self/status to size the cap")
    env = without_blas_threads(OPENBLAS_NUM_THREADS="1")
    idle = subprocess.run(
        [sys.executable, "-c",
         "import sys\nfrom ultracascade import cli\n"
         "assert cli.main(['validate', sys.argv[1]]) == 0\n"
         "print(open('/proc/self/status').read())",
         str(scenario_dir / "nested_pair.json")],
        capture_output=True, text=True, env=env,
    )
    assert idle.returncode == 0, idle.stderr
    peak_kb = next(int(line.split()[1]) for line in idle.stdout.splitlines()
                   if line.startswith("VmPeak:"))
    # a depth-20 tree needs hundreds of MiB more than this margin; one
    # step keeps its trajectory inside the budget, which is checked first
    cap = peak_kb * 1024 + 256 * 2 ** 20
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(dict(minimal_config(), tree={"p": 2, "depth": 20},
                                    t_end=0.01)), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "ultracascade", "validate", str(path)],
        capture_output=True, text=True, env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert proc.returncode == cli.EXIT_CONFIG
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: Unable to allocate")


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_cli_run_and_oracle_out_of_address_space_exit_2_in_one_line(
    tmp_path, scenario_dir, command
):
    """``run`` into a fresh out-dir and ``oracle``, on a depth-20 tree in a
    child capped as in the ``validate`` test above: one ``error:`` line
    and exit 2, and no output, temp or part file."""
    resource = pytest.importorskip("resource")
    status = Path("/proc/self/status")
    if not status.exists():
        pytest.skip("needs /proc/self/status to size the cap")
    env = without_blas_threads(OPENBLAS_NUM_THREADS="1")
    idle = subprocess.run(
        [sys.executable, "-c",
         "import sys\nfrom ultracascade import cli\n"
         "assert cli.main(['validate', sys.argv[1]]) == 0\n"
         "print(open('/proc/self/status').read())",
         str(scenario_dir / "nested_pair.json")],
        capture_output=True, text=True, env=env,
    )
    assert idle.returncode == 0, idle.stderr
    peak_kb = next(int(line.split()[1]) for line in idle.stdout.splitlines()
                   if line.startswith("VmPeak:"))
    cap = peak_kb * 1024 + 256 * 2 ** 20
    # one step: the trajectory is inside its budget, so setup is what fails
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(dict(minimal_config(), tree={"p": 2, "depth": 20},
                                    t_end=0.01)), encoding="utf-8")
    out_dir = tmp_path / "out"
    args = [command, str(path)] + (["--out-dir", str(out_dir)] if command == "run" else [])
    proc = subprocess.run(
        [sys.executable, "-m", "ultracascade", *args],
        capture_output=True, text=True, env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert proc.returncode == cli.EXIT_CONFIG
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: Unable to allocate")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["deep.json"]


def imported_modules(*args: str) -> set[str]:
    """Modules a fresh interpreter imports, as ``-X importtime`` lists
    them, for the command line ``args``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")} - {"imported package"}


def test_cli_start_up_imports_nothing_new(tmp_path, scenario_dir):
    """Beyond what ``import numpy`` loads, ``validate`` loads only these
    modules and the package's own, and ``run`` adds only hashlib.  Only
    additions fail: a module that stops loading is fine."""
    numpy_modules = imported_modules("-c", "import numpy")
    scenario = str(scenario_dir / "nested_pair.json")
    validate = imported_modules("-m", "ultracascade", "validate", scenario)
    run = imported_modules("-m", "ultracascade", "run", scenario,
                           "--out-dir", str(tmp_path))
    allowed = {
        "__future__", "_json", "_locale", "argparse", "copy", "dataclasses",
        "gc", "gettext", "json", "json.decoder", "json.encoder", "json.scanner",
        "locale", "runpy", "signal",
    }
    new = sorted(m for m in validate - numpy_modules - allowed
                 if m.split(".")[0] != "ultracascade")
    assert new == []
    assert sorted(run - validate - {"hashlib", "_hashlib", "_blake2"}) == []
