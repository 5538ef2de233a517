"""Scenario configs and the command-line interface."""

import csv
import json
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
    assert scen.tree.n_leaves == 4
    dense = scen.v0.dense()
    slot = scen.basis.slot_of(scen.tree.root, 0)
    assert dense[slot] == 1.0
    assert np.abs(
        scen.f0.values - uc.synthesize(scen.v0).values
    ).max() == 0.0


def test_build_scenario_leaf_initial_mean_zero():
    raw = minimal_config()
    raw["initial"] = {"leaves": [
        ["0.0", 1.0, 0.0], ["0.1", -1.0, 0.0],
        ["1.0", 0.5, 0.0], ["1.1", -0.5, 0.0],
    ]}
    scen = uc.build_scenario(uc.parse_config(raw))
    back = uc.synthesize(scen.v0)
    assert np.abs(back.values - scen.f0.values).max() <= 1e-12


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
    """A fork-context pool starts all its workers at the first submit, so
    ``--jobs`` is capped at the file count; the pool here runs in-process."""
    import concurrent.futures

    asked = []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    assert cli.main([
        "run", str(scenario_dir), "--out-dir", str(tmp_path), "--jobs", "5000",
    ]) == 0
    assert asked == [2]
    assert len(list(tmp_path.iterdir())) == 6


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

    monkeypatch.setattr(cli, "solve_all", no_solve)
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


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize(
    "change, estimate",
    [
        ({"tree": {"p": 2, "depth": 40}}, "has 2.2e+12 balls"),
        ({"tree": {"p": 1000000, "depth": 3}}, "has 1e+18 balls"),
        ({"t_end": 1e9, "dt": 1e-9}, "x 3 slots needs 4.47e+10 GiB"),
    ],
    ids=["p2-depth40", "p1e6-depth3", "1e18-steps"],
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
        uc.solver.check_trajectory_budget(steps, scen.tree.n_leaves)
    # the largest benchmark rungs: p=2 depth 12 at 200 steps, depth 9 at 1000
    uc.solver.check_trajectory_budget(200, 2 ** 12)
    uc.solver.check_trajectory_budget(1000, 2 ** 9)


def test_solvers_refuse_a_trajectory_over_budget():
    system = uc.build_scenario(uc.parse_config(minimal_config())).system
    v0 = uc.WaveletField(system.basis, {(0, 0): 0.5})
    for solve in (uc.solve_recurrent, uc.solve_rk):
        with pytest.raises(ValueError, match="above the limit"):
            solve(system, v0, 1e9, 1e-9)
    with pytest.raises(ValueError, match="above the limit"):
        uc.solve_leaf(system.tree, system.interaction, system.dissipation,
                      uc.synthesize(v0), 1e9, 1e-9)


def test_cli_import_and_validate_load_no_process_pool_or_hashlib(scenario_dir):
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "loaded = lambda: sorted(m for m in set(sys.modules) - before\n"
        "    if m.split('.')[0] in ('concurrent', 'multiprocessing', 'hashlib'))\n"
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
