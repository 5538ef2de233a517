"""The CSV writers against their per-number reference, and atomic output."""

import errno
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ultracascade as uc
from ultracascade import cli

from conftest import (
    dissipative_kernel,
    random_initial,
    reference_write_energy_csv,
    reference_write_trajectory_csv,
)

# doubles whose 17-digit text is easy to get wrong: signed zeros,
# subnormals, the extremes, both sides of the %g exponent switch
# (1e-5 / 1e-4 below, 1e16 / 1e17 above), integer-valued floats
AWKWARD = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
    2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
    1e-5, np.nextafter(1e-5, 0.0), 1e-4, np.nextafter(1e-4, 0.0),
    1e16, np.nextafter(1e16, 0.0), 1e17, np.nextafter(1e17, np.inf),
    3.0, -42.0, 2.0 ** 53, 2.0 ** 53 + 2, 123456789.0, 1 / 3, 0.1, -2.5e-7,
    np.inf, -np.inf, np.nan,
]

# slot order differs from label order: "10:0" sorts before "2:0"
LABELS = ("2:0", "10:0", ":0", "1:1", "1:0")


def make_trajectory(labels, parts: np.ndarray, grid: np.ndarray) -> uc.Trajectory:
    """Trajectory whose values are ``parts`` read as (re, im) pairs."""
    values = np.ascontiguousarray(parts, dtype=np.float64).view(np.complex128)
    slots = tuple((i, 0) for i in range(len(labels)))
    return uc.Trajectory(grid, slots, tuple(labels),
                         np.zeros(len(labels), dtype=int), values)


def awkward_trajectory(labels, rows: int, seed: int) -> uc.Trajectory:
    rng = np.random.default_rng(seed)
    pool = np.array(AWKWARD)
    parts = rng.choice(pool, size=(rows, 2 * len(labels)))
    return make_trajectory(labels, parts, rng.choice(pool, size=rows))


def same_bytes(tmp_path, writer, reference, data) -> bool:
    writer(tmp_path / "new.csv", data)
    reference(tmp_path / "ref.csv", data)
    return (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("block", [1, 3, 25, cli.CSV_BLOCK_NUMBERS])
@pytest.mark.parametrize("labels", [LABELS, (":0",)])
def test_trajectory_writer_matches_reference(tmp_path, monkeypatch, block, labels):
    # 37 rows: never a multiple of a block's row count above 1
    traj = awkward_trajectory(labels, 37, seed=block)
    monkeypatch.setattr(cli, "CSV_BLOCK_NUMBERS", block)
    assert same_bytes(tmp_path, cli.write_trajectory_csv,
                      reference_write_trajectory_csv, traj)


def test_trajectory_writer_default_blocks_with_a_partial_last_block(tmp_path):
    traj = awkward_trajectory(LABELS, 3 * cli.CSV_BLOCK_NUMBERS // 11 + 5, seed=3)
    assert len(traj.grid) % (cli.CSV_BLOCK_NUMBERS // 11) != 0
    assert same_bytes(tmp_path, cli.write_trajectory_csv,
                      reference_write_trajectory_csv, traj)


@pytest.mark.parametrize("block", [1, 4, cli.CSV_BLOCK_NUMBERS])
def test_energy_writer_matches_reference(tmp_path, monkeypatch, block):
    rng = np.random.default_rng(block)
    rows = np.column_stack((
        rng.choice(AWKWARD, 41), rng.integers(0, 12, 41), rng.choice(AWKWARD, 41),
    ))
    monkeypatch.setattr(cli, "CSV_BLOCK_NUMBERS", block)
    assert same_bytes(tmp_path, cli.write_energy_csv,
                      reference_write_energy_csv, rows)


def test_writers_match_reference_on_solved_trajectories(tmp_path, monkeypatch):
    # eleven wavelets at the root and one on each of twelve children:
    # labels ":10" and "10:0" sort before ":2" and "2:0"
    tree = uc.build_tree({"children": [
        {"children": [{"measure": 1.0}, {"measure": 0.5 + k / 8}]}
        for k in range(12)
    ]})
    rng = np.random.default_rng(241)
    basis = uc.build_basis(tree)
    system = uc.assemble(tree, basis, uc.random_kernel(tree, rng, max_abs=0.8),
                         dissipative_kernel(tree, rng))
    v0 = random_initial(basis, rng, density=0.6)
    assert list(basis.labels) != sorted(basis.labels)
    monkeypatch.setattr(cli, "CSV_BLOCK_NUMBERS", 1000)  # several blocks
    for solve in (uc.solve_recurrent, uc.solve_rk):
        traj = solve(system, v0, 0.5, 1e-2)
        assert same_bytes(tmp_path, cli.write_trajectory_csv,
                          reference_write_trajectory_csv, traj)
        assert same_bytes(tmp_path, cli.write_energy_csv,
                          reference_write_energy_csv, uc.energy_by_level(traj))


@settings(max_examples=60, deadline=None)
@given(
    numbers=st.lists(st.floats(width=64), min_size=1, max_size=60),
    n_slots=st.integers(1, 4),
    n_rows=st.integers(1, 9),
    block=st.integers(1, 40),
)
def test_writers_match_reference_on_any_doubles(
    tmp_path_factory, numbers, n_slots, n_rows, block
):
    tmp_path = tmp_path_factory.mktemp("csv")
    pool = np.resize(np.array(numbers), (n_rows, 2 * n_slots + 2))
    traj = make_trajectory(LABELS[:n_slots], pool[:, 2:], pool[:, 0])
    rows = np.column_stack((pool[:, 0], np.arange(n_rows), pool[:, 1]))
    with mock.patch.object(cli, "CSV_BLOCK_NUMBERS", block):
        assert same_bytes(tmp_path, cli.write_trajectory_csv,
                          reference_write_trajectory_csv, traj)
        assert same_bytes(tmp_path, cli.write_energy_csv,
                          reference_write_energy_csv, rows)


class _FailingFile:
    """Text file that writes half of its ``fail_at``-th write and then
    raises ENOSPC, as a full disk would."""

    def __init__(self, fh, fail_at: int):
        self.fh, self.fail_at, self.calls = fh, fail_at, 0

    def write(self, text: str) -> int:
        self.calls += 1
        if self.calls == self.fail_at:
            self.fh.write(text[:len(text) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.fh.close()


@pytest.mark.parametrize("kind, fail_at", [
    ("trajectory", 3), ("energy", 2), ("summary", 1),
])
def test_failed_write_keeps_old_output_and_leaves_no_temp_file(
    tmp_path, scenario_dir, monkeypatch, capsys, kind, fail_at
):
    config = scenario_dir / "nested_pair.json"
    outputs = {k: tmp_path / f"nested_pair_{k}.{'json' if k == 'summary' else 'csv'}"
               for k in ("trajectory", "energy", "summary")}
    assert cli.main(["run", str(config), "--out-dir", str(tmp_path)]) == 0
    assert sorted(tmp_path.iterdir()) == sorted(outputs.values())
    for path in outputs.values():
        path.write_text(f"old {path.name}\n", encoding="utf-8")
    capsys.readouterr()

    real_open = open

    def failing_open(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return _FailingFile(fh, fail_at) if outputs[kind].name in str(path) else fh

    monkeypatch.setattr(cli, "CSV_BLOCK_NUMBERS", 64)  # several blocks
    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    assert cli.main(["run", str(config), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "No space left on device" in err[0]
    assert outputs[kind].read_text(encoding="utf-8") == f"old {outputs[kind].name}\n"
    assert sorted(tmp_path.iterdir()) == sorted(outputs.values())


def test_csv_and_summary_replace_existing_files(tmp_path, scenario_dir):
    config = scenario_dir / "single_wavelet.json"
    assert cli.main(["run", str(config), "--out-dir", str(tmp_path)]) == 0
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    for name in first:
        (tmp_path / name).write_text("stale\n", encoding="utf-8")
    assert cli.main(["run", str(config), "--out-dir", str(tmp_path)]) == 0
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == first
