"""The CSV writers against their per-number reference, and atomic output."""

import errno
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ultracascade as uc
from ultracascade import cli

from conftest import (
    dissipative_kernel,
    leftovers,
    no_child_left,
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


def with_columns(traj: uc.Trajectory, case: str) -> uc.Trajectory:
    """``traj`` with its first value columns made constant, or nearly so."""
    parts = np.ascontiguousarray(traj.values).view(np.float64).copy()
    if case == "no value column":  # a basis of zero slots
        return make_trajectory((), parts[:, :0], traj.grid)
    if case == "all constant":
        parts[:] = parts[0]
    else:
        columns = {
            "+0.0": [0.0], "-0.0": [-0.0], "nan and inf": [np.nan, np.inf, -np.inf],
            "+0.0 but one -0.0 row": [0.0], "constant but the last row": [0.1, 7.0],
        }[case]
        parts[:, :len(columns)] = columns
        if case == "+0.0 but one -0.0 row":
            parts[len(parts) // 2, 0] = -0.0
        elif case == "constant but the last row":
            parts[-1, :2] = (0.1 + 2.0 ** -55, np.nextafter(7.0, 0.0))
    return make_trajectory(traj.labels, parts, traj.grid)


CONSTANT_CASES = ["+0.0", "-0.0", "+0.0 but one -0.0 row", "nan and inf",
                  "constant but the last row", "all constant", "no value column"]


@pytest.mark.parametrize("block", [3, cli.CSV_BLOCK_NUMBERS])
@pytest.mark.parametrize("case", CONSTANT_CASES)
def test_trajectory_writer_constant_columns(tmp_path, monkeypatch, case, block):
    traj = with_columns(awkward_trajectory(LABELS, 23, seed=5), case)
    monkeypatch.setattr(cli, "CSV_BLOCK_NUMBERS", block)
    assert same_bytes(tmp_path, cli.write_trajectory_csv,
                      reference_write_trajectory_csv, traj)


def count_helpers(monkeypatch) -> list[int]:
    """Record the pid of every helper ``cli`` forks in this process."""
    started, start = [], cli._start_helper

    def counted(*args):
        pid, reader = start(*args)
        started.append(pid)
        return pid, reader

    monkeypatch.setattr(cli, "_start_helper", counted)
    return started


def force_split(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(cli, "CSV_SPLIT_NUMBERS", 1)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)


@pytest.mark.parametrize("cpus, rows, block", [
    (2, 37, cli.CSV_BLOCK_NUMBERS), (3, 37, 25), (2, 21, 3),
    (3, 5, 4),  # parts of 1, 2 and 2 rows
    (3, 2, 1),  # more CPUs than rows: two one-row parts
    (2, 1, 1),  # one row: no helper
])
@pytest.mark.parametrize("case", [None, "+0.0", "all constant"])
def test_trajectory_writer_split_across_helpers(tmp_path, monkeypatch, cpus, rows,
                                                block, case):
    traj = awkward_trajectory(LABELS, rows, seed=rows + cpus)
    if case:
        traj = with_columns(traj, case)
    force_split(monkeypatch, cpus)
    monkeypatch.setattr(cli, "CSV_BLOCK_NUMBERS", block)
    started = count_helpers(monkeypatch)
    assert same_bytes(tmp_path, cli.write_trajectory_csv,
                      reference_write_trajectory_csv, traj)
    assert len(started) == min(cpus, rows) - 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new.csv", "ref.csv"]
    assert no_child_left()


def test_trajectory_writer_splits_only_above_the_crossover(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    started = count_helpers(monkeypatch)
    rng = np.random.default_rng(8)
    # 5 slots, one float column all zero: t and 9 varying numbers a row
    parts = rng.standard_normal((5 * cli.CSV_SPLIT_NUMBERS // 10, 10))
    parts[:, 3] = 0.0
    split = cli.CSV_SPLIT_NUMBERS
    for rows, helpers in [(-(-2 * split // 10) - 1, 0), (-(-2 * split // 10), 1),
                          (-(-3 * split // 10), 2), (-(-4 * split // 10), 3),
                          (len(parts), 3)]:
        started.clear()
        traj = make_trajectory(LABELS, parts[:rows], np.arange(rows) / 7)
        assert same_bytes(tmp_path, cli.write_trajectory_csv,
                          reference_write_trajectory_csv, traj)
        assert len(started) == helpers, rows


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


def exact_text(x) -> str:
    """``x`` as ``cli._row_formatter`` writes it, a comma after each number."""
    return cli._row_formatter([","])(np.asarray(x, dtype=np.float64))


def reference_text(x) -> str:
    return "".join(format(v, ".17g") + "," for v in np.asarray(x, np.float64).tolist())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=40))
def test_formatter_matches_format_on_any_doubles(numbers):
    seps = [","] * (len(numbers) - 1) + ["\n"]
    text = cli._row_formatter(seps)(np.array(numbers))
    assert text == ",".join(format(x, ".17g") for x in numbers) + "\n"


def test_formatter_matches_format_on_random_bit_patterns():
    bits = np.random.default_rng(20261019).integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64)
    for block in np.split(bits.view(np.float64), 40):
        assert exact_text(block) == reference_text(block)


def structured_doubles() -> np.ndarray:
    """Both signs of: exact ties at 17 digits, the doubles nearest each
    power of ten and their neighbours (some print below 10**16 units at
    the exponent log10 gives), the edges of the exponent window, short
    decimals, the grids k * 1e-3 and k * 1e-4, integers up to 1e17,
    doubles of every exponent the window holds, and the specials."""
    rng = np.random.default_rng(17)
    ties = [1 + 2.0 ** -17]
    for d in range(-3, 16):  # k * 2**(d - 18), k odd, in [10**(d-1), 10**d): 18 digits
        lo, hi = int(10.0 ** (d - 1) * 2 ** (18 - d)), int(10.0 ** d * 2 ** (18 - d))
        ties += [(2 * k + 1) * 2.0 ** (d - 18) for k in rng.integers(lo // 2, hi // 2, 50)]
    tens = np.array([float(10 ** k) for k in range(309)] + [1 / 10 ** k for k in range(1, 324)])
    edges = [float(f"{m}e{e}") for m in (1, 2, 5, 9.9) for e in range(-101, -97)]
    edges += [-x for x in edges]
    # short decimals: about a third of them print with their own digits only
    short = [float(f"{m}e{e}") for e in range(-110, 110)
             for m in (3, 25, *(int("123456789987654"[:s]) for s in range(3, 16)))]
    grids = np.arange(100_001) * np.array([[1e-3], [1e-4]])
    ints = [*rng.integers(0, 10 ** 17, 20_000).astype(float),
            *(10.0 ** k + j for k in range(18) for j in (-1, 0, 1))]
    spread = rng.standard_normal(20_000) * 10.0 ** rng.integers(-105, 105, 20_000)
    special = [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
               1.7976931348623157e308, np.inf, np.nan]
    x = np.concatenate([ties, tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
                        edges, short, grids.ravel(), ints, spread, special])
    return np.concatenate([x, -x])


def test_formatter_matches_format_on_structured_doubles():
    x = structured_doubles()
    for block in np.array_split(x, 30):
        assert exact_text(block) == reference_text(block)
    code, _ = cli._exact_digits(x)
    # every layout, the fallback and both zeros
    assert set(code.tolist()) == set(range(113))


FALLBACK = {
    "exact tie": [1 + 2.0 ** -17, 1 + 3 * 2.0 ** -17, -(2 ** 16 + 2.0 ** -13)],
    "|E| > 99": [9e-100, 5e-100, 1.01e100, -2e100, 1e300],
    "subnormal": [5e-324, -2.2250738585072009e-308],
    "inf and nan": [np.inf, -np.inf, np.nan],
    "below 10**16 units": [1e23, -1e23],  # log10 rounds 9.99...e22 up to 23
}


@pytest.mark.parametrize("why", FALLBACK)
def test_fallback_takes_the_numbers_whose_digits_are_uncertain(why):
    code, args = cli._exact_digits(np.array(FALLBACK[why]))
    assert (code == 110).all() and len(args) == 0
    assert exact_text(FALLBACK[why]) == reference_text(FALLBACK[why])


def test_zeros_take_their_own_layouts():
    """+0 and -0 print as ``0`` and ``-0`` from a layout of their own,
    with no integer and no per-number fallback, beside other numbers."""
    x = np.array([0.0, -0.0, 1.5, -0.0, 0.0, 0.0, -2.5e-7, -0.0])
    code, args = cli._exact_digits(x)
    assert code[x == 0].tolist() == [111, 112, 112, 111, 111, 112]
    # 1.5 takes two integers and -2.5e-7 three; a zero takes none
    assert (code != 110).all() and len(args) == 5
    assert exact_text(x) == reference_text(x)
    block = np.where(np.random.default_rng(3).random(500) < 0.5, 0.0, -0.0)
    assert (cli._exact_digits(block)[0] >= 111).all()
    assert exact_text(block) == reference_text(block)


def test_exponent_window_holds_99_and_not_100():
    inside = np.array([2e-99, 5e-99, -2e-99, 1.5e99, 9.9e99, -9.9e99])
    code, _ = cli._exact_digits(inside)
    assert (code != 110).all()
    assert exact_text(inside) == reference_text(inside)


@pytest.mark.parametrize("shift", [-1, 1])
def test_log10_off_by_one_falls_back(monkeypatch, shift):
    """With E one too small, N reaches 10**17; one too large, N stays
    below 10**16: either way the number falls back and prints right."""
    x = np.random.default_rng(5).standard_normal(2000) * 10.0 ** np.arange(-40, 40, 0.04)
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    code, args = cli._exact_digits(x)
    assert (code == 110).all() and len(args) == 0
    assert exact_text(x) == reference_text(x)


def test_validate_builds_no_formatting_table(scenario_dir, capsys):
    cli._digit_tables.cache_clear()
    assert cli.main(["validate", str(scenario_dir / "nested_pair.json")]) == 0
    assert cli._digit_tables.cache_info().currsize == 0


class _FailingFile:
    """Text file that writes half of its ``fail_at``-th write and then
    raises ENOSPC, as a full disk would, or the given exception."""

    def __init__(self, fh, fail_at: int, exc: BaseException | None = None):
        self.fh, self.fail_at, self.calls = fh, fail_at, 0
        self.exc = exc or OSError(errno.ENOSPC, "No space left on device")

    def write(self, text: str) -> int:
        self.calls += 1
        if self.calls == self.fail_at:
            self.fh.write(text[:len(text) // 2])
            self.fh.flush()
            raise self.exc
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


@pytest.mark.parametrize("where, exc", [
    ("helper", None), ("writer", None), ("writer", KeyboardInterrupt()),
])
def test_failed_split_write_keeps_old_output_and_leaves_no_process(
    tmp_path, scenario_dir, monkeypatch, capsys, where, exc
):
    """A helper or the writer itself fails half-way through its part: the
    old outputs stay, no temp or part file is left, every helper is
    reaped, and ENOSPC is one stderr line and exit code 2."""
    config = scenario_dir / "nested_pair.json"
    assert cli.main(["run", str(config), "--out-dir", str(tmp_path)]) == 0
    outputs = sorted(tmp_path.iterdir())
    for path in outputs:
        path.write_text(f"old {path.name}\n", encoding="utf-8")
    capsys.readouterr()

    writer, real_open = os.getpid(), open

    def failing_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        in_helper = os.getpid() != writer
        if ("nested_pair_trajectory.csv" in str(path) and "w" in mode
                and in_helper == (where == "helper")):
            return _FailingFile(fh, 2, exc)
        return fh

    # four CPUs: the CSV, staged while the leaf route runs, gets three
    force_split(monkeypatch, 4)
    started = count_helpers(monkeypatch)
    monkeypatch.setattr(cli, "CSV_BLOCK_NUMBERS", 64)  # several blocks a part
    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    if exc is None:
        assert cli.main(["run", str(config), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "No space left on device" in err[0]
    else:
        with pytest.raises(type(exc)):
            cli.main(["run", str(config), "--out-dir", str(tmp_path)])
    assert len(started) == 3  # the leaf-route helper and two CSV helpers
    assert sorted(tmp_path.iterdir()) == outputs
    for path in outputs:
        assert path.read_text(encoding="utf-8") == f"old {path.name}\n"
    assert no_child_left()


def test_usable_cpus_stop_at_the_measured_part_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    assert cli._usable_cpus() == cli.CSV_MAX_PARTS == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5})
    assert cli._usable_cpus() == 1


@pytest.fixture
def sigchld_ignored():
    """SIGCHLD ignored, as a parent may leave it across ``exec``: the
    kernel reaps every child as it exits."""
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    yield
    signal.signal(signal.SIGCHLD, previous)


def test_trajectory_writer_forks_no_helper_while_sigchld_is_ignored(
    tmp_path, monkeypatch, sigchld_ignored
):
    monkeypatch.setattr(cli, "CSV_SPLIT_NUMBERS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    started = count_helpers(monkeypatch)
    assert cli._usable_cpus() == 1
    traj = awkward_trajectory(LABELS, 37, seed=11)
    assert same_bytes(tmp_path, cli.write_trajectory_csv,
                      reference_write_trajectory_csv, traj)
    assert started == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new.csv", "ref.csv"]


def test_helpers_reaped_elsewhere_fail_the_write_and_leave_no_part_file(
    tmp_path, monkeypatch, sigchld_ignored
):
    """Helpers the kernel reaps itself leave no exit status to read: the
    write fails with ``ChildProcessError``, and every other helper is
    still killed and every part file removed."""
    force_split(monkeypatch, 3)
    started = count_helpers(monkeypatch)
    target = tmp_path / "new.csv"
    target.write_text("old\n", encoding="utf-8")
    with pytest.raises(ChildProcessError):
        cli.write_trajectory_csv(target, awkward_trajectory(LABELS, 37, seed=12))
    assert len(started) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["new.csv"]
    assert target.read_text(encoding="utf-8") == "old\n"
    assert no_child_left()


def test_jobs_workers_fork_no_helper_and_match_a_sequential_run(
    tmp_path, scenario_dir, monkeypatch
):
    """Every CSV is split and two CPUs are usable, yet a ``--jobs``
    worker forks no helper: the starter raises inside a helper, so a
    nested fork fails the run."""
    monkeypatch.setattr(cli, "CSV_SPLIT_NUMBERS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    started = count_helpers(monkeypatch)
    counted = cli._start_helper

    def guarded(task):
        if cli._in_helper:
            raise AssertionError("a --jobs worker forked a helper")
        return counted(task)

    monkeypatch.setattr(cli, "_start_helper", guarded)
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert cli.main(["run", str(scenario_dir), "--out-dir", str(serial)]) == 0
    # nested_pair's leaf-route helper, beside which its CSV is written on
    # the one CPU left, and single_wavelet's CSV helper
    assert len(started) == 2
    assert cli.main(["run", str(scenario_dir), "--out-dir", str(parallel),
                     "--jobs", "2"]) == 0
    assert len(started) == 4  # one worker per file
    assert not cli._in_helper
    names = sorted(p.name for p in serial.iterdir())
    assert names == sorted(p.name for p in parallel.iterdir()) and len(names) == 6
    for name in names:
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()
    assert leftovers(tmp_path) == []
    assert no_child_left()


def test_killed_jobs_worker_fails_the_run_in_one_line(
    tmp_path, scenario_dir, monkeypatch, capsys
):
    """The worker of ``single_wavelet`` dies by SIGKILL: one stderr line,
    exit 2, the other worker's outputs written and no process left."""
    run_file = cli.run_scenario_file

    def killed(path, *args):
        if path.name == "single_wavelet.json":
            os.kill(os.getpid(), signal.SIGKILL)
        return run_file(path, *args)

    monkeypatch.setattr(cli, "run_scenario_file", killed)
    code = cli.main(["run", str(scenario_dir), "--out-dir", str(tmp_path),
                     "--jobs", "2"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: --jobs worker 1 failed with status -{int(signal.SIGKILL)}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "nested_pair_energy.csv", "nested_pair_summary.json",
        "nested_pair_trajectory.csv"]
    assert leftovers(tmp_path) == []
    assert no_child_left()


def test_jobs_run_sequentially_with_the_same_bytes_while_sigchld_is_ignored(
    tmp_path, scenario_dir, monkeypatch, capsys
):
    forked = tmp_path / "forked"
    assert cli.main(["run", str(scenario_dir), "--out-dir", str(forked),
                     "--jobs", "2"]) == 0
    started = count_helpers(monkeypatch)
    inline = tmp_path / "inline"
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert cli.main(["run", str(scenario_dir), "--out-dir", str(inline),
                         "--jobs", "2"]) == 0
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert started == []
    # each run prints its two lines from this process, in file order
    assert [line.split(":")[1] for line in capsys.readouterr().out.splitlines()] == [
        " nested_pair.json", " single_wavelet.json"] * 2
    files = {p.name: p.read_bytes() for p in forked.iterdir()}
    assert files == {p.name: p.read_bytes() for p in inline.iterdir()}
    assert len(files) == 6
    assert leftovers(tmp_path) == []
    assert no_child_left()


@pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]], ids=["sequential", "jobs 2"])
def test_each_ok_line_is_printed_once_with_stdout_on_a_pipe(
    tmp_path, scenario_dir, jobs
):
    """With stdout block-buffered, a helper forked after a line is
    printed but not yet flushed would print it a second time, and a
    ``--jobs`` worker that does not flush before it exits would lose its
    lines.  Every CSV is split here, so each scenario forks."""
    code = (
        "import os, sys\n"
        "from ultracascade import cli\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "cli.CSV_SPLIT_NUMBERS = 1\n"
        "print('start')\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "run", str(scenario_dir),
         "--out-dir", str(tmp_path), *jobs],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert lines[0] == "start"
    assert sorted(line.split(":")[1] for line in lines[1:]) == [
        " nested_pair.json", " single_wavelet.json"]
    assert leftovers(tmp_path) == []
    assert len(list(tmp_path.iterdir())) == 6


def any_child() -> bool:
    """Whether this process has a child, running or exited, reaping none."""
    try:
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return False
    return True


def use_cpus(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_leaf_route_abort_in_the_helper_matches_the_inline_run(
    tmp_path, scenario_dir, monkeypatch, capsys, command
):
    """A ``SolverAbort`` of the leaf route in the helper comes back with
    its own type and message: exit 3 and the inline run's stderr line and
    stdout, and ``run`` writes no output."""
    sweep = uc.solver._leaf_sweep

    def steep_sweep(*args):  # the leaf route alone fails its step gauge
        rhs = sweep(*args)
        return lambda f: 1e4 * rhs(f)

    monkeypatch.setattr(uc.solver, "_leaf_sweep", steep_sweep)
    started = count_helpers(monkeypatch)
    seen = []
    for cpus in (2, 1):
        use_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        args = ["--out-dir", str(out)] if command == "run" else []
        code = cli.main([command, str(scenario_dir / "nested_pair.json"), *args])
        seen.append((code, *capsys.readouterr()))
        if command == "run":
            assert list(out.iterdir()) == []
        assert no_child_left()
    assert seen[0] == seen[1]
    code, out, err = seen[0]
    assert code == 3 and err.startswith("abort: ") and len(err.splitlines()) == 1
    assert len(out.splitlines()) == (2 if command == "oracle" else 0)
    assert len(started) == 1


@pytest.mark.parametrize("leaf", ["still running", "aborted too"])
def test_parent_abort_kills_and_reaps_the_leaf_route_helper(
    tmp_path, scenario_dir, monkeypatch, capsys, leaf
):
    """An rk abort in the parent wins over the leaf route, running or
    failed: rk's message, exit 3, no output, and the helper reaped at
    once."""
    def rk_abort(*args):
        raise uc.SolverAbort("rk route stopped")

    def leaf_route(*args):
        if leaf == "aborted too":
            raise uc.SolverAbort("leaf route stopped")
        time.sleep(60)

    monkeypatch.setattr(cli, "solve_rk", rk_abort)
    monkeypatch.setattr(cli, "leaf_route", leaf_route)
    use_cpus(monkeypatch, 2)
    started = count_helpers(monkeypatch)
    begin = time.monotonic()
    code = cli.main(["run", str(scenario_dir / "nested_pair.json"),
                     "--out-dir", str(tmp_path)])
    assert time.monotonic() - begin < 30
    assert (code, capsys.readouterr().err) == (3, "abort: rk route stopped\n")
    assert len(started) == 1 and list(tmp_path.iterdir()) == []
    assert no_child_left()


def test_killed_leaf_route_helper_fails_the_run_in_one_line(
    tmp_path, scenario_dir, monkeypatch, capsys
):
    monkeypatch.setattr(cli, "leaf_route",
                        lambda *args: os.kill(os.getpid(), signal.SIGKILL))
    use_cpus(monkeypatch, 2)
    code = cli.main(["run", str(scenario_dir / "nested_pair.json"),
                     "--out-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: leaf-route helper failed with status -{int(signal.SIGKILL)}\n")
    assert list(tmp_path.iterdir()) == []
    assert no_child_left()


class KilledWhilePickled:
    """Kills the process that pickles it, part of the way into a stream."""

    def __reduce__(self):
        os.kill(os.getpid(), signal.SIGKILL)


def test_helper_killed_while_sending_fails_with_its_status():
    """A stream cut short by a killed helper, after 512 KiB of it went
    through the pipe, is no unpickling error: the join reaps the helper
    and raises the status line."""
    task = lambda: [np.zeros(1 << 16), KilledWhilePickled()]  # noqa: E731
    with pytest.raises(OSError) as raised:
        with cli._helpers([("cut helper", task)]) as done:
            next(done)
    assert str(raised.value) == f"cut helper failed with status -{int(signal.SIGKILL)}"
    assert no_child_left()


@pytest.mark.parametrize("fallback", ["one usable CPU", "SIGCHLD ignored"])
def test_leaf_route_inline_fallbacks_write_the_same_bytes(
    tmp_path, scenario_dir, monkeypatch, fallback
):
    """The inline leaf route writes the forked run's bytes; ``--jobs``
    workers are checked by the test above."""
    def outputs(name: str) -> dict[str, bytes]:
        out = tmp_path / name
        assert cli.main(["run", str(scenario_dir), "--out-dir", str(out)]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    started = count_helpers(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forked = outputs("forked")
    assert len(started) == 1  # nested_pair's leaf route; no CSV is split
    if fallback == "one usable CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        inline = outputs("inline")
    else:
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            inline = outputs("inline")
        finally:
            signal.signal(signal.SIGCHLD, previous)
    assert len(started) == 1 and inline == forked and len(forked) == 6
    assert no_child_left()


def test_oracle_prints_the_same_lines_with_the_leaf_route_forked(
    scenario_dir, monkeypatch, capsys
):
    started = count_helpers(monkeypatch)
    printed = []
    for cpus in (2, 1):
        use_cpus(monkeypatch, cpus)
        assert cli.main(["oracle", str(scenario_dir / "nested_pair.json")]) == 0
        printed.append(capsys.readouterr())
    assert printed[0] == printed[1] and len(printed[0].out.splitlines()) == 3
    assert len(started) == 1
    assert no_child_left()


def test_forked_leaf_route_join_holds_the_trajectory_once(monkeypatch):
    """The helper pickles its trajectory with protocol 5 and the join
    unpickles it straight from the pipe, so the join holds the values
    once, not a pickle beside them.  They are larger than a 64 KiB pipe
    buffer, so the helper blocks on the pipe until the join reads."""
    raw = {
        "tree": {"p": 2, "depth": 6},
        "interaction": {"type": "power", "a": [1.0, 0.0], "b": 1.0},
        "dissipation": {"type": "power", "a": [1.0, 0.0], "b": 0.0},
        "initial": {"wavelets": [["", 0, 0.5, 0.0], ["0.1", 0, 0.2, 0.1]]},
        "t_end": 0.2,
        "dt": 0.001,
    }
    scen = uc.build_scenario(uc.parse_config(raw))
    use_cpus(monkeypatch, 2)
    started = count_helpers(monkeypatch)
    with cli._leaf_route_beside(scen) as leaf:
        tracemalloc.start()
        try:
            traj = leaf()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(started) == 1 and no_child_left()
    assert traj.values.nbytes > 1 << 16
    assert peak < 1.5 * traj.values.nbytes, peak / traj.values.nbytes
    inline = uc.solver.leaf_route(scen.system, scen.v0, raw["t_end"], raw["dt"])
    assert traj.values.tobytes() == inline.values.tobytes()
    assert traj.metadata == inline.metadata and traj.labels == inline.labels


def test_leaf_route_helper_is_reaped_before_the_csv_helpers_start(
    tmp_path, scenario_dir, monkeypatch
):
    """At two usable CPUs no CSV helper runs beside the leaf-route helper:
    a recurrent canonical CSV is written beside it in this process, a
    leaf one after the join, by this process and a CSV helper."""
    force_split(monkeypatch, 2)
    child_at_start, start = [], cli._start_helper

    def checked(task):
        child_at_start.append(any_child())
        return start(task)

    monkeypatch.setattr(cli, "_start_helper", checked)
    # nested_pair with the leaf route canonical, still checked against the
    # other two routes
    raw = json.loads((scenario_dir / "nested_pair.json").read_text(encoding="utf-8"))
    leaf = tmp_path / "nested_leaf.json"
    leaf.write_text(json.dumps({**raw, "solver": "leaf",
                                "oracles": {"check_cross": True}}), encoding="utf-8")
    for config, helpers in [(scenario_dir / "nested_pair.json", 1), (leaf, 2)]:
        child_at_start.clear()
        assert cli.main(["run", str(config), "--out-dir", str(tmp_path / "out")]) == 0
        # the leaf-route helper, then for the leaf route one CSV helper:
        # each with no other child
        assert child_at_start == [False] * helpers
        assert no_child_left()


@pytest.mark.parametrize("leaf", ["forked", "inline"])
@pytest.mark.parametrize("kind", ["energy", "summary"])
def test_failed_write_after_the_trajectory_is_staged_keeps_the_old_set(
    tmp_path, scenario_dir, monkeypatch, capsys, kind, leaf
):
    """ENOSPC on the energy or summary write, once the new trajectory CSV
    is written in full: all three old outputs keep their bytes, no temp
    file is left and every helper is reaped."""
    config = scenario_dir / "nested_pair.json"
    assert cli.main(["run", str(config), "--out-dir", str(tmp_path)]) == 0
    old = {p.name: p.read_bytes() + b"old\n" for p in tmp_path.iterdir()}
    for name, data in old.items():
        (tmp_path / name).write_bytes(data)
    capsys.readouterr()

    staged, real_open = [], open

    def failing_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        if "w" not in mode:
            return fh
        if "nested_pair_trajectory.csv" in str(path):
            staged.append(path)
        elif f"nested_pair_{kind}." in str(path):
            assert staged  # the trajectory CSV comes first
            return _FailingFile(fh, 1)
        return fh

    use_cpus(monkeypatch, 2 if leaf == "forked" else 1)
    started = count_helpers(monkeypatch)
    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    assert cli.main(["run", str(config), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "No space left on device" in err[0]
    assert len(started) == (1 if leaf == "forked" else 0)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == old
    assert leftovers(tmp_path) == []
    assert no_child_left()


def test_csv_and_summary_replace_existing_files(tmp_path, scenario_dir):
    config = scenario_dir / "single_wavelet.json"
    assert cli.main(["run", str(config), "--out-dir", str(tmp_path)]) == 0
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    for name in first:
        (tmp_path / name).write_text("stale\n", encoding="utf-8")
    assert cli.main(["run", str(config), "--out-dir", str(tmp_path)]) == 0
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == first
