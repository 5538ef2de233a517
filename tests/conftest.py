"""Shared fixtures, scenario generators, and the acceptance summary hook.

The acceptance tests register a one-line verdict each; the hook prints
them as a block at the end of the pytest run so the whole gate is
readable at a glance.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import ultracascade as uc

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(name: str, passed: bool, detail: str) -> None:
    ACCEPTANCE_LINES.append(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance summary")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def dissipative_kernel(tree: uc.BallTree, rng: np.random.Generator) -> uc.Kernel:
    """Random kernel with positive real part: decaying linear dynamics."""
    re = rng.uniform(0.3, 1.2, tree.n_vertices)
    im = rng.uniform(-0.4, 0.4, tree.n_vertices)
    return uc.Kernel(tree, re + 1j * im)


def random_initial(
    basis: uc.WaveletBasis,
    rng: np.random.Generator,
    max_abs: float = 0.7,
    density: float = 0.8,
) -> uc.WaveletField:
    """Random coefficients on a random subset of slots, |value| <= max_abs."""
    scale = max_abs / np.sqrt(2.0)
    data: dict[tuple[int, int], complex] = {}
    for slot in basis.slots:
        if rng.random() < density:
            data[slot] = complex(
                rng.uniform(-1.0, 1.0) * scale, rng.uniform(-1.0, 1.0) * scale
            )
    if not data:
        data[basis.slots[int(rng.integers(basis.n_slots))]] = 0.5 + 0j
    return uc.WaveletField(basis, data)


def random_mean_zero_field(
    tree: uc.BallTree, rng: np.random.Generator, max_abs: float = 1.0
) -> uc.LeafField:
    """Random complex leaf values with the weighted mean subtracted."""
    raw = rng.uniform(-1, 1, tree.n_leaves) + 1j * rng.uniform(-1, 1, tree.n_leaves)
    raw *= max_abs / np.sqrt(2.0)
    nu = tree.measure[tree.leaves]
    raw -= (raw @ nu) / tree.total_measure
    return uc.LeafField(tree, raw)


def nested_pair_closed_form(eta_outer, eta_inner, weight, v_outer0, v_inner0, grid):
    """Exact two-slot solution: a free outer mode driving one inner mode.

    The outer coefficient decays freely; the inner one picks up the time
    integral of the outer in its exponent, weighted by the coupling.  A
    zero outer rate is the analytic limit where that integral is linear
    in t.
    """
    grid = np.asarray(grid, dtype=np.float64)
    outer = v_outer0 * np.exp(-eta_outer * grid)
    if eta_outer == 0:
        integral = v_outer0 * grid
    else:
        integral = v_outer0 * (1.0 - np.exp(-eta_outer * grid)) / eta_outer
    inner = v_inner0 * np.exp(-eta_inner * grid - weight * integral)
    return outer, inner


def dense_coupling_matrix(system: uc.CascadeSystem) -> np.ndarray:
    """Dense (slot, slot) weight matrix W built from the padded arrays, so
    that the coefficient right-hand side is -v * (eta + W @ v).  Padding
    entries add an exact 0."""
    vertex = system.basis.slot_vertex
    W = np.zeros((system.n_slots, system.n_slots), dtype=np.complex128)
    rows = np.arange(system.n_slots)
    for anc, w in zip(system.anc_slot[:, vertex], system.weight[:, vertex]):
        np.add.at(W, (rows, anc), w)
    return W


def _reference_fmt(x: float) -> str:
    return format(float(x), ".17g")


def reference_write_trajectory_csv(path: Path, traj: uc.Trajectory) -> None:
    """The CSV writers' reference: one ``format`` call per number."""
    order = sorted(range(len(traj.labels)), key=lambda i: traj.labels[i])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(
            "t" + "".join(
                f",{traj.labels[i]}.re,{traj.labels[i]}.im" for i in order
            ) + "\n"
        )
        for k in range(len(traj.grid)):
            parts = [_reference_fmt(traj.grid[k])]
            for i in order:
                z = traj.values[k, i]
                parts.append(_reference_fmt(z.real))
                parts.append(_reference_fmt(z.imag))
            fh.write(",".join(parts) + "\n")


def reference_write_energy_csv(path: Path, rows: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,depth,energy\n")
        for t, depth, energy in rows:
            fh.write(f"{_reference_fmt(t)},{int(depth)},{_reference_fmt(energy)}\n")


def depth2_example() -> tuple[uc.BallTree, uc.WaveletBasis, uc.Kernel, uc.Kernel]:
    """Binary depth-2 uniform tree with the bump-at-one-child interaction
    kernel and unit dissipation; the standard small worked setup."""
    tree = uc.build_tree({"p": 2, "depth": 2, "A": 1.0, "q": 2.0})
    basis = uc.build_basis(tree)
    entries = [(lab, 1.0, 0.0) for lab in tree.labels]
    entries[1] = ("0", 2.0, 0.0)
    interaction = uc.Kernel.from_table(tree, entries)
    dissipation = uc.Kernel.constant(tree, 1.0)
    return tree, basis, interaction, dissipation


@pytest.fixture(scope="session")
def scenario_dir() -> Path:
    return Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="session")
def sweep_corpus():
    """Twenty random trees, each with a basis and five random kernels.

    Shared by the oracle sweeps so the eigenvalue and interaction checks
    run over the same inputs.
    """
    rng = np.random.default_rng(20260819)
    corpus = []
    for _ in range(20):
        tree = uc.random_tree(rng, max_leaves=100)
        basis = uc.build_basis(tree)
        kernels = [uc.random_kernel(tree, rng) for _ in range(5)]
        corpus.append((tree, basis, kernels))
    return corpus


@pytest.fixture(scope="session")
def triangle_runs():
    """Ten random shallow scenarios solved by all three paths.

    Returns (system, v0, trajectories, disagreement) tuples; used both for
    the solver agreement check and for the localization check.
    """
    rng = np.random.default_rng(4257)
    runs = []
    for _ in range(10):
        tree = uc.random_tree(rng, max_leaves=30, max_depth=3)
        basis = uc.build_basis(tree)
        interaction = uc.random_kernel(tree, rng, max_abs=0.8)
        dissipation = dissipative_kernel(tree, rng)
        system = uc.assemble(tree, basis, interaction, dissipation)
        v0 = random_initial(basis, rng)
        trajectories, disagreement = uc.solve_all(system, v0, 1.0, 1e-3)
        runs.append((system, v0, trajectories, disagreement))
    return runs
