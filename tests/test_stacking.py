"""Stacked right-hand sides and the stacked rk4 march.

Both right-hand sides take (m, n) stacks of rows as m disjoint copies of
their layout side by side, and ``_integrate`` advances a step pair's
independent stage chains as the rows of one stack.  Every row must get
the values of a one-row evaluation bit for bit, so every trajectory,
step-error estimate and abort stays what a one-row march gives.
"""

import json

import numpy as np
import pytest

import ultracascade as uc
from ultracascade import cli, solver
from ultracascade.solver import _coefficient_rhs, _integrate, _leaf_sweep

from conftest import dissipative_kernel, random_initial


def _random_trees(seed: int, count: int):
    """Seeded trees with branching 2..13 and non-uniform leaf measures."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield rng, uc.random_tree(rng, max_leaves=150, max_branch=13,
                                  max_depth=5)


def _one_row_gather_sum(system, y):
    """The coefficient right-hand side on one slot vector, written out as
    a plain (K, N) gather-sum."""
    vertex = system.basis.slot_vertex
    drive = y.take(np.ascontiguousarray(system.anc_slot[:, vertex]))
    drive *= np.ascontiguousarray(system.weight[:, vertex])
    return -y * (system.eta[vertex] + drive.sum(axis=0))


def _one_row_leaf_sweep(tree, interaction, dissipation, f):
    """The leaf sweep on one leaf-value vector, written out on the tree's
    own layout: 1-D cumsums, f - f[0] and (D, V) root-path sums."""
    nu = tree.measure[tree.leaves]
    start = tree.leaf_ranges[:, 0].astype(np.intp)
    end = tree.leaf_ranges[:, 1].astype(np.intp)
    up = np.maximum(tree.parent, 0).astype(np.intp)
    paths = np.ascontiguousarray(tree.root_path_table().T)
    leaf_paths = np.ascontiguousarray(paths[:, tree.leaves])
    k_f = interaction.values

    def subtree_sums(w):
        prefix = np.concatenate(([0j], np.add.accumulate(w)))
        return prefix[end] - prefix[start]

    phi = subtree_sums(f * nu)
    inner = k_f * phi + (k_f[up] * (phi[up] - phi))[paths].sum(axis=0)
    kappa_up = inner[up] - dissipation.values[up]
    g = f - f[0]
    big_g = subtree_sums(g * nu)
    d_nu = tree.measure[up] - tree.measure
    a = (kappa_up * d_nu)[leaf_paths].sum(axis=0)
    b = (kappa_up * (big_g[up] - big_g))[leaf_paths].sum(axis=0)
    return g * a - b


def _random_rows(rng, m, n):
    scale = rng.uniform(0.1, 3.0, (m, 1))
    return scale * (rng.uniform(-1, 1, (m, n)) + 1j * rng.uniform(-1, 1, (m, n)))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_leaf_sweep_rows_match_one_row_sweeps(m):
    for rng, tree in _random_trees(300 + m, 12):
        interaction = uc.random_kernel(tree, rng)
        dissipation = uc.random_kernel(tree, rng)
        sweep = _leaf_sweep(tree, interaction, dissipation)
        rows = _random_rows(rng, m, tree.n_leaves)
        if m > 1:
            # a constant row keeps its exact zero beside other rows
            rows[-1] = complex(*rng.uniform(-2.0, 2.0, 2))
        got = sweep(rows)
        assert got.shape == rows.shape
        for row, out in zip(rows, got):
            assert np.array_equal(
                out, _one_row_leaf_sweep(tree, interaction, dissipation, row))
            assert np.array_equal(out, sweep(row))
        if m > 1:
            assert np.all(got[-1] == 0)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_coefficient_rhs_rows_match_one_row_calls(m):
    for rng, tree in _random_trees(310 + m, 12):
        basis = uc.build_basis(tree)
        system = uc.assemble(tree, basis, uc.random_kernel(tree, rng),
                             dissipative_kernel(tree, rng))
        rhs = _coefficient_rhs(system)
        rows = _random_rows(rng, m, system.n_slots)
        got = rhs(rows)
        assert got.shape == rows.shape
        for row, out in zip(rows, got):
            assert np.array_equal(out, _one_row_gather_sum(system, row))
            assert np.array_equal(out, rhs(row))


def _route(name, seed):
    """(rhs, y0) of the rk or the leaf route on a seeded random problem."""
    rng = np.random.default_rng(seed)
    tree = uc.random_tree(rng, max_leaves=60, max_branch=13, max_depth=4)
    basis = uc.build_basis(tree)
    interaction = uc.random_kernel(tree, rng, max_abs=0.8)
    dissipation = dissipative_kernel(tree, rng)
    v0 = random_initial(basis, rng, density=1.0)
    if name == "rk":
        system = uc.assemble(tree, basis, interaction, dissipation)
        return _coefficient_rhs(system), v0.dense()
    return _leaf_sweep(tree, interaction, dissipation), uc.synthesize(v0).values


@pytest.mark.parametrize("route", ["rk", "leaf"])
def test_integrate_stacks_a_steps_rows_below_stage_block(route, monkeypatch):
    rhs, y0 = _route(route, 331)
    n, dt = len(y0), 1e-2
    # an even step count is pairs only; an odd one ends in one step retaken
    # as two half steps
    for steps in (6, 7):
        grid = np.arange(steps + 1) * dt
        runs = {}
        # two rows of n values fit the block exactly, and then do not
        for block in (2 * n, 2 * n - 1):
            shapes = []

            def counted(y):
                shapes.append(y.shape)
                return rhs(y)

            monkeypatch.setattr(solver, "STAGE_BLOCK", block)
            runs[block] = _integrate(counted, y0, grid, dt), shapes
        (stacked, est), shapes = runs[2 * n]
        (one_row, est_one_row), one_row_shapes = runs[2 * n - 1]
        assert np.array_equal(stacked, one_row)
        assert est == est_one_row > 0
        # 8 calls and 11 rows a pair: the shared first stage, three calls
        # of the first step's stages beside the 2h step's, then the second
        # step; the odd last step stacks its first half step the same way
        assert set(shapes) == {(n,), (2, n)}
        rows = [1 if shape == (n,) else 2 for shape in shapes]
        assert rows == [1, 2, 2, 2, 1, 1, 1, 1] * -(-steps // 2)
        assert sum(rows) == 11 * -(-steps // 2)
        # above the block: 11 single-row calls a pair
        assert one_row_shapes == [(n,)] * (11 * -(-steps // 2))


def _abort_problem(case):
    """(tree, basis, interaction, dissipation, v0, dt) of a run that aborts."""
    if case == "mid-run step error":
        tree = uc.build_tree({"p": 3, "depth": 3})
        basis = uc.build_basis(tree)
        v0 = uc.WaveletField(basis, {s: 0.3 for s in basis.slots})
        return (tree, basis, uc.Kernel.power(tree, 0.5, 0.5),
                uc.Kernel.constant(tree, -40.0), v0, 1e-3)
    tree = uc.build_tree({"p": 2, "depth": 1})
    basis = uc.build_basis(tree)
    one = uc.Kernel.constant(tree, 1.0)
    if case == "first-step error":
        v0 = uc.WaveletField(basis, {(tree.root, 0): 1.0})
        return tree, basis, one, uc.Kernel.constant(tree, 5000.0), v0, 1e-2
    # growing dissipation: 1e6 e^{30 t} passes 1e12 before t = 1 while the
    # step-error gauge stays quiet
    v0 = uc.WaveletField(basis, {(tree.root, 0): 1e6})
    return tree, basis, one, uc.Kernel.constant(tree, -30.0), v0, 1e-4


# the messages of the march, each pair checked before the next starts;
# the bound is 0.001 * max(1, |y|) at the pair's end
ABORTS = {
    ("rk", "first-step error"):
        "step error estimate 3.865e+09 exceeds 5.8e+07 at t=0; dt=0.01 is too large",
    ("leaf", "first-step error"):
        "step error estimate 3.865e+09 exceeds 5.8e+07 at t=0; dt=0.01 is too large",
    ("rk", "mid-run step error"):
        "step error estimate 4.253e+05 exceeds 1.52e+05 at t=0.248; dt=0.001 is too large",
    ("leaf", "mid-run step error"):
        "step error estimate 2.465e+06 exceeds 8.82e+05 at t=0.248; dt=0.001 is too large",
    ("rk", "magnitude"): "solution magnitude exceeded 1e+12 near t=0.4606",
    ("leaf", "magnitude"): "solution magnitude exceeded 1e+12 near t=0.4606",
}


@pytest.mark.parametrize("stacked", [True, False], ids=["stacked", "one-row"])
@pytest.mark.parametrize("route, case", sorted(ABORTS))
def test_aborts_keep_the_step_by_step_messages(route, case, stacked,
                                               monkeypatch):
    if not stacked:
        monkeypatch.setattr(solver, "STAGE_BLOCK", 1)
    tree, basis, interaction, dissipation, v0, dt = _abort_problem(case)
    with pytest.raises(uc.SolverAbort) as info:
        if route == "rk":
            system = uc.assemble(tree, basis, interaction, dissipation)
            uc.solve_rk(system, v0, 1.0, dt)
        else:
            uc.solve_leaf(tree, interaction, dissipation, uc.synthesize(v0),
                          1.0, dt)
    assert str(info.value) == ABORTS[route, case]


@pytest.mark.filterwarnings("error")  # a RuntimeWarning would reach stderr
@pytest.mark.parametrize("stacked", [True, False], ids=["stacked", "one-row"])
@pytest.mark.parametrize("route", ["rk", "leaf"])
def test_non_finite_run_ends_in_one_abort_line(route, stacked, tmp_path,
                                               capsys, scenario_dir,
                                               monkeypatch):
    if not stacked:
        monkeypatch.setattr(solver, "STAGE_BLOCK", 1)
    raw = json.loads((scenario_dir / "single_wavelet.json").read_text(
        encoding="utf-8"))
    raw["dissipation"] = {"type": "power", "a": [-1e150, 0.0], "b": 0.0}
    raw["solver"] = route
    del raw["oracles"]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code = cli.main(["run", str(path), "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == cli.EXIT_ABORT
    assert captured.out == ""
    assert captured.err == (
        "abort: solution became non-finite near t=0; reduce dt\n"
    )
