"""Cascade system assembly and the three solver routes."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import ultracascade as uc
from ultracascade import oracles, solver
from ultracascade.solver import (
    STEP_ERROR_TOL,
    _coefficient_rhs,
    complex_products,
    leaf_route,
)

from conftest import (
    chain_closed_form,
    dense_coupling_matrix,
    depth2_example,
    dissipative_kernel,
    nested_pair_closed_form,
    random_initial,
    random_mean_zero_field,
    slot_field,
)


def test_time_grid_shape_and_spacing():
    grid = uc.time_grid(1.0, 1e-3)
    assert len(grid) == 1001
    assert grid[0] == 0.0
    assert grid[1] == 1e-3
    assert grid[-1] == pytest.approx(1.0, rel=1e-12)
    assert len(uc.time_grid(2.5, 0.5)) == 6


def test_time_grid_rejects_bad_steps():
    with pytest.raises(ValueError, match="does not divide"):
        uc.time_grid(1.0, 0.3)
    with pytest.raises(ValueError, match="positive"):
        uc.time_grid(0.0, 0.1)
    with pytest.raises(ValueError, match="positive"):
        uc.time_grid(1.0, -0.1)


def test_assemble_constant_interaction_has_no_couplings():
    rng = np.random.default_rng(211)
    tree = uc.random_tree(rng, max_leaves=40)
    basis = uc.build_basis(tree)
    system = uc.assemble(
        tree, basis, uc.Kernel.constant(tree, 2.0 - 0.5j), dissipative_kernel(tree, rng)
    )
    assert system.n_couplings == 0
    assert np.all(system.weight == 0)
    assert np.all(dense_coupling_matrix(system) == 0)


def test_complex_products_match_python_complex_products_bit_for_bit():
    """``assemble``'s weights are the products Python's complex type gives:
    magnitudes spanning e^+-30, signed zeros, subnormals, products that
    overflow to inf and factors with a zero imaginary part."""
    rng = np.random.default_rng(307)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -3e-320,
                        1e308, -1.7976931348623157e308])

    def factors(n: int) -> np.ndarray:
        parts = np.exp(rng.uniform(-30.0, 30.0, (n, 2))) * rng.choice([-1.0, 1.0], (n, 2))
        pick = rng.random((n, 2)) < 0.15
        parts[pick] = rng.choice(special, pick.sum())
        parts[rng.random(n) < 1 / 7, 1] = 0.0
        return parts.view(np.complex128)[:, 0]

    a, b = factors(100_000), factors(100_000)
    with np.errstate(all="ignore"):
        got = complex_products(a, b)
    want = np.array([x * y for x, y in zip(a.tolist(), b.tolist())], dtype=np.complex128)
    assert np.isinf(want).any() and np.isnan(want).any()
    assert (want.view(np.uint64) == 0x8000000000000000).any()  # a -0.0 part
    assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()


def test_assemble_depth_one_decay_rate():
    tree = uc.build_tree({"children": [{"measure": 0.4}, {"measure": 0.6}]})
    basis = uc.build_basis(tree)
    dis = uc.Kernel.constant(tree, 3.0 + 1.0j)
    system = uc.assemble(tree, basis, uc.Kernel.constant(tree, 1.0), dis)
    assert system.n_couplings == 0
    assert system.eta[tree.root] == (3.0 + 1.0j) * 1.0


def _pairwise_column(basis, interaction, v):
    """Ball v's couplings by the scalar formulas: (slot, weight) pairs
    from parent to root, wavelet index ascending."""
    tree = basis.tree
    column = []
    for anc in oracles.ancestors(tree, v):
        coeff = uc.interaction_coefficient(interaction, anc, v)
        for jp in range(tree.n_children(anc) - 1):
            w = uc.ancestor_value(basis, anc, jp, v) * coeff
            column.append((basis.slot_of(anc, jp), w))
    return column


def test_assemble_couplings_match_pairwise_formula():
    rng = np.random.default_rng(223)
    branchings = set()
    for i in range(8):
        # odd rounds: complex roots-of-unity wavelets on equal splits
        tree = uc.random_tree(rng, max_leaves=40, min_branch=2, max_branch=4,
                              equal_split=bool(i % 2))
        basis = uc.build_basis(tree, ("gram-schmidt", "roots-of-unity")[i % 2])
        interaction = uc.random_kernel(tree, rng)
        system = uc.assemble(
            tree, basis, interaction, dissipative_kernel(tree, rng)
        )
        width = system.weight.shape[0]
        for s, (v, _) in enumerate(basis.slots):
            branchings.add(tree.n_children(v))
            expected = _pairwise_column(basis, interaction, v)
            pad = [(0, 0j)] * (width - len(expected))
            got = list(zip(system.anc_slot[:, s].tolist(),
                           system.weight[:, s].tolist()))
            # bit for bit, signed zeros included
            assert [s for s, _ in got] == [s for s, _ in expected + pad]
            assert np.array_equal(
                np.array([w for _, w in got], dtype=complex).view(np.float64),
                np.array([w for _, w in expected + pad], dtype=complex
                         ).view(np.float64),
            )
    # mixed branching exercises padding of different widths
    assert branchings == {2, 3, 4}


def test_assemble_lays_each_balls_column_on_every_slot():
    """Branching 2..13 on both bases, with non-uniform measures where the
    basis allows them: the (K, N) arrays are C-contiguous, every slot's
    column is its ball's pairwise-formula list bit for bit (signed zeros
    included), so all slots of a ball hold equal columns, and
    ``n_couplings`` counts the nonzero scalar weights once per ball."""
    rng = np.random.default_rng(229)
    branchings = set()
    for i in range(12):
        tree = uc.random_tree(rng, max_leaves=150, max_branch=13, max_depth=4,
                              equal_split=bool(i % 2))
        basis = uc.build_basis(tree, ("gram-schmidt", "roots-of-unity")[i % 2])
        interaction = uc.random_kernel(tree, rng)
        system = uc.assemble(tree, basis, interaction, dissipative_kernel(tree, rng))
        width = system.weight.shape[0]
        assert system.anc_slot.shape == (width, basis.n_slots)
        assert system.anc_slot.flags.c_contiguous and system.weight.flags.c_contiguous
        per_ball = 0
        for v in tree.internal.tolist():
            branchings.add(tree.n_children(v))
            column = _pairwise_column(basis, interaction, v)
            per_ball += sum(w != 0 for _, w in column)
            column += [(0, 0j)] * (width - len(column))
            want_slot = [s for s, _ in column]
            want_weight = np.array([w for _, w in column], dtype=complex)
            for j in range(tree.n_children(v) - 1):
                s = basis.slot_of(v, j)
                assert system.anc_slot[:, s].tolist() == want_slot
                assert system.weight[:, s].tobytes() == want_weight.tobytes()
        assert system.n_couplings == per_ball
    assert branchings == set(range(2, 14))


def test_coefficient_rhs_gathers_over_the_systems_own_arrays():
    """rk's right-hand side holds ``system.anc_slot`` and
    ``system.weight`` themselves, not a re-laid copy of them."""
    rng = np.random.default_rng(241)
    tree = uc.random_tree(rng, max_leaves=60, max_branch=6)
    basis = uc.build_basis(tree)
    system = uc.assemble(tree, basis, uc.random_kernel(tree, rng),
                         dissipative_kernel(tree, rng))
    held = [cell.cell_contents for cell in _coefficient_rhs(system).__closure__]
    held = [a for a in held if isinstance(a, np.ndarray)]
    assert any(np.shares_memory(a, system.anc_slot) for a in held)
    assert any(np.shares_memory(a, system.weight) for a in held)


def test_assemble_peak_stays_near_its_output():
    """p=2 depth 14: ``assemble`` writes every slot's column during its
    walk, so its traced peak stays under 1.7 times the bytes of the
    ``eta``, ``anc_slot`` and ``weight`` it returns."""
    rng = np.random.default_rng(271)
    tree = uc.build_tree({"p": 2, "depth": 14})
    basis = uc.build_basis(tree)
    interaction = uc.random_kernel(tree, rng)
    dissipation = dissipative_kernel(tree, rng)
    tracemalloc.start()
    try:
        system = uc.assemble(tree, basis, interaction, dissipation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = system.eta.nbytes + system.anc_slot.nbytes + system.weight.nbytes
    assert peak < 1.7 * output


def test_analyze_trajectory_peak_stays_near_its_output():
    """The projection runs in passes of at most ``RECURRENT_BLOCK``
    slot-steps: at p=2 depth 10 with 513 rows it traces at most 1.5 times
    its output, where one pass over every row traced 5 times."""
    tree = uc.build_tree({"p": 2, "depth": 10})
    basis = uc.build_basis(tree)
    rng = np.random.default_rng(241)
    shape = (513, tree.n_leaves)
    leaf = uc.LeafTrajectory(np.arange(513) * 1e-3, tree,
                             rng.normal(size=shape) + 1j * rng.normal(size=shape))
    tracemalloc.start()
    try:
        traj = uc.analyze_trajectory(leaf, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * traj.values.nbytes


@pytest.mark.parametrize("block", [1, 100, 10 ** 9])
def test_analyze_trajectory_passes_match_one_pass_bit_for_bit(monkeypatch, block):
    """Rows projected a few at a time, one at a time or all at once get
    the values of one ``analyze_array`` call on every row."""
    rng = np.random.default_rng(251)
    tree = uc.random_tree(rng, max_leaves=40)
    basis = uc.build_basis(tree)
    rows = np.stack([random_mean_zero_field(tree, rng).values for _ in range(23)])
    whole = basis.analyze_array(rows)
    monkeypatch.setattr(solver, "RECURRENT_BLOCK", block)
    leaf = uc.LeafTrajectory(np.arange(23.0), tree, rows)
    assert uc.analyze_trajectory(leaf, basis).values.tobytes() == whole.tobytes()


def test_coupling_matrix_is_triangular_in_depth():
    rng = np.random.default_rng(227)
    tree = uc.random_tree(rng, max_leaves=30)
    basis = uc.build_basis(tree)
    system = uc.assemble(
        tree, basis, uc.random_kernel(tree, rng), dissipative_kernel(tree, rng)
    )
    W = dense_coupling_matrix(system)
    for i, (vi, _) in enumerate(basis.slots):
        for a, (va, _) in enumerate(basis.slots):
            if W[i, a] != 0:
                assert oracles.is_strict_ancestor(tree, va, vi)


def test_assemble_rejects_foreign_pieces():
    tree, basis, interaction, dissipation = depth2_example()
    other = uc.build_tree({"p": 3, "depth": 1})
    with pytest.raises(ValueError, match="tree"):
        uc.assemble(other, basis, uc.Kernel.constant(other, 1.0),
                    uc.Kernel.constant(other, 1.0))
    with pytest.raises(ValueError, match="tree"):
        uc.assemble(tree, basis, uc.Kernel.constant(other, 1.0), dissipation)


def test_recurrent_single_mode_is_exact_exponential():
    tree, basis, interaction, dissipation = depth2_example()
    system = uc.assemble(tree, basis, interaction, dissipation)
    v0 = slot_field(basis, {(tree.root, 0): 0.8 - 0.3j})
    traj = uc.solve_recurrent(system, v0, 1.0, 1e-3)
    eta = system.eta[tree.root]
    expected = (0.8 - 0.3j) * np.exp(-eta * traj.grid)
    # the root slot has no couplings, so the closed form is reproduced
    # operation for operation
    assert np.array_equal(traj.column(tree.root, 0), expected)


def _per_vertex_recurrent(system, v0, t_end, dt):
    """Reference: the integrating-factor recursion one vertex at a time, in
    preorder, with scalar weights read from each ball's first slot."""
    grid = uc.time_grid(t_end, dt)
    v0vec = v0.values
    values = np.zeros((len(grid), system.n_slots), dtype=complex)
    for v in system.tree.internal:
        drive = np.zeros(len(grid), dtype=complex)
        first = system.basis.slot_of(int(v), 0)
        for a, w in zip(system.anc_slot[:, first], system.weight[:, first]):
            drive += complex(w) * values[:, a]
        integral = np.concatenate(
            ([0j], np.cumsum(float(dt) * (drive[1:] + drive[:-1]) / 2.0))
        )
        block = np.exp(-complex(system.eta[v]) * grid - integral)
        for j in range(system.tree.n_children(v) - 1):
            s = system.basis.slot_of(int(v), j)
            if v0vec[s] != 0:
                values[:, s] = v0vec[s] * block
    return values


def test_recurrent_matches_per_vertex_reference_bitwise():
    rng = np.random.default_rng(233)
    for _ in range(12):
        tree = uc.random_tree(rng, max_leaves=60, min_branch=2, max_branch=4)
        basis = uc.build_basis(tree)
        system = uc.assemble(
            tree, basis, uc.random_kernel(tree, rng, max_abs=0.8),
            dissipative_kernel(tree, rng),
        )
        v0 = random_initial(basis, rng, density=float(rng.uniform(0.1, 1.0)))
        for t_end, dt in ((0.5, 1e-2), (0.02, 1e-2)):
            traj = uc.solve_recurrent(system, v0, t_end, dt)
            want = _per_vertex_recurrent(system, v0, t_end, dt)
            assert traj.values.tobytes() == want.tobytes()


def test_recurrent_vertex_blocks_match_one_pass_per_depth(monkeypatch):
    rng = np.random.default_rng(239)
    trees = [uc.build_tree({"p": 3, "depth": 4})] + [
        uc.random_tree(rng, max_leaves=80, min_branch=2, max_branch=4)
        for _ in range(4)
    ]
    steps = 50
    for tree in trees:
        basis = uc.build_basis(tree)
        system = uc.assemble(
            tree, basis, uc.random_kernel(tree, rng, max_abs=0.8),
            dissipative_kernel(tree, rng),
        )
        v0 = random_initial(basis, rng, density=0.9)
        monkeypatch.setattr("ultracascade.solver.RECURRENT_BLOCK", 10 ** 9)
        whole = uc.solve_recurrent(system, v0, steps * 1e-2, 1e-2).values
        widest = np.bincount(tree.depth[tree.internal]).max()
        for per_pass in (1, 3):
            assert per_pass < widest  # some depth takes several passes
            monkeypatch.setattr("ultracascade.solver.RECURRENT_BLOCK",
                                per_pass * (steps + 1))
            blocked = uc.solve_recurrent(system, v0, steps * 1e-2, 1e-2).values
            assert blocked.tobytes() == whole.tobytes()


def test_zero_initial_stays_exactly_zero_everywhere():
    tree, basis, interaction, dissipation = depth2_example()
    system = uc.assemble(tree, basis, interaction, dissipation)
    v0 = uc.WaveletField(basis, np.zeros(basis.n_slots))
    for solver in (uc.solve_recurrent, uc.solve_rk):
        traj = solver(system, v0, 0.5, 1e-2)
        assert np.all(traj.values == 0)
    leaf = uc.solve_leaf(
        tree, interaction, dissipation, uc.LeafField.zero(tree), 0.5, 1e-2
    )
    assert np.all(leaf.values == 0)


def test_nested_pair_against_closed_form():
    tree, basis, interaction, dissipation = depth2_example()
    system = uc.assemble(tree, basis, interaction, dissipation)
    mid = tree.vertex("0")
    v0 = slot_field(basis, {(tree.root, 0): 0.6, (mid, 0): 0.5})
    weight = uc.ancestor_value(basis, tree.root, 0, mid) * uc.interaction_coefficient(
        interaction, tree.root, mid
    )
    eta_outer = system.eta[tree.root]
    eta_inner = system.eta[mid]
    grid = uc.time_grid(1.0, 1e-3)
    outer, inner = nested_pair_closed_form(
        eta_outer, eta_inner, weight, 0.6, 0.5, grid
    )
    rec = uc.solve_recurrent(system, v0, 1.0, 1e-3)
    rk = uc.solve_rk(system, v0, 1.0, 1e-3)
    assert np.abs(rec.column(tree.root, 0) - outer).max() <= 1e-12
    assert np.abs(rec.column(mid, 0) - inner).max() <= 1e-5
    assert np.abs(rk.column(mid, 0) - inner).max() <= 1e-6


# (tree spec, basis scheme, the chain's (vertex label, wavelet index)
# from outer to inner); the last tree has uneven branching and measures
CHAINS = [
    ({"p": 2, "depth": 3}, "gram-schmidt", [("", 0), ("0", 0), ("0.1", 0)]),
    ({"p": 3, "depth": 3}, "roots-of-unity", [("", 1), ("2", 0), ("2.0", 1)]),
    ({"children": [
        {"children": [
            {"children": [{"measure": 0.5}, {"measure": 1.0},
                          {"measure": 0.25}]},
            {"measure": 1.0}]},
        {"measure": 2.0}, {"measure": 0.5}]},
     "gram-schmidt", [("", 1), ("0", 0), ("0.0", 1)]),
]


@pytest.mark.parametrize("spec, scheme, chain", CHAINS,
                         ids=["p2", "p3-roots", "uneven"])
def test_routes_converge_to_the_three_level_chain(spec, scheme, chain):
    """Three nested live wavelets a > b > c, nothing else live: every
    route tends to the exact series solution, the recurrent route at
    second order in dt and the rk and leaf routes at fourth."""
    tree = uc.build_tree(spec)
    basis = uc.build_basis(tree, scheme)
    rng = np.random.default_rng(331)
    interaction = uc.random_kernel(tree, rng)
    dissipation = dissipative_kernel(tree, rng)
    system = uc.assemble(tree, basis, interaction, dissipation)
    vertices = [tree.vertex(label) for label, _ in chain]
    slots = [(v, j) for v, (_, j) in zip(vertices, chain)]
    eta = [uc.eigenvalue(dissipation, v) for v in vertices]
    assert len(set(eta)) == 3 and all(e.real > 0 and e.imag != 0 for e in eta)

    def weight(outer, inner):
        return uc.ancestor_value(basis, *slots[outer], vertices[inner]) * (
            uc.interaction_coefficient(interaction, vertices[outer],
                                       vertices[inner]))

    weights = (weight(0, 1), weight(0, 2), weight(1, 2))
    assert all(w.imag != 0 for w in weights)
    start = (0.8 - 0.3j, 0.6 + 0.4j, -0.5 + 0.5j)
    v0 = slot_field(basis, dict(zip(slots, start)))

    def deviation(traj):
        exact = chain_closed_form(eta, weights, start, traj.grid)
        return max(float(np.abs(traj.column(*slot) - v).max())
                   for slot, v in zip(slots, exact))

    routes = {"recurrent": (uc.solve_recurrent, 2), "rk": (uc.solve_rk, 4),
              "leaf": (leaf_route, 4)}
    for name, (solve, order) in routes.items():
        devs = [deviation(solve(system, v0, 1.0, dt))
                for dt in (0.04, 0.02, 0.01)]
        slopes = np.log2(np.divide(devs[:-1], devs[1:]))
        assert np.all(np.abs(slopes - order) < 0.05 * order), (name, devs)


def test_step_pair_gauge_estimates_the_kept_pairs_error():
    """One step pair from exact data on the nested-pair closed form: the
    gauge's estimate over the kept pair's true error tends to 1 as dt
    halves, as a Richardson estimate of fourth order does."""
    tree, basis, interaction, dissipation = depth2_example()
    system = uc.assemble(tree, basis, interaction, dissipation)
    mid = tree.vertex("0")
    v0 = slot_field(basis, {(tree.root, 0): 0.6, (mid, 0): 0.5})
    weight = uc.ancestor_value(basis, tree.root, 0, mid) * uc.interaction_coefficient(
        interaction, tree.root, mid
    )
    ratios = []
    for dt in (0.2, 0.1, 0.05, 0.025):
        rk = uc.solve_rk(system, v0, 2 * dt, dt)
        outer, inner = nested_pair_closed_form(
            system.eta[tree.root], system.eta[mid], weight, 0.6, 0.5, rk.grid
        )
        error = max(abs(rk.column(tree.root, 0)[-1] - outer[-1]),
                    abs(rk.column(mid, 0)[-1] - inner[-1]))
        ratios.append(rk.metadata["max_step_error"] / error)
    assert all(0.5 <= r <= 2.0 for r in ratios), ratios
    gaps = [abs(r - 1.0) for r in ratios]
    assert gaps == sorted(gaps, reverse=True) and gaps[-1] < 0.05, ratios


def test_solvers_are_bitwise_deterministic():
    tree, basis, interaction, dissipation = depth2_example()
    system = uc.assemble(tree, basis, interaction, dissipation)
    rng = np.random.default_rng(229)
    v0 = random_initial(basis, rng)
    for solver in (uc.solve_recurrent, uc.solve_rk):
        a = solver(system, v0, 1.0, 1e-2)
        b = solver(system, v0, 1.0, 1e-2)
        assert np.array_equal(a.values, b.values)
    f0 = uc.synthesize(v0)
    la = uc.solve_leaf(tree, interaction, dissipation, f0, 1.0, 1e-2)
    lb = uc.solve_leaf(tree, interaction, dissipation, f0, 1.0, 1e-2)
    assert np.array_equal(la.values, lb.values)


def test_rk_matches_recurrent_when_decoupled():
    rng = np.random.default_rng(233)
    tree = uc.random_tree(rng, max_leaves=30)
    basis = uc.build_basis(tree)
    system = uc.assemble(
        tree, basis, uc.Kernel.constant(tree, 1.0), dissipative_kernel(tree, rng)
    )
    v0 = random_initial(basis, rng)
    rec = uc.solve_recurrent(system, v0, 1.0, 1e-3)
    rk = uc.solve_rk(system, v0, 1.0, 1e-3)
    assert rec.sup_distance(rk) <= 1e-8


def test_rk_aborts_on_coarse_step():
    tree = uc.build_tree({"p": 2, "depth": 1})
    basis = uc.build_basis(tree)
    stiff = uc.Kernel.constant(tree, 5000.0)
    system = uc.assemble(tree, basis, uc.Kernel.constant(tree, 1.0), stiff)
    v0 = slot_field(basis, {(tree.root, 0): 1.0})
    with pytest.raises(uc.SolverAbort, match="step error"):
        uc.solve_rk(system, v0, 1.0, 1e-2)


def test_solvers_abort_on_blowup():
    tree = uc.build_tree({"p": 2, "depth": 1})
    basis = uc.build_basis(tree)
    growing = uc.Kernel.constant(tree, -30.0)
    system = uc.assemble(tree, basis, uc.Kernel.constant(tree, 1.0), growing)
    v0 = slot_field(basis, {(tree.root, 0): 1.0})
    # e^{30 t} passes 1e12 before t = 1
    with pytest.raises(uc.SolverAbort, match="exceeded"):
        uc.solve_recurrent(system, v0, 1.0, 1e-3)
    # dt small enough that the step-error gauge stays quiet and the
    # magnitude guard is what fires
    with pytest.raises(uc.SolverAbort, match="magnitude exceeded"):
        uc.solve_rk(system, v0, 1.0, 1e-4)


def test_rk_zero_slots_stay_exactly_zero():
    rng = np.random.default_rng(239)
    tree = uc.random_tree(rng, max_leaves=30, max_depth=3)
    basis = uc.build_basis(tree)
    system = uc.assemble(
        tree, basis, uc.random_kernel(tree, rng, max_abs=0.8),
        dissipative_kernel(tree, rng),
    )
    v0 = random_initial(basis, rng, density=0.5)
    traj = uc.solve_rk(system, v0, 1.0, 1e-2)
    dense0 = v0.values
    for s in range(system.n_slots):
        if dense0[s] == 0:
            assert np.all(traj.values[:, s] == 0)


def test_leaf_rhs_constant_field_is_exact_zero():
    rng = np.random.default_rng(241)
    for _ in range(10):
        tree = uc.random_tree(rng, max_leaves=30)
        interaction = uc.random_kernel(tree, rng)
        dissipation = uc.random_kernel(tree, rng)
        c = complex(*rng.uniform(-2.0, 2.0, 2))
        f = uc.LeafField(tree, np.full(tree.n_leaves, c))
        out = uc.leaf_rhs(tree, interaction, dissipation, f)
        assert np.all(out.values == 0)


def test_leaf_rhs_sweeps_match_dense_oracles():
    # random_tree draws non-uniform leaf measures and mixed branching 2..4
    rng = np.random.default_rng(271)
    for _ in range(40):
        tree = uc.random_tree(rng, max_leaves=100)
        interaction = uc.random_kernel(tree, rng)
        dissipation = uc.random_kernel(tree, rng)
        zero = uc.Kernel.constant(tree, 0.0)
        f = random_mean_zero_field(tree, rng, max_abs=float(rng.uniform(0.1, 3)))
        quad = -uc.interaction_integral_direct(interaction, f, f).values
        lin = -uc.apply_pdo_direct(dissipation, f).values
        f_abs = np.abs(f.values).max()
        mass = tree.total_measure
        quad_scale = np.abs(interaction.values).max() * f_abs ** 2 * mass ** 2
        lin_scale = np.abs(dissipation.values).max() * f_abs * mass
        only_quad = uc.leaf_rhs(tree, interaction, zero, f).values
        only_lin = uc.leaf_rhs(tree, zero, dissipation, f).values
        both = uc.leaf_rhs(tree, interaction, dissipation, f).values
        assert np.abs(only_quad - quad).max() <= 1e-13 * quad_scale
        assert np.abs(only_lin - lin).max() <= 1e-13 * lin_scale
        assert np.abs(both - quad - lin).max() <= 1e-13 * (quad_scale + lin_scale)


def test_leaf_route_never_calls_dense_oracles(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the leaf route called a dense oracle")

    for name in ("apply_pdo_direct", "interaction_integral_direct"):
        for module in (uc, uc.spectral, uc.solver):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    rng = np.random.default_rng(277)
    tree = uc.random_tree(rng, max_leaves=30, max_depth=3)
    interaction = uc.random_kernel(tree, rng, max_abs=0.8)
    dissipation = dissipative_kernel(tree, rng)
    f0 = random_mean_zero_field(tree, rng, max_abs=0.7)
    traj = uc.solve_leaf(tree, interaction, dissipation, f0, 0.1, 1e-2)
    assert np.isfinite(traj.values).all()
    uc.leaf_rhs(tree, interaction, dissipation, f0)


def test_leaf_rhs_reduces_to_linear_part_without_interaction():
    rng = np.random.default_rng(251)
    tree = uc.random_tree(rng, max_leaves=30)
    basis = uc.build_basis(tree)
    zero = uc.Kernel.constant(tree, 0.0)
    dissipation = dissipative_kernel(tree, rng)
    for vertex, j in basis.slots:
        psi = basis.as_leaf_field(vertex, j)
        out = uc.leaf_rhs(tree, zero, dissipation, psi)
        expected = -uc.eigenvalue(dissipation, vertex) * psi.values
        assert np.abs(out.values - expected).max() <= 1e-12


def test_leaf_rhs_preserves_mean():
    rng = np.random.default_rng(257)
    for _ in range(5):
        tree = uc.random_tree(rng, max_leaves=40)
        interaction = uc.random_kernel(tree, rng)
        dissipation = uc.random_kernel(tree, rng)
        f = random_mean_zero_field(tree, rng)
        out = uc.leaf_rhs(tree, interaction, dissipation, f)
        scale = max(np.abs(out.values).max(), 1.0)
        assert abs(out.mean()) <= 1e-12 * scale


def test_solve_leaf_rejects_nonzero_mean():
    tree = uc.build_tree({"p": 2, "depth": 2})
    kernel = uc.Kernel.constant(tree, 1.0)
    f0 = uc.LeafField(tree, np.full(4, 0.5 + 0j))
    with pytest.raises(ValueError, match="mean-zero"):
        uc.solve_leaf(tree, kernel, kernel, f0, 1.0, 1e-2)


def test_solve_all_runs_above_the_dense_oracle_leaf_cap():
    """The leaf route and its projection are tree sweeps, so a 1024-leaf
    tree, ten times the dense oracles' cap, solves and agrees."""
    rng = np.random.default_rng(1024)
    tree = uc.build_tree({"p": 2, "depth": 10})
    assert tree.n_leaves > 10 * uc.DEFAULT_LEAF_CAP
    basis = uc.build_basis(tree)
    system = uc.assemble(tree, basis, uc.random_kernel(tree, rng, max_abs=0.8),
                         dissipative_kernel(tree, rng))
    v0 = random_initial(basis, rng, density=0.5)
    trajectories, disagreement = uc.solve_all(system, v0, 0.05, 1e-3)
    assert len(trajectories["leaf"].grid) == 51
    assert disagreement["max"] <= uc.CROSS_SOLVER_TOL


def test_recurrent_scenario_memory_is_linear_in_the_tree():
    """No (slots x leaves) array: building a p=2 depth-12 scenario with 10
    initial slots and solving 10 steps peaks far below the 256 MiB a dense
    basis matrix alone would take."""
    cfg = uc.parse_config({
        "tree": {"p": 2, "depth": 12},
        "interaction": {"type": "power", "a": [1.0, 0.0], "b": 0.5},
        "dissipation": {"type": "power", "a": [1.0, 0.0], "b": 0.0},
        "initial": {"wavelets": [[".".join(["0"] * k), 0, 0.2, 0.0]
                                 for k in range(10)]},
        "t_end": 0.01,
        "dt": 0.001,
    })
    tracemalloc.start()
    try:
        scen = uc.build_scenario(cfg)
        uc.solve_recurrent(scen.system, scen.v0, cfg.t_end, cfg.dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scen.system.basis.n_slots * scen.system.tree.n_leaves * 16 > 255 << 20
    assert peak < 64 << 20


def test_solve_leaf_keeps_mean_zero_along_the_run():
    rng = np.random.default_rng(263)
    tree = uc.random_tree(rng, max_leaves=30, max_depth=3)
    interaction = uc.random_kernel(tree, rng, max_abs=0.8)
    dissipation = dissipative_kernel(tree, rng)
    f0 = random_mean_zero_field(tree, rng, max_abs=0.7)
    traj = uc.solve_leaf(tree, interaction, dissipation, f0, 1.0, 1e-2)
    nu = tree.measure[tree.leaves]
    means = np.abs(traj.values @ nu) / tree.total_measure
    assert means.max() <= 1e-10


def test_analyze_trajectory_matches_snapshot_analysis():
    rng = np.random.default_rng(269)
    tree = uc.random_tree(rng, max_leaves=20, max_depth=3)
    basis = uc.build_basis(tree)
    interaction = uc.random_kernel(tree, rng, max_abs=0.8)
    dissipation = dissipative_kernel(tree, rng)
    f0 = random_mean_zero_field(tree, rng, max_abs=0.7)
    leaf = uc.solve_leaf(tree, interaction, dissipation, f0, 0.5, 1e-2)
    traj = uc.analyze_trajectory(leaf, basis)
    for k in (0, len(leaf.grid) // 2, len(leaf.grid) - 1):
        field = uc.analyze(basis, leaf.field_at(k))
        assert np.abs(traj.values[k] - field.values).max() <= 1e-13


def test_rk_residual_shrinks_at_second_order():
    tree, basis, interaction, dissipation = depth2_example()
    system = uc.assemble(tree, basis, interaction, dissipation)
    mid = tree.vertex("0")
    v0 = slot_field(basis, {(tree.root, 0): 0.6, (mid, 0): 0.5})
    eta = system.eta[basis.slot_vertex]
    W = dense_coupling_matrix(system)

    def residual(dt: float) -> float:
        traj = uc.solve_rk(system, v0, 1.0, dt)
        v = traj.values
        dv = (v[2:] - v[:-2]) / (2 * dt)
        rhs = -v[1:-1] * (eta + v[1:-1] @ W.T)
        return float(np.abs(dv - rhs).max())

    r_coarse = residual(2e-3)
    r_fine = residual(1e-3)
    slope = np.log2(r_coarse / r_fine)
    assert slope >= 1.9


def test_rk_gather_sum_rhs_matches_dense_matrix():
    rng = np.random.default_rng(277)
    for _ in range(10):
        tree = uc.random_tree(rng, max_leaves=60, min_branch=2, max_branch=4)
        basis = uc.build_basis(tree)
        system = uc.assemble(
            tree, basis, uc.random_kernel(tree, rng),
            dissipative_kernel(tree, rng),
        )
        rhs = _coefficient_rhs(system)
        eta = system.eta[basis.slot_vertex]
        W = dense_coupling_matrix(system)
        for _ in range(3):
            y = random_initial(basis, rng, density=1.0).values
            want = -y * (eta + W @ y)
            scale = np.abs(y).max() * (np.abs(eta) + np.abs(W) @ np.abs(y)).max()
            assert np.abs(rhs(y) - want).max() <= 1e-15 * scale


def test_solve_all_returns_three_consistent_routes():
    rng = np.random.default_rng(271)
    tree = uc.random_tree(rng, max_leaves=20, max_depth=3)
    basis = uc.build_basis(tree)
    system = uc.assemble(
        tree, basis, uc.random_kernel(tree, rng, max_abs=0.8),
        dissipative_kernel(tree, rng),
    )
    v0 = random_initial(basis, rng)
    trajectories, disagreement = uc.solve_all(system, v0, 1.0, 1e-3)
    assert set(trajectories) == {"recurrent", "rk", "leaf"}
    pairwise = [v for k, v in disagreement.items() if k != "max"]
    assert disagreement["max"] == max(pairwise)
    assert disagreement["max"] <= uc.CROSS_SOLVER_TOL


def test_energy_by_level_single_mode():
    tree, basis, interaction, dissipation = depth2_example()
    system = uc.assemble(tree, basis, interaction, dissipation)
    v0 = slot_field(basis, {(tree.root, 0): 0.8})
    traj = uc.solve_recurrent(system, v0, 1.0, 0.1)
    rows = uc.energy_by_level(traj)
    levels = sorted(set(int(d) for _, d, _ in rows))
    assert levels == [0, 1]
    assert rows.shape == (len(traj.grid) * 2, 3)
    for t, d, e in rows:
        if d == 0:
            assert e == pytest.approx(0.64 * np.exp(-2.0 * t), rel=1e-12)
        else:
            assert e == 0.0
    # t-major ordering with depth ascending inside each time
    assert np.array_equal(rows[:2, 0], [0.0, 0.0])
    assert np.array_equal(rows[:2, 1], [0.0, 1.0])


def test_energy_by_level_matches_per_slot_sum():
    rng = np.random.default_rng(277)
    tree = uc.random_tree(rng, max_leaves=20, max_depth=3)
    basis = uc.build_basis(tree)
    system = uc.assemble(
        tree, basis, uc.random_kernel(tree, rng, max_abs=0.8),
        dissipative_kernel(tree, rng),
    )
    v0 = random_initial(basis, rng)
    traj = uc.solve_rk(system, v0, 0.5, 1e-2)
    rows = uc.energy_by_level(traj)
    depths = np.asarray(traj.depths)
    by_key = {(t, int(d)): e for t, d, e in rows}
    for i, t in enumerate(traj.grid):
        for d in np.unique(depths):
            want = float((np.abs(traj.values[i, depths == d]) ** 2).sum())
            assert by_key[(t, int(d))] == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_trajectory_helpers_validate_inputs():
    tree, basis, interaction, dissipation = depth2_example()
    system = uc.assemble(tree, basis, interaction, dissipation)
    v0 = slot_field(basis, {(tree.root, 0): 0.5})
    a = uc.solve_recurrent(system, v0, 1.0, 1e-2)
    b = uc.solve_recurrent(system, v0, 0.5, 1e-2)
    with pytest.raises(ValueError, match="shapes"):
        a.sup_distance(b)
    c = uc.solve_recurrent(system, v0, 1.0, 1e-2)
    c.grid = c.grid + 1.0
    with pytest.raises(ValueError, match="grids"):
        a.sup_distance(c)
    with pytest.raises(ValueError):
        a.column(99, 0)


def test_solver_metadata_reports_run_parameters():
    tree, basis, interaction, dissipation = depth2_example()
    system = uc.assemble(tree, basis, interaction, dissipation)
    v0 = slot_field(basis, {(tree.root, 0): 0.5})
    rec = uc.solve_recurrent(system, v0, 1.0, 1e-2)
    assert rec.metadata == {"solver": "recurrent", "dt": 1e-2, "t_end": 1.0}
    rk = uc.solve_rk(system, v0, 1.0, 1e-2)
    assert rk.metadata["solver"] == "rk"
    assert 0.0 <= rk.metadata["max_step_error"] <= STEP_ERROR_TOL


def test_solvers_reject_foreign_initial_field():
    tree, basis, interaction, dissipation = depth2_example()
    system = uc.assemble(tree, basis, interaction, dissipation)
    other_basis = uc.build_basis(tree, "roots-of-unity")
    v0 = slot_field(other_basis, {(tree.root, 0): 0.5})
    with pytest.raises(ValueError, match="basis"):
        uc.solve_recurrent(system, v0, 1.0, 1e-2)
    with pytest.raises(ValueError, match="basis"):
        uc.solve_rk(system, v0, 1.0, 1e-2)


def test_recurrent_aborts_on_a_nan_weight(scenario_dir):
    """nan passes no magnitude comparison: a nan coupling weight aborts
    the recurrent route, naming the slot, where it once returned nan."""
    scen = uc.build_scenario(uc.load_config(scenario_dir / "nested_pair.json"))
    weight = scen.system.weight.copy()
    weight[np.nonzero(weight)[0][0], np.nonzero(weight)[1][0]] = np.nan
    system = dataclasses.replace(scen.system, weight=weight)
    with pytest.raises(uc.SolverAbort, match=r"or was not finite at slot '0:0'"):
        uc.solve_recurrent(system, scen.v0, 1.0, 1e-3)


@pytest.mark.parametrize("per_pass", [1, 2, 6])
def test_recurrent_aborts_on_a_nan_weight_of_one_slot(monkeypatch, per_pass):
    """On a p = 3 tree a nan in the column of ball 1's second slot aborts
    the recurrent route naming that slot, not its ball's first, whether a
    pass holds one slot, the ball's two or the whole depth."""
    tree = uc.build_tree({"p": 3, "depth": 2})
    basis = uc.build_basis(tree)
    rng = np.random.default_rng(239)
    system = uc.assemble(tree, basis, uc.random_kernel(tree, rng, max_abs=0.8),
                         dissipative_kernel(tree, rng))
    weight = system.weight.copy()
    weight[0, basis.slot_of(tree.vertex("1"), 1)] = np.nan
    v0 = uc.WaveletField(basis, np.full(basis.n_slots, 0.5))
    # a grid of 11 times
    monkeypatch.setattr(solver, "RECURRENT_BLOCK", 11 * per_pass)
    with pytest.raises(uc.SolverAbort, match=r"or was not finite at slot '1:1'"):
        uc.solve_recurrent(dataclasses.replace(system, weight=weight), v0, 0.1, 1e-2)
