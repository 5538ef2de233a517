"""End-to-end acceptance gate.

Each test checks one headline guarantee of the library at its stated
tolerance and records a one-line verdict; the conftest hook prints the
collected lines after the run.  Tolerances here are contractual: do not
loosen them to make a failing build pass.
"""

import time
from pathlib import Path

import numpy as np

import ultracascade as uc
from ultracascade import cli, oracles

from conftest import (
    dense_basis_matrix,
    depth2_example,
    dissipative_kernel,
    nested_pair_closed_form,
    random_mean_zero_field,
    record_acceptance,
    slot_field,
)

GRAM_TOL = 1e-12
ROUND_TRIP_TOL = 1e-12
RESIDUAL_TOL = 1e-10
NESTED_RK_TOL = 1e-6
NESTED_RECURRENT_TOL = 1e-5
LOCALIZATION_TOL = 1e-10
BASIS_INDEPENDENCE_TOL = 1e-6
SWEEP_SECONDS = 60.0


def test_interaction_integral_agreement(sweep_corpus):
    """Direct triple-sum integrals equal coefficient * wavelet product,
    for every ordered wavelet pair over the randomized sweep."""
    rng = np.random.default_rng(90210)
    worst = 0.0
    pairs = 0
    started = time.perf_counter()
    for tree, basis, kernels in sweep_corpus:
        for kernel in kernels:
            dev, n = uc.interaction_check(kernel, basis)
            worst = max(worst, dev)
            pairs += n
        # tie the batched sweep to the per-pair reference op on a sample
        slots = basis.slots
        for _ in range(2):
            outer = slots[rng.integers(len(slots))]
            inner = slots[rng.integers(len(slots))]
            kernel = kernels[rng.integers(len(kernels))]
            phi = basis.as_leaf_field(*outer)
            psi = basis.as_leaf_field(*inner)
            direct = uc.interaction_integral_direct(kernel, phi, psi)
            coeff = uc.interaction_coefficient(kernel, outer[0], inner[0])
            dev = float(
                np.abs(direct.values - psi.values * phi.values * coeff).max()
            )
            worst = max(worst, dev)
    elapsed = time.perf_counter() - started
    passed = worst <= uc.INTERACTION_TOL and elapsed <= SWEEP_SECONDS
    record_acceptance(
        "interaction-integral-closed-form",
        passed,
        f"max deviation {worst:.2e} over {pairs} wavelet pairs "
        f"({len(sweep_corpus)} trees x 5 kernels) in {elapsed:.1f}s "
        f"(tol {uc.INTERACTION_TOL:g}, budget {SWEEP_SECONDS:g}s)",
    )
    assert worst <= uc.INTERACTION_TOL
    assert elapsed <= SWEEP_SECONDS


def test_operator_diagonalization(sweep_corpus):
    """The direct-sum operator maps every wavelet to eigenvalue * wavelet
    over the same randomized sweep."""
    worst = 0.0
    cases = 0
    for tree, basis, kernels in sweep_corpus:
        for kernel in kernels:
            worst = max(worst, uc.eigen_check(kernel, basis))
            cases += basis.n_slots
    passed = worst <= uc.EIGEN_TOL
    record_acceptance(
        "operator-diagonalization",
        passed,
        f"max deviation {worst:.2e} over {cases} wavelet/kernel cases "
        f"(tol {uc.EIGEN_TOL:g})",
    )
    assert passed


def test_single_mode_residual():
    """A decaying wavelet mode satisfies the field equation: analytic
    derivative minus the direct-quadrature right side stays tiny."""
    rng = np.random.default_rng(5150)
    setups = [depth2_example()[0], uc.random_tree(rng, max_leaves=30)]
    times = np.linspace(0.0, 1.0, 10)
    worst = 0.0
    modes = 0
    for tree in setups:
        basis = uc.build_basis(tree)
        interaction = uc.random_kernel(tree, rng, max_abs=0.8)
        dissipation = dissipative_kernel(tree, rng)
        for vertex, j in basis.slots:
            psi = basis.as_leaf_field(vertex, j)
            eta = uc.eigenvalue(dissipation, vertex)
            modes += 1
            for t in times:
                amp = np.exp(-eta * t)
                f_t = uc.LeafField(tree, amp * psi.values)
                analytic = -eta * amp * psi.values
                rhs = uc.leaf_rhs(tree, interaction, dissipation, f_t)
                worst = max(worst, float(np.abs(analytic - rhs.values).max()))
    passed = worst <= RESIDUAL_TOL
    record_acceptance(
        "single-mode-residual",
        passed,
        f"max residual {worst:.2e} over {modes} modes at {len(times)} times "
        f"(tol {RESIDUAL_TOL:g})",
    )
    assert passed


def test_nested_pair_closed_forms():
    """Two nested wavelets have an explicit solution; both coefficient
    solvers reproduce it, and the recurrent error shrinks at second order."""
    tree, basis, interaction, dissipation = depth2_example()
    system = uc.assemble(tree, basis, interaction, dissipation)
    mid = tree.vertex("0")
    v0 = slot_field(basis, {(tree.root, 0): 0.6, (mid, 0): 0.5})
    weight = uc.ancestor_value(
        basis, tree.root, 0, mid
    ) * uc.interaction_coefficient(interaction, tree.root, mid)
    eta_outer = system.eta[tree.root]
    eta_inner = system.eta[mid]

    def deviation(solver, dt: float) -> float:
        traj = solver(system, v0, 1.0, dt)
        outer, inner = nested_pair_closed_form(
            eta_outer, eta_inner, weight, 0.6, 0.5, traj.grid
        )
        dev_outer = np.abs(traj.column(tree.root, 0) - outer).max()
        dev_inner = np.abs(traj.column(mid, 0) - inner).max()
        return float(max(dev_outer, dev_inner))

    rk_dev = deviation(uc.solve_rk, 1e-3)
    rec_devs = [deviation(uc.solve_recurrent, dt) for dt in (4e-3, 2e-3, 1e-3)]
    slopes = [
        float(np.log2(rec_devs[i] / rec_devs[i + 1])) for i in range(2)
    ]

    # free outer mode: zero decay rate at the top ball is the linear-
    # integral limit of the closed form
    free_dis = uc.Kernel.power(tree, 1.0, 0.0, overrides=[("", 0.0, 0.0)])
    free_system = uc.assemble(tree, basis, interaction, free_dis)
    free_traj = uc.solve_rk(free_system, v0, 1.0, 1e-3)
    f_outer, f_inner = nested_pair_closed_form(
        free_system.eta[tree.root],
        free_system.eta[mid],
        weight, 0.6, 0.5, free_traj.grid,
    )
    assert free_system.eta[tree.root] == 0j
    free_dev = float(
        max(
            np.abs(free_traj.column(tree.root, 0) - f_outer).max(),
            np.abs(free_traj.column(mid, 0) - f_inner).max(),
        )
    )

    passed = (
        rk_dev <= NESTED_RK_TOL
        and free_dev <= NESTED_RK_TOL
        and rec_devs[-1] <= NESTED_RECURRENT_TOL
        and all(s >= 1.9 for s in slopes)
    )
    record_acceptance(
        "nested-pair-closed-form",
        passed,
        f"one-step dev {rk_dev:.2e} (tol {NESTED_RK_TOL:g}), recurrent dev "
        f"{rec_devs[-1]:.2e} (tol {NESTED_RECURRENT_TOL:g}), halving slopes "
        f"{slopes[0]:.2f}/{slopes[1]:.2f} (need >= 1.9), free-outer dev "
        f"{free_dev:.2e}",
    )
    assert rk_dev <= NESTED_RK_TOL
    assert free_dev <= NESTED_RK_TOL
    assert rec_devs[-1] <= NESTED_RECURRENT_TOL
    assert all(s >= 1.9 for s in slopes)


def test_three_solver_agreement(triangle_runs):
    """The scale-recursive, coefficient-marching, and leaf-level solvers
    agree pairwise; the synthesized solution does not depend on which
    basis scheme carried it."""
    worst_triangle = max(d["max"] for _, _, _, d in triangle_runs)

    rng = np.random.default_rng(8086)
    worst_basis = 0.0
    for _ in range(5):
        tree = uc.random_tree(rng, max_leaves=24, max_depth=3, equal_split=True)
        interaction = uc.random_kernel(tree, rng, max_abs=0.8)
        dissipation = dissipative_kernel(tree, rng)
        f0 = random_mean_zero_field(tree, rng, max_abs=0.7)
        leaf_runs = []
        for scheme in ("gram-schmidt", "roots-of-unity"):
            basis = uc.build_basis(tree, scheme)
            system = uc.assemble(tree, basis, interaction, dissipation)
            v0 = uc.analyze(basis, f0)
            traj = uc.solve_rk(system, v0, 1.0, 1e-3)
            leaf_runs.append(traj.values @ dense_basis_matrix(basis))
        dev = float(np.abs(leaf_runs[0] - leaf_runs[1]).max())
        worst_basis = max(worst_basis, dev)

    passed = (
        worst_triangle <= uc.CROSS_SOLVER_TOL
        and worst_basis <= BASIS_INDEPENDENCE_TOL
    )
    record_acceptance(
        "three-solver-agreement",
        passed,
        f"max pairwise disagreement {worst_triangle:.2e} over "
        f"{len(triangle_runs)} scenarios (tol {uc.CROSS_SOLVER_TOL:g}); "
        f"basis independence {worst_basis:.2e} over 5 scenarios "
        f"(tol {BASIS_INDEPENDENCE_TOL:g})",
    )
    assert worst_triangle <= uc.CROSS_SOLVER_TOL
    assert worst_basis <= BASIS_INDEPENDENCE_TOL


def test_support_localization(triangle_runs):
    """Slots that start at zero stay numerically zero in every solver."""
    worst = 0.0
    zero_slots = 0
    for system, v0, trajectories, _ in triangle_runs:
        dense0 = v0.values
        idle = np.flatnonzero(dense0 == 0)
        zero_slots += len(idle)
        for traj in trajectories.values():
            if len(idle):
                worst = max(
                    worst, float(np.abs(traj.values[:, idle]).max())
                )
    passed = zero_slots > 0 and worst <= LOCALIZATION_TOL
    record_acceptance(
        "support-localization",
        passed,
        f"max magnitude {worst:.2e} on {zero_slots} initially-zero slots "
        f"across 3 solvers x {len(triangle_runs)} scenarios "
        f"(tol {LOCALIZATION_TOL:g})",
    )
    assert passed


def test_basis_orthonormality_and_round_trip():
    """Gram identity and analyze/synthesize reconstruction at 1e-12 on
    every test tree, for both construction schemes where defined."""
    rng = np.random.default_rng(24601)
    shorthand = [
        uc.build_tree({"p": 2, "depth": 2}),
        uc.build_tree({"p": 2, "depth": 3}),
        uc.build_tree({"p": 3, "depth": 2}),
        uc.build_tree({"p": 4, "depth": 2}),
    ]
    equal_split = [
        uc.random_tree(rng, max_leaves=40, equal_split=True) for _ in range(4)
    ]
    uneven = [uc.random_tree(rng, max_leaves=60) for _ in range(4)]

    worst_gram = 0.0
    worst_round = 0.0
    cases = 0
    for tree, scheme in (
        [(t, s) for t in shorthand + equal_split
         for s in ("gram-schmidt", "roots-of-unity")]
        + [(t, "gram-schmidt") for t in uneven]
    ):
        basis = uc.build_basis(tree, scheme)
        gram = basis.gram_matrix()
        worst_gram = max(
            worst_gram,
            float(np.abs(gram - np.eye(basis.n_slots)).max()),
        )
        f = random_mean_zero_field(tree, rng)
        back = uc.synthesize(uc.analyze(basis, f))
        worst_round = max(
            worst_round, float(np.abs(back.values - f.values).max())
        )
        cases += 1
    passed = worst_gram <= GRAM_TOL and worst_round <= ROUND_TRIP_TOL
    record_acceptance(
        "basis-orthonormality-round-trip",
        passed,
        f"gram deviation {worst_gram:.2e}, reconstruction deviation "
        f"{worst_round:.2e} over {cases} tree/scheme cases (tol {GRAM_TOL:g})",
    )
    assert worst_gram <= GRAM_TOL
    assert worst_round <= ROUND_TRIP_TOL


def test_constant_kernel_decoupling():
    """A constant interaction kernel produces exactly zero couplings:
    no tolerance, the weights must vanish and the system must be diagonal."""
    rng = np.random.default_rng(31337)
    checked = 0
    all_zero = True
    no_couplings = True
    for _ in range(6):
        tree = uc.random_tree(rng, max_leaves=50)
        basis = uc.build_basis(tree)
        for kernel in (
            uc.Kernel.constant(tree, complex(rng.normal(), rng.normal())),
            uc.Kernel.power(tree, complex(rng.normal(), rng.normal()), 0.0),
        ):
            for outer in tree.internal:
                for inner in range(tree.n_vertices):
                    if oracles.is_strict_ancestor(tree, outer, inner):
                        value = uc.interaction_coefficient(kernel, outer, inner)
                        all_zero &= value == 0j
                        checked += 1
            all_zero &= bool(np.all(uc.interaction_table(kernel) == 0))
            system = uc.assemble(
                tree, basis, kernel, dissipative_kernel(tree, rng)
            )
            no_couplings &= system.n_couplings == 0
    passed = all_zero and no_couplings
    record_acceptance(
        "constant-kernel-decoupling",
        passed,
        f"{checked} nested pairs on 6 trees x 2 constant kernels: "
        f"all coefficients exactly zero, assembled systems have no couplings",
    )
    assert passed


def test_cli_byte_determinism(tmp_path, scenario_dir):
    """Repeated runs of the bundled scenarios write byte-identical files."""
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    rc_a = cli.main(["run", str(scenario_dir), "--out-dir", str(out_a)])
    rc_b = cli.main(["run", str(scenario_dir), "--out-dir", str(out_b)])
    names = sorted(p.name for p in out_a.iterdir())
    identical = [
        name
        for name in names
        if (out_a / name).read_bytes() == (out_b / name).read_bytes()
    ]
    passed = rc_a == 0 and rc_b == 0 and len(names) == 6 and identical == names
    record_acceptance(
        "cli-byte-determinism",
        passed,
        f"{len(identical)}/{len(names)} output files byte-identical across "
        f"repeated runs of {len(list(Path(scenario_dir).glob('*.json')))} "
        f"bundled scenarios",
    )
    assert passed
