"""Eigenvalues and interaction coefficients against direct quadrature."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ultracascade as uc
from ultracascade import oracles

from conftest import one_shot_interaction_check, random_mean_zero_field


def uniform_binary_depth2():
    return uc.build_tree({"p": 2, "depth": 2})


def closed_form_coefficient(kernel, outer, inner):
    """Textbook form of the coupling: boundary terms plus a sum over the
    strictly intermediate balls.  Independent of the chain accumulation
    used by the library."""
    tree = kernel.tree
    toward = oracles.child_toward
    total = tree.measure[toward(tree, outer, inner)] ** 2 * kernel.value(outer)
    total -= tree.measure[inner] ** 2 * kernel.value(inner)
    for L in oracles.ancestors(tree, inner):
        if L == outer:
            break
        total -= (
            tree.measure[L] ** 2 - tree.measure[toward(tree, L, inner)] ** 2
        ) * kernel.value(L)
    return total


def test_eigenvalue_zero_kernel():
    tree = uniform_binary_depth2()
    kernel = uc.Kernel.constant(tree, 0.0)
    for v in tree.internal:
        assert uc.eigenvalue(kernel, v) == 0j


def test_eigenvalue_uniform_binary_unit_kernel():
    # unit kernel on the uniform binary tree of total mass 1: every
    # internal ball has eigenvalue exactly 1
    tree = uniform_binary_depth2()
    kernel = uc.Kernel.constant(tree, 1.0)
    for v in tree.internal:
        assert uc.eigenvalue(kernel, v) == 1.0 + 0j


def test_eigenvalue_root_has_no_ancestor_terms():
    tree = uc.build_tree({"children": [{"measure": 0.4}, {"measure": 1.1}]})
    kernel = uc.Kernel.constant(tree, 2.0 - 1.0j)
    assert uc.eigenvalue(kernel, tree.root) == (2.0 - 1.0j) * 1.5


def test_eigenvalue_rejects_leaf():
    tree = uniform_binary_depth2()
    kernel = uc.Kernel.constant(tree, 1.0)
    with pytest.raises(ValueError, match="leaf"):
        uc.eigenvalue(kernel, tree.leaves[0])


def test_eigen_check_random_trees():
    rng = np.random.default_rng(101)
    for _ in range(5):
        tree = uc.random_tree(rng, max_leaves=60)
        basis = uc.build_basis(tree)
        kernel = uc.random_kernel(tree, rng)
        assert uc.eigen_check(kernel, basis) <= uc.EIGEN_TOL


def test_eigen_check_builds_one_sup_table(monkeypatch):
    rng = np.random.default_rng(109)
    tree = uc.random_tree(rng, max_leaves=40)
    basis = uc.build_basis(tree)
    kernel = uc.random_kernel(tree, rng)
    f = random_mean_zero_field(tree, rng)
    shared = uc.apply_pdo_direct(kernel, f, sup=uc.oracles.leaf_sup_table(tree))
    assert shared.values.tobytes() == uc.apply_pdo_direct(kernel, f).values.tobytes()
    real, built = uc.oracles.leaf_sup_table, []
    monkeypatch.setattr(uc.oracles, "leaf_sup_table",
                        lambda t: built.append(t) or real(t))
    assert uc.eigen_check(kernel, basis) <= uc.EIGEN_TOL
    assert len(built) == 1 < basis.n_slots


def test_pdo_constant_field_is_exact_zero():
    rng = np.random.default_rng(103)
    tree = uc.random_tree(rng, max_leaves=40)
    kernel = uc.random_kernel(tree, rng)
    f = uc.LeafField(tree, np.full(tree.n_leaves, 0.7 - 0.2j))
    out = uc.apply_pdo_direct(kernel, f)
    assert np.all(out.values == 0)


def test_pdo_self_adjoint_for_real_kernels():
    rng = np.random.default_rng(107)
    for _ in range(5):
        tree = uc.random_tree(rng, max_leaves=40)
        kernel = uc.Kernel(tree, rng.uniform(-2.0, 2.0, tree.n_vertices))
        f = random_mean_zero_field(tree, rng)
        g = random_mean_zero_field(tree, rng)
        nu = tree.measure[tree.leaves]
        tf = uc.apply_pdo_direct(kernel, f).values
        tg = uc.apply_pdo_direct(kernel, g).values
        lhs = np.sum(tf * np.conj(g.values) * nu)
        rhs = np.sum(f.values * np.conj(tg) * nu)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-12 * scale


def test_pdo_rejects_foreign_field():
    tree = uniform_binary_depth2()
    other = uc.build_tree({"p": 3, "depth": 1})
    kernel = uc.Kernel.constant(tree, 1.0)
    with pytest.raises(ValueError, match="different trees"):
        uc.apply_pdo_direct(kernel, uc.LeafField.zero(other))


def test_interaction_zero_unless_strictly_nested():
    tree = uniform_binary_depth2()
    kernel = uc.Kernel.power(tree, 1.5 + 0.5j, 0.7)
    a, b = tree.vertex("0"), tree.vertex("1")
    assert uc.interaction_coefficient(kernel, a, b) == 0j
    assert uc.interaction_coefficient(kernel, a, a) == 0j
    # reversed nesting counts as not nested
    assert uc.interaction_coefficient(kernel, a, tree.root) == 0j


def test_constant_kernel_gives_exact_zero_coupling():
    rng = np.random.default_rng(109)
    tree = uc.random_tree(rng, max_leaves=60)
    for kernel in (
        uc.Kernel.constant(tree, 1.3 - 0.4j),
        uc.Kernel.power(tree, 0.8 + 0.1j, 0.0),
    ):
        for outer in tree.internal:
            for inner in range(tree.n_vertices):
                if oracles.is_strict_ancestor(tree, outer, inner):
                    assert uc.interaction_coefficient(kernel, outer, inner) == 0j
        assert np.all(uc.interaction_table(kernel) == 0)


def test_interaction_two_level_value():
    # K(root)=1, K(mid ball "0")=2, uniform binary mass 1:
    # coupling(root, "0") = nu("0")^2 (K(root) - K("0")) = -1/4
    tree = uniform_binary_depth2()
    entries = [("", 1.0, 0.0), ("0", 2.0, 0.0), ("1", 1.0, 0.0),
               ("0.0", 1.0, 0.0), ("0.1", 1.0, 0.0),
               ("1.0", 1.0, 0.0), ("1.1", 1.0, 0.0)]
    kernel = uc.Kernel.from_table(tree, entries)
    got = uc.interaction_coefficient(kernel, tree.root, tree.vertex("0"))
    assert got == -0.25 + 0j


def test_interaction_matches_closed_form():
    rng = np.random.default_rng(113)
    for _ in range(6):
        tree = uc.random_tree(rng, max_leaves=60)
        kernel = uc.random_kernel(tree, rng)
        for outer in tree.internal:
            for inner in range(tree.n_vertices):
                if not oracles.is_strict_ancestor(tree, outer, inner):
                    continue
                got = uc.interaction_coefficient(kernel, outer, inner)
                want = closed_form_coefficient(kernel, outer, inner)
                scale = max(abs(want), 1.0)
                assert abs(got - want) <= 1e-13 * scale


def test_eigenvalue_table_matches_scalar_bitwise():
    rng = np.random.default_rng(131)
    for _ in range(12):
        # random leaf measures: children of one ball weigh differently
        tree = uc.random_tree(rng, max_leaves=80, min_branch=2, max_branch=4)
        n = tree.n_vertices
        kernels = [
            uc.random_kernel(tree, rng),
            uc.Kernel(tree, rng.normal(size=n) * 1e3 + 1j * rng.normal(size=n)),
        ]
        for kernel in kernels:
            table = uc.eigenvalue_table(kernel)
            want = np.zeros(n, dtype=np.complex128)
            want[tree.internal] = [uc.eigenvalue(kernel, v) for v in tree.internal]
            assert table.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_interaction_table_matches_pointwise_exactly():
    rng = np.random.default_rng(127)
    trees = [uc.random_tree(rng, max_leaves=50) for _ in range(8)]
    # leaf measures whose scalar square rounds differently from x * x,
    # where this platform's libm has any
    xs = rng.uniform(0.25, 2.0, 20000)
    odd = xs[np.array([x ** 2 for x in xs]) != xs * xs][:6]
    if len(odd) >= 2:
        trees.append(uc.build_tree({"children": [{"measure": x} for x in odd]}))
    for tree in trees:
        kernel = uc.random_kernel(tree, rng)
        table = uc.interaction_table(kernel)
        paths = tree.root_path_table()
        assert table.shape == paths.shape
        pairs = 0
        for inner in range(tree.n_vertices):
            ancestors = list(oracles.ancestors(tree, inner))
            for j in range(paths.shape[1]):
                if j >= len(ancestors):
                    assert table[inner, j] == 0  # padding
                    continue
                outer = ancestors[j]
                assert tree.parent[paths[inner, j]] == outer
                want = uc.interaction_coefficient(kernel, outer, inner)
                assert np.array([table[inner, j]]).view(np.float64).tobytes() \
                    == np.array([want]).view(np.float64).tobytes()
                pairs += 1
        assert pairs == sum(
            oracles.is_strict_ancestor(tree, outer, inner)
            for outer in tree.internal
            for inner in range(tree.n_vertices)
        )


def test_integral_same_wavelet_vanishes():
    rng = np.random.default_rng(131)
    tree = uc.random_tree(rng, max_leaves=30)
    basis = uc.build_basis(tree)
    kernel = uc.random_kernel(tree, rng)
    for vertex, j in basis.slots:
        psi = basis.as_leaf_field(vertex, j)
        out = uc.interaction_integral_direct(kernel, psi, psi)
        assert np.abs(out.values).max() <= 1e-12


def test_integral_incomparable_balls_vanish():
    tree = uc.build_tree({"p": 2, "depth": 3})
    basis = uc.build_basis(tree)
    kernel = uc.Kernel.power(tree, 1.1 - 0.3j, 0.5)
    left = basis.as_leaf_field(tree.vertex("0"), 0)
    right = basis.as_leaf_field(tree.vertex("1"), 0)
    out = uc.interaction_integral_direct(kernel, left, right)
    assert np.abs(out.values).max() <= 1e-12


def test_integral_pointwise_product_identity():
    rng = np.random.default_rng(137)
    for _ in range(3):
        tree = uc.random_tree(rng, max_leaves=40)
        basis = uc.build_basis(tree)
        kernel = uc.random_kernel(tree, rng)
        slots = list(basis.slots)
        for _ in range(10):
            outer_slot = slots[rng.integers(len(slots))]
            inner_slot = slots[rng.integers(len(slots))]
            phi = basis.as_leaf_field(*outer_slot)
            psi = basis.as_leaf_field(*inner_slot)
            direct = uc.interaction_integral_direct(kernel, phi, psi)
            coeff = uc.interaction_coefficient(
                kernel, outer_slot[0], inner_slot[0]
            )
            predicted = psi.values * phi.values * coeff
            assert np.abs(direct.values - predicted).max() <= uc.INTERACTION_TOL


def test_integral_matches_naive_triple_loop():
    rng = np.random.default_rng(139)
    tree = uc.random_tree(rng, max_leaves=8)
    kernel = uc.random_kernel(tree, rng)
    phi = random_mean_zero_field(tree, rng)
    psi = random_mean_zero_field(tree, rng)
    nu = tree.measure[tree.leaves]
    naive = np.zeros(tree.n_leaves, dtype=complex)
    for ai, a in enumerate(tree.leaves):
        for ci, c in enumerate(tree.leaves):
            for bi, b in enumerate(tree.leaves):
                ab = oracles.sup(tree, int(a), int(b))
                w = kernel.value(oracles.sup(tree, ab, int(c)))
                naive[ai] += (
                    w
                    * phi.values[bi]
                    * (psi.values[ci] - psi.values[ai])
                    * nu[bi]
                    * nu[ci]
                )
    out = uc.interaction_integral_direct(kernel, phi, psi)
    scale = max(np.abs(naive).max(), 1.0)
    assert np.abs(out.values - naive).max() <= 1e-13 * scale


def test_integral_refuses_large_trees():
    tree = uc.build_tree({"p": 2, "depth": 7})
    assert tree.n_leaves == 128
    kernel = uc.Kernel.constant(tree, 1.0)
    f = uc.LeafField.zero(tree)
    with pytest.raises(ValueError, match="cap"):
        uc.interaction_integral_direct(kernel, f, f)
    at_cap = uc.build_tree({"p": 10, "depth": 2})
    assert at_cap.n_leaves == uc.DEFAULT_LEAF_CAP
    f = uc.LeafField.zero(at_cap)
    out = uc.interaction_integral_direct(uc.Kernel.constant(at_cap, 1.0), f, f)
    assert np.all(out.values == 0)


def test_operator_sum_refuses_large_trees_before_allocating(monkeypatch):
    """8,192 leaves need 2.25 GiB of L x L tables: refused before the sup
    table is built."""

    def no_table(tree):
        raise AssertionError("leaf_sup_table built on an oversized tree")

    monkeypatch.setattr(oracles, "leaf_sup_table", no_table)
    tree = uc.build_tree({"p": 2, "depth": 13})
    assert tree.n_leaves == 8192
    f = uc.LeafField.zero(tree)
    with pytest.raises(ValueError, match="2.25 GiB"):
        uc.apply_pdo_direct(uc.Kernel.constant(tree, 1.0), f)


def test_interaction_check_builds_one_sup_table(monkeypatch):
    rng = np.random.default_rng(163)
    tree = uc.random_tree(rng, max_leaves=40)
    basis = uc.build_basis(tree)
    kernel = uc.random_kernel(tree, rng)
    expected = uc.interaction_check(kernel, basis)
    real, built = uc.oracles.vertex_leaf_sup_table, []
    monkeypatch.setattr(uc.oracles, "vertex_leaf_sup_table",
                        lambda t: built.append(t) or real(t))
    monkeypatch.setattr(uc.oracles, "leaf_sup_table", None)
    assert uc.interaction_check(kernel, basis) == expected
    assert len(built) == 1


@pytest.mark.parametrize(
    "p, depth, eigen_fits, interaction_fits",
    [(10, 2, True, True), (101, 1, True, False), (2, 12, True, False),
     (2, 13, False, False)],
)
def test_dense_check_refusal_gates_on_leaves(p, depth, eigen_fits,
                                             interaction_fits):
    tree = uc.build_tree({"p": p, "depth": depth})
    eigen = uc.oracles.dense_check_refusal("eigen", tree)
    interaction = uc.oracles.dense_check_refusal("interaction", tree)
    assert (eigen is None) == eigen_fits
    assert (interaction is None) == interaction_fits
    if not eigen_fits:
        assert uc.oracles.MAX_EIGEN_CHECK_BYTES < 36 * tree.n_leaves ** 2
    basis = uc.build_basis(tree)
    kernel = uc.Kernel.constant(tree, 1.0)
    if not interaction_fits:
        with pytest.raises(ValueError, match=r"interaction check: .* cap of 100"):
            uc.interaction_check(kernel, basis)
    if not eigen_fits:
        with pytest.raises(ValueError, match=r"eigen check: .* cap of 1 GiB"):
            uc.eigen_check(kernel, basis)


def test_interaction_check_agrees_with_per_pair_loop():
    rng = np.random.default_rng(149)
    tree = uc.random_tree(rng, max_leaves=20)
    basis = uc.build_basis(tree)
    kernel = uc.random_kernel(tree, rng)
    batched, n_pairs = uc.interaction_check(kernel, basis)
    assert n_pairs == basis.n_slots**2
    worst = 0.0
    for outer_slot in basis.slots:
        phi = basis.as_leaf_field(*outer_slot)
        for inner_slot in basis.slots:
            psi = basis.as_leaf_field(*inner_slot)
            direct = uc.interaction_integral_direct(kernel, phi, psi)
            coeff = uc.interaction_coefficient(
                kernel, outer_slot[0], inner_slot[0]
            )
            dev = np.abs(direct.values - psi.values * phi.values * coeff).max()
            worst = max(worst, float(dev))
    assert batched <= uc.INTERACTION_TOL
    assert worst <= uc.INTERACTION_TOL
    assert abs(batched - worst) <= 1e-12


def test_interaction_check_matches_the_one_shot_form_bit_for_bit():
    """The blocked check returns the identical (worst, pairs) as the whole
    contraction: on 40 random trees up to the leaf cap, on slot counts
    below, at and above one block and off its multiples (a lone last slot
    included), and on both crosscheck trees with their scenario kernel and
    three random ones."""
    rng = np.random.default_rng(20261019)
    cases = []
    for _ in range(40):
        tree = uc.random_tree(rng, max_leaves=100)
        cases.append((uc.build_basis(tree), [uc.random_kernel(tree, rng)]))
    slot_counts = [3, 7, 8, 9, 10, 15, 16, 17, 25, 99]
    for n_slots in slot_counts:
        tree = uc.build_tree({"p": n_slots + 1, "depth": 1})
        cases.append((uc.build_basis(tree),
                      [uc.random_kernel(tree, rng) for _ in range(3)]))
    crosscheck = Path(__file__).resolve().parent / "golden" / "crosscheck_seed7"
    for name in ("p2d6_all", "p4d3_all"):
        scen = uc.build_scenario(uc.load_config(crosscheck / f"{name}.json"))
        assert scen.basis.n_slots == 63
        cases.append((scen.basis, [scen.interaction] + [
            uc.random_kernel(scen.tree, rng) for _ in range(3)]))
    seen = set()
    for basis, kernels in cases:
        seen.add(basis.n_slots)
        for kernel in kernels:
            blocked = uc.interaction_check(kernel, basis)
            assert blocked == one_shot_interaction_check(kernel, basis)
            assert blocked[0] <= uc.INTERACTION_TOL
    assert set(slot_counts) <= seen and max(seen) == 99


def test_interaction_check_at_the_leaf_cap_stays_under_8_mib():
    """p=10 depth 2: 100 leaves, 99 slots.  The whole (N, L, L) contraction
    and (N, L, N) results traced 68 MiB here; the blocks need a few."""
    tree = uc.build_tree({"p": 10, "depth": 2})
    assert tree.n_leaves == oracles.DEFAULT_LEAF_CAP
    basis = uc.build_basis(tree)
    kernel = uc.random_kernel(tree, np.random.default_rng(181))
    tracemalloc.start()
    try:
        worst, pairs = uc.interaction_check(kernel, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pairs == 99 * 99 and worst <= uc.INTERACTION_TOL
    assert peak < 8 * 2 ** 20


def test_dense_checks_pass_a_basis_with_no_slot():
    tree = uc.build_tree({"root": {"measure": 1.0}})
    basis = uc.build_basis(tree)
    assert basis.n_slots == 0
    kernel = uc.random_kernel(tree, np.random.default_rng(191))
    assert uc.eigen_check(kernel, basis) == 0.0
    assert uc.interaction_check(kernel, basis) == (0.0, 0)


def test_coefficient_independent_of_wavelet_indices():
    # the coupling depends on the two balls only; recover it from direct
    # integrals for every index pair and check the estimates agree
    tree = uc.build_tree({"p": 3, "depth": 2})
    basis = uc.build_basis(tree)
    rng = np.random.default_rng(151)
    kernel = uc.random_kernel(tree, rng)
    outer, inner = tree.root, tree.vertex("0")
    estimates = []
    for j_outer in range(2):
        phi = basis.as_leaf_field(outer, j_outer)
        for j_inner in range(2):
            psi = basis.as_leaf_field(inner, j_inner)
            direct = uc.interaction_integral_direct(kernel, phi, psi)
            product = psi.values * phi.values
            a = int(np.argmax(np.abs(product)))
            estimates.append(direct.values[a] / product[a])
    first = estimates[0]
    assert abs(first - uc.interaction_coefficient(kernel, outer, inner)) <= 1e-11
    for est in estimates[1:]:
        assert abs(est - first) <= 1e-11


def test_kernel_validation():
    tree = uniform_binary_depth2()
    with pytest.raises(ValueError, match="one value per vertex"):
        uc.Kernel(tree, np.ones(3))
    with pytest.raises(ValueError, match="finite"):
        uc.Kernel(tree, np.full(tree.n_vertices, np.nan))


def test_kernel_power_with_overrides():
    tree = uniform_binary_depth2()
    kernel = uc.Kernel.power(tree, 2.0, 1.0, overrides=[("0", 5.0, -1.0)])
    # diameters default to 2^-depth
    assert kernel.value(tree.root) == 2.0
    assert kernel.value(tree.vertex("1")) == 1.0
    assert kernel.value(tree.vertex("0")) == 5.0 - 1.0j


def test_kernel_table_requires_full_coverage():
    tree = uniform_binary_depth2()
    with pytest.raises(ValueError, match="misses"):
        uc.Kernel.from_table(tree, [("", 1.0, 0.0), ("0", 2.0, 0.0)])
