"""Wavelet basis construction and the analyze/synthesize transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ultracascade as uc
from ultracascade import oracles
from ultracascade.wavelets import _gram_schmidt_block, _roots_of_unity_block

from conftest import dense_basis_matrix, random_mean_zero_field


def weighted_gram(block: np.ndarray, nu: np.ndarray) -> np.ndarray:
    return (block * nu) @ block.conj().T


def test_binary_equal_measures_closed_form():
    spec = {"children": [{"measure": 0.5}, {"measure": 0.5}]}
    tree = uc.build_tree(spec)
    basis = uc.build_basis(tree)
    row = basis.coeffs[0][0]
    expected = 1.0 / np.sqrt(2 * 0.5)
    assert row[0] == pytest.approx(expected, rel=1e-14)
    assert row[1] == pytest.approx(-expected, rel=1e-14)


def test_binary_unequal_measures_closed_form():
    m1, m2 = 0.3, 0.7
    tree = uc.build_tree({"children": [{"measure": m1}, {"measure": m2}]})
    basis = uc.build_basis(tree)
    row = basis.coeffs[0][0]
    assert row[0].real == pytest.approx(np.sqrt(m2 / (m1 * (m1 + m2))), rel=1e-13)
    assert row[1].real == pytest.approx(-np.sqrt(m1 / (m2 * (m1 + m2))), rel=1e-13)
    assert abs(row[0].imag) == 0.0 and abs(row[1].imag) == 0.0


def test_sign_convention_first_significant_entry_positive():
    rng = np.random.default_rng(41)
    for _ in range(8):
        tree = uc.random_tree(rng, max_leaves=40)
        basis = uc.build_basis(tree)
        for block in basis.coeffs.values():
            for row in block:
                mags = np.abs(row)
                lead = np.argmax(mags > 1e-12 * mags.max())
                assert row[lead].real > 0


def test_blocks_mean_zero_and_orthonormal_random_measures():
    rng = np.random.default_rng(43)
    for _ in range(10):
        tree = uc.random_tree(rng, max_leaves=50)
        basis = uc.build_basis(tree)
        for v, block in basis.coeffs.items():
            nu = tree.measure[[int(c) for c in tree.children[v]]]
            scale = np.abs(block).max() * nu.max()
            means = block @ nu
            assert np.abs(means).max() <= 1e-13 * scale
            gram = weighted_gram(block, nu)
            assert np.abs(gram - np.eye(len(block))).max() <= 1e-12


def test_roots_of_unity_requires_equal_measures():
    tree = uc.build_tree({"children": [{"measure": 0.3}, {"measure": 0.7}]})
    with pytest.raises(ValueError, match="equal child measures"):
        uc.build_basis(tree, "roots-of-unity")


def test_roots_of_unity_ternary_values_and_gram():
    tree = uc.build_tree({"p": 3, "depth": 1, "A": 1.0})
    basis = uc.build_basis(tree, "roots-of-unity")
    block = basis.coeffs[0]
    p, common = 3, 1.0 / 3.0
    for j in range(p - 1):
        for m in range(p):
            expected = np.exp(2j * np.pi * (j + 1) * m / p) / np.sqrt(p * common)
            assert block[j, m] == pytest.approx(expected, rel=1e-13)
    nu = tree.measure[tree.leaves]
    gram = weighted_gram(block, nu)
    assert np.abs(gram - np.eye(p - 1)).max() <= 1e-12


def test_unknown_scheme_rejected():
    tree = uc.build_tree({"p": 2, "depth": 1})
    with pytest.raises(ValueError, match="scheme"):
        uc.build_basis(tree, "fourier")


def test_full_gram_identity_both_schemes():
    rng = np.random.default_rng(47)
    for scheme, equal_split in (("gram-schmidt", False), ("roots-of-unity", True)):
        for _ in range(5):
            tree = uc.random_tree(rng, max_leaves=40, equal_split=equal_split)
            basis = uc.build_basis(tree, scheme)
            gram = basis.gram_matrix()
            assert np.abs(gram - np.eye(basis.n_slots)).max() <= 1e-12


def test_wavelet_count_is_leaves_minus_one():
    rng = np.random.default_rng(53)
    for _ in range(6):
        tree = uc.random_tree(rng, max_leaves=50)
        basis = uc.build_basis(tree)
        assert basis.n_slots == tree.n_leaves - 1


def test_wavelet_vanishes_outside_ball_and_constant_below():
    rng = np.random.default_rng(59)
    tree = uc.random_tree(rng, max_leaves=30)
    basis = uc.build_basis(tree)
    for vertex, j in basis.slots:
        vals = basis.leaf_values(vertex, j)
        inside = np.zeros(tree.n_leaves, dtype=bool)
        inside[tree.leaf_slice(vertex)] = True
        assert np.all(vals[~inside] == 0)
        # constant on every ball strictly below the wavelet's own
        for v in range(tree.n_vertices):
            if v != vertex and oracles.is_strict_ancestor(tree, vertex, v):
                sub = vals[tree.leaf_slice(v)]
                assert np.all(sub == sub[0])


def test_analyze_synthesize_round_trip():
    rng = np.random.default_rng(61)
    for scheme, equal_split in (("gram-schmidt", False), ("roots-of-unity", True)):
        for _ in range(5):
            tree = uc.random_tree(rng, max_leaves=40, equal_split=equal_split)
            basis = uc.build_basis(tree, scheme)
            f = random_mean_zero_field(tree, rng)
            back = uc.synthesize(uc.analyze(basis, f))
            err = np.abs(back.values - f.values).max()
            assert err <= 1e-12 * max(np.abs(f.values).max(), 1e-30)


def test_analyze_rejects_nonzero_mean():
    tree = uc.build_tree({"p": 2, "depth": 2})
    basis = uc.build_basis(tree)
    f = uc.LeafField(tree, np.full(4, 0.25 + 0.1j))
    with pytest.raises(ValueError, match="mean"):
        uc.analyze(basis, f)


def test_analyze_of_wavelet_is_unit_coefficient():
    tree = uc.build_tree({"p": 3, "depth": 2})
    basis = uc.build_basis(tree)
    target = basis.slots[3]
    field = uc.analyze(basis, basis.as_leaf_field(*target))
    dense = field.dense()
    expect = np.zeros(basis.n_slots, dtype=complex)
    expect[basis.slot_of(*target)] = 1.0
    assert np.abs(dense - expect).max() <= 1e-12


def test_analyze_zero_field_is_empty():
    tree = uc.build_tree({"p": 2, "depth": 2})
    basis = uc.build_basis(tree)
    field = uc.analyze(basis, uc.LeafField.zero(tree))
    assert len(field) == 0


def test_synthesize_output_mean_zero():
    rng = np.random.default_rng(67)
    tree = uc.random_tree(rng, max_leaves=30)
    basis = uc.build_basis(tree)
    v = uc.WaveletField(
        basis, {slot: complex(rng.normal(), rng.normal()) for slot in basis.slots}
    )
    f = uc.synthesize(v)
    assert abs(f.mean()) <= 1e-12 * max(f.norm(), 1e-30)


def test_ancestor_value_direct_child():
    tree = uc.build_tree({"p": 2, "depth": 2})
    basis = uc.build_basis(tree)
    mid = tree.vertex("0")
    assert uc.ancestor_value(basis, tree.root, 0, mid) == basis.coeffs[0][0, 0]
    other = tree.vertex("1")
    assert uc.ancestor_value(basis, tree.root, 0, other) == basis.coeffs[0][0, 1]


def test_ancestor_value_matches_leaf_evaluation():
    rng = np.random.default_rng(71)
    tree = uc.random_tree(rng, max_leaves=30)
    basis = uc.build_basis(tree)
    for anc, j in basis.slots:
        vals = basis.leaf_values(anc, j)
        for v in range(tree.n_vertices):
            if not oracles.is_strict_ancestor(tree, anc, v):
                continue
            got = uc.ancestor_value(basis, anc, j, v)
            sub = vals[tree.leaf_slice(v)]
            # equals the wavelet at every leaf of the lower ball
            assert np.all(sub == got)


def test_ancestor_value_requires_strict_descendant():
    tree = uc.build_tree({"p": 2, "depth": 2})
    basis = uc.build_basis(tree)
    with pytest.raises(ValueError):
        uc.ancestor_value(basis, tree.vertex("0"), 0, tree.vertex("0"))
    with pytest.raises(ValueError):
        uc.ancestor_value(basis, tree.vertex("0"), 0, tree.root)


def test_wavelet_field_records_round_trip():
    tree = uc.build_tree({"p": 3, "depth": 2})
    basis = uc.build_basis(tree)
    field = uc.WaveletField.from_records(
        basis, [("", 1, 0.25, -0.5), ("2", 0, -1.0, 0.0)]
    )
    records = field.records()
    again = uc.WaveletField.from_records(basis, records)
    assert again.data == field.data
    with pytest.raises(ValueError, match="slot"):
        uc.WaveletField.from_records(basis, [("0.0", 0, 1.0, 0.0)])
    with pytest.raises(ValueError, match="slot"):
        uc.WaveletField.from_records(basis, [("0", 5, 1.0, 0.0)])


def test_leaf_field_records_round_trip():
    tree = uc.build_tree({"p": 2, "depth": 2})
    f = uc.LeafField.from_records(tree, [("0.0", 1.0, 2.0), ("1.1", -1.0, 0.0)])
    assert f.values[0] == 1.0 + 2.0j
    assert f.values[3] == -1.0
    again = uc.LeafField.from_records(tree, f.records())
    assert np.array_equal(again.values, f.values)
    with pytest.raises(ValueError, match="not a leaf"):
        uc.LeafField.from_records(tree, [("0", 1.0, 0.0)])


@given(
    measures=st.lists(
        st.floats(min_value=0.05, max_value=10.0, allow_nan=False),
        min_size=2,
        max_size=7,
    )
)
@settings(max_examples=40, deadline=None)
def test_single_vertex_block_invariants(measures):
    tree = uc.build_tree({"children": [{"measure": m} for m in measures]})
    basis = uc.build_basis(tree)
    block = basis.coeffs[0]
    nu = tree.measure[tree.leaves]
    assert block.shape == (len(measures) - 1, len(measures))
    scale = np.abs(block).max() * nu.max()
    assert np.abs(block @ nu).max() <= 1e-12 * scale
    gram = weighted_gram(block, nu)
    assert np.abs(gram - np.eye(len(block))).max() <= 1e-11


def _sweep_cases(seed: int, count: int):
    """Seeded random trees, branching 2-4, with a basis under each scheme
    the tree allows (roots-of-unity needs equal child measures)."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        equal_split = i % 2 == 1
        tree = uc.random_tree(rng, max_leaves=80, min_branch=2, max_branch=4,
                              equal_split=equal_split)
        schemes = ("gram-schmidt", "roots-of-unity") if equal_split else (
            "gram-schmidt",)
        for scheme in schemes:
            yield rng, uc.build_basis(tree, scheme)


def test_transform_sweeps_match_dense_matrix():
    """analyze and synthesize equal conj(M) @ (f * nu) and v @ M, M the
    dense (slot, leaf) matrix, within 1e-15 of the triangle-inequality
    bound of each output."""
    for rng, basis in _sweep_cases(733, 24):
        tree = basis.tree
        matrix = dense_basis_matrix(basis)
        nu = tree.measure[tree.leaves]
        row_bound = np.abs(basis.slot_coeffs).sum(axis=1).max()
        f = random_mean_zero_field(tree, rng)
        got = uc.analyze(basis, f).dense()
        want = matrix.conj() @ (f.values * nu)
        bound = row_bound * (np.abs(f.values) @ nu)
        assert np.abs(got - want).max() <= 1e-15 * bound

        vec = rng.normal(size=basis.n_slots) + 1j * rng.normal(size=basis.n_slots)
        got = uc.synthesize(uc.WaveletField(basis, dict(zip(basis.slots, vec))))
        want = vec @ matrix
        bound = np.abs(vec) @ np.abs(basis.slot_coeffs).max(axis=1)
        assert np.abs(got.values - want).max() <= 1e-15 * bound


def test_analyze_trajectory_sweep_matches_dense_matrix():
    for rng, basis in _sweep_cases(739, 20):
        tree = basis.tree
        nu = tree.measure[tree.leaves]
        rows = np.stack([random_mean_zero_field(tree, rng).values
                         for _ in range(7)])
        leaf_traj = uc.LeafTrajectory(np.arange(7.0), tree, rows)
        got = uc.analyze_trajectory(leaf_traj, basis).values
        want = (rows * nu) @ dense_basis_matrix(basis).conj().T
        bound = np.abs(basis.slot_coeffs).sum(axis=1).max() * (np.abs(rows) @ nu)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want).max(axis=1) <= 1e-15 * bound)


def _tree_with_repeated_measures(rng: np.random.Generator) -> uc.BallTree:
    """Random shape whose leaf measures come from a three-value set, so
    many vertices share their child measures bit for bit."""
    def relabel(node: dict) -> dict:
        if "children" in node:
            return {"children": [relabel(c) for c in node["children"]]}
        return {"measure": float(rng.choice([0.25, 0.5, 1.0]))}
    shape = uc.random_tree(rng, max_leaves=60, min_branch=2, max_branch=4)
    return uc.build_tree({"root": relabel(shape.to_spec()["root"])})


def test_memoized_blocks_equal_fresh_per_vertex_construction():
    rng = np.random.default_rng(743)
    trees = [(_tree_with_repeated_measures(rng), "gram-schmidt")
             for _ in range(6)]
    trees += [(uc.random_tree(rng, max_leaves=60), "gram-schmidt")
              for _ in range(4)]
    for _ in range(6):
        tree = uc.random_tree(rng, max_leaves=60, equal_split=True)
        trees += [(tree, "gram-schmidt"), (tree, "roots-of-unity")]
    trees += [(uc.build_tree({"p": 3, "depth": 4}), s)
              for s in ("gram-schmidt", "roots-of-unity")]
    shared = 0
    for tree, scheme in trees:
        basis = uc.build_basis(tree, scheme)
        for v in tree.internal:
            nu = tree.measure[list(tree.children[v])]
            fresh = (_gram_schmidt_block(nu) if scheme == "gram-schmidt"
                     else _roots_of_unity_block(nu, tree.labels[v]))
            block = basis.coeffs[int(v)]
            assert block.tobytes() == fresh.tobytes()
            assert not block.flags.writeable
        shared += len(tree.internal) - len({id(b) for b in basis.coeffs.values()})
    assert shared > 0
    padic = uc.build_basis(uc.build_tree({"p": 2, "depth": 6}))
    assert len({id(b) for b in padic.coeffs.values()}) == 6
