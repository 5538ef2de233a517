"""Ball tree construction, lattice operations, and validation rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ultracascade as uc
from ultracascade import oracles


def test_padic_shorthand_binary_depth2():
    tree = uc.build_tree({"p": 2, "depth": 2, "A": 1.0, "q": 2.0})
    assert tree.n_vertices == 7
    assert tree.n_leaves == 4
    assert tree.measure[0] == 1.0
    assert tree.measure[tree.vertex("0")] == 0.5
    assert tree.measure[tree.vertex("0.1")] == 0.25
    assert tree.diameter[0] == 1.0
    assert tree.diameter[tree.vertex("1")] == 0.5
    assert tree.labels == ("", "0", "0.0", "0.1", "1", "1.0", "1.1")


def test_padic_shorthand_ternary_depth3():
    tree = uc.build_tree({"p": 3, "depth": 3, "A": 1.0, "q": 3.0})
    assert tree.n_vertices == 40
    assert tree.n_leaves == 27
    leaf_measures = tree.measure[tree.leaves]
    assert np.allclose(leaf_measures, 1.0 / 27.0, rtol=0, atol=1e-15)
    assert tree.diameter[tree.leaves[0]] == 3.0 ** -3


def test_padic_shorthand_rejects_bad_parameters():
    with pytest.raises(ValueError):
        uc.build_tree({"p": 1, "depth": 2})
    with pytest.raises(ValueError):
        uc.build_tree({"p": 2, "depth": 0})
    with pytest.raises(ValueError):
        uc.build_tree({"p": 2, "depth": 2, "A": -1.0})
    with pytest.raises(ValueError):
        uc.build_tree({"p": 2, "depth": 2, "q": 1.0})


def test_single_child_vertex_rejected():
    spec = {"children": [
        {"children": [{"measure": 1.0}]},
        {"measure": 1.0},
    ]}
    with pytest.raises(ValueError, match="single child"):
        uc.build_tree(spec)


def test_nonpositive_leaf_measure_rejected():
    for bad in (0.0, -2.0, float("nan")):
        spec = {"children": [{"measure": bad}, {"measure": 1.0}]}
        with pytest.raises(ValueError, match="measure"):
            uc.build_tree(spec)


def test_diameters_must_increase_toward_root():
    spec = {
        "diameter": 1.0,
        "children": [
            {"measure": 1.0, "diameter": 1.0},
            {"measure": 1.0, "diameter": 0.5},
        ],
    }
    with pytest.raises(ValueError, match="diameter"):
        uc.build_tree(spec)


def test_diameters_all_or_none():
    spec = {
        "children": [
            {"measure": 1.0, "diameter": 0.5},
            {"measure": 1.0},
        ],
    }
    with pytest.raises(ValueError, match="every vertex or on none"):
        uc.build_tree(spec)


def test_explicit_spec_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(10):
        tree = uc.random_tree(rng, max_leaves=40)
        again = uc.build_tree(tree.to_spec())
        assert again == tree
        assert again.labels == tree.labels


def test_sup_identity_and_root_cases():
    tree = uc.build_tree({"p": 2, "depth": 2})
    a = tree.vertex("0.0")
    b = tree.vertex("1.1")
    assert oracles.sup(tree, a, a) == a
    assert oracles.sup(tree, a, b) == tree.root
    assert oracles.sup(tree, a, tree.vertex("0.1")) == tree.vertex("0")
    # sup with an ancestor is the ancestor
    assert oracles.sup(tree, a, tree.vertex("0")) == tree.vertex("0")


def test_sup3_permutation_invariant_exhaustive():
    # exhaustive over all leaf triples on trees below ~40 vertices
    rng = np.random.default_rng(3)
    trees = [
        uc.build_tree({"p": 3, "depth": 2}),
        uc.random_tree(rng, max_leaves=12),
    ]
    for tree in trees:
        leaves = [int(v) for v in tree.leaves]
        for a in leaves:
            for b in leaves:
                for c in leaves:
                    ref = oracles.sup(tree, oracles.sup(tree, a, b), c)
                    assert oracles.sup(tree, oracles.sup(tree, a, c), b) == ref
                    assert oracles.sup(tree, oracles.sup(tree, b, a), c) == ref
                    assert oracles.sup(tree, oracles.sup(tree, b, c), a) == ref
                    assert oracles.sup(tree, oracles.sup(tree, c, a), b) == ref
                    assert oracles.sup(tree, oracles.sup(tree, c, b), a) == ref


def test_measure_toward_direct_child_and_uniform():
    tree = uc.build_tree({"p": 2, "depth": 2})
    mid = tree.vertex("0")
    leaf = tree.vertex("1.0")
    # toward a direct child: the child's own measure
    assert tree.measure[oracles.child_toward(tree, tree.root, mid)] == tree.measure[mid]
    # uniform binary split: either way from the root weighs one half
    assert tree.measure[oracles.child_toward(tree, tree.root, leaf)] == 0.5


def test_measure_toward_matches_path_walk():
    rng = np.random.default_rng(17)
    for _ in range(5):
        tree = uc.random_tree(rng, max_leaves=30)
        for v in range(1, tree.n_vertices):
            for anc in oracles.ancestors(tree, v):
                # independent route: longest child label prefixing v's label
                label = tree.labels[v]
                on_path = [
                    c for c in tree.children[anc]
                    if label == tree.labels[c]
                    or label.startswith(tree.labels[c] + ".")
                ]
                assert len(on_path) == 1
                child = oracles.child_toward(tree, anc, v)
                assert tree.measure[child] == tree.measure[on_path[0]]


def test_measure_toward_requires_strict_descendant():
    tree = uc.build_tree({"p": 2, "depth": 2})
    with pytest.raises(ValueError):
        tree.measure[oracles.child_toward(tree, tree.vertex("0"), tree.vertex("0"))]
    with pytest.raises(ValueError):
        tree.measure[oracles.child_toward(tree, tree.vertex("0"), tree.vertex("1.0"))]
    with pytest.raises(ValueError):
        tree.measure[oracles.child_toward(tree, tree.vertex("0.0"), tree.root)]


def test_measure_toward_strictly_below_parent_measure():
    rng = np.random.default_rng(23)
    tree = uc.random_tree(rng, max_leaves=40)
    for v in range(1, tree.n_vertices):
        for anc in oracles.ancestors(tree, v):
            assert tree.measure[oracles.child_toward(tree, anc, v)] < tree.measure[anc]


def test_leaf_distance_strong_triangle():
    rng = np.random.default_rng(5)
    for _ in range(4):
        tree = uc.random_tree(rng, max_leaves=15)
        leaves = [int(v) for v in tree.leaves]
        for a in leaves:
            for b in leaves:
                for c in leaves:
                    dab = oracles.leaf_distance(tree, a, b)
                    assert dab <= max(
                        oracles.leaf_distance(tree, a, c),
                        oracles.leaf_distance(tree, c, b),
                    ) or (a == b)


def test_interior_measures_sum_of_leaves():
    rng = np.random.default_rng(29)
    for _ in range(5):
        tree = uc.random_tree(rng, max_leaves=60)
        nu_leaves = tree.measure[tree.leaves]
        for v in range(tree.n_vertices):
            total = nu_leaves[tree.leaf_slice(v)].sum()
            assert abs(total - tree.measure[v]) <= 1e-12 * tree.measure[v]


def test_leaf_sup_table_matches_pairwise_sup():
    rng = np.random.default_rng(31)
    tree = uc.random_tree(rng, max_leaves=25)
    table = uc.oracles.leaf_sup_table(tree)
    leaves = [int(v) for v in tree.leaves]
    for i, a in enumerate(leaves):
        for j, b in enumerate(leaves):
            assert table[i, j] == oracles.sup(tree, a, b)


def test_vertex_leaf_sup_table_matches_pairwise_sup():
    rng = np.random.default_rng(37)
    tree = uc.random_tree(rng, max_leaves=25)
    table = uc.oracles.vertex_leaf_sup_table(tree)
    leaves = [int(v) for v in tree.leaves]
    for v in range(tree.n_vertices):
        for j, b in enumerate(leaves):
            assert table[v, j] == oracles.sup(tree, v, b)


def test_root_path_table_lists_ancestors_below_root():
    rng = np.random.default_rng(41)
    tree = uc.random_tree(rng, max_leaves=25)
    table = tree.root_path_table()
    assert table.shape == (tree.n_vertices, tree.depth.max())
    for v in range(tree.n_vertices):
        below_root = [v, *oracles.ancestors(tree, v)][:-1]
        expected = below_root + [0] * (table.shape[1] - len(below_root))
        assert table[v].tolist() == expected


def test_vertex_lookup_and_labels():
    tree = uc.build_tree({"p": 2, "depth": 2})
    assert tree.vertex("") == tree.root
    assert tree.label(tree.vertex("0.1")) == "0.1"
    assert len(set(tree.labels)) == tree.n_vertices
    with pytest.raises(ValueError, match="unknown vertex"):
        tree.vertex("0.7")


def test_leaf_index_and_slice():
    tree = uc.build_tree({"p": 3, "depth": 2})
    for pos, leaf in enumerate(tree.leaves):
        assert tree.leaf_index(int(leaf)) == pos
    mid = tree.vertex("1")
    sl = tree.leaf_slice(mid)
    assert sl == slice(3, 6)
    with pytest.raises(ValueError):
        tree.leaf_index(mid)


@given(
    measures=st.lists(
        st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
        min_size=2,
        max_size=6,
    )
)
@settings(max_examples=40, deadline=None)
def test_star_tree_measure_aggregation(measures):
    spec = {"children": [{"measure": m} for m in measures]}
    tree = uc.build_tree(spec)
    assert tree.total_measure == pytest.approx(sum(measures), rel=1e-12)
    # distances: all distinct leaves sit at the root diameter
    leaves = [int(v) for v in tree.leaves]
    for a in leaves:
        for b in leaves:
            expected = 0.0 if a == b else tree.diameter[0]
            assert oracles.leaf_distance(tree, a, b) == expected
