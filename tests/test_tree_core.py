"""The array core of BallTree and the table-driven basis, against the
per-vertex loop constructors they replaced (``conftest.ReferenceTree``,
``conftest.reference_basis``): every array, lazy attribute and error
message must come out the same, bit for bit."""

import re
import string
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import ultracascade as uc
from ultracascade import oracles

from conftest import build_counting_blocks, reference_basis, reference_tree

TREE_ARRAYS = ("parent", "child_slot", "depth", "measure", "diameter",
               "leaves", "internal", "leaf_ranges")
BASIS_ARRAYS = ("slot_vertex", "slot_wavelet", "slot_coeffs", "slot_children")


def assert_same_tree(tree: uc.BallTree, ref) -> None:
    for name in TREE_ARRAYS:
        got, want = getattr(tree, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert tree.children == ref.children
    assert tree.labels == ref.labels
    assert tree.n_vertices == len(ref.children)


def assert_same_basis(tree: uc.BallTree, scheme: str, ref: dict) -> None:
    """Build the basis of ``tree`` and compare it with ``ref``; one block
    is built per group of equal child measures, and no ball's block is a
    copy of its ``slot_coeffs`` rows."""
    basis, n_blocks = build_counting_blocks(tree, scheme)
    for name in BASIS_ARRAYS:
        got = getattr(basis, name)
        assert got.shape == ref[name].shape, name
        assert got.tobytes() == ref[name].astype(got.dtype).tobytes(), name
    assert basis.slots == ref["slots"]
    for s, (v, j) in enumerate(ref["slots"]):
        assert basis.slot_of(v, j) == s
    assert basis.labels == ref["labels"]
    assert basis.coeffs.keys() == ref["coeffs"].keys()
    for v, block in basis.coeffs.items():
        assert block.tobytes() == ref["coeffs"][v].tobytes()
        assert block.shape == ref["coeffs"][v].shape
        assert not block.flags.writeable
        assert np.shares_memory(block, basis.slot_coeffs)
    assert n_blocks == ref["n_groups"]


def shorthand_cases():
    for p in (2, 3, 4, 5):
        for depth in range(1, 9):
            if (p ** (depth + 1) - 1) // (p - 1) <= 100_000:
                yield p, depth
    yield 2, 12


@pytest.mark.parametrize("p,depth", list(shorthand_cases()))
def test_shorthand_tree_and_basis_match_loop_reference(p, depth):
    spec = {"p": p, "depth": depth, "A": 1.7, "q": 2.5}
    tree = uc.build_tree(spec)
    ref = reference_tree(spec)
    assert_same_tree(tree, ref)
    for scheme in ("gram-schmidt", "roots-of-unity"):
        assert_same_basis(tree, scheme, reference_basis(ref, scheme))


def random_specs(count: int, seed: int) -> list[dict]:
    """Specs that ``random_tree`` builds, captured on their way to
    ``build_tree``: random shapes and measures, some with branching
    above 8, where numpy's sum turns pairwise, some split evenly."""
    rng = np.random.default_rng(seed)
    specs = []
    real = oracles.build_tree
    oracles.build_tree = lambda spec: specs.append(spec) or real(spec)
    try:
        for i in range(count):
            if i % 4 == 0:
                oracles.random_tree(rng, max_leaves=120, min_branch=9,
                                    max_branch=13, max_depth=3)
            else:
                oracles.random_tree(rng, max_leaves=80, max_branch=6,
                                    equal_split=i % 4 == 1)
    finally:
        oracles.build_tree = real
    return specs


def test_random_trees_and_bases_match_loop_reference():
    specs = random_specs(48, seed=2026)
    assert max(max(len(row) for row in reference_tree(s).children)
               for s in specs) > 8
    for i, spec in enumerate(specs):
        tree = uc.build_tree(spec)
        ref = reference_tree(spec)
        assert_same_tree(tree, ref)
        assert_same_basis(tree, "gram-schmidt", reference_basis(ref, "gram-schmidt"))
        if i % 4 == 1:  # equal splits: the roots-of-unity scheme applies
            assert_same_basis(tree, "roots-of-unity",
                              reference_basis(ref, "roots-of-unity"))


def test_roots_of_unity_names_the_first_unequal_vertex_in_preorder():
    spec = {"children": [
        {"children": [{"measure": 1.5}, {"measure": 1.5}]},
        {"children": [{"measure": 1.0}, {"measure": 2.0}]},
        {"children": [{"measure": 0.5}, {"measure": 1.5}, {"measure": 1.0}]},
        {"children": [{"measure": 1.5}, {"measure": 1.5}]},
    ]}
    tree = uc.build_tree(spec)
    ref = reference_tree(spec)
    with pytest.raises(ValueError) as want:
        reference_basis(ref, "roots-of-unity")
    with pytest.raises(ValueError) as got:
        uc.build_basis(tree, "roots-of-unity")
    assert str(got.value) == str(want.value)
    assert "'1'" in str(got.value)


MALFORMED_SPECS = [
    {"children": [{"children": [{"measure": 1.0}]}, {"measure": 1.0}]},
    {"children": [{"measure": 1.0}, {"children": [{"measure": 2.0}]},
                  {"children": [{"measure": 1.0}, {"children": [{"measure": 3.0}]}]}]},
    {"children": [{"measure": 1.0}, {"children": []}]},
    {"children": [{"children": []}, {"measure": 0.0}]},
    {"children": [{"measure": 1.0}, {"measure": 0.0}, {"measure": -2.0}]},
    {"children": [{"measure": -1.0}, {"children": [{"measure": 1.0}]}]},
    {"children": [{"measure": float("nan")}, {"measure": 1.0}]},
    {"children": [{"measure": float("inf")}, {"measure": 1.0}]},
    {"diameter": 1.0, "children": [{"measure": 1.0, "diameter": 1.0},
                                   {"measure": 1.0, "diameter": 0.5}]},
    {"diameter": 1.0, "children": [
        {"diameter": 0.5, "children": [{"measure": 1.0, "diameter": 0.25},
                                       {"measure": 1.0, "diameter": 0.6}]},
        {"measure": 1.0, "diameter": 2.0}]},
    {"diameter": 1.0, "children": [{"measure": 1.0, "diameter": 0.0},
                                   {"measure": 1.0, "diameter": 0.5}]},
    {"children": [{"measure": 1.0, "diameter": 0.5}, {"measure": 1.0}]},
    {"children": [{"measure": 1.0, "children": []}, {"measure": 1.0}]},
    {"children": [{"measure": 1.0}, "leaf"]},
    {"root": {"measure": 1.0}},
]


@pytest.mark.parametrize("spec", MALFORMED_SPECS)
def test_malformed_explicit_specs_give_the_reference_message(spec):
    try:
        reference_tree(spec)
    except ValueError as exc:
        want = str(exc)
    else:
        tree = uc.build_tree(spec)  # a valid spec: both must agree
        assert_same_tree(tree, reference_tree(spec))
        return
    with pytest.raises(ValueError) as got:
        uc.build_tree(spec)
    assert str(got.value) == want


def test_core_refuses_malformed_arrays():
    nan = np.nan

    def build(parent, slot, measure=None):
        n = len(parent)
        if measure is None:
            measure = [nan if v in parent else 1.0 for v in range(n)]
        return uc.BallTree(parent, slot, measure, [2.0 ** -d for d in range(n)])

    with pytest.raises(ValueError, match="at least one vertex"):
        uc.BallTree([], [], [], [])
    with pytest.raises(ValueError, match="root"):
        build([0, 0, 0], [-1, 0, 1])
    with pytest.raises(ValueError, match="disconnected"):
        build([-1, 0, -1], [-1, 0, 1])
    with pytest.raises(ValueError, match="preorder"):
        build([-1, 2, 0], [-1, 0, 1])
    # 0 -> (1 -> (3, 4), 2): 2 is numbered before 1's children
    with pytest.raises(ValueError, match="preorder"):
        build([-1, 0, 0, 1, 1], [-1, 0, 1, 0, 1])
    with pytest.raises(ValueError, match="preorder"):
        build([-1, 0, 0], [-1, 0, 2])
    with pytest.raises(ValueError, match="preorder"):
        build([-1, 0, 0], [-1, 1, 0])
    with pytest.raises(ValueError, match="cannot carry a leaf measure"):
        build([-1, 0, 0], [-1, 0, 1], [1.0, 1.0, 1.0])
    tree = build([-1, 0, 1, 1, 0], [-1, 0, 0, 1, 1])
    assert tree.labels == ("", "0", "0.0", "0.1", "1")


def label_map(tree: uc.BallTree) -> dict:
    return {lab: v for v, lab in enumerate(tree.labels)}


def test_vertex_lookup_matches_the_label_map_on_a_fuzz_of_paths():
    rng = np.random.default_rng(97)
    trees = [uc.build_tree({"p": 2, "depth": 3}), uc.build_tree({"p": 11, "depth": 2})]
    trees += [oracles.random_tree(rng, max_leaves=60, max_branch=12)
              for _ in range(4)]
    fixed = ["", "0", "01", "00", "0.", ".0", "0..1", " 0", "0 ", "-1", "+1",
             "1e0", "0x1", "١", "٠", "0.١", "²", "0.10", "10", "11", "12",
             "0.0.0.0.0.0.0", "9" * 5000, "0" * 5000, "\n", "0\n", "0.-0"]
    alphabet = list("0123456789.") + [" ", "-", "+", "٣", "a", "_"]
    for tree in trees:
        known = label_map(tree)
        paths = fixed + list(known)
        paths += ["".join(rng.choice(alphabet, size=int(rng.integers(0, 9))))
                  for _ in range(400)]
        paths += [lab + suffix for lab in list(known)[:50]
                  for suffix in (".0", ".9", "0", ".", " ")]
        for path in paths:
            if path in known:
                assert tree.vertex(path) == known[path], path
                assert tree.vertices([path]).tolist() == [known[path]], path
            else:
                message = f"^unknown vertex path {re.escape(repr(path))}$"
                with pytest.raises(ValueError, match=message):
                    tree.vertex(path)
                with pytest.raises(ValueError, match=message):
                    tree.vertices([path])
        # in one batch the first unknown path in the given order is named
        order = rng.permutation(len(paths))
        for lo in range(0, len(paths), 97):
            batch = [paths[i] for i in order[lo:lo + 97]]
            unknown = [path for path in batch if path not in known]
            if unknown:
                message = f"^unknown vertex path {re.escape(repr(unknown[0]))}$"
                with pytest.raises(ValueError, match=message):
                    tree.vertices(batch)
            else:
                assert tree.vertices(batch).tolist() == [known[p] for p in batch]
        assert tree.vertices(list(known)).tolist() == list(known.values())
    assert trees[0].vertices([]).tolist() == []
    for bad in (None, 0, b"0"):
        with pytest.raises(ValueError, match="unknown vertex path"):
            trees[0].vertex(bad)
        with pytest.raises(ValueError, match=f"unknown vertex path {bad!r}"):
            trees[0].vertices(["0", bad, "7"])


def test_build_scenario_on_shorthand_leaves_children_and_labels_unbuilt():
    raw = {
        "tree": {"p": 2, "depth": 6},
        "interaction": {"type": "power", "a": [1.0, 0.0], "b": 0.5,
                        "overrides": [["0.1", 2.0, 0.0]]},
        "dissipation": {"type": "power", "a": [1.0, 0.0], "b": 0.0},
        "initial": {"wavelets": [["", 0, 0.2, 0.0], ["0.1.1", 0, 0.1, 0.1]]},
        "t_end": 0.01,
        "dt": 0.001,
    }
    scen = uc.build_scenario(uc.parse_config(raw))
    for name in ("children", "labels"):
        assert name not in vars(scen.system.tree)
    for name in ("coeffs", "slots", "labels"):
        assert name not in vars(scen.system.basis)
    # first use builds them, equal to the reference
    assert_same_tree(scen.system.tree, reference_tree(raw["tree"]))


def test_padic_build_memory_at_depth_16():
    uc.build_basis(uc.build_tree({"p": 2, "depth": 3}))  # warm caches
    tracemalloc.start()
    try:
        tree = uc.build_tree({"p": 2, "depth": 16})
        basis = uc.build_basis(tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.n_slots == 2 ** 16 - 1
    # 131071 balls: the kept tree and basis arrays are about 14 MiB
    assert peak < 24 * 2 ** 20, peak / 2 ** 20


def level_pass_trees() -> list[uc.BallTree]:
    """Seeded random trees, branching 2-13 with non-uniform measures, and
    shorthand trees with p = 2, 3, 4."""
    rng = np.random.default_rng(18)
    trees = [oracles.random_tree(rng, max_leaves=120, min_branch=9,
                                 max_branch=13, max_depth=3) for _ in range(4)]
    trees += [oracles.random_tree(rng, max_leaves=80, max_branch=6)
              for _ in range(8)]
    trees += [uc.build_tree({"p": p, "depth": d, "A": 1.3})
              for p, d in ((2, 1), (2, 7), (3, 4), (4, 3))]
    return trees


def complex_rows(rng, m: int, n: int) -> np.ndarray:
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


@pytest.mark.parametrize("i, tree", list(enumerate(level_pass_trees())))
def test_ball_sums_sum_each_ball_over_its_leaves(i, tree):
    rng = np.random.default_rng(i)
    # magnitudes over six decades, so a sum rounds over unequal terms
    scale = 10.0 ** rng.uniform(-3, 3, tree.n_leaves)
    w = complex_rows(rng, 1, tree.n_leaves)[0] * scale
    sums = tree.ball_sums(w)
    assert sums.shape == (tree.n_vertices,) and sums.dtype == np.complex128
    assert sums[tree.leaves].tobytes() == w.tobytes()
    for v, (s, e) in enumerate(tree.leaf_ranges.tolist()):
        assert abs(sums[v] - w[s:e].sum()) <= 1e-14 * np.abs(w[s:e]).sum()


@pytest.mark.parametrize("i, tree", list(enumerate(level_pass_trees())))
def test_path_sums_sum_each_root_path(i, tree):
    rng = np.random.default_rng(100 + i)
    x = complex_rows(rng, 1, tree.n_vertices)[0]
    sums = tree.path_sums(x)
    assert sums.shape == x.shape and sums[0] == x[0]
    for v in range(tree.n_vertices):
        path = [v]
        while path[-1]:
            path.append(int(tree.parent[path[-1]]))
        assert abs(sums[v] - x[path].sum()) <= 1e-14 * np.abs(x[path]).sum()


@pytest.mark.parametrize("i, tree", list(enumerate(level_pass_trees())))
def test_level_passes_give_each_row_of_a_stack_its_one_row_values(i, tree):
    rng = np.random.default_rng(200 + i)
    leaf_rows = complex_rows(rng, 3, tree.n_leaves)
    vertex_rows = complex_rows(rng, 3, tree.n_vertices)
    given = vertex_rows.copy()
    stacked_balls = tree.ball_sums(leaf_rows)
    stacked_paths = tree.path_sums(vertex_rows)
    for k in range(3):
        assert stacked_balls[k].tobytes() == tree.ball_sums(leaf_rows[k]).tobytes()
        assert stacked_paths[k].tobytes() == tree.path_sums(vertex_rows[k]).tobytes()
    assert vertex_rows.tobytes() == given.tobytes()  # summed in a copy
