"""Setup walks each root path one ancestor level at a time.

``eigenvalue_table``, ``interaction_table`` and ``assemble`` must give,
bit for bit and signed zeros included, what their whole-table forms in
``conftest`` give, and ``build_scenario`` must hold its traced peak near
the bytes of what it builds.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

import ultracascade as uc
from conftest import (
    whole_table_assemble,
    whole_table_eigenvalue_table,
    whole_table_interaction_table,
)


def bits(a: np.ndarray) -> np.ndarray:
    """The float64 bit patterns of a complex array, signed zeros apart."""
    return np.ascontiguousarray(a).view(np.uint64)


def kernels(tree: uc.BallTree, rng: np.random.Generator) -> list[uc.Kernel]:
    """A random kernel, a constant one, and a real one whose imaginary
    parts are all -0.0, so that signed zeros reach every sum."""
    n = tree.n_vertices
    real = (rng.normal(size=n) * 1e3).astype(np.complex128)
    real.imag = -0.0
    return [
        uc.random_kernel(tree, rng),
        uc.Kernel.constant(tree, complex(rng.uniform(-2, 2), rng.uniform(-2, 2))),
        uc.Kernel(tree, real),
    ]


def cases():
    """(tree, scheme) pairs: seeded random trees with branching 2-13 and
    uneven leaf measures under gram-schmidt, equal-split ones under both
    schemes, depth-1 trees and uneven explicit trees."""
    rng = np.random.default_rng(29)
    out = []
    for i in range(80):
        top = int(rng.integers(2, 14))
        tree = uc.random_tree(rng, max_leaves=int(rng.integers(top, 160)),
                              max_branch=top, max_depth=int(rng.integers(1, 8)),
                              equal_split=i % 2 == 1)
        out.append((tree, "gram-schmidt"))
        if i % 2:
            out.append((tree, "roots-of-unity"))
    for p in (2, 5, 13):
        out.append((uc.build_tree({"p": p, "depth": 1}), "roots-of-unity"))
        out.append((uc.build_tree({"children": [{"measure": m}
                                                for m in rng.uniform(0.1, 3.0, p)]}),
                    "gram-schmidt"))
    uneven = {"children": [
        {"measure": 0.3},
        {"children": [{"measure": 1.7},
                      {"children": [{"measure": 0.2}, {"measure": 0.9},
                                    {"children": [{"measure": 0.4},
                                                  {"measure": 0.6}]}]}]},
        {"children": [{"measure": 2.5}, {"measure": 0.1}, {"measure": 0.8},
                      {"measure": 1.1}]},
    ]}
    out.append((uc.build_tree(uneven), "gram-schmidt"))
    out.append((uc.build_tree({"p": 3, "depth": 4}), "roots-of-unity"))
    out.append((uc.build_tree({"root": {"measure": 1.0}}), "gram-schmidt"))
    return out, rng


def test_tables_match_their_whole_table_forms_bit_for_bit():
    trees, rng = cases()
    seen = set()
    for tree, _ in trees:
        for kernel in kernels(tree, rng):
            eig = uc.eigenvalue_table(kernel)
            want = whole_table_eigenvalue_table(kernel)
            assert eig.shape == want.shape
            assert np.array_equal(bits(eig), bits(want))
            table = uc.interaction_table(kernel)
            want = whole_table_interaction_table(kernel)
            assert table.shape == want.shape
            assert np.array_equal(bits(table), bits(want))
            seen.add(int(tree.branching.max()))
    assert {2, 13} <= seen


def test_assemble_matches_its_whole_table_form_bit_for_bit():
    trees, rng = cases()
    couplings = 0
    for tree, scheme in trees:
        basis = uc.build_basis(tree, scheme)
        for interaction in kernels(tree, rng):
            dissipation = kernels(tree, rng)[0]
            got = uc.assemble(tree, basis, interaction, dissipation)
            want = whole_table_assemble(tree, basis, interaction, dissipation)
            assert np.array_equal(bits(got.eta), bits(want.eta))
            assert got.anc_slot.shape == want.anc_slot.shape
            assert got.anc_slot.dtype == want.anc_slot.dtype
            assert np.array_equal(got.anc_slot, want.anc_slot)
            assert np.array_equal(bits(got.weight), bits(want.weight))
            assert got.anc_slot.flags.c_contiguous
            assert got.weight.flags.c_contiguous
            assert got.n_couplings == want.n_couplings
            couplings += got.n_couplings
    assert couplings > 0


def test_build_scenario_peak_stays_near_what_it_builds():
    """p=2 depth 14, one initial slot per depth along one root path.  The
    walk peaks at about 1.3 times the bytes the scenario keeps (1.2 at
    depth 18); the (V, D) root-path tables it replaced peaked at about
    4.6 times."""
    cfg = uc.parse_config({
        "tree": {"p": 2, "depth": 14},
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
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    system = scen.system
    couplings = system.anc_slot.nbytes + system.weight.nbytes
    assert held / 3 < couplings <= held
    assert peak < 2 * held
