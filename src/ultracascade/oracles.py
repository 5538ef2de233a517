"""Randomized sweep checks pitting closed forms against direct quadrature.

Two claims carry the whole library:

* every wavelet is an eigenfunction of the kernel operator, with the
  eigenvalue given by the ancestor-sum formula, and
* the interaction integral of two wavelets collapses to (pointwise)
  the product of the wavelets times a single coefficient.

``eigen_check`` and ``interaction_check`` measure the worst deviation of
those claims on one tree/basis/kernel triple, evaluating the integrals by
direct summation over leaf cells.  ``random_tree`` and ``random_kernel``
supply the randomized inputs for sweeps.  The interaction check batches
all wavelet pairs through shared contractions; ``interaction_integral_direct``
remains the per-pair reference, and the batched path is expected to match
it to rounding (tests enforce this).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .spectral import (
    DEFAULT_LEAF_CAP,
    Kernel,
    apply_pdo_direct,
    eigenvalue,
    interaction_table,
)
from .tree import BallTree, build_tree
from .wavelets import WaveletBasis

__all__ = [
    "leaf_sup_table",
    "vertex_leaf_sup_table",
    "random_tree",
    "random_kernel",
    "eigen_check",
    "interaction_check",
    "EIGEN_TOL",
    "INTERACTION_TOL",
    "CROSS_SOLVER_TOL",
]

# sweep tolerances: direct quadrature vs closed forms, and the solver triangle
EIGEN_TOL = 1e-12
INTERACTION_TOL = 1e-11
CROSS_SOLVER_TOL = 1e-5


def leaf_sup_table(tree: BallTree) -> np.ndarray:
    """(L, L) array: entry [i, j] is sup of the i-th and j-th leaves.

    Built afresh on each call, O(L^2): every child's leaf block is
    overwritten by the child, top-down.
    """
    L = tree.n_leaves
    sup2 = np.zeros((L, L), dtype=np.int32)
    for c in range(1, tree.n_vertices):
        s, e = tree.leaf_ranges[c]
        sup2[s:e, s:e] = c
    return sup2


def vertex_leaf_sup_table(tree: BallTree) -> np.ndarray:
    """(V, L) array: entry [v, j] is sup of vertex v and the j-th leaf."""
    sup2 = leaf_sup_table(tree)
    supv = np.empty((tree.n_vertices, tree.n_leaves), dtype=np.int32)
    for v in range(tree.n_vertices):
        s, e = tree.leaf_ranges[v]
        supv[v] = sup2[s]
        supv[v, s:e] = v
    return supv


def random_tree(
    rng: np.random.Generator,
    max_leaves: int = 100,
    min_branch: int = 2,
    max_branch: int = 4,
    max_depth: int = 7,
    equal_split: bool = False,
    measure_range: tuple[float, float] = (0.25, 2.0),
) -> BallTree:
    """Random regular ball tree with bounded branching and leaf count.

    Leaf measures are drawn uniformly from ``measure_range`` unless
    ``equal_split`` is set, in which case every vertex divides its
    measure equally among its children (the shape is still random); the
    latter trees are valid inputs for the roots-of-unity basis scheme.
    """
    if max_leaves < min_branch:
        raise ValueError("max_leaves must allow at least one split")
    budget = int(rng.integers(max(min_branch, 4), max_leaves + 1))

    def shape(depth: int, budget: int) -> Any:
        stop = depth >= max_depth or budget < min_branch
        if stop or (depth > 0 and rng.random() < 0.18):
            return None
        p = int(rng.integers(min_branch, min(max_branch, budget) + 1))
        base, extra = divmod(budget, p)
        return [shape(depth + 1, base + (1 if k < extra else 0))
                for k in range(p)]

    def to_spec(node: Any, mass: float) -> dict:
        if node is None:
            if equal_split:
                return {"measure": mass}
            return {"measure": float(rng.uniform(*measure_range))}
        share = mass / len(node)
        return {"children": [to_spec(sub, share) for sub in node]}

    total = float(rng.uniform(0.5, 2.0))
    return build_tree({"root": to_spec(shape(0, budget), total)})


def random_kernel(
    tree: BallTree, rng: np.random.Generator, max_abs: float = 2.0
) -> Kernel:
    """Kernel with independent complex values, each bounded by ``max_abs``."""
    scale = max_abs / np.sqrt(2.0)
    re = rng.uniform(-1.0, 1.0, tree.n_vertices)
    im = rng.uniform(-1.0, 1.0, tree.n_vertices)
    return Kernel(tree, (re + 1j * im) * scale)


def eigen_check(kernel: Kernel, basis: WaveletBasis) -> float:
    """Worst deviation of (operator applied to wavelet) from
    (eigenvalue times wavelet), over every wavelet of the basis.

    The operator side goes through ``apply_pdo_direct``, the literal
    leaf-pair sum; the eigenvalue side through the ancestor-sum formula.
    """
    worst = 0.0
    sup = leaf_sup_table(basis.tree)
    for vertex, j in basis.slots:
        f = basis.as_leaf_field(vertex, j)
        direct = apply_pdo_direct(kernel, f, sup=sup)
        predicted = eigenvalue(kernel, vertex) * f.values
        worst = max(worst, float(np.abs(direct.values - predicted).max()))
    return worst


def interaction_check(
    kernel: Kernel,
    basis: WaveletBasis,
    max_leaves: int = DEFAULT_LEAF_CAP,
) -> tuple[float, int]:
    """Worst deviation of the interaction integral from its closed form,
    over every ordered wavelet pair of the basis.

    For wavelets phi (outer slot) and psi (inner slot), the direct triple
    sum result(a) = sum_{b,c} value(sup3(a,b,c)) phi(b) (psi(c) - psi(a))
    nu(b) nu(c) is compared pointwise against psi(a) phi(a) times the
    interaction coefficient of the two balls, which is zero whenever the
    balls are not strictly nested.  Returns (worst deviation, pair count).

    All pairs share the inner contraction over b, so the sweep is a few
    dense products instead of a quadratic number of triple sums.
    """
    tree = basis.tree
    L = tree.n_leaves
    if L > max_leaves:
        raise ValueError(
            f"tree has {L} leaves, above the sweep cap of {max_leaves}"
        )
    nu = tree.measure[tree.leaves]
    Psi = np.array([basis.leaf_values(v, j) for v, j in basis.slots])
    n_slots = basis.n_slots

    # inner[s, v] = sum_b value(sup(v, b)) psi_s(b) nu(b)
    kernel_vl = kernel.values[vertex_leaf_sup_table(tree)]
    inner = (Psi * nu) @ kernel_vl.T
    # S[s, a, c] = sum_b value(sup3(a, b, c)) psi_s(b) nu(b)
    S = inner[:, leaf_sup_table(tree)]
    row = S @ nu
    # direct[p, a, q] = triple sum with phi = wavelet p, psi = wavelet q
    direct = (S.reshape(n_slots * L, L) @ (Psi * nu).T).reshape(
        n_slots, L, n_slots
    )
    direct -= row[:, :, None] * Psi.T[None, :, :]

    # coefficient of every (outer, inner) vertex pair, scattered from the
    # root-path table; pairs that are not strictly nested stay 0
    paths = tree.root_path_table()
    v, j = np.nonzero(np.arange(paths.shape[1]) < tree.depth[:, None])
    coeff = np.zeros((tree.n_vertices,) * 2, dtype=np.complex128)
    coeff[tree.parent[paths[v, j]], v] = interaction_table(kernel)[v, j]
    coeff = coeff[np.ix_(basis.slot_vertex, basis.slot_vertex)]
    predicted = Psi[:, :, None] * Psi.T[None, :, :] * coeff[:, None, :]
    worst = float(np.abs(direct - predicted).max())
    return worst, n_slots * n_slots
