"""Brute-force references for the closed forms, the sweeps that use them,
and every size limit of the dense checks.

Two claims carry the whole library: every wavelet is an eigenfunction of
the kernel operator, with the eigenvalue given by the ancestor-sum
formula, and the interaction integral of two wavelets collapses pointwise
to the product of the wavelets times one coefficient.  ``eigen_check``
and ``interaction_check`` measure the worst deviation of those claims on
one tree/basis/kernel triple by direct summation over leaf cells; the
second shares one inner contraction among all wavelet pairs, runs in
blocks of 8 outer slots, and matches the per-pair
``spectral.interaction_integral_direct`` to rounding.
``random_tree`` and ``random_kernel`` supply randomized inputs.

``dense_check_refusal`` is the one place a tree is compared against the
caps ``DEFAULT_LEAF_CAP`` and ``MAX_EIGEN_CHECK_BYTES``; the dense
quadratures of ``spectral`` call it before they build anything.  The
scalar walks ``sup``, ``ancestors``, ``is_strict_ancestor``,
``child_toward``, ``leaf_distance`` and ``ancestor_value`` are per-pair
references for the sup tables and the tests; no solver route calls them.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from .spectral import (
    Kernel,
    apply_pdo_direct,
    eigenvalue,
    interaction_table,
)
from .tree import BallTree, build_tree
from .wavelets import WaveletBasis

__all__ = [
    "sup",
    "ancestors",
    "is_strict_ancestor",
    "child_toward",
    "leaf_distance",
    "ancestor_value",
    "leaf_sup_table",
    "vertex_leaf_sup_table",
    "random_tree",
    "random_kernel",
    "dense_check_refusal",
    "eigen_check",
    "interaction_check",
    "DEFAULT_LEAF_CAP",
    "MAX_EIGEN_CHECK_BYTES",
    "EIGEN_TOL",
    "INTERACTION_TOL",
    "CROSS_SOLVER_TOL",
]

# sweep tolerances: direct quadrature vs closed forms, and the solver triangle
EIGEN_TOL = 1e-12
INTERACTION_TOL = 1e-11
CROSS_SOLVER_TOL = 1e-5

# the dense triple sums (interaction_integral_direct, interaction_check)
# refuse larger trees; no solver has a leaf cap
DEFAULT_LEAF_CAP = 100

# the L x L tables of the operator sum (apply_pdo_direct, eigen_check)
# stop here: 4096 leaves fit, 8192 do not
MAX_EIGEN_CHECK_BYTES = 1 << 30

# interaction_check runs 8 outer slots at a time: a block's arrays stay
# near 1.3 MB at the leaf cap, and 8 keeps each block's rows of the
# contraction product on the BLAS row tiles of the unblocked product, so
# every entry keeps its bits (blocks of 1 move the worst deviation).  A
# lone last slot joins the block before it: alone, its S @ nu would be a
# BLAS matrix-vector product, which rounds apart from numpy's own loop
# over the strided stacks of every other block
_OUTER_BLOCK = 8


def sup(tree: BallTree, a: int, b: int) -> int:
    """Smallest ball containing both ``a`` and ``b`` (sup(a, a) == a)."""
    a, b = tree._check(a), tree._check(b)
    while tree.depth[a] > tree.depth[b]:
        a = tree.parent[a]
    while tree.depth[b] > tree.depth[a]:
        b = tree.parent[b]
    while a != b:
        a, b = tree.parent[a], tree.parent[b]
    return int(a)


def ancestors(tree: BallTree, v: int) -> Iterator[int]:
    """Strict ancestors of ``v``, from parent up to the root."""
    v = tree._check(v)
    while tree.parent[v] != -1:
        v = int(tree.parent[v])
        yield v


def is_strict_ancestor(tree: BallTree, anc: int, v: int) -> bool:
    """Whether ``v`` lies strictly below ``anc``."""
    return sup(tree, anc, v) == anc != v


def child_toward(tree: BallTree, anc: int, v: int) -> int:
    """Child of ``anc`` whose subtree contains ``v`` (requires v < anc)."""
    anc, v = tree._check(anc), tree._check(v)
    child = v
    while tree.depth[child] > tree.depth[anc] + 1:
        child = tree.parent[child]
    if tree.depth[child] <= tree.depth[anc] or tree.parent[child] != anc:
        raise ValueError(
            f"{tree.label(v)!r} is not strictly below {tree.label(anc)!r}"
        )
    return int(child)


def leaf_distance(tree: BallTree, a: int, b: int) -> float:
    """Ultrametric distance between two leaves: diameter of their sup."""
    if a == b:
        return 0.0
    return float(tree.diameter[sup(tree, a, b)])


def ancestor_value(basis: WaveletBasis, J: int, j: int, I: int) -> complex:
    """Constant value of wavelet (J, j) on the ball I strictly below J.

    Wavelets are constant on every ball strictly below their own, so the
    value is the coefficient of the child of J on the path to I.
    """
    tree = basis.tree
    child = child_toward(tree, J, I)
    if not basis.has_slot(J, j):
        raise ValueError(
            f"wavelet index {j} out of range for vertex {tree.label(J)!r}"
        )
    return complex(basis.slot_coeffs[basis.slot_of(J, j), tree.child_slot[child]])


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
    """(V, L) array: entry [v, j] is sup of vertex v and the j-th leaf; its
    rows at ``tree.leaves`` are ``leaf_sup_table``.  Built top-down, O(V L):
    row v is its parent's row with v's own leaf block set to v."""
    supv = np.zeros((tree.n_vertices, tree.n_leaves), dtype=np.int32)
    for v in range(1, tree.n_vertices):
        s, e = tree.leaf_ranges[v]
        supv[v] = supv[tree.parent[v]]
        supv[v, s:e] = v
    return supv


def dense_check_refusal(check: str, tree: BallTree) -> str | None:
    """Why the dense ``"eigen"`` or ``"interaction"`` check does not fit
    ``tree``, or None.  Interaction stops above ``DEFAULT_LEAF_CAP`` leaves;
    eigen above ``MAX_EIGEN_CHECK_BYTES`` of L x L tables, 36 L^2 B: the int32
    sup table, then a complex kernel gather and difference per wavelet."""
    L = tree.n_leaves
    if check == "interaction" and L > DEFAULT_LEAF_CAP:
        return f"{L} leaves exceeds the direct-sum cap of {DEFAULT_LEAF_CAP}"
    if check == "eigen" and 36 * L * L > MAX_EIGEN_CHECK_BYTES:
        return (f"{L} leaves need {36 * L * L / 2**30:.3g} GiB of dense tables, "
                f"above the cap of {MAX_EIGEN_CHECK_BYTES / 2**30:g} GiB")
    return None


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
    if reason := dense_check_refusal("eigen", basis.tree):
        raise ValueError(f"eigen check: {reason}")
    worst = 0.0
    sup = leaf_sup_table(basis.tree)
    for vertex, j in basis.slots:
        f = basis.as_leaf_field(vertex, j)
        direct = apply_pdo_direct(kernel, f, sup=sup)
        predicted = eigenvalue(kernel, vertex) * f.values
        worst = max(worst, float(np.abs(direct.values - predicted).max()))
    return worst


def interaction_check(kernel: Kernel, basis: WaveletBasis) -> tuple[float, int]:
    """Worst deviation of the interaction integral from its closed form,
    over every ordered wavelet pair of the basis.

    For wavelets phi (outer slot) and psi (inner slot), the direct triple
    sum result(a) = sum_{b,c} value(sup3(a,b,c)) phi(b) (psi(c) - psi(a))
    nu(b) nu(c) is compared pointwise against psi(a) phi(a) times the
    interaction coefficient of the two balls, which is zero whenever the
    balls are not strictly nested.  Returns (worst deviation, pair count);
    a basis with no slot gives (0.0, 0).

    All pairs share the inner contraction over b, so the sweep is a few
    dense products instead of a quadratic number of triple sums.  The
    products run over blocks of ``_OUTER_BLOCK`` = 8 outer slots with a
    running maximum.  A block holds its (8, L, L) contraction and its
    (8, L, N) direct and predicted results, 16 * 8 * L * max(L, N) B
    apiece (about 1.3 MB at the 100-leaf cap, where the check traces under
    4 MiB in all), in place of the whole (N, L, L) and (N, L, N) arrays.
    Every block starts its rows of the contraction product at a multiple
    of 8, so each entry is the one the unblocked product gives, bit for
    bit.
    """
    tree = basis.tree
    if reason := dense_check_refusal("interaction", tree):
        raise ValueError(f"interaction check: {reason}")
    L = tree.n_leaves
    nu = tree.measure[tree.leaves]
    n_slots = basis.n_slots
    Psi = np.array([basis.leaf_values(v, j) for v, j in basis.slots],
                   dtype=np.complex128).reshape(n_slots, L)
    Psi_nu = Psi * nu

    # inner[s, v] = sum_b value(sup(v, b)) psi_s(b) nu(b)
    supv = vertex_leaf_sup_table(tree)
    inner = Psi_nu @ kernel.values[supv].T
    sup_leaves = supv[tree.leaves]

    # coefficient of every (outer, inner) vertex pair, scattered from the
    # root-path table; pairs that are not strictly nested stay 0
    paths = tree.root_path_table()
    v, j = np.nonzero(np.arange(paths.shape[1]) < tree.depth[:, None])
    coeff = np.zeros((tree.n_vertices,) * 2, dtype=np.complex128)
    coeff[tree.parent[paths[v, j]], v] = interaction_table(kernel)[v, j]
    coeff = coeff[np.ix_(basis.slot_vertex, basis.slot_vertex)]

    def block_worst(block: slice) -> float:
        # S[s, a, c] = sum_b value(sup3(a, b, c)) psi_s(b) nu(b)
        S = inner[block][:, sup_leaves]
        row = S @ nu
        # the product needs C-order rows; rebinding frees the strided S
        S = S.reshape(-1, L)
        # direct[p, a, q] = triple sum with phi = wavelet p, psi = wavelet q,
        # less the closed form psi_q(a) phi_p(a) coeff[p, q]
        direct = (S @ Psi_nu.T).reshape(len(row), L, n_slots)
        del S
        direct -= row[:, :, None] * Psi.T
        predicted = Psi[block, :, None] * Psi.T
        predicted *= coeff[block, None, :]
        direct -= predicted
        return float(np.abs(direct).max(initial=0.0))

    stops = [*range(_OUTER_BLOCK, n_slots - 1, _OUTER_BLOCK), n_slots]
    worst = max(block_worst(slice(start, stop))
                for start, stop in zip([0, *stops], stops))
    return worst, n_slots * n_slots
