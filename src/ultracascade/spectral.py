"""Spectral data of the cascade: eigenvalues, interaction coefficients,
and the exact quadrature routines that validate both.

A kernel assigns a complex value to every ball of the tree.  Two derived
quantities drive the dynamics:

* the wavelet eigenvalue of the integral operator built from a kernel
  (``eigenvalue``), and
* the coefficient coupling a wavelet to one on a strictly smaller ball
  (``interaction_coefficient``).

Both have closed forms as finite sums over the ancestor chain.  The module
also ships two direct evaluators, ``apply_pdo_direct`` and
``interaction_integral_direct``, which compute the underlying integrals as
literal sums over leaf cells with no use of the closed forms; tests compare
the two routes everywhere.  They cost O(L^2) per call and are oracles
only: the leaf solver evaluates the same integrals by O(V) tree sweeps
(``solver.leaf_rhs``), which tests compare against them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .tree import BallTree, check_same_tree
from .wavelets import LeafField

__all__ = [
    "Kernel",
    "eigenvalue",
    "eigenvalue_table",
    "interaction_coefficient",
    "interaction_table",
    "apply_pdo_direct",
    "interaction_integral_direct",
    "DEFAULT_LEAF_CAP",
]

# the dense oracles (interaction_integral_direct, oracles.interaction_check)
# refuse larger trees unless told otherwise; no solver has a leaf cap
DEFAULT_LEAF_CAP = 100


class Kernel:
    """Complex value per tree vertex; the weight function of an operator.

    The same type serves both roles of the cascade equation: the kernel
    weighting the quadratic interaction and the kernel of the linear
    dissipative operator.
    """

    def __init__(self, tree: BallTree, values: np.ndarray):
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != (tree.n_vertices,):
            raise ValueError(
                f"kernel needs one value per vertex "
                f"({tree.n_vertices}), got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("kernel values must be finite")
        values.setflags(write=False)
        self.tree = tree
        self.values = values

    @classmethod
    def constant(cls, tree: BallTree, value: complex) -> "Kernel":
        return cls(tree, np.full(tree.n_vertices, complex(value)))

    @classmethod
    def power(
        cls,
        tree: BallTree,
        amplitude: complex,
        exponent: float,
        overrides: Iterable[Sequence] | None = None,
    ) -> "Kernel":
        """value(I) = amplitude * diameter(I)**exponent, plus overrides.

        Overrides are (vertex path, real, imag) records replacing the
        parametric value on the named vertices.  An overflow is not
        warned about: the resulting non-finite value is refused below.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            values = complex(amplitude) * tree.diameter ** float(exponent)
        if overrides is not None:
            values = values.copy()
            for path, re, im in overrides:
                values[tree.vertex(str(path))] = complex(float(re), float(im))
        return cls(tree, values)

    @classmethod
    def from_table(cls, tree: BallTree, entries: Iterable[Sequence]) -> "Kernel":
        """Build from (vertex path, real, imag) records covering every vertex."""
        values = np.full(tree.n_vertices, np.nan, dtype=np.complex128)
        for path, re, im in entries:
            values[tree.vertex(str(path))] = complex(float(re), float(im))
        missing = np.flatnonzero(np.isnan(values.real))
        if len(missing):
            raise ValueError(
                f"kernel table misses {len(missing)} vertices "
                f"(first: {[tree.label(v) for v in missing[:3]]})"
            )
        return cls(tree, values)

    def value(self, vertex: int) -> complex:
        return complex(self.values[int(vertex)])

    def __repr__(self) -> str:
        return f"Kernel(vertices={self.tree.n_vertices})"


def eigenvalue(kernel: Kernel, I: int) -> complex:
    """Wavelet eigenvalue of the kernel's integral operator at ball I.

    Every wavelet living on the internal ball I is an eigenfunction of the
    operator ``f -> sum_b value(sup(a, b)) (f(a) - f(b)) nu(b)``; the
    eigenvalue is value(I) nu(I) plus, for each strict ancestor J, the
    value at J times the measure of J outside its child toward I.
    """
    tree = kernel.tree
    if tree.is_leaf(I):
        raise ValueError(
            f"eigenvalues are attached to internal balls; "
            f"{tree.label(I)!r} is a leaf"
        )
    total = kernel.values[I] * tree.measure[I]
    for J in tree.ancestors(I):
        total += kernel.values[J] * (tree.measure[J] - tree.measure_toward(J, I))
    return complex(total)


def eigenvalue_table(kernel: Kernel) -> np.ndarray:
    """``eigenvalue`` at every internal ball at once, 0 on leaves.

    One pass along ``tree.root_path_table()``: row v starts with value(v)
    nu(v) and adds the ancestor terms in the order of the scalar loop,
    parent to root, so a running sum read at column depth(v) matches
    ``eigenvalue`` bit for bit.  Padding terms come after that column and
    never reach it.
    """
    tree = kernel.tree
    paths = tree.root_path_table()
    up = np.maximum(tree.parent, 0)[paths]
    v = kernel.values
    terms = np.empty((tree.n_vertices, paths.shape[1] + 1), dtype=np.complex128)
    terms[:, 0] = v * tree.measure
    terms[:, 1:] = v[up] * (tree.measure[up] - tree.measure[paths])
    table = np.cumsum(terms, axis=1)[np.arange(tree.n_vertices), tree.depth]
    table[tree.leaves] = 0
    return table


def interaction_coefficient(kernel: Kernel, outer: int, inner: int) -> complex:
    """Coupling coefficient between balls, nonzero only for strict nesting.

    Returns 0 unless ``inner`` is strictly below ``outer``.  The value is
    accumulated along the ancestor chain from ``inner`` up to ``outer`` as
    ``sum nu(C)^2 (value(parent of C) - value(C))``, which telescopes to
    the closed form ``nu^2(outer, inner) value(outer) - nu^2(inner)
    value(inner) - sum over strictly intermediate L of (nu^2(L) -
    nu^2(L, inner)) value(L)``.  The chain form is used because each term
    carries a difference of kernel values, so constant kernels give an
    exact zero rather than a rounding residue.
    """
    tree = kernel.tree
    outer, inner = int(outer), int(inner)
    if not tree.is_strict_ancestor(outer, inner):
        return 0j
    total = 0j
    cur = inner
    while cur != outer:
        par = int(tree.parent[cur])
        total += tree.measure[cur] ** 2 * (kernel.values[par] - kernel.values[cur])
        cur = par
    return complex(total)


def interaction_table(kernel: Kernel) -> np.ndarray:
    """Coupling coefficients of every vertex with each strict ancestor.

    (V, D), aligned with ``tree.root_path_table()``: entry [v, j] couples
    v with the parent of path vertex [v, j]; entries with j >= depth(v)
    are padding and hold 0.  Rows are cumulative sums up the root path in
    the order of ``interaction_coefficient``, so entries match it bit for
    bit.
    """
    tree = kernel.tree
    paths = tree.root_path_table()
    up = np.maximum(tree.parent, 0)[paths]
    # float_power is libm pow, as the scalar ``** 2`` above; on arrays
    # ``** 2`` is x * x, which can differ in the last bit
    terms = np.float_power(tree.measure[paths], 2) * (
        kernel.values[up] - kernel.values[paths]
    )
    # summed from 0j like the scalar loop, which turns a -0 into +0
    zero = np.zeros((tree.n_vertices, 1))
    table = np.cumsum(np.hstack((zero, terms)), axis=1)[:, 1:]
    table[np.arange(paths.shape[1]) >= tree.depth[:, None]] = 0
    return table


def apply_pdo_direct(
    kernel: Kernel, f: LeafField, *, sup: np.ndarray | None = None
) -> LeafField:
    """Apply the kernel's integral operator to a leaf field, by direct sum.

    Evaluates ``(Tf)(a) = sum_b value(sup(a, b)) (f(a) - f(b)) nu(b)``
    literally over all leaf pairs.  This is the oracle for ``eigenvalue``:
    no spectral shortcut is taken.  Constant fields map to exact zero
    because every summand carries the factor ``f(a) - f(b)``.  A caller
    that applies many fields passes ``sup``, the tree's
    ``oracles.leaf_sup_table``, so the O(V + L^2) table is built once.
    """
    from .oracles import leaf_sup_table  # the dense tables are oracle-only

    tree = kernel.tree
    check_same_tree(tree, f, message="kernel and field belong to different trees")
    K = kernel.values[leaf_sup_table(tree) if sup is None else sup]
    diff = f.values[:, None] - f.values[None, :]
    nu = f.leaf_measures
    return LeafField(tree, np.einsum("ab,ab,b->a", K, diff, nu))


def interaction_integral_direct(
    kernel: Kernel,
    phi: LeafField,
    psi: LeafField,
    max_leaves: int = DEFAULT_LEAF_CAP,
) -> LeafField:
    """Quadratic interaction integral evaluated as a literal leaf-cell sum.

    Returns the leaf field

        result(a) = sum_{b,c} value(sup3(a, b, c)) phi(b)
                    (psi(c) - psi(a)) nu(b) nu(c),

    contracting over b first and c second (the iterated order under which
    the integral makes sense scale by scale).  This is the oracle for
    ``interaction_coefficient``: for wavelets phi on a ball strictly
    containing the ball of psi, the result equals psi * phi * coefficient
    pointwise.

    The cost grows cubically with the leaf count, so trees larger than
    ``max_leaves`` are refused.
    """
    from .oracles import leaf_sup_table, vertex_leaf_sup_table

    tree = kernel.tree
    check_same_tree(tree, phi, psi,
                    message="kernel and fields belong to different trees")
    if tree.n_leaves > max_leaves:
        raise ValueError(
            f"tree has {tree.n_leaves} leaves, above the cap of {max_leaves} "
            "for direct triple sums; raise max_leaves to force it"
        )
    nu = phi.leaf_measures
    # inner contraction over b: S[a, c] = sum_b value(sup3(a,b,c)) phi(b) nu(b);
    # sup3(a,b,c) = sup(sup(a,c), b), so S factors through the sup tables
    kernel_by_vertex_leaf = kernel.values[vertex_leaf_sup_table(tree)]
    inner = kernel_by_vertex_leaf @ (phi.values * nu)
    S = inner[leaf_sup_table(tree)]
    diff = psi.values[None, :] - psi.values[:, None]
    return LeafField(tree, np.einsum("ac,ac,c->a", S, diff, nu))
