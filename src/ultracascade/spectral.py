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
the two routes everywhere.  They build O(L^2) and O(V * L) tables and are
oracles only: each first asks ``oracles.dense_check_refusal`` whether
the tree fits, and raises its reason if not.  The leaf solver evaluates
the same integrals by tree sweeps (``solver.leaf_rhs``), O(V) per subtree
sum and O(L * depth) per root-path sum, which tests compare against them.
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
]


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
            overrides = [(str(path), re, im) for path, re, im in overrides]
            verts = tree.vertices([path for path, _, _ in overrides]).tolist()
            values = values.copy()
            for v, (_, re, im) in zip(verts, overrides):
                values[v] = complex(float(re), float(im))
        return cls(tree, values)

    @classmethod
    def from_table(cls, tree: BallTree, entries: Iterable[Sequence]) -> "Kernel":
        """Build from (vertex path, real, imag) records covering every vertex."""
        entries = [(str(path), re, im) for path, re, im in entries]
        verts = tree.vertices([path for path, _, _ in entries]).tolist()
        values = np.full(tree.n_vertices, np.nan, dtype=np.complex128)
        for v, (_, re, im) in zip(verts, entries):
            values[v] = complex(float(re), float(im))
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
    child, J = I, int(tree.parent[I])
    while J != -1:
        total += kernel.values[J] * (tree.measure[J] - tree.measure[child])
        child, J = J, int(tree.parent[J])
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
    up = tree.up[paths]
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
    outer, inner = tree._check(outer), tree._check(inner)
    total = 0j
    cur = inner
    while tree.depth[cur] > tree.depth[outer]:
        par = int(tree.parent[cur])
        total += tree.measure[cur] ** 2 * (kernel.values[par] - kernel.values[cur])
        cur = par
    return complex(total) if cur == outer else 0j


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
    up = tree.up[paths]
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
    Trees that ``oracles.dense_check_refusal("eigen", tree)`` refuses are
    refused here, before any table is built.
    """
    # the dense tables and their size gate are oracle-only
    from .oracles import dense_check_refusal, leaf_sup_table

    tree = kernel.tree
    check_same_tree(tree, f, message="kernel and field belong to different trees")
    if reason := dense_check_refusal("eigen", tree):
        raise ValueError(reason)
    K = kernel.values[leaf_sup_table(tree) if sup is None else sup]
    diff = f.values[:, None] - f.values[None, :]
    nu = f.leaf_measures
    return LeafField(tree, np.einsum("ab,ab,b->a", K, diff, nu))


def interaction_integral_direct(
    kernel: Kernel,
    phi: LeafField,
    psi: LeafField,
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

    The cost grows cubically with the leaf count, so trees that
    ``oracles.dense_check_refusal("interaction", tree)`` refuses, those
    above ``oracles.DEFAULT_LEAF_CAP`` leaves, are refused here.
    """
    from .oracles import dense_check_refusal, vertex_leaf_sup_table

    tree = kernel.tree
    check_same_tree(tree, phi, psi,
                    message="kernel and fields belong to different trees")
    if reason := dense_check_refusal("interaction", tree):
        raise ValueError(reason)
    nu = phi.leaf_measures
    # inner contraction over b: S[a, c] = sum_b value(sup3(a,b,c)) phi(b) nu(b);
    # sup3(a,b,c) = sup(sup(a,c), b), so S factors through the sup tables
    supv = vertex_leaf_sup_table(tree)
    inner = kernel.values[supv] @ (phi.values * nu)
    S = inner[supv[tree.leaves]]
    diff = psi.values[None, :] - psi.values[:, None]
    return LeafField(tree, np.einsum("ac,ac,c->a", S, diff, nu))
