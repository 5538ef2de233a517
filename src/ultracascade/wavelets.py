"""Orthonormal wavelet bases on ball trees and the coefficient transforms.

Each internal ball I with p children carries p - 1 wavelets: functions that
are constant on every child of I, vanish outside I, have zero mean, and are
orthonormal in the measure-weighted inner product.  Wavelets of distinct
balls are automatically orthogonal, so the family over all internal balls is
an orthonormal basis of the mean-zero functions on the leaves.

Two construction schemes are provided.  The default deterministic
Gram-Schmidt scheme works for arbitrary child measures; the roots-of-unity
scheme needs equal child measures and yields the classic complex characters.

A wavelet is constant on every ball below its own, so both transforms are
exact tree sweeps over the per-slot coefficient rows, with no (slots x
leaves) matrix: ``analyze`` pairs the conjugate rows with the subtree sums
of f * nu, summed bottom-up one depth at a time, and ``synthesize`` adds,
top-down, the piece each ball's wavelets put on every child.  Each is
O(V * p) per field, for V vertices and branching p, and holds O(V)
numbers.  A dense (slots x leaves) basis matrix is a test reference only;
``WaveletBasis.gram_matrix`` stacks one as a small-tree diagnostic.

``build_basis`` is O(V * p) numpy plus one small Python loop per group of
balls with equal child measures (one group per depth on a shorthand
tree): it groups the rows of child measures with one ``np.unique`` and
fills ``slot_coeffs`` with one gather.  The per-vertex ``coeffs`` dict and
the ``slots``, ``slot_index`` and ``labels`` tuples are built on first
use; the transforms, ``assemble`` and the recurrent route never need them.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .tree import BallTree, check_same_tree

__all__ = [
    "WaveletBasis",
    "WaveletField",
    "LeafField",
    "build_basis",
    "analyze",
    "synthesize",
]

SCHEMES = ("gram-schmidt", "roots-of-unity")

# analyze() rejects inputs whose mean exceeds this times the field norm
MEAN_ZERO_RTOL = 1e-10

# relative spread allowed by the equal-measure check of roots-of-unity
EQUAL_MEASURE_RTOL = 1e-12


@dataclass(frozen=True)
class LeafField:
    """Complex piecewise-constant function on the space: one value per leaf.

    Values are stored in the canonical leaf order of the tree.
    """

    tree: BallTree
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        if values.shape != (self.tree.n_leaves,):
            raise ValueError(
                f"leaf field needs {self.tree.n_leaves} values, "
                f"got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("leaf field values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def zero(cls, tree: BallTree) -> "LeafField":
        return cls(tree, np.zeros(tree.n_leaves, dtype=np.complex128))

    @classmethod
    def from_records(
        cls, tree: BallTree, records: Iterable[Sequence]
    ) -> "LeafField":
        """Build from (leaf path, real, imag) records; omitted leaves are 0."""
        values = np.zeros(tree.n_leaves, dtype=np.complex128)
        for rec in records:
            path, re, im = rec
            v = tree.vertex(str(path))
            if not tree.is_leaf(v):
                raise ValueError(f"vertex {path!r} is not a leaf")
            values[tree.leaf_index(v)] = complex(float(re), float(im))
        return cls(tree, values)

    def records(self) -> list[tuple[str, float, float]]:
        return [
            (self.tree.label(int(leaf)), float(z.real), float(z.imag))
            for leaf, z in zip(self.tree.leaves, self.values)
        ]

    @property
    def leaf_measures(self) -> np.ndarray:
        return self.tree.measure[self.tree.leaves]

    def mean(self) -> complex:
        """Integral of the field against the tree measure."""
        return complex(self.values @ self.leaf_measures)

    def norm(self) -> float:
        """Norm in the measure-weighted square-integral sense."""
        return float(np.sqrt(np.abs(self.values) ** 2 @ self.leaf_measures))

    def is_mean_zero(self, rtol: float = MEAN_ZERO_RTOL) -> bool:
        return abs(self.mean()) <= rtol * max(self.norm(), 1e-300)


class WaveletBasis:
    """Wavelet coefficient tables for every internal ball of a tree.

    Slots (I, j), wavelet j of the internal ball I, are ordered by vertex
    preorder, then j; ``slot_vertex`` and ``slot_wavelet`` hold the I and
    j of every slot.  ``slot_coeffs`` is the (N, p_max) array whose row s
    holds the constant values of wavelet s on the children of its ball,
    zero-padded to the largest branching, and ``slot_children`` the
    matching child vertices (padding holds the root): wavelet s takes the
    value ``slot_coeffs[s, m]`` on the ball ``slot_children[s, m]``.
    These O(N * p_max) arrays are all the transforms read.

    A block of rows depends only on the child measures of its ball, so
    ``blocks`` holds one read-only (p_I - 1, p_I) table per group of
    balls with the same child measures, and ``block_of[i]`` names the
    block of ``tree.internal[i]``.  The per-vertex dict ``coeffs``, the
    tuple ``slots`` of (I, j) pairs, its inverse ``slot_index`` and the
    ``labels`` are built on first use, in O(N) Python.
    """

    def __init__(self, tree: BallTree, scheme: str,
                 blocks: list[np.ndarray], block_of: np.ndarray):
        self.tree = tree
        self.scheme = scheme
        self.blocks = blocks
        self.block_of = block_of
        internal = tree.internal
        wavelets = tree.branching[internal] - 1
        first = np.cumsum(wavelets) - wavelets
        n_slots = int(wavelets.sum())
        self.slot_vertex = np.repeat(internal, wavelets).astype(np.intp)
        self.slot_wavelet = np.arange(n_slots) - np.repeat(first, wavelets)
        self._first_slot = np.full(tree.n_vertices, -1, dtype=np.intp)
        self._first_slot[internal] = first

        # every block's rows stacked, then one gather by slot
        heights = np.array([len(b) for b in blocks], dtype=np.intp)
        start = np.cumsum(heights) - heights
        rows = np.zeros((int(heights.sum()), tree.child_table.shape[1]),
                        dtype=np.complex128)
        for block, s0 in zip(blocks, start.tolist()):
            rows[s0:s0 + len(block), :block.shape[1]] = block
        self.slot_coeffs = rows[np.repeat(start[block_of], wavelets)
                                + self.slot_wavelet]
        self.slot_children = tree.child_table[self.slot_vertex]
        for arr in (self.block_of, self.slot_vertex, self.slot_wavelet,
                    self._first_slot, self.slot_coeffs, self.slot_children):
            arr.setflags(write=False)

    @cached_property
    def coeffs(self) -> dict[int, np.ndarray]:
        """Block of every internal vertex; vertices of one group share it."""
        return {v: self.blocks[g] for v, g in
                zip(self.tree.internal.tolist(), self.block_of.tolist())}

    @cached_property
    def slots(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.slot_vertex.tolist(), self.slot_wavelet.tolist()))

    @cached_property
    def slot_index(self) -> dict[tuple[int, int], int]:
        return {s: i for i, s in enumerate(self.slots)}

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """``path:j`` name of every slot."""
        labels = self.tree.labels
        return tuple(f"{labels[v]}:{j}" for v, j in self.slots)

    @cached_property
    def _levels(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The vertices of each depth 1, 2, ... in preorder, where siblings
        sit next to each other, with their parents and the start of every
        sibling run."""
        levels = []
        for d in range(1, int(self.tree.depth.max()) + 1):
            verts = self.tree.level(d)
            parent = self.tree.parent[verts]
            starts = np.flatnonzero(np.r_[True, parent[1:] != parent[:-1]])
            levels.append((verts, parent, starts))
        return levels

    @property
    def n_slots(self) -> int:
        return len(self.slot_vertex)

    def analyze_array(self, values: np.ndarray) -> np.ndarray:
        """Coefficients of leaf-value rows: (..., L) -> (..., N), unchecked.

        Coefficient s is sum_m conj(slot_coeffs[s, m]) F(child_m), F the
        subtree sums of values * nu, summed bottom-up one depth at a time
        so that each rounds over its own leaves only.  The sum runs over
        child positions: the largest temporary holds one subtree sum per
        vertex and row.
        """
        tree = self.tree
        sums = np.zeros(values.shape[:-1] + (tree.n_vertices,),
                        dtype=np.complex128)
        sums[..., tree.leaves] = values * tree.measure[tree.leaves]
        for verts, parent, starts in reversed(self._levels):
            sums[..., parent[starts]] = np.add.reduceat(
                sums[..., verts], starts, axis=-1
            )
        out = np.zeros(values.shape[:-1] + (self.n_slots,), dtype=np.complex128)
        conj = self.slot_coeffs.conj()
        for m in range(conj.shape[1]):
            out += conj[:, m] * sums[..., self.slot_children[:, m]]
        return out

    def synthesize_array(self, vec: np.ndarray) -> np.ndarray:
        """Leaf values of a coefficient vector: (N,) -> (L,), unchecked.

        Every non-root ball w gets the piece its parent's wavelets put on
        it, sum_j v[(parent, j)] c[j, m(w)]; a leaf's value is the sum of
        the pieces along its root path, accumulated top-down.
        """
        tree = self.tree
        acc = np.zeros(tree.n_vertices, dtype=np.complex128)
        # padding adds v * 0 to the root's entry, which stays 0
        np.add.at(acc, self.slot_children, vec[:, None] * self.slot_coeffs)
        for verts, parent, _ in self._levels:
            acc[verts] += acc[parent]
        return acc[tree.leaves]

    def has_slot(self, vertex: int, j: int) -> bool:
        vertex, j = int(vertex), int(j)
        return (0 <= vertex < len(self._first_slot)
                and 0 <= j < self.tree.branching.item(vertex) - 1)

    def slot_of(self, vertex: int, j: int) -> int:
        """Slot of wavelet j on ball ``vertex``: its first slot plus j."""
        if not self.has_slot(vertex, j):
            raise ValueError(
                f"no wavelet slot ({self.tree.label(vertex)!r}, {j})"
            )
        return self._first_slot.item(int(vertex)) + int(j)

    def leaf_values(self, vertex: int, j: int) -> np.ndarray:
        """Leaf-value vector of one wavelet, in canonical leaf order: O(L)."""
        s = self.slot_of(vertex, j)
        out = np.zeros(self.tree.n_leaves, dtype=np.complex128)
        for child, value in zip(self.slot_children[s], self.slot_coeffs[s]):
            if child:  # padding holds the root
                out[self.tree.leaf_slice(child)] = value
        return out

    def as_leaf_field(self, vertex: int, j: int) -> LeafField:
        return LeafField(self.tree, self.leaf_values(vertex, j))

    def gram_matrix(self) -> np.ndarray:
        """Pairwise inner products of all wavelets (identity if orthonormal).

        A small-tree diagnostic: it stacks every wavelet's leaf values, so
        it holds N x L numbers at once.
        """
        rows = np.array([self.leaf_values(v, j) for v, j in self.slots])
        nu = self.tree.measure[self.tree.leaves]
        return (rows * nu) @ rows.conj().T

    def __repr__(self) -> str:
        return (
            f"WaveletBasis(scheme={self.scheme!r}, slots={self.n_slots}, "
            f"leaves={self.tree.n_leaves})"
        )


@dataclass
class WaveletField:
    """Sparse map from wavelet slots (vertex, j) to complex coefficients."""

    basis: WaveletBasis
    data: dict[tuple[int, int], complex] = field(default_factory=dict)

    def __post_init__(self):
        clean: dict[tuple[int, int], complex] = {}
        for (v, j), z in self.data.items():
            key = (int(v), int(j))
            if not self.basis.has_slot(*key):
                raise ValueError(
                    f"({self.basis.tree.label(key[0])!r}, {key[1]}) "
                    "is not a wavelet slot of this basis"
                )
            z = complex(z)
            if not cmath.isfinite(z):
                raise ValueError("wavelet coefficients must be finite")
            clean[key] = z
        self.data = clean

    @property
    def tree(self) -> BallTree:
        return self.basis.tree

    @classmethod
    def from_records(
        cls, basis: WaveletBasis, records: Iterable[Sequence]
    ) -> "WaveletField":
        data: dict[tuple[int, int], complex] = {}
        for rec in records:
            path, j, re, im = rec
            v = basis.tree.vertex(str(path))
            data[(v, int(j))] = complex(float(re), float(im))
        return cls(basis, data)

    def records(self) -> list[tuple[str, int, float, float]]:
        out = []
        for v, j in sorted(self.data, key=lambda key: self.basis.slot_of(*key)):
            z = self.data[(v, j)]
            out.append((self.basis.tree.label(v), j, z.real, z.imag))
        return out

    def dense(self) -> np.ndarray:
        """Coefficient vector over all basis slots (zeros where absent)."""
        vec = np.zeros(self.basis.n_slots, dtype=np.complex128)
        if self.data:  # keys were checked on construction: one gather
            keys = np.array(list(self.data), dtype=np.intp)
            vec[self.basis._first_slot[keys[:, 0]] + keys[:, 1]] = list(
                self.data.values())
        return vec

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, key: tuple[int, int]) -> complex:
        return self.data.get((int(key[0]), int(key[1])), 0j)


def build_basis(tree: BallTree, scheme: str = "gram-schmidt") -> WaveletBasis:
    """Construct the wavelet basis of a tree under the given scheme.

    ``gram-schmidt`` (default) orthonormalizes, per internal vertex, the
    pivot family of differences of neighboring normalized child indicators,
    in child order, fixing signs so the first significant entry of each row
    is positive.  The result is deterministic and real.

    ``roots-of-unity`` sets ``c[j][m]`` proportional to
    ``exp(2*pi*1j*(j+1)*m/p)`` and requires all children of every internal
    vertex to carry equal measure.

    A block depends only on the child measures, so vertices whose child
    measures agree to the last bit share one read-only block: one
    ``np.unique`` over the rows of child measures finds the groups, a
    Python loop runs once per group, and one gather fills ``slot_coeffs``.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown basis scheme {scheme!r}; use one of {SCHEMES}")
    internal = tree.internal
    if len(internal) == 0:
        return WaveletBasis(tree, scheme, [], np.zeros(0, dtype=np.intp))
    branching = tree.branching[internal]
    nu = tree.measure[tree.child_table[internal]]
    # zero padding past the last child keeps the byte keys of different
    # branchings apart, as every measure is positive
    nu[np.arange(nu.shape[1]) >= branching[:, None]] = 0.0
    keys = nu.view(np.dtype((np.void, nu.itemsize * nu.shape[1]))).ravel()
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    # blocks in the preorder of their first vertex, the vertex that a
    # failing equal-measure check names
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    blocks = []
    for i in first[order].tolist():
        row = nu[i, :branching[i]]
        if scheme == "gram-schmidt":
            block = _gram_schmidt_block(row)
        else:
            block = _roots_of_unity_block(row, tree.label(internal[i]))
        block.setflags(write=False)
        blocks.append(block)
    return WaveletBasis(tree, scheme, blocks, rank[group.ravel()])


def _gram_schmidt_block(nu: np.ndarray) -> np.ndarray:
    p = len(nu)
    out = np.zeros((p - 1, p), dtype=np.complex128)
    for j in range(p - 1):
        u = np.zeros(p, dtype=np.complex128)
        # pivot spanning the same direction as chi_j/nu_j - chi_{j+1}/nu_{j+1},
        # scaled by nu_j*nu_{j+1} so the weighted mean is zero to the last bit
        u[j] = nu[j + 1]
        u[j + 1] = -nu[j]
        for _ in range(2):  # second pass mops up rounding in the projections
            for k in range(j):
                u -= ((u * nu) @ out[k].conj()) * out[k]
        u /= np.sqrt(np.abs(u) ** 2 @ nu)
        lead = np.argmax(np.abs(u) > 1e-12 * np.abs(u).max())
        if u[lead].real < 0:
            u = -u
        out[j] = u
    return out


def _roots_of_unity_block(nu: np.ndarray, label: str) -> np.ndarray:
    p = len(nu)
    common = float(nu.mean())
    if np.abs(nu - common).max() > EQUAL_MEASURE_RTOL * common:
        raise ValueError(
            f"roots-of-unity scheme needs equal child measures, but vertex "
            f"{label!r} has spread {np.abs(nu - common).max():.3e}"
        )
    m = np.arange(p)
    scale = 1.0 / np.sqrt(p * common)
    rows = [np.exp(2j * np.pi * (j + 1) * m / p) * scale for j in range(p - 1)]
    return np.array(rows, dtype=np.complex128)


def analyze(basis: WaveletBasis, f: LeafField) -> WaveletField:
    """Expand a mean-zero leaf field over the wavelet basis.

    Rejects inputs whose mean exceeds ``1e-10`` times the field norm: the
    coefficient space spans only mean-zero functions, and silently dropping
    a constant part would break round trips.  Exactly-zero coefficients are
    omitted from the result.
    """
    check_same_tree(basis.tree, f,
                    message="leaf field and basis belong to different trees")
    if not f.is_mean_zero():
        raise ValueError(
            f"leaf field has mean {f.mean():.3e}, not zero within "
            f"{MEAN_ZERO_RTOL:g} of its norm; only mean-zero fields expand "
            "over wavelets"
        )
    vec = basis.analyze_array(f.values)
    nonzero = np.flatnonzero(vec)
    slots = zip(basis.slot_vertex[nonzero].tolist(),
                basis.slot_wavelet[nonzero].tolist())
    return WaveletField(basis, dict(zip(slots, vec[nonzero].tolist())))


def synthesize(v: WaveletField) -> LeafField:
    """Sum the wavelet expansion back into leaf values."""
    return LeafField(v.basis.tree, v.basis.synthesize_array(v.dense()))
