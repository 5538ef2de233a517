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
leaves) matrix: ``analyze`` pairs the conjugate rows with the tree's
``ball_sums`` of f * nu, and ``synthesize`` takes the tree's ``path_sums``
of the piece each ball's wavelets put on every child.  Each is O(V * p)
per field, for V vertices and branching p, and holds O(V) numbers.  A
dense (slots x leaves) basis matrix is a test reference only;
``WaveletBasis.gram_matrix`` stacks one as a small-tree diagnostic.

``build_basis`` is O(V * p) numpy plus one small Python loop per group of
balls with equal child measures (one group per depth on a shorthand
tree): it groups the rows of child measures with one ``np.unique`` and
fills ``slot_coeffs`` with one gather.  The basis keeps per-slot arrays
only, and a ``WaveletField`` is one coefficient per slot.  The per-vertex
``coeffs`` dict of views and the ``slots`` and ``labels`` tuples are
built on first use; no transform or route needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

# build_basis refuses a wavelet whose weighted norm sum_m |c_m|^2 nu(child_m)
# is farther than this from 1
NORM_TOL = 1e-9


def _read_only(values, n: int, name: str, not_finite: str) -> np.ndarray:
    """``values`` as a read-only (n,) complex vector of finite numbers."""
    values = np.asarray(values, dtype=np.complex128)
    if values.shape != (n,):
        raise ValueError(f"{name} needs {n} values, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError(not_finite)
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class LeafField:
    """Complex piecewise-constant function on the space: one value per leaf.

    Values are stored in the canonical leaf order of the tree.
    """

    tree: BallTree
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _read_only(
            self.values, self.tree.n_leaves, "leaf field",
            "leaf field values must be finite"))

    @classmethod
    def zero(cls, tree: BallTree) -> "LeafField":
        return cls(tree, np.zeros(tree.n_leaves, dtype=np.complex128))

    @classmethod
    def from_records(
        cls, tree: BallTree, records: Iterable[Sequence]
    ) -> "LeafField":
        """Build from (leaf path, real, imag) records; omitted leaves are 0."""
        records = [(path, re, im) for path, re, im in records]
        verts = tree.vertices([str(path) for path, _, _ in records]).tolist()
        values = np.zeros(tree.n_leaves, dtype=np.complex128)
        for v, (path, re, im) in zip(verts, records):
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

    def is_mean_zero(self) -> bool:
        """|mean| <= MEAN_ZERO_RTOL * max(norm, 1e-300).  A field with a real or
        imaginary part of 0.5 or more is first scaled by the power of two
        that brings every part below 0.5: exact, so the decision is the
        unscaled one, and neither side then overflows for finite values."""
        top = float(np.abs(self.values.view(np.float64)).max(initial=0.0))
        scale = 2.0 ** -max(0, math.frexp(top)[1] + 1)
        f = LeafField(self.tree, self.values * scale) if scale < 1 else self
        return abs(f.mean()) <= MEAN_ZERO_RTOL * max(f.norm(), 1e-300 * scale)


class WaveletBasis:
    """Wavelet coefficient tables for every internal ball of a tree.

    Slots (I, j), wavelet j of the internal ball I, are ordered by vertex
    preorder, then j; ``slot_vertex`` and ``slot_wavelet`` hold the I and
    j of every slot.  ``slot_coeffs`` is the (N, p_max) array whose row s
    holds the constant values of wavelet s on the children of its ball,
    zero-padded to the largest branching, and ``slot_children`` the
    matching child vertices (padding holds the root): wavelet s takes the
    value ``slot_coeffs[s, m]`` on the ball ``slot_children[s, m]``.
    These O(N * p_max) arrays are all the transforms read, and
    ``slot_of(I, j)`` finds a slot.  The per-vertex dict ``coeffs`` of
    read-only views into ``slot_coeffs``, the tuple ``slots`` of (I, j)
    pairs and the ``labels`` are built on first use, in O(N) Python.
    """

    def __init__(self, tree: BallTree, scheme: str, slot_coeffs: np.ndarray):
        self.tree = tree
        self.scheme = scheme
        internal = tree.internal
        wavelets = tree.branching[internal] - 1
        first = np.cumsum(wavelets) - wavelets
        self.slot_vertex = np.repeat(internal, wavelets).astype(np.intp)
        self.slot_wavelet = (np.arange(len(self.slot_vertex))
                             - np.repeat(first, wavelets))
        self._first_slot = np.full(tree.n_vertices, -1, dtype=np.intp)
        self._first_slot[internal] = first
        self.slot_coeffs = slot_coeffs
        self.slot_children = tree.child_table[self.slot_vertex]
        for arr in (self.slot_vertex, self.slot_wavelet, self._first_slot,
                    self.slot_coeffs, self.slot_children):
            arr.setflags(write=False)

    @cached_property
    def coeffs(self) -> dict[int, np.ndarray]:
        """Block of every internal ball: a read-only view of its rows of
        ``slot_coeffs``, cut to its branching."""
        internal = self.tree.internal
        return {v: self.slot_coeffs[s:s + p - 1, :p] for v, s, p in zip(
            internal.tolist(), self._first_slot[internal].tolist(),
            self.tree.branching[internal].tolist())}

    @cached_property
    def slots(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.slot_vertex.tolist(), self.slot_wavelet.tolist()))

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """``path:j`` name of every slot."""
        labels = self.tree.labels
        return tuple(f"{labels[v]}:{j}" for v, j in self.slots)

    @property
    def n_slots(self) -> int:
        return len(self.slot_vertex)

    def analyze_array(self, values: np.ndarray) -> np.ndarray:
        """Coefficients of leaf-value rows: (..., L) -> (..., N), unchecked.

        Coefficient s is sum_m conj(slot_coeffs[s, m]) F(child_m), F the
        ball sums of values * nu (``BallTree.ball_sums``).  The sum runs
        over child positions: the largest temporary holds one ball sum
        per vertex and row.
        """
        tree = self.tree
        sums = tree.ball_sums(values * tree.measure[tree.leaves])
        out = np.zeros(values.shape[:-1] + (self.n_slots,), dtype=np.complex128)
        conj = self.slot_coeffs.conj()
        for m in range(conj.shape[1]):
            out += conj[:, m] * sums[..., self.slot_children[:, m]]
        return out

    def synthesize_array(self, vec: np.ndarray) -> np.ndarray:
        """Leaf values of a coefficient vector: (N,) -> (L,), unchecked.

        Every non-root ball w gets the piece its parent's wavelets put on
        it, sum_j v[(parent, j)] c[j, m(w)]; a leaf's value is the sum of
        the pieces along its root path (``BallTree.path_sums``).
        """
        tree = self.tree
        pieces = np.zeros(tree.n_vertices, dtype=np.complex128)
        # padding adds v * 0 to the root's entry, which stays 0
        np.add.at(pieces, self.slot_children, vec[:, None] * self.slot_coeffs)
        return tree.path_sums(pieces)[tree.leaves]

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


@dataclass(frozen=True)
class WaveletField:
    """Wavelet coefficients of a mean-zero field: one value per slot of the
    basis, in its slot order (``WaveletBasis.slot_of``), stored read-only.
    ``from_records`` is the reader of outside input."""

    basis: WaveletBasis
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _read_only(
            self.values, self.basis.n_slots, "wavelet field",
            "wavelet coefficients must be finite"))

    @classmethod
    def from_records(
        cls, basis: WaveletBasis, records: Iterable[Sequence]
    ) -> "WaveletField":
        """Build from (vertex path, wavelet index, real, imag) records, a
        scenario's ``initial.wavelets``: unnamed slots are 0, a slot named
        twice keeps its last value, and the first record, in record order,
        that names no slot or holds a non-finite value is reported."""
        tree = basis.tree
        records = [(str(path), int(j), complex(float(re), float(im)))
                   for path, j, re, im in records]
        vertex = tree.vertices([path for path, _, _ in records])
        # a number past the index range is no slot
        j = np.array([j if abs(j) < 2 ** 62 else -1 for _, j, _ in records],
                     dtype=np.intp)
        z = np.array([z for _, _, z in records], dtype=np.complex128)
        slot = (j >= 0) & (j < tree.branching[vertex] - 1)
        bad = np.flatnonzero(~(slot & np.isfinite(z)))
        if len(bad):
            first = bad[0]
            if not slot[first]:
                raise ValueError(
                    f"({tree.label(vertex[first])!r}, {records[first][1]}) "
                    "is not a wavelet slot of this basis"
                )
            raise ValueError("wavelet coefficients must be finite")
        values = np.zeros(basis.n_slots, dtype=np.complex128)
        values[basis._first_slot[vertex] + j] = z
        return cls(basis, values)

    def records(self) -> list[tuple[str, int, float, float]]:
        """(vertex path, wavelet index, real, imag) of every nonzero slot,
        in slot order: ``from_records`` reads the same field back."""
        basis, nonzero = self.basis, np.flatnonzero(self.values)
        return [(basis.tree.label(v), j, z.real, z.imag) for v, j, z in zip(
            basis.slot_vertex[nonzero].tolist(), basis.slot_wavelet[nonzero].tolist(),
            self.values[nonzero].tolist())]


def build_basis(tree: BallTree, scheme: str = "gram-schmidt") -> WaveletBasis:
    """Construct the wavelet basis of a tree under the given scheme.

    ``gram-schmidt`` (default) orthonormalizes, per internal vertex, the
    pivot family of differences of neighboring normalized child indicators,
    in child order, fixing signs so the first significant entry of each row
    is positive.  The result is deterministic and real.

    ``roots-of-unity`` sets ``c[j][m]`` proportional to
    ``exp(2*pi*1j*(j+1)*m/p)`` and requires all children of every internal
    vertex to carry equal measure.

    A block depends only on the child measures, so one ``np.unique`` over
    the rows of child measures groups the balls whose measures agree to
    the last bit, a Python loop builds each group's block once, and one
    gather writes every ball's rows into ``slot_coeffs``.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown basis scheme {scheme!r}; use one of {SCHEMES}")
    internal = tree.internal
    if len(internal) == 0:
        return WaveletBasis(tree, scheme, np.zeros(
            (0, tree.child_table.shape[1]), dtype=np.complex128))
    branching = tree.branching[internal]
    nu = tree.measure[tree.child_table[internal]]
    # zero padding past the last child keeps the byte keys of different
    # branchings apart, as every measure is positive
    nu[np.arange(nu.shape[1]) >= branching[:, None]] = 0.0
    keys = nu.view(np.dtype((np.void, nu.itemsize * nu.shape[1]))).ravel()
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    # each group's block once, its p - 1 rows stacked at ``offset``
    wavelets = branching - 1
    heights = wavelets[first]
    offset = np.cumsum(heights) - heights
    table = np.zeros((int(heights.sum()), nu.shape[1]), dtype=np.complex128)
    # measures near the ends of the float range overflow or underflow
    # here: the norm check below refuses the block instead
    with np.errstate(all="ignore"):
        # in the preorder of each group's first ball, the ball a failing
        # check names
        for g in np.argsort(first).tolist():
            i = first[g]
            row = nu[i, :branching[i]]
            if scheme == "gram-schmidt":
                block = _gram_schmidt_block(row)
            else:
                block = _roots_of_unity_block(row, tree.label(internal[i]))
            norms = np.abs(block) ** 2 @ row
            if not (np.abs(norms - 1.0) <= NORM_TOL).all():  # nan fails too
                raise ValueError(
                    f"ball {tree.label(internal[i])!r}: its child measures give no "
                    f"orthonormal wavelets (a norm is not 1 within {NORM_TOL:g})"
                )
            table[offset[g]:offset[g] + len(block), :len(row)] = block
    # the rows of each ball's group block, in slot order
    start = offset[group.ravel()] - (np.cumsum(wavelets) - wavelets)
    rows = np.repeat(start, wavelets) + np.arange(int(wavelets.sum()))
    return WaveletBasis(tree, scheme, table.take(rows, axis=0))


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
    """Expand a mean-zero leaf field over the wavelet basis: the field's
    slot vector is one ``WaveletBasis.analyze_array`` sweep.

    Rejects inputs whose mean exceeds ``1e-10`` times the field norm: the
    coefficient space spans only mean-zero functions, and silently dropping
    a constant part would break round trips.
    """
    check_same_tree(basis.tree, f,
                    message="leaf field and basis belong to different trees")
    if not f.is_mean_zero():
        raise ValueError(
            f"leaf field has mean {f.mean():.3e}, not zero within "
            f"{MEAN_ZERO_RTOL:g} of its norm; only mean-zero fields expand "
            "over wavelets"
        )
    return WaveletField(basis, basis.analyze_array(f.values))


def synthesize(v: WaveletField) -> LeafField:
    """Sum the wavelet expansion back into leaf values."""
    return LeafField(v.basis.tree, v.basis.synthesize_array(v.values))
