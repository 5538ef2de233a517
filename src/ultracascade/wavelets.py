"""Orthonormal wavelet bases on ball trees and the coefficient transforms.

Each internal ball I with p children carries p - 1 wavelets: functions that
are constant on every child of I, vanish outside I, have zero mean, and are
orthonormal in the measure-weighted inner product.  Wavelets of distinct
balls are automatically orthogonal, so the family over all internal balls is
an orthonormal basis of the mean-zero functions on the leaves.

Two construction schemes are provided.  The default deterministic
Gram-Schmidt scheme works for arbitrary child measures; the roots-of-unity
scheme needs equal child measures and yields the classic complex characters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    "ancestor_value",
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

    ``coeffs[I]`` is the (p_I - 1, p_I) complex array whose row j holds the
    constant values of wavelet (I, j) on the children of I.  Slots (I, j)
    are ordered by vertex preorder, then j; ``slot_vertex`` holds the vertex
    of every slot and ``matrix`` the leaf values of every wavelet as rows.
    """

    def __init__(self, tree: BallTree, scheme: str,
                 coeffs: dict[int, np.ndarray]):
        self.tree = tree
        self.scheme = scheme
        self.coeffs = coeffs
        slots: list[tuple[int, int]] = []
        for v in tree.internal:
            v = int(v)
            for j in range(tree.n_children(v) - 1):
                slots.append((v, j))
        self.slots = tuple(slots)
        self.slot_index = {s: i for i, s in enumerate(slots)}
        self.slot_vertex = np.array([v for v, _ in slots], dtype=np.intp)
        self.slot_vertex.setflags(write=False)
        self.labels = tuple(f"{tree.labels[v]}:{j}" for v, j in slots)

        L = tree.n_leaves
        matrix = np.zeros((len(slots), L), dtype=np.complex128)
        for i, (v, j) in enumerate(slots):
            row = coeffs[v][j]
            for m, child in enumerate(tree.children[v]):
                matrix[i, tree.leaf_slice(child)] = row[m]
        matrix.setflags(write=False)
        self.matrix = matrix

    @property
    def n_slots(self) -> int:
        return len(self.slots)

    def slot_label(self, vertex: int, j: int) -> str:
        return self.labels[self.slot_of(vertex, j)]

    def slot_of(self, vertex: int, j: int) -> int:
        try:
            return self.slot_index[(int(vertex), int(j))]
        except KeyError:
            raise ValueError(
                f"no wavelet slot ({self.tree.labels[int(vertex)]!r}, {j})"
            ) from None

    def leaf_values(self, vertex: int, j: int) -> np.ndarray:
        """Leaf-value vector of one wavelet, in canonical leaf order."""
        return self.matrix[self.slot_of(vertex, j)]

    def as_leaf_field(self, vertex: int, j: int) -> LeafField:
        return LeafField(self.tree, self.leaf_values(vertex, j).copy())

    def gram_matrix(self) -> np.ndarray:
        """Pairwise inner products of all wavelets (identity if orthonormal)."""
        nu = self.tree.measure[self.tree.leaves]
        return (self.matrix * nu) @ self.matrix.conj().T

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
            if key not in self.basis.slot_index:
                raise ValueError(
                    f"({self.basis.tree.labels[key[0]]!r}, {key[1]}) "
                    "is not a wavelet slot of this basis"
                )
            z = complex(z)
            if not (np.isfinite(z.real) and np.isfinite(z.imag)):
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
        for v, j in sorted(self.data, key=self.basis.slot_index.__getitem__):
            z = self.data[(v, j)]
            out.append((self.basis.tree.labels[v], j, z.real, z.imag))
        return out

    def dense(self) -> np.ndarray:
        """Coefficient vector over all basis slots (zeros where absent)."""
        vec = np.zeros(self.basis.n_slots, dtype=np.complex128)
        for key, z in self.data.items():
            vec[self.basis.slot_index[key]] = z
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
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown basis scheme {scheme!r}; use one of {SCHEMES}")
    coeffs: dict[int, np.ndarray] = {}
    for v in tree.internal:
        v = int(v)
        nu = tree.measure[[int(c) for c in tree.children[v]]]
        if scheme == "gram-schmidt":
            block = _gram_schmidt_block(nu)
        else:
            block = _roots_of_unity_block(nu, tree.labels[v])
        block.setflags(write=False)
        coeffs[v] = block
    return WaveletBasis(tree, scheme, coeffs)


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
    nu = f.leaf_measures
    vec = basis.matrix.conj() @ (f.values * nu)
    data = {
        slot: complex(z)
        for slot, z in zip(basis.slots, vec)
        if z != 0
    }
    return WaveletField(basis, data)


def synthesize(v: WaveletField) -> LeafField:
    """Sum the wavelet expansion back into leaf values."""
    return LeafField(v.basis.tree, v.dense() @ v.basis.matrix)


def ancestor_value(basis: WaveletBasis, J: int, j: int, I: int) -> complex:
    """Constant value of wavelet (J, j) on the ball I strictly below J.

    Wavelets are constant on every ball strictly below their own, so the
    value is the coefficient of the child of J on the path to I.
    """
    tree = basis.tree
    child = tree.child_toward(J, I)
    slot = tree.child_slot[child]
    block = basis.coeffs[int(J)]
    if not (0 <= int(j) < block.shape[0]):
        raise ValueError(
            f"wavelet index {j} out of range for vertex {tree.labels[int(J)]!r}"
        )
    return complex(block[int(j), int(slot)])
