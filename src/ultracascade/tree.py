"""Finite regular ultrametric spaces represented as rooted ball trees.

A finite ultrametric space is dual to a rooted tree: vertices are balls,
leaves are the minimal balls (the points of the space, each carrying an
atomic measure), and the distance between two leaves is the diameter of the
smallest ball containing both.  Regularity means every internal ball splits
into at least two maximal subballs.

Leaf measures are the atomic data; the measure of every interior ball is
derived as the sum over its children, never stored independently.
"""

from __future__ import annotations

import math
import numbers
from typing import Any, Iterable, Sequence

import numpy as np

__all__ = ["BallTree", "build_tree", "check_same_tree"]

DEFAULT_DIAMETER_RATIO = 2.0


class BallTree:
    """Rooted ball tree with derived measures and per-vertex diameters.

    Vertices are integers in depth-first preorder (the root is ``0``), so a
    parent always precedes its children and the leaves of any subtree form a
    contiguous range.  Every vertex is addressed by its root path of child
    indices joined with ``.``, e.g. ``"0.1.0"``; the root path is the empty
    string.  Instances are immutable after construction and safe to share
    across threads.
    """

    def __init__(
        self,
        children: Sequence[Sequence[int]],
        leaf_measure: dict[int, float],
        diameter: Sequence[float],
    ):
        n = len(children)
        if n == 0:
            raise ValueError("tree must have at least one vertex")
        self.children = tuple(tuple(int(c) for c in row) for row in children)

        parent = np.full(n, -1, dtype=np.int32)
        child_slot = np.full(n, -1, dtype=np.int32)
        for v, row in enumerate(self.children):
            for m, c in enumerate(row):
                if not (0 <= c < n):
                    raise ValueError(f"child id {c} out of range")
                if c != 0 and parent[c] != -1:
                    raise ValueError(f"vertex {c} has two parents")
                parent[c] = v
                child_slot[c] = m
        if parent[0] != -1:
            raise ValueError("root (vertex 0) must not have a parent")
        if any(parent[v] == -1 for v in range(1, n)):
            raise ValueError("tree is disconnected")

        depth = np.zeros(n, dtype=np.int32)
        labels: list[str] = [""] * n
        for v in range(1, n):
            p = parent[v]
            if p >= v:
                raise ValueError("vertices must be numbered in preorder")
            depth[v] = depth[p] + 1
            slot = child_slot[v]
            labels[v] = str(slot) if p == 0 else f"{labels[p]}.{slot}"

        # Regularity: internal vertices have >= 2 children; leaves carry the
        # atomic measures.
        measure = np.zeros(n, dtype=np.float64)
        for v in range(n - 1, -1, -1):
            row = self.children[v]
            if len(row) == 0:
                if v not in leaf_measure:
                    raise ValueError(f"leaf {labels[v]!r} has no measure")
                m = float(leaf_measure[v])
                if not np.isfinite(m) or m <= 0.0:
                    raise ValueError(
                        f"leaf {labels[v]!r} must have positive finite measure, got {m}"
                    )
                measure[v] = m
            else:
                if len(row) == 1:
                    raise ValueError(
                        f"vertex {labels[v]!r} has a single child; every ball "
                        "must split into at least two maximal subballs"
                    )
                if v in leaf_measure:
                    raise ValueError(
                        f"internal vertex {labels[v]!r} cannot carry a leaf measure"
                    )
                measure[v] = measure[list(row)].sum()

        diameter = np.asarray(diameter, dtype=np.float64)
        if diameter.shape != (n,):
            raise ValueError("diameter array must cover every vertex")
        if not np.all(np.isfinite(diameter)) or np.any(diameter <= 0.0):
            raise ValueError("diameters must be positive and finite")
        for v in range(1, n):
            if diameter[v] >= diameter[parent[v]]:
                raise ValueError(
                    f"diameter must strictly increase toward the root; "
                    f"vertex {labels[v]!r} violates this"
                )

        leaves = np.array(
            [v for v in range(n) if len(self.children[v]) == 0], dtype=np.int32
        )
        leaf_pos = np.full(n, -1, dtype=np.int32)
        leaf_pos[leaves] = np.arange(len(leaves), dtype=np.int32)
        # Preorder numbering makes each subtree's leaves contiguous.
        leaf_range = np.zeros((n, 2), dtype=np.int32)
        for v in range(n - 1, -1, -1):
            row = self.children[v]
            if len(row) == 0:
                leaf_range[v] = (leaf_pos[v], leaf_pos[v] + 1)
            else:
                leaf_range[v] = (leaf_range[row[0], 0], leaf_range[row[-1], 1])

        self.parent = parent
        self.child_slot = child_slot
        self.depth = depth
        self.labels = tuple(labels)
        self.measure = measure
        self.diameter = diameter
        self.leaves = leaves
        self.internal = np.array(
            [v for v in range(n) if len(self.children[v]) > 0], dtype=np.int32
        )
        self._leaf_range = leaf_range
        self._by_label = {lab: v for v, lab in enumerate(labels)}
        if len(self._by_label) != n:
            raise ValueError("vertex labels are not unique")
        for arr in (self.parent, self.child_slot, self.depth, self.measure,
                    self.diameter, self.leaves, self.internal, self._leaf_range):
            arr.setflags(write=False)
        self._sup2: np.ndarray | None = None
        self._supv: np.ndarray | None = None

    # -- basic queries ------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.children)

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    @property
    def root(self) -> int:
        return 0

    @property
    def total_measure(self) -> float:
        return float(self.measure[0])

    def is_leaf(self, v: int) -> bool:
        return len(self.children[self._check(v)]) == 0

    def is_internal(self, v: int) -> bool:
        return not self.is_leaf(v)

    def n_children(self, v: int) -> int:
        return len(self.children[self._check(v)])

    def label(self, v: int) -> str:
        return self.labels[self._check(v)]

    def vertex(self, path: str) -> int:
        """Vertex id for a root path such as ``"0.1.0"`` ("" is the root)."""
        try:
            return self._by_label[path]
        except KeyError:
            raise ValueError(f"unknown vertex path {path!r}") from None

    def leaf_index(self, v: int) -> int:
        """Position of leaf ``v`` in the canonical leaf order."""
        if not self.is_leaf(v):
            raise ValueError(f"vertex {self.labels[v]!r} is not a leaf")
        return int(np.searchsorted(self.leaves, v))

    @property
    def leaf_ranges(self) -> np.ndarray:
        """(V, 2) array: row v is the [start, end) range of canonical leaf
        positions covered by the ball ``v``."""
        return self._leaf_range

    def leaf_slice(self, v: int) -> slice:
        """Range of canonical leaf positions covered by the ball ``v``."""
        s, e = self._leaf_range[self._check(v)]
        return slice(int(s), int(e))

    def _check(self, v: int) -> int:
        v = int(v)
        if not (0 <= v < self.n_vertices):
            raise ValueError(f"invalid vertex id {v}")
        return v

    # -- lattice operations -------------------------------------------------

    def sup(self, a: int, b: int) -> int:
        """Smallest ball containing both ``a`` and ``b`` (sup(a, a) == a)."""
        a, b = self._check(a), self._check(b)
        while self.depth[a] > self.depth[b]:
            a = self.parent[a]
        while self.depth[b] > self.depth[a]:
            b = self.parent[b]
        while a != b:
            a, b = self.parent[a], self.parent[b]
        return int(a)

    def sup3(self, a: int, b: int, c: int) -> int:
        return self.sup(self.sup(a, b), c)

    def ancestors(self, v: int) -> Iterable[int]:
        """Strict ancestors of ``v``, from parent up to the root."""
        v = self._check(v)
        while self.parent[v] != -1:
            v = int(self.parent[v])
            yield v

    def is_strict_ancestor(self, anc: int, v: int) -> bool:
        anc, v = self._check(anc), self._check(v)
        if self.depth[v] <= self.depth[anc]:
            return False
        while self.depth[v] > self.depth[anc]:
            v = self.parent[v]
        return v == anc

    def child_toward(self, anc: int, v: int) -> int:
        """Child of ``anc`` whose subtree contains ``v`` (requires v < anc)."""
        anc, v = self._check(anc), self._check(v)
        if self.depth[v] <= self.depth[anc]:
            raise ValueError(
                f"{self.labels[v]!r} is not strictly below {self.labels[anc]!r}"
            )
        while self.depth[v] > self.depth[anc] + 1:
            v = self.parent[v]
        if self.parent[v] != anc:
            raise ValueError(
                f"{self.labels[v]!r} is not strictly below {self.labels[anc]!r}"
            )
        return int(v)

    def measure_toward(self, anc: int, v: int) -> float:
        """Measure of the maximal subball of ``anc`` that contains ``v``."""
        return float(self.measure[self.child_toward(anc, v)])

    def leaf_distance(self, a: int, b: int) -> float:
        """Ultrametric distance between two leaves: diameter of their sup."""
        if a == b:
            return 0.0
        return float(self.diameter[self.sup(a, b)])

    # -- root-path table (the leaf-route sweeps and the coefficient layout) --

    def root_path_table(self) -> np.ndarray:
        """(V, D) array, D the largest depth: row v lists v and its strict
        ancestors below the root, from v upward, padded with 0.

        The root never appears on a row, so ``x[table].sum(1)`` sums a
        per-vertex quantity along each root path whenever ``x[0] == 0``.
        Built afresh on each call, in O(V * D), so no tree keeps one alive.
        """
        up = np.maximum(self.parent, 0).astype(np.intp)
        cur = np.arange(self.n_vertices, dtype=np.intp)
        paths = np.zeros((self.n_vertices, int(self.depth.max())), dtype=np.intp)
        for j in range(paths.shape[1]):
            paths[:, j] = cur
            cur = up[cur]
        return paths

    # -- sup lookup tables (cached; used by the brute-force oracles) --------

    def leaf_sup_table(self) -> np.ndarray:
        """(L, L) array: entry [i, j] is sup of the i-th and j-th leaves."""
        if self._sup2 is None:
            L = self.n_leaves
            sup2 = np.zeros((L, L), dtype=np.int32)
            for v in self.internal:
                for c in self.children[v]:
                    s, e = self._leaf_range[c]
                    sup2[s:e, s:e] = c
            sup2.setflags(write=False)
            self._sup2 = sup2
        return self._sup2

    def vertex_leaf_sup_table(self) -> np.ndarray:
        """(V, L) array: entry [v, j] is sup of vertex v and the j-th leaf."""
        if self._supv is None:
            sup2 = self.leaf_sup_table()
            supv = np.empty((self.n_vertices, self.n_leaves), dtype=np.int32)
            for v in range(self.n_vertices):
                s, e = self._leaf_range[v]
                supv[v] = sup2[s]
                supv[v, s:e] = v
            supv.setflags(write=False)
            self._supv = supv
        return self._supv

    # -- serialization ------------------------------------------------------

    def to_spec(self) -> dict[str, Any]:
        """Explicit nested specification; ``build_tree`` round-trips it."""

        def node(v: int) -> dict[str, Any]:
            if self.is_leaf(v):
                return {"measure": float(self.measure[v]),
                        "diameter": float(self.diameter[v])}
            return {"diameter": float(self.diameter[v]),
                    "children": [node(c) for c in self.children[v]]}

        return {"root": node(0)}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BallTree):
            return NotImplemented
        return (
            self.children == other.children
            and np.array_equal(self.measure, other.measure)
            and np.array_equal(self.diameter, other.diameter)
        )

    __hash__ = None  # mutable-free but not hashable; compare structurally

    def __repr__(self) -> str:
        return (
            f"BallTree(vertices={self.n_vertices}, leaves={self.n_leaves}, "
            f"total_measure={self.total_measure:g})"
        )


def check_same_tree(tree: BallTree, *items: Any, message: str) -> None:
    """Raise ValueError(message) unless every item lives on ``tree``; the
    structural compare behind the identity test costs O(V)."""
    for item in items:
        if item.tree is not tree and item.tree != tree:
            raise ValueError(message)


def build_tree(spec: dict[str, Any]) -> BallTree:
    """Build a ball tree from a specification dictionary.

    Two forms are accepted:

    * shorthand ``{"p": 2, "depth": 2, "A": 1.0, "q": 2.0}`` -- the complete
      p-ary tree of the given depth, total measure ``A`` (default 1.0) split
      evenly so every leaf has measure ``A * p**-depth``, and diameter
      ``q**-d`` at depth ``d`` (``q`` defaults to 2.0);
    * explicit ``{"root": node}`` (or the node dict itself), where an
      internal node is ``{"children": [...], "diameter"?: x}`` and a leaf is
      ``{"measure": m, "diameter"?: x}``.  Diameters must be given either on
      every vertex or on none; omitted, they default to ``2.0**-depth``.
    """
    if not isinstance(spec, dict):
        raise ValueError("tree specification must be a mapping")
    if "p" in spec or "depth" in spec:
        return _build_padic(spec)
    if "root" in spec:
        return _build_explicit(spec["root"])
    if "children" in spec:
        return _build_explicit(spec)
    raise ValueError(
        "tree specification needs either shorthand keys {p, depth, A, q} "
        "or an explicit nested form with 'children'"
    )


def _spec_number(x: Any, where: str, integer: bool = False) -> float | int:
    """A number of a tree spec: an integer where one is asked for, else a
    finite real; JSON true/false decode to bool, an int subclass, and are
    refused like strings and nulls."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(x, bool) or not isinstance(x, kind):
        what = "an integer" if integer else "a finite number"
        raise ValueError(f"{where} must be {what}, got {x!r}")
    if integer:
        return int(x)
    try:
        value = float(x)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{where} must be a finite number, got {x!r}")
    return value


def _build_padic(spec: dict[str, Any]) -> BallTree:
    known = {"p", "depth", "A", "q", "type"}
    extra = set(spec) - known
    if extra:
        raise ValueError(f"unknown shorthand keys: {sorted(extra)}")
    missing = {"p", "depth"} - set(spec)
    if missing:
        raise ValueError(f"shorthand tree needs key {sorted(missing)[0]!r}")
    p = _spec_number(spec["p"], "shorthand 'p'", integer=True)
    depth = _spec_number(spec["depth"], "shorthand 'depth'", integer=True)
    total = _spec_number(spec.get("A", 1.0), "shorthand 'A'")
    ratio = _spec_number(spec.get("q", DEFAULT_DIAMETER_RATIO), "shorthand 'q'")
    if p < 2:
        raise ValueError(f"branching must be >= 2, got {p}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if not np.isfinite(total) or total <= 0.0:
        raise ValueError(f"total measure must be positive, got {total}")
    if not np.isfinite(ratio) or ratio <= 1.0:
        raise ValueError(f"diameter ratio must exceed 1, got {ratio}")

    leaf_measure_value = total * float(p) ** (-depth)
    children: list[list[int]] = []
    depths: list[int] = []
    leaf_measure: dict[int, float] = {}

    def grow(d: int) -> int:
        v = len(children)
        children.append([])
        depths.append(d)
        if d == depth:
            leaf_measure[v] = leaf_measure_value
        else:
            children[v] = [grow(d + 1) for _ in range(p)]
        return v

    grow(0)
    diameter = [ratio ** (-d) for d in depths]
    return BallTree(children, leaf_measure, diameter)


def _build_explicit(root: Any) -> BallTree:
    children: list[list[int]] = []
    depths: list[int] = []
    leaf_measure: dict[int, float] = {}
    given_diameter: dict[int, float] = {}

    def grow(node: Any, d: int, path: str) -> int:
        if not isinstance(node, dict):
            raise ValueError(f"tree node at {path!r} must be a mapping")
        extra = set(node) - {"children", "measure", "diameter"}
        if extra:
            raise ValueError(f"unknown keys {sorted(extra)} on node {path!r}")
        v = len(children)
        children.append([])
        depths.append(d)
        if "diameter" in node:
            given_diameter[v] = _spec_number(node["diameter"],
                                             f"diameter of {path!r}")
        has_children = "children" in node
        has_measure = "measure" in node
        if has_children and has_measure:
            raise ValueError(f"node {path!r} has both children and a measure")
        if has_children:
            subs = node["children"]
            if not isinstance(subs, (list, tuple)):
                raise ValueError(f"children of {path!r} must be a sequence")
            children[v] = [
                grow(sub, d + 1, f"{path}.{m}" if path else str(m))
                for m, sub in enumerate(subs)
            ]
        elif has_measure:
            leaf_measure[v] = _spec_number(node["measure"],
                                           f"measure of {path!r}")
        else:
            raise ValueError(f"node {path!r} needs 'children' or 'measure'")
        return v

    grow(root, 0, "")
    n = len(children)
    if len(given_diameter) == 0:
        diameter = [DEFAULT_DIAMETER_RATIO ** (-d) for d in depths]
    elif len(given_diameter) == n:
        diameter = [given_diameter[v] for v in range(n)]
    else:
        raise ValueError(
            "diameters must be specified on every vertex or on none"
        )
    return BallTree(children, leaf_measure, diameter)
