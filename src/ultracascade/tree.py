"""Finite regular ultrametric spaces represented as rooted ball trees.

A finite ultrametric space is dual to a rooted tree: vertices are balls,
leaves are the minimal balls (the points of the space, each carrying an
atomic measure), and the distance between two leaves is the diameter of the
smallest ball containing both.  Regularity means every internal ball splits
into at least two maximal subballs.

Leaf measures are the atomic data; the measure of every interior ball is
derived as the sum over its children, never stored independently.

A tree is held as preorder arrays.  ``BallTree`` takes the ``parent`` and
``child_slot`` of every vertex, the leaf measures and the diameters, and
derives depths (by pointer doubling, O(V log depth) for V vertices),
measures, leaves and leaf ranges with numpy passes, one per depth level:
Python loops over the levels only, never over the vertices.  The tree
keeps those levels for its two level passes, which the wavelet
transforms use: ``ball_sums`` (bottom-up sums of leaf values over every
ball) and ``path_sums`` (top-down sums along every root path).
``build_tree`` fills those arrays by index arithmetic for the shorthand
p-adic tree and by one walk over an explicit nested spec.  The (V, p_max)
``child_table`` behind ``vertex(path)`` and the basis is built by numpy
on first use; the tuple-of-tuples ``children`` and the root-path
``labels`` cost O(V) Python and are built only when asked for, which
``build_scenario`` on a shorthand tree never does.

No solver needs scalar walks such as the sup of two balls, so they live
in ``oracles``, beside the sup tables they are the references for.
"""

from __future__ import annotations

import math
import numbers
from functools import cached_property
from itertools import chain, repeat
from typing import Any, Sequence

import numpy as np

__all__ = ["BallTree", "build_tree", "check_same_tree", "MAX_VERTICES"]

DEFAULT_DIAMETER_RATIO = 2.0

# largest shorthand tree build_tree makes, checked before anything is
# allocated: the complete binary tree of depth 20 has 2**21 - 1 balls
MAX_VERTICES = 1 << 21


class BallTree:
    """Rooted ball tree with derived measures and per-vertex diameters.

    Vertices are integers in depth-first preorder (the root is ``0``), so a
    parent always precedes its children and the leaves of any subtree form a
    contiguous range.  Every vertex is addressed by its root path of child
    indices joined with ``.``, e.g. ``"0.1.0"``; the root path is the empty
    string.  Instances are immutable after construction and safe to share
    across threads.

    The constructor takes, per vertex: ``parent`` (-1 at the root),
    ``child_slot`` (position among its siblings, -1 at the root),
    ``leaf_measure`` (the atomic measure of a leaf, NaN where none is
    given) and ``diameter``.  Children of a vertex have consecutive slots
    0, 1, ... and follow each other in preorder.
    """

    def __init__(self, parent, child_slot, leaf_measure, diameter):
        parent = np.array(parent, dtype=np.int32)
        child_slot = np.array(child_slot, dtype=np.int32)
        n = len(parent)
        if n == 0:
            raise ValueError("tree must have at least one vertex")
        if parent.shape != (n,) or child_slot.shape != (n,):
            raise ValueError("parent and child_slot arrays must cover every vertex")
        self.parent = parent
        self.child_slot = child_slot
        if parent[0] != -1 or child_slot[0] != -1:
            raise ValueError("root (vertex 0) must not have a parent")
        if np.any(parent[1:] == -1):
            raise ValueError("tree is disconnected")
        if np.any(parent[1:] < 0) or np.any(parent[1:] >= np.arange(1, n)):
            raise ValueError("vertices must be numbered in preorder")

        depth = _depths(parent)
        branching = np.bincount(parent[1:], minlength=n).astype(np.int32)
        leaf_measure = np.array(leaf_measure, dtype=np.float64)
        if leaf_measure.shape != (n,):
            raise ValueError("leaf measure array must cover every vertex")
        self._check_regular(branching, leaf_measure)

        # one pass per depth, deepest first: sibling runs are contiguous
        # in a level's preorder, which the checks below confirm
        key = depth.astype(np.int16) if depth.max() < 1 << 15 else depth
        by_depth = np.argsort(key, kind="stable")  # radix sort on int16
        offsets = np.zeros(int(depth.max()) + 2, dtype=np.intp)
        np.cumsum(np.bincount(depth), out=offsets[1:])
        size = np.ones(n, dtype=np.intp)  # vertices in each subtree
        measure = np.where(branching == 0, leaf_measure, 0.0)
        levels = []
        for d in range(len(offsets) - 2, 0, -1):
            verts = by_depth[offsets[d]:offsets[d + 1]]
            up = parent[verts]
            first = np.r_[True, up[1:] != up[:-1]]
            starts = np.flatnonzero(first)
            levels.append((verts, up, starts))
            counts = np.diff(np.r_[starts, len(verts)])
            # child m of v is v + 1 + the subtree sizes of children 0..m-1
            follows = np.r_[0, verts[:-1] + size[verts[:-1]]]
            slot = np.arange(len(verts)) - np.repeat(starts, counts)
            if (np.any(verts != np.where(first, up + 1, follows))
                    or np.any(child_slot[verts] != slot)):
                raise ValueError("vertices must be numbered in preorder")
            size[up[starts]] += np.add.reduceat(size[verts], starts)
            # the reduction of measure[list(row)].sum(), a row per parent;
            # a sum past the float range is refused below, unwarned
            for k in np.flatnonzero(np.bincount(counts)).tolist():
                run = starts[counts == k]
                rows = verts[run[:, None] + np.arange(k)]
                with np.errstate(over="ignore"):
                    measure[up[run]] = measure[rows].sum(axis=1)
        # every ball above an overflowing one overflows too: the highest-
        # numbered is the smallest, whose children all have finite measures
        overflow = np.flatnonzero(~np.isfinite(measure))
        if len(overflow):
            raise ValueError(
                f"ball {self.label(int(overflow[-1]))!r}: its leaf measures "
                "sum past the largest float"
            )

        diameter = np.array(diameter, dtype=np.float64)
        if diameter.shape != (n,):
            raise ValueError("diameter array must cover every vertex")
        if not np.all(np.isfinite(diameter)) or np.any(diameter <= 0.0):
            raise ValueError("diameters must be positive and finite")
        flat = np.flatnonzero(diameter[1:] >= diameter[parent[1:]])
        if len(flat):
            raise ValueError(
                f"diameter must strictly increase toward the root; "
                f"vertex {self.label(int(flat[0]) + 1)!r} violates this"
            )

        # preorder: the leaves of v are those numbered v .. v + size - 1
        before = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(branching == 0, out=before[1:])
        self.depth = depth
        self.branching = branching
        self.measure = measure
        self.diameter = diameter
        self.leaves = np.flatnonzero(branching == 0).astype(np.int32)
        self.internal = np.flatnonzero(branching > 0).astype(np.int32)
        # row v: the [start, end) range of leaf positions in the ball v
        self.leaf_ranges = np.stack((before[:n], before[np.arange(n) + size]), axis=1)
        # the parent of every vertex, the root mapped to itself
        self.up = np.maximum(parent, 0).astype(np.intp)
        # per depth 1, 2, ...: its vertices in preorder, where siblings sit
        # next to each other, their parents and the start of every sibling run
        self._levels = tuple(reversed(levels))
        for arr in (self.parent, self.child_slot, self.depth, self.branching,
                    self.measure, self.diameter, self.leaves, self.internal,
                    self.leaf_ranges, self.up, *chain.from_iterable(levels)):
            arr.setflags(write=False)

    def _check_regular(self, branching: np.ndarray, leaf_measure: np.ndarray) -> None:
        """Internal vertices have >= 2 children; leaves, and only leaves,
        carry positive finite measures.  Names the highest-numbered vertex
        that breaks a rule."""
        leaf = branching == 0
        given = ~np.isnan(leaf_measure)
        valid = np.isfinite(leaf_measure) & (leaf_measure > 0.0)
        broken = np.flatnonzero(
            np.where(leaf, ~valid, (branching == 1) | given)
        )
        if len(broken) == 0:
            return
        v = int(broken[-1])
        label = self.label(v)
        if leaf[v] and not given[v]:
            raise ValueError(f"leaf {label!r} has no measure")
        if leaf[v]:
            raise ValueError(
                f"leaf {label!r} must have positive finite measure, "
                f"got {float(leaf_measure[v])}"
            )
        if branching[v] == 1:
            raise ValueError(
                f"vertex {label!r} has a single child; every ball "
                "must split into at least two maximal subballs"
            )
        raise ValueError(
            f"internal vertex {label!r} cannot carry a leaf measure"
        )

    # -- structure built on first use ----------------------------------------

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """Child ids of every vertex in child order: O(V) Python, on first use."""
        rows: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for v, p in enumerate(self.parent[1:].tolist(), start=1):
            rows[p].append(v)
        return tuple(map(tuple, rows))

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """Root path of every vertex: O(V) Python, on first use."""
        labels = [""] * self.n_vertices
        pairs = zip(self.parent[1:].tolist(), self.child_slot[1:].tolist())
        for v, (p, slot) in enumerate(pairs, start=1):
            labels[v] = str(slot) if p == 0 else f"{labels[p]}.{slot}"
        return tuple(labels)

    @cached_property
    def child_table(self) -> np.ndarray:
        """(V, p_max) array: entry [v, m] is child m of v; entries past the
        last child hold 0, the root, which is nobody's child."""
        table = np.zeros((self.n_vertices, int(self.branching.max())), dtype=np.intp)
        table[self.parent[1:], self.child_slot[1:]] = np.arange(1, self.n_vertices)
        table.setflags(write=False)
        return table

    # -- basic queries ------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.parent)

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
        return bool(self.branching[self._check(v)] == 0)

    def n_children(self, v: int) -> int:
        return int(self.branching[self._check(v)])

    def label(self, v: int) -> str:
        """Root path of ``v``: from ``labels`` once built, else by an
        O(depth) walk up, so error messages build no label table."""
        v = self._check(v)
        if "labels" in self.__dict__:
            return self.labels[v]
        steps = []
        while v:
            steps.append(str(self.child_slot[v]))
            v = int(self.parent[v])
        return ".".join(reversed(steps))

    def vertex(self, path: str) -> int:
        """Vertex id for a root path such as ``"0.1.0"`` ("" is the root),
        as ``vertices`` resolves it.  A step must be a child index as
        ``str`` writes it, so ``"01"``, ``" 0"`` or ``"+1"`` name no
        vertex, exactly as they match no label.
        """
        return int(self.vertices([path])[0])

    def vertices(self, paths: Sequence[str]) -> np.ndarray:
        """Vertex ids of many root paths such as ``"0.1.0"``.

        The paths descend together, one ``child_table`` gather per depth
        over every path that still has a step.  The first path, in the
        given order, that names no vertex (or is no ``str``) raises
        ``ValueError("unknown vertex path ...")``.
        """
        usable = [isinstance(p, str) for p in paths]
        split = [p.split(".") if ok and p else [] for p, ok in zip(paths, usable)]
        count = np.fromiter(map(len, split), dtype=np.intp, count=len(split))
        # the child index of every step, path after path; -1 for a step
        # that is no child index as ``str`` writes it
        child = np.fromiter(map(self._steps.get, chain.from_iterable(split), repeat(-1)),
                            dtype=np.intp, count=int(count.sum()))
        # deepest first: at depth d the first deeper[d] paths have a step
        order = np.argsort(-count, kind="stable")
        deeper = len(paths) - np.cumsum(np.bincount(count))
        at = (np.cumsum(count) - count)[order]
        # padding past the last child holds the root, nobody's child; a
        # step of -1 reads the last column of a path already dead
        table = self.child_table if self.child_table.size else np.zeros((1, 1), np.intp)
        v = np.zeros(len(paths), dtype=np.intp)
        dead = ~np.array(usable, dtype=bool)[order]
        for d, k in enumerate(deeper[:-1].tolist()):
            m = child[at[:k] + d]
            v[:k] = table[v[:k], m]
            dead[:k] |= (m < 0) | (v[:k] == 0)
        if dead.any():
            raise ValueError(f"unknown vertex path {paths[int(order[dead].min())]!r}")
        v[order] = v.copy()
        return v

    @cached_property
    def _steps(self) -> dict[str, int]:
        return {str(m): m for m in range(self.child_table.shape[1])}

    def leaf_index(self, v: int) -> int:
        """Position of leaf ``v`` in the canonical leaf order."""
        if not self.is_leaf(v):
            raise ValueError(f"vertex {self.label(v)!r} is not a leaf")
        return int(np.searchsorted(self.leaves, v))

    def leaf_slice(self, v: int) -> slice:
        """Range of canonical leaf positions covered by the ball ``v``."""
        s, e = self.leaf_ranges[self._check(v)]
        return slice(int(s), int(e))

    def _check(self, v: int) -> int:
        v = int(v)
        if not (0 <= v < self.n_vertices):
            raise ValueError(f"invalid vertex id {v}")
        return v

    # -- level passes --------------------------------------------------------

    def ball_sums(self, w: np.ndarray) -> np.ndarray:
        """Sums of leaf values over every ball: (..., L) -> (..., V).

        Summed bottom-up, one ``np.add.reduceat`` per depth, so each sum
        rounds over its own leaves only; the leaf entries are ``w``.
        """
        sums = np.zeros(w.shape[:-1] + (self.n_vertices,), dtype=w.dtype)
        sums[..., self.leaves] = w
        for verts, parent, starts in reversed(self._levels):
            sums[..., parent[starts]] = np.add.reduceat(
                sums[..., verts], starts, axis=-1
            )
        return sums

    def path_sums(self, x: np.ndarray) -> np.ndarray:
        """Sums of per-vertex values along every root path, the root and
        the vertex included: (..., V) -> (..., V), accumulated top-down,
        one depth at a time."""
        acc = x.copy()
        by_vertex = acc.T  # vertices on the first axis index fastest
        for verts, parent, _ in self._levels:
            by_vertex[verts] += by_vertex[parent]
        return acc

    # -- root-path table (the leaf-route sweeps and the interaction check) --

    def root_path_table(self) -> np.ndarray:
        """(V, D) array, D the largest depth: row v lists v and its strict
        ancestors below the root, from v upward, padded with 0, so
        ``x[table].sum(1)`` sums x along every root path when x[0] == 0.
        Built afresh, in O(V * D), for the small trees where a whole table
        pays; setup walks the paths a level at a time instead."""
        cur = np.arange(self.n_vertices, dtype=np.intp)
        paths = np.zeros((self.n_vertices, int(self.depth.max())), dtype=np.intp)
        for j in range(paths.shape[1]):
            paths[:, j] = cur
            cur = self.up[cur]
        return paths

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
            np.array_equal(self.parent, other.parent)
            and np.array_equal(self.child_slot, other.child_slot)
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


def _depths(parent: np.ndarray) -> np.ndarray:
    """Depth of every vertex by pointer doubling, O(V log depth); needs
    parent[v] < v, so the parent links hold no cycle."""
    up = np.maximum(parent, 0)  # the root points to itself
    depth = (parent >= 0).astype(np.int32)  # the distance from v to up[v]
    while np.any(up):
        depth += depth[up]
        up = up[up]
    return depth


def padic_vertex_count(p: int, depth: int) -> float:
    """Balls of the complete p-ary tree of a depth, (p**(depth+1) - 1) /
    (p - 1), as a float: inf where the exact count would be a huge integer."""
    if (depth + 1) * math.log2(p) > 1000:
        return math.inf
    return float((p ** (depth + 1) - 1) // (p - 1))


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
    n = padic_vertex_count(p, depth)
    if n > MAX_VERTICES:
        size = f"{n:.3g}" if math.isfinite(n) else "more than 1e300"
        raise ValueError(
            f"shorthand tree p={p}, depth={depth} has {size} balls, "
            f"above the limit of {MAX_VERTICES}"
        )

    # level by level in preorder: child m of v is v + 1 + m * (the size of
    # a subtree one level down)
    n = int(n)
    parent = np.full(n, -1, dtype=np.int32)
    child_slot = np.full(n, -1, dtype=np.int32)
    diameter = np.empty(n)
    leaf_measure = np.full(n, np.nan)
    level = np.zeros(1, dtype=np.int32)
    diameter[0] = 1.0  # ratio ** -0
    subtree = n
    for d in range(1, depth + 1):
        subtree = (subtree - 1) // p
        kids = (level[:, None] + 1 + np.arange(p, dtype=np.int32) * subtree).ravel()
        parent[kids] = np.repeat(level, p)
        child_slot[kids] = np.tile(np.arange(p, dtype=np.int32), len(level))
        diameter[kids] = ratio ** (-d)
        level = kids
    leaf_measure[level] = total * float(p) ** (-depth)
    return BallTree(parent, child_slot, leaf_measure, diameter)


def _build_explicit(root: Any) -> BallTree:
    parent: list[int] = []
    child_slot: list[int] = []
    depths: list[int] = []
    leaf_measure: list[float] = []
    given_diameter: list[float] = []

    def grow(node: Any, up: int, slot: int, d: int, path: str) -> None:
        if not isinstance(node, dict):
            raise ValueError(f"tree node at {path!r} must be a mapping")
        extra = set(node) - {"children", "measure", "diameter"}
        if extra:
            raise ValueError(f"unknown keys {sorted(extra)} on node {path!r}")
        v = len(parent)
        parent.append(up)
        child_slot.append(slot)
        depths.append(d)
        leaf_measure.append(math.nan)
        if "diameter" in node:
            given_diameter.append(_spec_number(node["diameter"],
                                               f"diameter of {path!r}"))
        has_children = "children" in node
        has_measure = "measure" in node
        if has_children and has_measure:
            raise ValueError(f"node {path!r} has both children and a measure")
        if has_children:
            subs = node["children"]
            if not isinstance(subs, (list, tuple)):
                raise ValueError(f"children of {path!r} must be a sequence")
            for m, sub in enumerate(subs):
                grow(sub, v, m, d + 1, f"{path}.{m}" if path else str(m))
        elif has_measure:
            leaf_measure[v] = _spec_number(node["measure"],
                                           f"measure of {path!r}")
        else:
            raise ValueError(f"node {path!r} needs 'children' or 'measure'")

    grow(root, -1, -1, 0, "")
    n = len(parent)
    if len(given_diameter) == 0:
        per_depth = [DEFAULT_DIAMETER_RATIO ** (-d) for d in range(max(depths) + 1)]
        diameter = np.array(per_depth)[depths]
    elif len(given_diameter) == n:
        diameter = given_diameter
    else:
        raise ValueError(
            "diameters must be specified on every vertex or on none"
        )
    return BallTree(parent, child_slot, leaf_measure, diameter)
