"""Shared fixtures, scenario generators, and the acceptance summary hook.

The acceptance tests register a one-line verdict each; the hook prints
them as a block at the end of the pytest run so the whole gate is
readable at a glance.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import ultracascade as uc

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(name: str, passed: bool, detail: str) -> None:
    ACCEPTANCE_LINES.append(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance summary")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def no_child_left() -> bool:
    """Whether this process has no child left, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def leftovers(directory: Path) -> list[str]:
    """Temp and part files the CLI's writers left under ``directory``."""
    return sorted(p.name for p in Path(directory).rglob("*")
                  if p.name.endswith(".tmp") or ".part" in p.name)


def dissipative_kernel(tree: uc.BallTree, rng: np.random.Generator) -> uc.Kernel:
    """Random kernel with positive real part: decaying linear dynamics."""
    re = rng.uniform(0.3, 1.2, tree.n_vertices)
    im = rng.uniform(-0.4, 0.4, tree.n_vertices)
    return uc.Kernel(tree, re + 1j * im)


def random_initial(
    basis: uc.WaveletBasis,
    rng: np.random.Generator,
    max_abs: float = 0.7,
    density: float = 0.8,
) -> uc.WaveletField:
    """Random coefficients on a random subset of slots, |value| <= max_abs."""
    scale = max_abs / np.sqrt(2.0)
    data: dict[tuple[int, int], complex] = {}
    for slot in basis.slots:
        if rng.random() < density:
            data[slot] = complex(
                rng.uniform(-1.0, 1.0) * scale, rng.uniform(-1.0, 1.0) * scale
            )
    if not data:
        data[basis.slots[int(rng.integers(basis.n_slots))]] = 0.5 + 0j
    return uc.WaveletField(basis, data)


def random_mean_zero_field(
    tree: uc.BallTree, rng: np.random.Generator, max_abs: float = 1.0
) -> uc.LeafField:
    """Random complex leaf values with the weighted mean subtracted."""
    raw = rng.uniform(-1, 1, tree.n_leaves) + 1j * rng.uniform(-1, 1, tree.n_leaves)
    raw *= max_abs / np.sqrt(2.0)
    nu = tree.measure[tree.leaves]
    raw -= (raw @ nu) / tree.total_measure
    return uc.LeafField(tree, raw)


def nested_pair_closed_form(eta_outer, eta_inner, weight, v_outer0, v_inner0, grid):
    """Exact two-slot solution: a free outer mode driving one inner mode.

    The outer coefficient decays freely; the inner one picks up the time
    integral of the outer in its exponent, weighted by the coupling.  A
    zero outer rate is the analytic limit where that integral is linear
    in t.
    """
    grid = np.asarray(grid, dtype=np.float64)
    outer = v_outer0 * np.exp(-eta_outer * grid)
    if eta_outer == 0:
        integral = v_outer0 * grid
    else:
        integral = v_outer0 * (1.0 - np.exp(-eta_outer * grid)) / eta_outer
    inner = v_inner0 * np.exp(-eta_inner * grid - weight * integral)
    return outer, inner


def chain_closed_form(eta, weights, v0, grid, terms=80):
    """Exact three-slot solution: a free outer mode a driving b, both
    driving an innermost mode c.

    ``eta`` holds the decay rates (eta_a, eta_b, eta_c), ``weights`` the
    couplings (w_ab, w_ac, w_bc) and ``v0`` the initial values (a0, b0,
    c0); eta_a must not be 0.  With I_x the time integral of v_x,

        v_b = b0 exp(-eta_b t - w_ab I_a),
        v_c = c0 exp(-eta_c t - w_ac I_a - w_bc I_b).

    Expanding exp(beta e^{-eta_a s}), beta = w_ab a0 / eta_a, gives I_b
    as the series b0 e^{-beta} sum_n beta^n / n! (1 - e^{-(eta_b + n
    eta_a) t}) / (eta_b + n eta_a), entire in beta, summed to ``terms``
    terms.
    """
    eta_a, eta_b, eta_c = eta
    w_ab, w_ac, w_bc = weights
    a0, b0, c0 = v0
    t = np.asarray(grid, dtype=np.float64)
    i_a = a0 * (1.0 - np.exp(-eta_a * t)) / eta_a
    beta = w_ab * a0 / eta_a
    n = np.arange(terms)
    # beta^n / n!
    series = np.cumprod(np.concatenate(([1.0 + 0j], beta / n[1:])))
    rate = eta_b + n * eta_a
    i_b = b0 * np.exp(-beta) * (
        ((1.0 - np.exp(-np.outer(t, rate))) / rate) @ series)
    return (a0 * np.exp(-eta_a * t),
            b0 * np.exp(-eta_b * t - w_ab * i_a),
            c0 * np.exp(-eta_c * t - w_ac * i_a - w_bc * i_b))


def dense_coupling_matrix(system: uc.CascadeSystem) -> np.ndarray:
    """Dense (slot, slot) weight matrix W built from the padded per-slot
    columns, so that the coefficient right-hand side is -v * (eta + W @ v).
    Padding entries add an exact 0."""
    W = np.zeros((system.n_slots, system.n_slots), dtype=np.complex128)
    rows = np.arange(system.n_slots)
    for anc, w in zip(system.anc_slot, system.weight):
        np.add.at(W, (rows, anc), w)
    return W


def one_shot_interaction_check(kernel: uc.Kernel,
                               basis: uc.WaveletBasis) -> tuple[float, int]:
    """``interaction_check`` with every outer slot in one piece: the whole
    (N, L, L) contraction and (N, L, N) direct and predicted arrays.  The
    blocked check's reference, which it must match bit for bit."""
    tree = basis.tree
    L = tree.n_leaves
    nu = tree.measure[tree.leaves]
    Psi = np.array([basis.leaf_values(v, j) for v, j in basis.slots])
    n_slots = basis.n_slots
    supv = uc.oracles.vertex_leaf_sup_table(tree)
    inner = (Psi * nu) @ kernel.values[supv].T
    S = inner[:, supv[tree.leaves]]
    row = S @ nu
    direct = (S.reshape(n_slots * L, L) @ (Psi * nu).T).reshape(
        n_slots, L, n_slots
    )
    direct -= row[:, :, None] * Psi.T[None, :, :]
    paths = tree.root_path_table()
    v, j = np.nonzero(np.arange(paths.shape[1]) < tree.depth[:, None])
    coeff = np.zeros((tree.n_vertices,) * 2, dtype=np.complex128)
    coeff[tree.parent[paths[v, j]], v] = uc.interaction_table(kernel)[v, j]
    coeff = coeff[np.ix_(basis.slot_vertex, basis.slot_vertex)]
    predicted = Psi[:, :, None] * Psi.T[None, :, :] * coeff[:, None, :]
    worst = float(np.abs(direct - predicted).max())
    return worst, n_slots * n_slots


def whole_table_eigenvalue_table(kernel: uc.Kernel) -> np.ndarray:
    """``eigenvalue_table`` as one cumulative sum along the whole (V, D)
    root-path table, read at column depth(v): the form that the
    level-by-level walk replaced, kept as its reference, which it must
    match bit for bit."""
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


def whole_table_interaction_table(kernel: uc.Kernel) -> np.ndarray:
    """``interaction_table`` as one cumulative sum, from 0j, along the
    whole (V, D) root-path table: the walk's reference."""
    tree = kernel.tree
    paths = tree.root_path_table()
    up = tree.up[paths]
    terms = np.float_power(tree.measure[paths], 2) * (
        kernel.values[up] - kernel.values[paths]
    )
    zero = np.zeros((tree.n_vertices, 1))
    table = np.cumsum(np.hstack((zero, terms)), axis=1)[:, 1:]
    table[np.arange(paths.shape[1]) >= tree.depth[:, None]] = 0
    return table


def whole_table_assemble(tree: uc.BallTree, basis: uc.WaveletBasis,
                         interaction: uc.Kernel,
                         dissipation: uc.Kernel) -> uc.CascadeSystem:
    """``assemble`` gathering every coupling at once along the (V, D)
    root-path table, with a 3-D mask of (ball, path position, wavelet
    index) entries and a ``searchsorted`` rank: the walk's reference."""
    internal = tree.internal
    eta = whole_table_eigenvalue_table(dissipation)
    paths = tree.root_path_table()[internal]
    anc = tree.up[paths]
    n_wavelets = np.bincount(basis.slot_vertex, minlength=tree.n_vertices)
    row, pos, j = np.nonzero(
        (np.arange(paths.shape[1]) < tree.depth[internal][:, None])[:, :, None]
        & (np.arange(n_wavelets.max()) < n_wavelets[anc][:, :, None])
    )
    slot = np.searchsorted(basis.slot_vertex, anc[row, pos]) + j
    value = basis.slot_coeffs[slot, tree.child_slot[paths[row, pos]]]
    coeff = whole_table_interaction_table(interaction)[internal[row], pos]
    k = np.arange(len(row)) - np.searchsorted(row, row)
    shape = (int(np.bincount(row, minlength=1).max()), len(internal))
    anc_slot = np.zeros(shape, dtype=np.intp)
    weight = np.zeros(shape, dtype=np.complex128)
    anc_slot[k, row] = slot
    weight[k, row] = uc.solver.complex_products(value, coeff)
    ball = np.searchsorted(internal, basis.slot_vertex)
    return uc.CascadeSystem(tree, basis, interaction, dissipation, eta,
                            anc_slot.take(ball, axis=1), weight.take(ball, axis=1))


def two_pass_leaf_sweep(tree: uc.BallTree, interaction: uc.Kernel,
                        dissipation: uc.Kernel):
    """The leaf sweep with a subtree-sum pass of its own for f and for
    g = f - f[0], and m copies of every array for an (m, L) stack: the
    form that the one stacked pass over f and g replaced, kept as its
    reference, which it must match bit for bit."""
    n_v, n_l = tree.n_vertices, tree.n_leaves

    def side_by_side(index, m, stride):
        return np.concatenate([index + i * stride for i in range(m)], axis=-1)

    nu = tree.measure[tree.leaves]
    start = tree.leaf_ranges[:, 0].astype(np.intp)
    end = tree.leaf_ranges[:, 1].astype(np.intp)
    up = tree.up
    paths = np.ascontiguousarray(tree.root_path_table().T)
    leaf_paths = np.ascontiguousarray(paths[:, tree.leaves])
    k_f = interaction.values
    k_f_up = k_f[up]
    k_g_up = dissipation.values[up]
    d_nu = tree.measure[up] - tree.measure

    def rhs(f):
        rows = f.reshape(-1, n_l)
        m = len(rows)
        (nu_m, start_m, end_m, up_m, paths_m, leaf_paths_m) = (
            np.tile(nu, m), side_by_side(start, m, n_l + 1),
            side_by_side(end, m, n_l + 1), side_by_side(up, m, n_v),
            side_by_side(paths, m, n_v), side_by_side(leaf_paths, m, n_v))
        k_f_m, k_f_up_m, k_g_up_m, d_nu_m = (
            np.tile(a, m) for a in (k_f, k_f_up, k_g_up, d_nu))
        prefix = np.zeros((m, n_l + 1), dtype=np.complex128)
        flat_prefix = prefix.ravel()

        def subtree_sums(w):
            # the cumsum restarts on every row
            np.add.accumulate(w.reshape(-1, n_l), axis=1, out=prefix[:, 1:])
            return flat_prefix[end_m] - flat_prefix[start_m]

        phi = subtree_sums(rows.ravel() * nu_m)
        inner = k_f_m * phi + (k_f_up_m * (phi[up_m] - phi))[paths_m].sum(axis=0)
        kappa_up = inner[up_m] - k_g_up_m
        g = (rows - rows[:, :1]).ravel()
        big_g = subtree_sums(g * nu_m)
        a = (kappa_up * d_nu_m)[leaf_paths_m].sum(axis=0)
        b = (kappa_up * (big_g[up_m] - big_g))[leaf_paths_m].sum(axis=0)
        return (g * a - b).reshape(f.shape)

    return rhs


def dense_basis_matrix(basis: uc.WaveletBasis) -> np.ndarray:
    """Dense (slot, leaf) matrix whose rows are the wavelets' leaf values,
    written straight from ``coeffs`` and the leaf slices of the children:
    the transforms' reference (analyze is conj(M) @ (f * nu), synthesize
    v @ M)."""
    tree = basis.tree
    matrix = np.zeros((basis.n_slots, tree.n_leaves), dtype=np.complex128)
    for i, (v, j) in enumerate(basis.slots):
        row = basis.coeffs[v][j]
        for m, child in enumerate(tree.children[v]):
            matrix[i, tree.leaf_slice(child)] = row[m]
    return matrix


class ReferenceTree:
    """The per-vertex loop constructor that the array core of
    ``BallTree`` replaced, kept as the reference that every array, label
    and error message of the core must equal."""

    def __init__(self, children, leaf_measure: dict[int, float], diameter):
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
        self.leaf_ranges = leaf_range
        self.by_label = {lab: v for v, lab in enumerate(labels)}


def reference_tree(spec: dict) -> ReferenceTree:
    """``build_tree`` as it was: a recursive walk appending one vertex at a
    time, for the shorthand and the explicit forms."""
    children: list[list[int]] = []
    depths: list[int] = []
    leaf_measure: dict[int, float] = {}
    if "p" in spec:
        p, depth = spec["p"], spec["depth"]
        value = float(spec.get("A", 1.0)) * float(p) ** (-depth)
        ratio = float(spec.get("q", 2.0))

        def grow_padic(d: int) -> int:
            v = len(children)
            children.append([])
            depths.append(d)
            if d == depth:
                leaf_measure[v] = value
            else:
                children[v] = [grow_padic(d + 1) for _ in range(p)]
            return v

        grow_padic(0)
        return ReferenceTree(children, leaf_measure,
                             [ratio ** (-d) for d in depths])

    given: dict[int, float] = {}
    number = uc.tree._spec_number

    def grow(node, d: int, path: str) -> int:
        if not isinstance(node, dict):
            raise ValueError(f"tree node at {path!r} must be a mapping")
        extra = set(node) - {"children", "measure", "diameter"}
        if extra:
            raise ValueError(f"unknown keys {sorted(extra)} on node {path!r}")
        v = len(children)
        children.append([])
        depths.append(d)
        if "diameter" in node:
            given[v] = number(node["diameter"], f"diameter of {path!r}")
        if "children" in node and "measure" in node:
            raise ValueError(f"node {path!r} has both children and a measure")
        if "children" in node:
            subs = node["children"]
            if not isinstance(subs, (list, tuple)):
                raise ValueError(f"children of {path!r} must be a sequence")
            children[v] = [
                grow(sub, d + 1, f"{path}.{m}" if path else str(m))
                for m, sub in enumerate(subs)
            ]
        elif "measure" in node:
            leaf_measure[v] = number(node["measure"], f"measure of {path!r}")
        else:
            raise ValueError(f"node {path!r} needs 'children' or 'measure'")
        return v

    grow(spec.get("root", spec), 0, "")
    n = len(children)
    if not given:
        diameter = [2.0 ** (-d) for d in depths]
    elif len(given) == n:
        diameter = [given[v] for v in range(n)]
    else:
        raise ValueError("diameters must be specified on every vertex or on none")
    return ReferenceTree(children, leaf_measure, diameter)


def reference_basis(tree: ReferenceTree, scheme: str) -> dict:
    """The per-vertex basis tables as ``build_basis`` and
    ``WaveletBasis.__init__`` made them, one block per distinct child
    measures, keyed by their bytes."""
    from ultracascade.wavelets import _gram_schmidt_block, _roots_of_unity_block

    coeffs: dict[int, np.ndarray] = {}
    blocks: dict[bytes, np.ndarray] = {}
    for v in tree.internal.tolist():
        nu = tree.measure[list(tree.children[v])]
        if nu.tobytes() not in blocks:
            blocks[nu.tobytes()] = (
                _gram_schmidt_block(nu) if scheme == "gram-schmidt"
                else _roots_of_unity_block(nu, tree.labels[v]))
        coeffs[v] = blocks[nu.tobytes()]
    slots = tuple((v, j) for v in tree.internal.tolist()
                  for j in range(len(tree.children[v]) - 1))
    p_max = max(len(row) for row in tree.children)
    slot_coeffs = np.zeros((len(slots), p_max), dtype=np.complex128)
    slot_children = np.zeros((len(slots), p_max), dtype=np.intp)
    for s, (v, j) in enumerate(slots):
        slot_coeffs[s, :len(coeffs[v][j])] = coeffs[v][j]
        slot_children[s, :len(tree.children[v])] = tree.children[v]
    return {
        "coeffs": coeffs,
        "slots": slots,
        "slot_index": {s: i for i, s in enumerate(slots)},
        "slot_vertex": np.array([v for v, _ in slots], dtype=np.intp),
        "slot_wavelet": np.array([j for _, j in slots], dtype=np.intp),
        "labels": tuple(f"{tree.labels[v]}:{j}" for v, j in slots),
        "slot_coeffs": slot_coeffs,
        "slot_children": slot_children,
        "n_groups": len(blocks),
    }


def _reference_fmt(x: float) -> str:
    return format(float(x), ".17g")


def reference_write_trajectory_csv(path: Path, traj: uc.Trajectory) -> None:
    """The CSV writers' reference: one ``format`` call per number."""
    order = sorted(range(len(traj.labels)), key=lambda i: traj.labels[i])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(
            "t" + "".join(
                f",{traj.labels[i]}.re,{traj.labels[i]}.im" for i in order
            ) + "\n"
        )
        for k in range(len(traj.grid)):
            parts = [_reference_fmt(traj.grid[k])]
            for i in order:
                z = traj.values[k, i]
                parts.append(_reference_fmt(z.real))
                parts.append(_reference_fmt(z.imag))
            fh.write(",".join(parts) + "\n")


def reference_write_energy_csv(path: Path, rows: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,depth,energy\n")
        for t, depth, energy in rows:
            fh.write(f"{_reference_fmt(t)},{int(depth)},{_reference_fmt(energy)}\n")


def depth2_example() -> tuple[uc.BallTree, uc.WaveletBasis, uc.Kernel, uc.Kernel]:
    """Binary depth-2 uniform tree with the bump-at-one-child interaction
    kernel and unit dissipation; the standard small worked setup."""
    tree = uc.build_tree({"p": 2, "depth": 2, "A": 1.0, "q": 2.0})
    basis = uc.build_basis(tree)
    entries = [(lab, 1.0, 0.0) for lab in tree.labels]
    entries[1] = ("0", 2.0, 0.0)
    interaction = uc.Kernel.from_table(tree, entries)
    dissipation = uc.Kernel.constant(tree, 1.0)
    return tree, basis, interaction, dissipation


@pytest.fixture(scope="session")
def scenario_dir() -> Path:
    return Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="session")
def sweep_corpus():
    """Twenty random trees, each with a basis and five random kernels.

    Shared by the oracle sweeps so the eigenvalue and interaction checks
    run over the same inputs.
    """
    rng = np.random.default_rng(20260819)
    corpus = []
    for _ in range(20):
        tree = uc.random_tree(rng, max_leaves=100)
        basis = uc.build_basis(tree)
        kernels = [uc.random_kernel(tree, rng) for _ in range(5)]
        corpus.append((tree, basis, kernels))
    return corpus


@pytest.fixture(scope="session")
def triangle_runs():
    """Ten random shallow scenarios solved by all three paths.

    Returns (system, v0, trajectories, disagreement) tuples; used both for
    the solver agreement check and for the localization check.
    """
    rng = np.random.default_rng(4257)
    runs = []
    for _ in range(10):
        tree = uc.random_tree(rng, max_leaves=30, max_depth=3)
        basis = uc.build_basis(tree)
        interaction = uc.random_kernel(tree, rng, max_abs=0.8)
        dissipation = dissipative_kernel(tree, rng)
        system = uc.assemble(tree, basis, interaction, dissipation)
        v0 = random_initial(basis, rng)
        trajectories, disagreement = uc.solve_all(system, v0, 1.0, 1e-3)
        runs.append((system, v0, trajectories, disagreement))
    return runs
