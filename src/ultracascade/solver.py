"""Hierarchical cascade systems and three mutually validating solvers.

The coefficient form of the cascade equation is strictly triangular: the
equation for a wavelet coefficient is linear once all coefficients on
strictly larger balls are known.  ``solve_recurrent`` exploits that
structure scale by scale with an integrating factor.  ``solve_rk``
integrates the same coefficient system generically, and ``solve_leaf``
integrates the original integro-differential equation directly on leaf
values.  All three share one uniform time grid so trajectories compare
without interpolation.

The coefficient routes read one padded array layout (``CascadeSystem``):
an rk right-hand side is a gather-sum, O(N * K) for N slots and K
ancestor wavelets per vertex, and the recurrent route makes bounded
numpy passes per depth over the vertices that carry a nonzero initial
slot.  The leaf route evaluates its right-hand side by exact tree
sweeps: O(V) work per subtree-sum pass and O(L * depth) per root-path
pass, V the vertex and L the leaf count.  The dense O(L^2) quadrature routines of
``spectral`` are test oracles only; no solver calls them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .spectral import (
    DEFAULT_LEAF_CAP,
    Kernel,
    eigenvalue_table,
    interaction_table,
)
from .tree import BallTree, check_same_tree
from .wavelets import LeafField, WaveletBasis, WaveletField, analyze, synthesize

__all__ = [
    "SolverAbort",
    "CascadeSystem",
    "Trajectory",
    "LeafTrajectory",
    "assemble",
    "grid_steps",
    "time_grid",
    "solve_recurrent",
    "solve_rk",
    "solve_leaf",
    "solve_all",
    "leaf_rhs",
    "analyze_trajectory",
    "energy_by_level",
]

# one-step integrators reject a step whose halved-step error estimate
# exceeds this; it signals that dt is too coarse for the problem
STEP_ERROR_TOL = 1e-3

# vertices x time steps that one pass of solve_recurrent solves at once:
# bounds its temporaries to a few times this many complex numbers
RECURRENT_BLOCK = 1 << 12

# diagnostic abort threshold; the triangular structure keeps solutions
# bounded on finite trees, so reaching this means the setup is off
BLOWUP_LIMIT = 1e12


class SolverAbort(RuntimeError):
    """Raised when a solve leaves its trust region (step error or blowup)."""


@dataclass(frozen=True)
class CascadeSystem:
    """Assembled coefficient system: decay rates plus triangular couplings.

    Every slot s at an internal vertex v obeys dv_s/dt = -v_s (eta[v] +
    sum_k weight[k, v] * v[anc_slot[k, v]]).  ``eta`` is the decay rate per
    vertex (0 on leaves).  ``anc_slot`` and ``weight`` are (K, V) arrays, K
    the largest number of ancestor wavelets of a vertex; column v lists
    the slots on strictly larger balls from parent to root, wavelet index
    ascending, which is the solvers' reduction order.  A weight is the
    value of the ancestor wavelet on v times the interaction coefficient
    of the pair.  Padding entries hold slot 0 and weight 0.
    """

    tree: BallTree
    basis: WaveletBasis
    interaction: Kernel
    dissipation: Kernel
    eta: np.ndarray
    anc_slot: np.ndarray
    weight: np.ndarray

    @property
    def slots(self) -> tuple[tuple[int, int], ...]:
        return self.basis.slots

    @property
    def labels(self) -> tuple[str, ...]:
        return self.basis.labels

    @property
    def n_slots(self) -> int:
        return self.basis.n_slots

    @property
    def n_couplings(self) -> int:
        return int(np.count_nonzero(self.weight))


def assemble(
    tree: BallTree,
    basis: WaveletBasis,
    interaction: Kernel,
    dissipation: Kernel,
) -> CascadeSystem:
    """Build the coefficient system for a tree, basis, and kernel pair.

    Decay rates come from ``eigenvalue_table`` of the dissipation kernel.
    The weights pair the root-path coefficients of ``interaction_table``
    with the value of each ancestor wavelet on the child toward the
    vertex, all gathered at once along ``tree.root_path_table()``.  A constant
    interaction kernel gives all-zero weights: no couplings at all.
    """
    check_same_tree(tree, interaction, dissipation, basis,
                    message="kernels and basis must live on the system's tree")
    internal = tree.internal
    eta = eigenvalue_table(dissipation)
    paths = tree.root_path_table()[internal]
    anc = np.maximum(tree.parent, 0)[paths]
    n_wavelets = np.bincount(basis.slot_vertex, minlength=tree.n_vertices)
    # entries (row, path position, wavelet index) in C order follow the
    # reduction order: parent to root, then wavelet index ascending
    row, pos, j = np.nonzero(
        (np.arange(paths.shape[1]) < tree.depth[internal][:, None])[:, :, None]
        & (np.arange(n_wavelets.max()) < n_wavelets[anc][:, :, None])
    )
    slot = np.searchsorted(basis.slot_vertex, anc[row, pos]) + j
    # a wavelet is constant on the child toward v: read it at its first leaf
    value = basis.matrix[slot, tree.leaf_ranges[paths[row, pos], 0]]
    cols = internal[row]
    coeff = interaction_table(interaction)[cols, pos]
    k = np.arange(len(row)) - np.searchsorted(row, row)
    shape = (int(np.bincount(row, minlength=1).max()), tree.n_vertices)
    anc_slot = np.zeros(shape, dtype=np.intp)
    weight = np.zeros(shape, dtype=np.complex128)
    anc_slot[k, cols] = slot
    # Python complex products: numpy's vectorized multiply may fuse
    # multiply-adds and move the last bit of a weight
    weight[k, cols] = [a * b for a, b in zip(value.tolist(), coeff.tolist())]
    return CascadeSystem(
        tree, basis, interaction, dissipation, eta, anc_slot, weight
    )


def grid_steps(t_end: float, dt: float) -> int:
    """Step count of the grid 0, dt, ..., t_end; dt must divide t_end."""
    t_end = float(t_end)
    dt = float(dt)
    if not (0 < t_end < np.inf and 0 < dt < np.inf):
        raise ValueError(
            f"t_end and dt must be positive and finite, got {t_end}, {dt}"
        )
    n = int(round(t_end / dt))
    if n < 1 or abs(n * dt - t_end) > 1e-9 * t_end:
        raise ValueError(f"dt={dt} does not divide t_end={t_end}")
    return n


def time_grid(t_end: float, dt: float) -> np.ndarray:
    """Uniform grid 0, dt, ..., t_end; dt must divide t_end."""
    return np.arange(grid_steps(t_end, dt) + 1) * float(dt)


@dataclass
class Trajectory:
    """Wavelet-coefficient values on a uniform time grid.

    Columns follow the slot order of the basis; ``labels`` carries the
    path:index name of each slot.
    """

    grid: np.ndarray
    slots: tuple[tuple[int, int], ...]
    labels: tuple[str, ...]
    depths: np.ndarray
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def column(self, vertex: int, j: int) -> np.ndarray:
        return self.values[:, self.slots.index((int(vertex), int(j)))]

    def sup_distance(self, other: "Trajectory") -> float:
        """Largest pointwise coefficient difference over the whole grid."""
        if self.values.shape != other.values.shape:
            raise ValueError("trajectories have different shapes")
        if not np.array_equal(self.grid, other.grid):
            raise ValueError("trajectories use different grids")
        return float(np.abs(self.values - other.values).max())


@dataclass
class LeafTrajectory:
    """Leaf-value snapshots of the field on a uniform time grid."""

    grid: np.ndarray
    tree: BallTree
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def field_at(self, index: int) -> LeafField:
        return LeafField(self.tree, self.values[index].copy())


def _coefficient_trajectory(
    basis: WaveletBasis, grid: np.ndarray, values: np.ndarray, metadata: dict
) -> Trajectory:
    depths = basis.tree.depth[basis.slot_vertex]
    return Trajectory(grid, basis.slots, basis.labels, depths, values, metadata)


def _metadata(solver: str, t_end: float, dt: float, **extra) -> dict:
    return {"solver": solver, "dt": float(dt), "t_end": float(t_end), **extra}


def _check_initial(system: CascadeSystem, v0: WaveletField) -> np.ndarray:
    if v0.basis is not system.basis:
        raise ValueError("initial field must use the system's basis")
    return v0.dense()


def solve_recurrent(
    system: CascadeSystem,
    v0: WaveletField,
    t_end: float,
    dt: float,
) -> Trajectory:
    """Solve scale by scale with the integrating-factor closed form.

    Processing depths from the root downward, every coefficient obeys a
    linear equation whose drive depends only on already-solved ancestor
    slots; the solution is v(0) times the exponential of minus the decay
    rate times t minus the running integral of the drive.  The integral
    is taken by cumulative trapezoid on the shared grid, making this
    solver second-order in dt when couplings are active and exact (up to
    rounding) when they are not.  Slots that start at zero stay exactly
    zero, so each depth is solved by numpy passes over only the vertices
    that carry a nonzero initial slot, at most ``RECURRENT_BLOCK``
    vertex-steps per pass: the temporaries stay bounded, and every value
    is the one a single pass per depth would give.
    """
    grid = time_grid(t_end, dt)
    v0vec = _check_initial(system, v0)
    tree, basis = system.tree, system.basis
    vertex = basis.slot_vertex
    values = np.zeros((len(grid), system.n_slots), dtype=np.complex128)
    live = np.flatnonzero(v0vec)
    live_depth = tree.depth[vertex[live]]
    per_pass = max(1, RECURRENT_BLOCK // len(grid))
    for d in np.unique(live_depth):
        slots = live[live_depth == d]
        verts, first, col = np.unique(
            vertex[slots], return_index=True, return_inverse=True
        )
        # slots run in vertex order, so verts[lo:hi] own the slots
        # slots[first[lo]:first[hi]]
        first = np.append(first, len(slots))
        for lo in range(0, len(verts), per_pass):
            hi = min(lo + per_pass, len(verts))
            block, part = verts[lo:hi], slice(first[lo], first[hi])
            drive = np.zeros((len(grid), len(block)), dtype=np.complex128)
            for anc, w in zip(system.anc_slot[:, block],
                              system.weight[:, block]):
                drive += w * values[:, anc]
            integral = np.concatenate((np.zeros((1, len(block))), np.cumsum(
                float(dt) * (drive[1:] + drive[:-1]) / 2.0, axis=0
            )), axis=0)
            factor = np.exp(-system.eta[block] * grid[:, None] - integral)
            values[:, slots[part]] = solved = (
                v0vec[slots[part]] * factor[:, col[part] - lo]
            )
            blown = np.abs(solved).max(axis=0) > BLOWUP_LIMIT
            if blown.any():
                raise SolverAbort(
                    f"coefficient magnitude exceeded {BLOWUP_LIMIT:.0e} "
                    f"at slot {basis.labels[slots[part][np.argmax(blown)]]!r}"
                )
    return _coefficient_trajectory(
        basis, grid, values, _metadata("recurrent", t_end, dt)
    )


def _rk4_step(
    rhs: Callable, y: np.ndarray, h: float, k1: np.ndarray
) -> np.ndarray:
    """One classical RK4 step from y, given its first stage k1 = rhs(y)."""
    k2 = rhs(y + (h / 2) * k1)
    k3 = rhs(y + (h / 2) * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def _integrate(
    rhs: Callable, y0: np.ndarray, grid: np.ndarray, dt: float
) -> tuple[np.ndarray, float]:
    """Classical one-step 4th-order march with a step-halving error gauge.

    Each step is also retaken as two half steps, which share the full
    step's first stage: 11 right-hand-side evaluations per step.  For a
    fourth-order method ``|y_full - y_half| / 15`` is the Richardson
    estimate of the error of the two-half-step solution, about 1/16 of the
    error of the full step.  The full-step result is kept all the same, so
    the reported figure understates the kept solution's local error by
    about that factor.  The largest estimate is returned, and a step whose
    estimate exceeds the tolerance aborts the run.
    """
    values = np.empty((len(grid), len(y0)), dtype=np.complex128)
    values[0] = y0
    y = y0.copy()
    max_est = 0.0
    for k in range(len(grid) - 1):
        k1 = rhs(y)
        y_full = _rk4_step(rhs, y, dt, k1)
        y_mid = _rk4_step(rhs, y, dt / 2, k1)
        y_half = _rk4_step(rhs, y_mid, dt / 2, rhs(y_mid))
        if not (np.all(np.isfinite(y_full)) and np.all(np.isfinite(y_half))):
            raise SolverAbort(
                f"solution became non-finite near t={grid[k]:g}; reduce dt"
            )
        est = float(np.abs(y_full - y_half).max()) / 15.0
        max_est = max(max_est, est)
        if est > STEP_ERROR_TOL:
            raise SolverAbort(
                f"step error estimate {est:.3e} exceeds {STEP_ERROR_TOL:g} "
                f"at t={grid[k]:g}; dt={dt:g} is too large"
            )
        y = y_full
        if np.abs(y).max() > BLOWUP_LIMIT:
            raise SolverAbort(
                f"solution magnitude exceeded {BLOWUP_LIMIT:.0e} "
                f"near t={grid[k + 1]:g}"
            )
        values[k + 1] = y
    return values, max_est


def _coefficient_rhs(system: CascadeSystem) -> Callable:
    """dv/dt on slot vectors: one (K, N) gather-sum per call, O(N * K)."""
    vertex = system.basis.slot_vertex
    eta = system.eta[vertex]
    anc_slot = np.ascontiguousarray(system.anc_slot[:, vertex])
    weight = np.ascontiguousarray(system.weight[:, vertex])

    def rhs(y: np.ndarray) -> np.ndarray:
        drive = y.take(anc_slot)
        drive *= weight
        return -y * (eta + drive.sum(axis=0))

    return rhs


def solve_rk(
    system: CascadeSystem,
    v0: WaveletField,
    t_end: float,
    dt: float,
) -> Trajectory:
    """Integrate the coefficient system with a fixed-step 4th-order method.

    Generic cross-check path for ``solve_recurrent``: no use is made of
    the triangular structure beyond assembling the right-hand side.
    """
    grid = time_grid(t_end, dt)
    v0vec = _check_initial(system, v0)
    values, max_est = _integrate(_coefficient_rhs(system), v0vec, grid, float(dt))
    return _coefficient_trajectory(
        system.basis, grid, values,
        _metadata("rk", t_end, dt, max_step_error=max_est),
    )


def _leaf_sweep(
    tree: BallTree,
    interaction: Kernel,
    dissipation: Kernel,
    max_leaves: int,
) -> Callable[[np.ndarray], np.ndarray]:
    """Right-hand side of the field equation on plain leaf-value arrays.

    With inner_f(v) = sum_b k_F(sup(v, b)) f(b) nu(b), the quadratic term
    is minus the dissipative-type operator with kernel inner_f applied to
    f, so the whole right-hand side -B(f, f) - T f is that operator with
    the field-dependent vertex kernel kappa = inner_f - k_G.  Let Phi and
    G be the subtree sums of f * nu and g * nu, and u_0 = v, u_1, ..., the
    root path of a vertex v (sums run over j >= 1).  Then

        inner_f(v)     = k_F(v) Phi(v)
                         + sum_j k_F(u_j) (Phi(u_j) - Phi(u_{j-1})),
        (T_kappa g)(a) = g(a) sum_j kappa(u_j) (nu(u_j) - nu(u_{j-1}))
                         - sum_j kappa(u_j) (G(u_j) - G(u_{j-1}))  (v = a).

    One call makes two subtree-sum passes (cumsums over the preorder-
    contiguous leaf ranges) and three root-path sums over
    ``tree.root_path_table()``.  The operator annihilates constants, so
    it is applied to g = f - f[0]: a constant field gives g == 0 and an
    exact zero.  No wavelet or closed form is used.
    """
    check_same_tree(tree, interaction, dissipation,
                    message="kernels must live on the field's tree")
    if tree.n_leaves > max_leaves:
        raise ValueError(
            f"tree has {tree.n_leaves} leaves, above the leaf-route cap of "
            f"{max_leaves}; raise max_leaves to force it"
        )
    nu = tree.measure[tree.leaves]
    start = tree.leaf_ranges[:, 0].astype(np.intp)
    end = tree.leaf_ranges[:, 1].astype(np.intp)
    # parent of every vertex, the root mapped to itself: every per-vertex
    # difference x[up] - x then vanishes at the root, which is the slot the
    # path table pads with
    up = np.maximum(tree.parent, 0).astype(np.intp)
    # depth-major copies: numpy sums (D, n) over axis 0 faster than (n, D)
    # over axis 1
    paths = np.ascontiguousarray(tree.root_path_table().T)
    leaf_paths = np.ascontiguousarray(paths[:, tree.leaves])
    k_f = interaction.values
    k_f_up = k_f[up]
    k_g_up = dissipation.values[up]
    d_nu = tree.measure[up] - tree.measure

    prefix = np.zeros(tree.n_leaves + 1, dtype=np.complex128)

    def subtree_sums(w: np.ndarray) -> np.ndarray:
        np.add.accumulate(w, out=prefix[1:])
        return prefix[end] - prefix[start]

    def rhs(f: np.ndarray) -> np.ndarray:
        phi = subtree_sums(f * nu)
        inner = k_f * phi + (k_f_up * (phi[up] - phi))[paths].sum(axis=0)
        kappa_up = inner[up] - k_g_up
        g = f - f[0]
        big_g = subtree_sums(g * nu)
        a = (kappa_up * d_nu)[leaf_paths].sum(axis=0)
        b = (kappa_up * (big_g[up] - big_g))[leaf_paths].sum(axis=0)
        return g * a - b

    return rhs


def leaf_rhs(
    tree: BallTree,
    interaction: Kernel,
    dissipation: Kernel,
    f: LeafField,
    max_leaves: int = DEFAULT_LEAF_CAP,
) -> LeafField:
    """Time derivative of the field equation, evaluated exactly on leaves.

    Returns minus the quadratic interaction integral (with the field in
    both arguments) minus the dissipative operator applied to the field,
    by the tree sweeps that ``solve_leaf`` integrates.  Constant fields
    give an exact zero.  The dense ``interaction_integral_direct`` and
    ``apply_pdo_direct`` are its test oracles.
    """
    check_same_tree(tree, f, message="field lives on a different tree")
    return LeafField(
        tree, _leaf_sweep(tree, interaction, dissipation, max_leaves)(f.values)
    )


def solve_leaf(
    tree: BallTree,
    interaction: Kernel,
    dissipation: Kernel,
    f0: LeafField,
    t_end: float,
    dt: float,
    max_leaves: int = DEFAULT_LEAF_CAP,
) -> LeafTrajectory:
    """Integrate the field equation directly on leaf values.

    This is the equation-level oracle: it never touches wavelets or the
    coefficient system.  The initial field must be mean-zero; the
    dynamics are only defined on that subspace, and the mean is conserved
    along solutions.  Each right-hand side is one set of tree sweeps (see
    ``leaf_rhs``), O(V + L * depth); trees above ``max_leaves`` leaves are
    refused.
    """
    check_same_tree(tree, f0, message="initial field lives on a different tree")
    if not f0.is_mean_zero():
        raise ValueError(
            f"initial leaf field has mean {f0.mean():.3e}; "
            "the cascade dynamics are defined on mean-zero fields only"
        )
    grid = time_grid(t_end, dt)
    sweep = _leaf_sweep(tree, interaction, dissipation, max_leaves)

    def rhs(y: np.ndarray) -> np.ndarray:
        if not np.isfinite(y).all():
            raise SolverAbort("leaf values became non-finite; reduce dt")
        return sweep(y)

    values, max_est = _integrate(rhs, f0.values.copy(), grid, float(dt))
    return LeafTrajectory(
        grid, tree, values, _metadata("leaf", t_end, dt, max_step_error=max_est)
    )


def analyze_trajectory(
    leaf_traj: LeafTrajectory, basis: WaveletBasis
) -> Trajectory:
    """Project every snapshot of a leaf trajectory onto the wavelet basis."""
    tree = basis.tree
    check_same_tree(tree, leaf_traj,
                    message="trajectory and basis belong to different trees")
    nu = tree.measure[tree.leaves]
    coeffs = (leaf_traj.values * nu) @ basis.matrix.conj().T
    return _coefficient_trajectory(
        basis, leaf_traj.grid, coeffs, dict(leaf_traj.metadata)
    )


def solve_all(
    system: CascadeSystem,
    v0: WaveletField,
    t_end: float,
    dt: float,
    max_leaves: int = DEFAULT_LEAF_CAP,
) -> tuple[dict[str, Trajectory], dict[str, float]]:
    """Run all three solvers on one problem and measure their spread.

    Returns the coefficient trajectories keyed by solver name (the leaf
    run is projected onto the basis) and the pairwise sup-norm
    disagreements, including their maximum under key ``"max"``.
    """
    recurrent = solve_recurrent(system, v0, t_end, dt)
    rk = solve_rk(system, v0, t_end, dt)
    f0 = synthesize(v0)
    leaf = solve_leaf(
        system.tree, system.interaction, system.dissipation,
        f0, t_end, dt, max_leaves,
    )
    leaf_co = analyze_trajectory(leaf, system.basis)
    trajectories = {"recurrent": recurrent, "rk": rk, "leaf": leaf_co}
    disagreement = {
        "recurrent_vs_rk": recurrent.sup_distance(rk),
        "recurrent_vs_leaf": recurrent.sup_distance(leaf_co),
        "rk_vs_leaf": rk.sup_distance(leaf_co),
    }
    disagreement["max"] = max(disagreement.values())
    return trajectories, disagreement


def energy_by_level(traj: Trajectory) -> np.ndarray:
    """Aggregate |coefficient|^2 by tree depth over the whole grid.

    Returns an array of (time, depth, energy) rows, time-major with depth
    ascending, covering every depth that carries at least one slot.
    """
    depths = np.asarray(traj.depths)
    levels = np.unique(depths)
    power = np.abs(traj.values) ** 2
    energy = np.stack([power[:, depths == d].sum(axis=1) for d in levels], axis=1)
    t, d = np.meshgrid(traj.grid, levels.astype(np.float64), indexing="ij")
    return np.stack((t, d, energy), axis=-1).reshape(-1, 3)
