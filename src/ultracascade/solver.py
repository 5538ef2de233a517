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

The rk and leaf routes share one RK4 march with a step-pair error
gauge: every pair of steps is retaken as one double step, so a step
costs 5.5 right-hand-side row evaluations.  On vectors of up to
``STAGE_BLOCK`` / 2 values they go out as 4 stacked calls per step, each
row bit-identical to a call of its own; longer vectors take one call per
row.  A run aborts when a pair's error estimate exceeds
``STEP_ERROR_TOL`` times max(1, |y|), the mixed absolute and relative
norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .spectral import Kernel, eigenvalue_table, interaction_table
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
    "check_trajectory_budget",
    "MAX_TRAJECTORY_BYTES",
    "solve_recurrent",
    "solve_rk",
    "solve_leaf",
    "solve_all",
    "leaf_route",
    "route_spread",
    "coefficient_trajectory",
    "leaf_rhs",
    "analyze_trajectory",
    "energy_by_level",
]

# one-step integrators reject a step pair whose error estimate exceeds
# this times max(1, |y|), y the solution at the pair's end in the max
# norm: absolute for small solutions, relative for large ones.  It
# signals that dt is too coarse for the problem
STEP_ERROR_TOL = 1e-3

# vertices x time steps that one pass of solve_recurrent solves at once:
# bounds its temporaries to a few times this many complex numbers
RECURRENT_BLOCK = 1 << 12

# most complex values (rows x row length) in one stacked right-hand-side
# call of the rk4 march: its two-row stacks are used while 2 n fits,
# and longer vectors go one row per call.  Stacking saves per-call
# overhead and costs copies and broadcasts, and at p = 2 it breaks even
# near n = 512.  Time per step stacked over one-row, medians of 21
# alternating runs: rk 0.99-1.00x at n = 63, 255 and 511, 1.07x at
# 1023 and 1.20x at 2047; leaf 0.87x at n = 64, 0.91x at 256, 0.99x at
# 512, 1.08x at 1024 and 1.17x at 2048
STAGE_BLOCK = 1 << 10

# largest stored trajectory, in bytes of (steps + 1) x columns complex
# numbers; checked before anything is allocated
MAX_TRAJECTORY_BYTES = 1 << 30

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
    anc = tree.up[paths]
    n_wavelets = np.bincount(basis.slot_vertex, minlength=tree.n_vertices)
    # entries (row, path position, wavelet index) in C order follow the
    # reduction order: parent to root, then wavelet index ascending
    row, pos, j = np.nonzero(
        (np.arange(paths.shape[1]) < tree.depth[internal][:, None])[:, :, None]
        & (np.arange(n_wavelets.max()) < n_wavelets[anc][:, :, None])
    )
    slot = np.searchsorted(basis.slot_vertex, anc[row, pos]) + j
    # a wavelet is constant on the child toward v: its row's entry there
    value = basis.slot_coeffs[slot, tree.child_slot[paths[row, pos]]]
    cols = internal[row]
    coeff = interaction_table(interaction)[cols, pos]
    k = np.arange(len(row)) - np.searchsorted(row, row)
    shape = (int(np.bincount(row, minlength=1).max()), tree.n_vertices)
    anc_slot = np.zeros(shape, dtype=np.intp)
    weight = np.zeros(shape, dtype=np.complex128)
    anc_slot[k, cols] = slot
    weight[k, cols] = complex_products(value, coeff)
    return CascadeSystem(
        tree, basis, interaction, dissipation, eta, anc_slot, weight
    )


def complex_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a * b`` of complex128 arrays, bit for bit as Python's complex
    product: re = a.re*b.re - a.im*b.im and im = a.re*b.im + a.im*b.re,
    every product and sum rounded on its own.  numpy's vectorized complex
    multiply may fuse multiply-adds and move the last bit of a weight."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


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


def check_trajectory_budget(steps: int, columns: int) -> None:
    """Refuse a trajectory of (steps + 1) x columns complex numbers above
    ``MAX_TRAJECTORY_BYTES``, before anything is allocated."""
    need = (steps + 1) * columns * 16
    if need > MAX_TRAJECTORY_BYTES:
        raise ValueError(
            f"the trajectory of {steps + 1} times x {columns} slots needs "
            f"{need / 2**30:.3g} GiB, above the limit of "
            f"{MAX_TRAJECTORY_BYTES / 2**30:g} GiB"
        )


def time_grid(t_end: float, dt: float, columns: int = 0) -> np.ndarray:
    """Uniform grid 0, dt, ..., t_end; dt must divide t_end.  With
    ``columns``, first refuse a trajectory over the budget on that grid."""
    steps = grid_steps(t_end, dt)
    check_trajectory_budget(steps, columns)
    return np.arange(steps + 1) * float(dt)


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


def coefficient_trajectory(
    basis: WaveletBasis, grid: np.ndarray, values: np.ndarray, metadata: dict
) -> Trajectory:
    """The trajectory of (len(grid), n_slots) coefficient ``values``."""
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
    grid = time_grid(t_end, dt, system.n_slots)
    v0vec = _check_initial(system, v0)
    tree, basis = system.tree, system.basis
    vertex = basis.slot_vertex
    values = np.zeros((len(grid), system.n_slots), dtype=np.complex128)
    live = np.flatnonzero(v0vec)
    live_depth = tree.depth[vertex[live]]
    per_pass = max(1, RECURRENT_BLOCK // len(grid))
    for d in np.flatnonzero(np.bincount(live_depth)):
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
    return coefficient_trajectory(
        basis, grid, values, _metadata("recurrent", t_end, dt)
    )


def _rk4_rows(
    rhs: Callable, y: np.ndarray, h: np.ndarray, k1: np.ndarray
) -> np.ndarray:
    """Classical RK4 steps from the rows of y, row i of size h[i] (an
    (m, 1) column, or a number for a vector y), given their first stages
    k1 = rhs(y).  Every row goes through the operations of a one-row step
    in the same order, so it gets that step's values bit for bit."""
    k2 = rhs(y + (h / 2) * k1)
    k3 = rhs(y + (h / 2) * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def _integrate(
    rhs: Callable, y0: np.ndarray, grid: np.ndarray, dt: float
) -> tuple[np.ndarray, float]:
    """Classical one-step 4th-order march with a step-pair error gauge.

    Steps are kept two at a time.  Each pair of steps of h is retaken as
    one step of 2h from the same start, which shares the first step's
    first stage: 11 right-hand-side row evaluations per pair, 5.5 per
    step.  For a fourth-order method ``|y_2h - y_hh| / 15`` is the
    Richardson estimate of the error of the kept pair itself (Hairer,
    Norsett and Wanner, Solving ODEs I, II.4).  An odd step count takes
    its last step alone, retaken as two half steps that share its first
    stage: ``|y_full - y_half| / 15`` then estimates the error of the half
    steps, not of the kept step.  The largest estimate is returned, and an
    estimate above ``STEP_ERROR_TOL * max(1, |y|)``, y the kept value at
    the end of the pair in the max norm, aborts the run: an absolute bound
    for small solutions and a relative one for large ones.

    ``rhs`` takes a vector or an (m, n) stack of rows.  The 2h step, or
    the first half step, needs only the shared first stage, so while two
    rows hold at most ``STAGE_BLOCK`` values its three stages go out as
    the second row of the first step's three calls: 8 calls per pair, 4
    per step.  Longer vectors take the 11 evaluations one row per call.
    Every row repeats a one-row step's operations in its order, so
    values, estimates and aborts are the same bit for bit either way, and
    a pair is checked (non-finite values, gauge, magnitude) before
    anything of the next pair is kept.  Overflow is not warned about: a
    step that leaves the finite range aborts.
    """
    values = np.empty((len(grid), len(y0)), dtype=np.complex128)
    values[0] = y0
    max_est = 0.0
    stacked = 2 * len(y0) <= STAGE_BLOCK

    def from_start(y: np.ndarray, h: float, h_other: float
                   ) -> tuple[np.ndarray, np.ndarray]:
        """RK4 steps of h and h_other from y, sharing their first stage."""
        k1 = rhs(y)
        if stacked:
            rows = _rk4_rows(rhs, np.stack((y, y)), np.array([[h], [h_other]]),
                             np.stack((k1, k1)))
            return rows[0], rows[1]
        return _rk4_rows(rhs, y, h, k1), _rk4_rows(rhs, y, h_other, k1)

    def keep(k: int, kept: list[np.ndarray], other: np.ndarray) -> None:
        """Check the steps k + 1, ... that ``kept`` holds against the
        solution ``other`` of the same span, then store them."""
        nonlocal max_est
        size = [float(np.abs(y).max()) for y in kept]
        est = float(np.abs(kept[-1] - other).max()) / 15.0
        # nan and inf reach these maxima from any entry of kept or other
        if not np.isfinite([*size, est]).all():
            raise SolverAbort(
                f"solution became non-finite near t={grid[k]:g}; reduce dt"
            )
        max_est = max(max_est, est)
        bound = STEP_ERROR_TOL * max(1.0, size[-1])
        if est > bound:
            raise SolverAbort(
                f"step error estimate {est:.3e} exceeds {bound:.3g} "
                f"at t={grid[k]:g}; dt={dt:g} is too large"
            )
        for i, s in enumerate(size, start=1):
            if s > BLOWUP_LIMIT:
                raise SolverAbort(
                    f"solution magnitude exceeded {BLOWUP_LIMIT:.0e} "
                    f"near t={grid[k + i]:g}"
                )
        values[k + 1:k + 1 + len(kept)] = kept

    steps = len(grid) - 1
    y = y0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(0, steps - 1, 2):
            y_h, y_2h = from_start(y, dt, 2 * dt)
            y = _rk4_rows(rhs, y_h, dt, rhs(y_h))
            keep(k, [y_h, y], y_2h)
        if steps % 2:
            y_full, y_mid = from_start(y, dt, dt / 2)
            keep(steps - 1, [y_full],
                 _rk4_rows(rhs, y_mid, dt / 2, rhs(y_mid)))
    return values, max_est


def _side_by_side(index: np.ndarray, m: int, stride: int) -> np.ndarray:
    """m copies of an index array along its last axis, copy i shifted by
    i * stride: the index layout of m disjoint copies of a structure."""
    return np.concatenate([index + i * stride for i in range(m)], axis=-1)


def _coefficient_rhs(system: CascadeSystem) -> Callable:
    """dv/dt on slot vectors or (m, N) stacks of them: one (K, m * N)
    gather-sum per call, O(m * N * K).  A stack is read as m disjoint
    copies of the slot layout side by side, so every row gets the sums,
    in the order, of a call on that row alone."""
    vertex = system.basis.slot_vertex
    n = len(vertex)
    eta = system.eta[vertex]
    anc_slot = np.ascontiguousarray(system.anc_slot[:, vertex])
    weight = np.ascontiguousarray(system.weight[:, vertex])
    # rows -> (anc_slot, weight, eta) for that many copies side by side
    layouts = {1: (anc_slot, weight, eta)}

    def layout(m: int) -> tuple:
        if m not in layouts:
            layouts[m] = (_side_by_side(anc_slot, m, n),
                          np.tile(weight, m), np.tile(eta, m))
        return layouts[m]

    def gather_sum(y, anc, w, e):
        drive = y.take(anc)
        drive *= w
        return -y * (e + drive.sum(axis=0))

    def rhs(y: np.ndarray) -> np.ndarray:
        if y.ndim == 1:
            return gather_sum(y, anc_slot, weight, eta)
        return gather_sum(y.ravel(), *layout(len(y))).reshape(y.shape)

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
    grid = time_grid(t_end, dt, system.n_slots)
    v0vec = _check_initial(system, v0)
    values, max_est = _integrate(_coefficient_rhs(system), v0vec, grid, float(dt))
    return coefficient_trajectory(
        system.basis, grid, values,
        _metadata("rk", t_end, dt, max_step_error=max_est),
    )


def _leaf_sweep(
    tree: BallTree,
    interaction: Kernel,
    dissipation: Kernel,
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

    It keeps these forms, not ``BallTree.ball_sums`` and ``path_sums``:
    on 64 leaves, where the leaf route is a run's critical path, one path
    sum by gather takes about 5 us against 22 us by levels, which win only
    from some thousands of leaves on, a size no benchmark workload runs.

    ``f`` may also be an (m, L) stack of fields.  It is swept as m
    disjoint copies of the tree side by side: every gather stays 1-D,
    every root-path sum is a (D, m * V) sum over axis 0, and the cumsums
    and f - f[0] restart on every row, so each row gets the values of a
    call on it alone, bit for bit.
    """
    check_same_tree(tree, interaction, dissipation,
                    message="kernels must live on the field's tree")
    n_v, n_l = tree.n_vertices, tree.n_leaves
    nu = tree.measure[tree.leaves]
    start = tree.leaf_ranges[:, 0].astype(np.intp)
    end = tree.leaf_ranges[:, 1].astype(np.intp)
    # the root is its own ``up``: every per-vertex difference x[up] - x
    # then vanishes at the root, which is the slot the path table pads with
    up = tree.up
    # depth-major copies: numpy sums (D, n) over axis 0 faster than (n, D)
    # over axis 1
    paths = np.ascontiguousarray(tree.root_path_table().T)
    leaf_paths = np.ascontiguousarray(paths[:, tree.leaves])
    k_f = interaction.values
    k_f_up = k_f[up]
    k_g_up = dissipation.values[up]
    d_nu = tree.measure[up] - tree.measure
    # rows -> the arrays above for that many disjoint copies of the tree
    # side by side (vertex v of row i at i * V + v, leaf l at i * L + l),
    # and a prefix-sum buffer with a row per copy
    layouts = {1: (nu, start, end, up, paths, leaf_paths, k_f, k_f_up,
                   k_g_up, d_nu, np.zeros((1, n_l + 1), dtype=np.complex128))}

    def layout(m: int) -> tuple:
        if m not in layouts:
            layouts[m] = (
                np.tile(nu, m), _side_by_side(start, m, n_l + 1),
                _side_by_side(end, m, n_l + 1), _side_by_side(up, m, n_v),
                _side_by_side(paths, m, n_v), _side_by_side(leaf_paths, m, n_v),
                *(np.tile(a, m) for a in (k_f, k_f_up, k_g_up, d_nu)),
                np.zeros((m, n_l + 1), dtype=np.complex128),
            )
        return layouts[m]

    def rhs(f: np.ndarray) -> np.ndarray:
        rows = f.reshape(-1, n_l)
        (nu, start, end, up, paths, leaf_paths,
         k_f, k_f_up, k_g_up, d_nu, prefix) = layout(len(rows))
        flat_prefix = prefix.ravel()

        def subtree_sums(w: np.ndarray) -> np.ndarray:
            # the cumsum restarts on every row
            np.add.accumulate(w.reshape(-1, n_l), axis=1, out=prefix[:, 1:])
            return flat_prefix[end] - flat_prefix[start]

        phi = subtree_sums(rows.ravel() * nu)
        inner = k_f * phi + (k_f_up * (phi[up] - phi))[paths].sum(axis=0)
        kappa_up = inner[up] - k_g_up
        g = (rows - rows[:, :1]).ravel()
        big_g = subtree_sums(g * nu)
        a = (kappa_up * d_nu)[leaf_paths].sum(axis=0)
        b = (kappa_up * (big_g[up] - big_g))[leaf_paths].sum(axis=0)
        return (g * a - b).reshape(f.shape)

    return rhs


def leaf_rhs(
    tree: BallTree,
    interaction: Kernel,
    dissipation: Kernel,
    f: LeafField,
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
        tree, _leaf_sweep(tree, interaction, dissipation)(f.values)
    )


def solve_leaf(
    tree: BallTree,
    interaction: Kernel,
    dissipation: Kernel,
    f0: LeafField,
    t_end: float,
    dt: float,
) -> LeafTrajectory:
    """Integrate the field equation directly on leaf values.

    This is the equation-level oracle: it never touches wavelets or the
    coefficient system.  The initial field must be mean-zero; the
    dynamics are only defined on that subspace, and the mean is conserved
    along solutions.  Each right-hand side is one set of tree sweeps (see
    ``leaf_rhs``), O(V + L * depth), so no leaf count is refused.
    """
    check_same_tree(tree, f0, message="initial field lives on a different tree")
    if not f0.is_mean_zero():
        raise ValueError(
            f"initial leaf field has mean {f0.mean():.3e}; "
            "the cascade dynamics are defined on mean-zero fields only"
        )
    grid = time_grid(t_end, dt, tree.n_leaves)
    values, max_est = _integrate(
        _leaf_sweep(tree, interaction, dissipation), f0.values.copy(),
        grid, float(dt),
    )
    return LeafTrajectory(
        grid, tree, values, _metadata("leaf", t_end, dt, max_step_error=max_est)
    )


def analyze_trajectory(
    leaf_traj: LeafTrajectory, basis: WaveletBasis
) -> Trajectory:
    """Project every snapshot of a leaf trajectory onto the wavelet basis,
    by the analyze sweep on all time rows at once: O(T * V * p)."""
    check_same_tree(basis.tree, leaf_traj,
                    message="trajectory and basis belong to different trees")
    coeffs = basis.analyze_array(leaf_traj.values)
    return coefficient_trajectory(
        basis, leaf_traj.grid, coeffs, dict(leaf_traj.metadata)
    )


def leaf_route(
    system: CascadeSystem,
    v0: WaveletField,
    t_end: float,
    dt: float,
) -> Trajectory:
    """The leaf route of ``solve_all``: synthesize ``v0`` on the leaves,
    integrate there with ``solve_leaf`` and project every snapshot back
    onto the basis."""
    leaf = solve_leaf(
        system.tree, system.interaction, system.dissipation,
        synthesize(v0), t_end, dt,
    )
    return analyze_trajectory(leaf, system.basis)


def route_spread(trajectories: dict[str, Trajectory]) -> dict[str, float]:
    """Pairwise sup-norm disagreements of the ``recurrent``, ``rk`` and
    ``leaf`` trajectories, and their maximum under key ``"max"``."""
    recurrent, rk, leaf = (trajectories[name] for name in ("recurrent", "rk", "leaf"))
    spread = {
        "recurrent_vs_rk": recurrent.sup_distance(rk),
        "recurrent_vs_leaf": recurrent.sup_distance(leaf),
        "rk_vs_leaf": rk.sup_distance(leaf),
    }
    spread["max"] = max(spread.values())
    return spread


def solve_all(
    system: CascadeSystem,
    v0: WaveletField,
    t_end: float,
    dt: float,
) -> tuple[dict[str, Trajectory], dict[str, float]]:
    """Run all three solvers on one problem, in the order recurrent, rk,
    leaf, and measure their spread.

    Returns the coefficient trajectories keyed by solver name (the leaf
    run is projected onto the basis) and the pairwise sup-norm
    disagreements of ``route_spread``.
    """
    trajectories = {
        "recurrent": solve_recurrent(system, v0, t_end, dt),
        "rk": solve_rk(system, v0, t_end, dt),
        "leaf": leaf_route(system, v0, t_end, dt),
    }
    return trajectories, route_spread(trajectories)


def energy_by_level(traj: Trajectory) -> np.ndarray:
    """Aggregate |coefficient|^2 by tree depth over the whole grid.

    Returns an array of (time, depth, energy) rows, time-major with depth
    ascending, covering every depth that carries at least one slot.
    """
    depths = np.asarray(traj.depths)
    levels = np.flatnonzero(np.bincount(depths))
    power = np.abs(traj.values) ** 2
    energy = np.stack([power[:, depths == d].sum(axis=1) for d in levels], axis=1)
    t, d = np.meshgrid(traj.grid, levels.astype(np.float64), indexing="ij")
    return np.stack((t, d, energy), axis=-1).reshape(-1, 3)
