"""Hierarchical cascade systems and three mutually validating solvers.

The coefficient form of the cascade equation is strictly triangular: the
equation for a wavelet coefficient is linear once all coefficients on
strictly larger balls are known.  ``solve_recurrent`` exploits that
structure scale by scale with an integrating factor.  ``solve_rk``
integrates the same coefficient system generically, and ``solve_leaf``
integrates the original integro-differential equation directly on leaf
values.  All three share one uniform time grid so trajectories compare
without interpolation.

The coefficient routes read one padded layout of couplings per slot
(``CascadeSystem``): an rk right-hand side is an O(N * K) gather-sum, and
the recurrent route makes bounded passes per depth over the slots that
start nonzero.  The leaf route sweeps the tree, O(V + L * depth) per
right-hand side.  No route calls the dense quadratures of ``spectral``.

The rk and leaf routes share one RK4 march with a step-pair error
gauge (``_integrate``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .spectral import Kernel, coupling_levels, eigenvalue_table
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

# slots x time steps that one pass of solve_recurrent solves, or of
# analyze_trajectory projects, at once: bounds their temporaries to a few
# times this many complex numbers
RECURRENT_BLOCK = 1 << 12

# most complex values (rows x leaves) in one stacked leaf sweep of the
# rk4 march: the leaf route stacks two rows while 2 n fits, and more
# leaves go one row per call.  Stacking saves per-call overhead and
# costs copies and broadcasts; at p = 2 it breaks even between n = 512
# and 1024.
# Time per step stacked over one-row, medians of 31 alternating runs in
# two sets: 0.83-0.86x at n = 64, 0.89x at 256, 0.95-0.99x at 512,
# 1.02-1.03x at 1024, 1.04-1.07x at 2048 and 1.14-1.17x at 4096
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
    sum_k weight[k, s] * v[anc_slot[k, s]]).  ``eta`` is the decay rate per
    vertex (0 on leaves).  ``anc_slot`` and ``weight`` are C-contiguous
    (K, N) arrays, K the largest number of ancestor wavelets of a ball;
    column s, which every route reads as slot s's own, lists the slots on
    strictly larger balls than v from parent to root, wavelet index
    ascending (the solvers' reduction order).  A weight is the value of
    the ancestor wavelet on v times the interaction coefficient of the
    pair.  Padding holds slot 0 and weight 0.  ``n_couplings`` counts per
    ball, in the column of its first slot.
    """

    tree: BallTree
    basis: WaveletBasis
    interaction: Kernel
    dissipation: Kernel
    eta: np.ndarray
    anc_slot: np.ndarray
    weight: np.ndarray

    @property
    def labels(self) -> tuple[str, ...]:
        return self.basis.labels

    @property
    def n_slots(self) -> int:
        return self.basis.n_slots

    @property
    def n_couplings(self) -> int:
        first = self.basis.slot_wavelet == 0
        return int(np.count_nonzero(self.weight, axis=0)[first].sum())


def assemble(
    tree: BallTree,
    basis: WaveletBasis,
    interaction: Kernel,
    dissipation: Kernel,
) -> CascadeSystem:
    """Build the coefficient system for a tree, basis, and kernel pair.

    Decay rates come from ``eigenvalue_table`` of the dissipation kernel.
    The weights walk up every slot's root path with ``coupling_levels``,
    each level appending its ancestor's wavelets to the slot's own
    column: O(N) numbers besides the output.  A constant interaction
    kernel gives no couplings.
    """
    check_same_tree(tree, interaction, dissipation, basis,
                    message="kernels and basis must live on the system's tree")
    vertex = basis.slot_vertex
    eta = eigenvalue_table(dissipation)
    n_wavelets = np.bincount(vertex, minlength=tree.n_vertices)
    first = np.cumsum(n_wavelets) - n_wavelets  # slot of wavelet 0 of a ball
    above = tree.path_sums(n_wavelets)[vertex] - n_wavelets[vertex]
    shape = (int(above.max(initial=0)), len(vertex))
    anc_slot = np.zeros(shape, dtype=np.intp)
    weight = np.zeros(shape, dtype=np.complex128)
    # rows filled per slot; levels run parent to root and wavelet index
    # ascends within one, the solvers' reduction order
    count = np.zeros(len(vertex), dtype=np.intp)
    for cur, up, coeff in coupling_levels(interaction, vertex):
        n = np.where(cur > 0, n_wavelets[up], 0)
        for j in range(n.max()):
            col = np.flatnonzero(n > j)
            slot = first[up[col]] + j
            # a wavelet is constant on the child toward v: its row's entry there
            value = basis.slot_coeffs[slot, tree.child_slot[cur[col]]]
            anc_slot[count[col] + j, col] = slot
            weight[count[col] + j, col] = complex_products(value, coeff[col])
        count += n
    return CascadeSystem(tree, basis, interaction, dissipation, eta, anc_slot, weight)


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
    if t_end / dt == np.inf:
        raise ValueError(f"t_end={t_end} / dt={dt} is past the float range")
    n = int(round(t_end / dt))
    if n < 1 or abs(n * dt - t_end) > 1e-9 * t_end:
        raise ValueError(f"dt={dt} does not divide t_end={t_end}")
    return n


def check_trajectory_budget(steps: int, columns: int, unit: str = "slots") -> None:
    """Refuse a trajectory of (steps + 1) x columns complex numbers above
    ``MAX_TRAJECTORY_BYTES``, before anything is allocated; ``unit`` names
    the columns.  The need is printed to as many digits as it takes to
    read above the limit."""
    need = (steps + 1) * columns * 16
    if need > MAX_TRAJECTORY_BYTES:
        gib, limit = need / 2**30, MAX_TRAJECTORY_BYTES / 2**30
        shown = next(text for text in (f"{gib:.{d}g}" for d in range(3, 18))
                     if float(text) > limit)
        raise ValueError(
            f"the trajectory of {steps + 1} times x {columns} {unit} needs "
            f"{shown} GiB, above the limit of {limit:g} GiB"
        )


def time_grid(t_end: float, dt: float, columns: int = 0,
              unit: str = "slots") -> np.ndarray:
    """Uniform grid 0, dt, ..., t_end; dt must divide t_end.  With
    ``columns``, first refuse a trajectory over the budget on that grid."""
    steps = grid_steps(t_end, dt)
    check_trajectory_budget(steps, columns, unit)
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
    return v0.values


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
    zero, so each depth is solved by numpy passes over only the slots
    that start nonzero, at most ``RECURRENT_BLOCK`` slot-steps per pass:
    the temporaries stay bounded, and every value is the one a single
    pass per depth would give.  Each slot is driven from its own column.
    A pass that leaves a slot above ``BLOWUP_LIMIT``, or not finite,
    aborts the run unwarned.
    """
    grid = time_grid(t_end, dt, system.n_slots)
    v0vec = _check_initial(system, v0)
    vertex = system.basis.slot_vertex
    values = np.zeros((len(grid), system.n_slots), dtype=np.complex128)
    live = np.flatnonzero(v0vec)
    live_depth = system.tree.depth[vertex[live]]
    per_pass = max(1, RECURRENT_BLOCK // len(grid))
    # overflow and nan are not warned about: the magnitude test aborts
    with np.errstate(over="ignore", invalid="ignore"):
        for d in np.flatnonzero(np.bincount(live_depth)):
            at_depth = live[live_depth == d]
            for lo in range(0, len(at_depth), per_pass):
                slots = at_depth[lo:lo + per_pass]
                # column-major: the cumsum and max over time read contiguous memory
                drive = np.zeros((len(grid), len(slots)), dtype=np.complex128, order="F")
                for anc, w in zip(system.anc_slot[:, slots], system.weight[:, slots]):
                    drive += w * values[:, anc]
                integral = np.concatenate((np.zeros((1, len(slots))), np.cumsum(
                    float(dt) * (drive[1:] + drive[:-1]) / 2.0, axis=0
                )), axis=0)
                factor = np.exp(-system.eta[vertex[slots]] * grid[:, None] - integral)
                values[:, slots] = solved = v0vec[slots] * factor
                # nan fails every comparison: written so that it aborts too
                blown = ~(np.abs(solved).max(axis=0) <= BLOWUP_LIMIT)
                if blown.any():
                    raise SolverAbort(
                        f"coefficient magnitude exceeded {BLOWUP_LIMIT:.0e} or was not "
                        f"finite at slot {system.labels[slots[blown.argmax()]]!r}"
                    )
    return coefficient_trajectory(
        system.basis, grid, values, _metadata("recurrent", t_end, dt)
    )


def _rk4_rows(
    rhs: Callable, y: np.ndarray, h: np.ndarray, k1: np.ndarray
) -> np.ndarray:
    """Classical RK4 steps from y with first stages k1 = rhs(y), row i
    of size h[i]: h an (m, 1) column, and y and k1 (m, n) or vectors that
    broadcast against it, or h a number for a vector y.  Every row goes
    through a one-row step's operations in order, so it gets that step's
    values bit for bit."""
    k2 = rhs(y + (h / 2) * k1)
    k3 = rhs(y + (h / 2) * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def _integrate(
    rhs: Callable, y0: np.ndarray, grid: np.ndarray, dt: float, stacked: bool
) -> tuple[np.ndarray, float]:
    """Classical one-step 4th-order march with a step-pair error gauge.

    Each pair of steps of h is retaken as one step of 2h from the same
    start, sharing the first stage: 11 right-hand-side rows per pair.
    ``|y_2h - y_hh| / 15`` is the Richardson estimate of the kept pair's
    error (Hairer, Norsett and Wanner, Solving ODEs I, II.4).  An odd
    step count retakes its last step as two half steps, whose error the
    estimate then is.  The largest estimate is returned; one above
    ``STEP_ERROR_TOL * max(1, |y|)``, y the kept end value in the max
    norm (absolute for small solutions, relative for large), aborts the
    run, as does a value that overflows or is not finite.

    ``rhs`` takes a vector; ``stacked`` says it also takes (m, n) stacks
    of rows.  The 2h (or half) step's stages then ride as the second row
    of the first step's calls: 4 calls per step instead of 5.5 one-row
    calls.  Each row repeats a one-row step's operations in order, so
    values, estimates and aborts are bit-identical either way, and a
    pair is checked before anything of the next pair is kept.
    """
    values = np.empty((len(grid), len(y0)), dtype=np.complex128)
    values[0] = y0
    max_est = 0.0

    def from_start(y: np.ndarray, h: float, h_other: float
                   ) -> tuple[np.ndarray, np.ndarray]:
        """RK4 steps of h and h_other from y, sharing their first stage."""
        k1 = rhs(y)
        if stacked:
            return tuple(_rk4_rows(rhs, y, np.array([[h], [h_other]]), k1))
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


def _coefficient_rhs(system: CascadeSystem) -> Callable:
    """dv/dt on one slot vector: a gather-sum over the system's own
    (K, N) arrays, O(N * K)."""
    eta = system.eta[system.basis.slot_vertex]
    anc_slot, weight = system.anc_slot, system.weight

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
    grid = time_grid(t_end, dt, system.n_slots)
    v0vec = _check_initial(system, v0)
    values, max_est = _integrate(_coefficient_rhs(system), v0vec, grid,
                                 float(dt), stacked=False)
    return coefficient_trajectory(
        system.basis, grid, values,
        _metadata("rk", t_end, dt, max_step_error=max_est),
    )


def _side_by_side(index: np.ndarray, m: int, stride: int) -> np.ndarray:
    """m copies of an index array along its last axis, copy i shifted by
    i * stride: the index layout of m disjoint copies of a structure."""
    return np.concatenate([index + i * stride for i in range(m)], axis=-1)


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

    One call makes one subtree-sum pass (cumsums over the preorder-
    contiguous leaf ranges) and one difference x[up] - x over the rows of
    f and g together, then three root-path sums over
    ``tree.root_path_table()``.  The operator annihilates constants, so
    it is applied to g = f - f[0]: a constant field gives g == 0 and an
    exact zero.  No wavelet or closed form is used.

    It keeps these forms, not ``BallTree.ball_sums`` and ``path_sums``:
    on 64 leaves, where the leaf route is a run's critical path, one path
    sum by gather takes about 5 us against 22 us by levels, which win only
    from some thousands of leaves on, a size no benchmark workload runs.

    ``f`` may also be an (m, L) stack of fields.  It is swept as m
    disjoint copies of the tree side by side, 2m in the pass over f and
    g: every gather stays 1-D, every root-path sum is a (D, m * V) sum
    over axis 0, and the cumsums and f - f[0] restart on every row, so
    each row gets the values of a call on it alone, bit for bit.
    """
    check_same_tree(tree, interaction, dissipation,
                    message="kernels must live on the field's tree")
    n_v, n_l = tree.n_vertices, tree.n_leaves
    nu = tree.measure[tree.leaves]
    start, end = tree.leaf_ranges.T.astype(np.intp)
    # the root is its own ``up``: every per-vertex difference x[up] - x
    # then vanishes at the root, which is the slot the path table pads with
    up = tree.up
    # depth-major copies: numpy sums (D, n) over axis 0 faster than (n, D)
    # over axis 1
    paths = np.ascontiguousarray(tree.root_path_table().T)
    leaf_paths = np.ascontiguousarray(paths[:, tree.leaves])
    # rows m -> the arrays above, k_F, k_F[up], k_G[up] and nu[up] - nu
    # for disjoint copies of the tree side by side (vertex v of copy i at
    # i * V + v, leaf l at i * L + l): 2m for the pass over the rows of f
    # and g, m for the rest; and a prefix-sum buffer with a row per copy
    layouts = {}

    def layout(m: int) -> tuple:
        if m not in layouts:
            layouts[m] = (
                *(_side_by_side(a, 2 * m, n_l + 1) for a in (start, end)),
                _side_by_side(up, 2 * m, n_v),
                *(_side_by_side(a, m, n_v) for a in (paths, leaf_paths)),
                *(np.tile(a, m) for a in (
                    interaction.values, interaction.values[up],
                    dissipation.values[up], tree.measure[up] - tree.measure)),
                np.zeros((2 * m, n_l + 1), dtype=np.complex128),
            )
        return layouts[m]

    def rhs(f: np.ndarray) -> np.ndarray:
        rows = f.reshape(-1, n_l)
        (start, end, up, paths, leaf_paths,
         k_f, k_f_up, k_g_up, d_nu, prefix) = layout(len(rows))
        g = rows - rows[:, :1]
        # one pass over the rows of f and then of g: the cumsum restarts
        # on every row, and x[up] - x gives their per-vertex differences
        np.add.accumulate(np.concatenate((rows, g)) * nu, axis=1,
                          out=prefix[:, 1:])
        flat = prefix.ravel()
        sums = flat[end] - flat[start]
        diff = sums[up] - sums
        half = len(rows) * n_v
        phi, d_phi, d_big_g = sums[:half], diff[:half], diff[half:]
        inner = k_f * phi + (k_f_up * d_phi)[paths].sum(axis=0)
        kappa_up = inner[up[:half]] - k_g_up
        a = (kappa_up * d_nu)[leaf_paths].sum(axis=0)
        b = (kappa_up * d_big_g)[leaf_paths].sum(axis=0)
        return (g.ravel() * a - b).reshape(f.shape)

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
    ``leaf_rhs``), O(V + L * depth), so no leaf count is refused.  While
    two rows of leaf values fit ``STAGE_BLOCK``, the march stacks a step
    pair's independent rows into shared sweeps.
    """
    check_same_tree(tree, f0, message="initial field lives on a different tree")
    if not f0.is_mean_zero():
        raise ValueError(
            f"initial leaf field has mean {f0.mean():.3e}; "
            "the cascade dynamics are defined on mean-zero fields only"
        )
    grid = time_grid(t_end, dt, tree.n_leaves, "leaves")
    values, max_est = _integrate(
        _leaf_sweep(tree, interaction, dissipation), f0.values.copy(),
        grid, float(dt), stacked=2 * tree.n_leaves <= STAGE_BLOCK,
    )
    return LeafTrajectory(
        grid, tree, values, _metadata("leaf", t_end, dt, max_step_error=max_est)
    )


def analyze_trajectory(
    leaf_traj: LeafTrajectory, basis: WaveletBasis
) -> Trajectory:
    """Project every snapshot of a leaf trajectory onto the wavelet basis
    by the analyze sweep, O(T * V * p), in passes of at most
    ``RECURRENT_BLOCK`` slot-steps: the sweep is row-wise, so the values
    are those of one pass, and only the output grows with T."""
    check_same_tree(basis.tree, leaf_traj,
                    message="trajectory and basis belong to different trees")
    rows = max(1, RECURRENT_BLOCK // max(1, basis.n_slots))
    coeffs = np.empty((len(leaf_traj.values), basis.n_slots), dtype=np.complex128)
    for lo in range(0, len(coeffs), rows):
        coeffs[lo:lo + rows] = basis.analyze_array(leaf_traj.values[lo:lo + rows])
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
