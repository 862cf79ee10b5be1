"""Trajectory sets, reference dynamics and dataset generation (Lorenz, 1D Burgers).

A `TrajectorySet` is one C-contiguous (sum n_j, d) snapshot buffer,
`values`, and a grid per trajectory; `states` and, on a shared grid,
`stacked` are views of the buffer. It answers which one grid all its
trajectories lie on (`shared_grid`) and that grid's uniform step
(`uniform_step`): evaluation needs the first, the one-step baseline and
the convergence study the second. Only a subsampled training set has a
grid per trajectory; a generated set shares one `TimeGrid` object.

Datasets are solver-converged by construction: Lorenz uses RK4 with a
fixed substep refinement of the output grid, Burgers derives its substep
count from the diffusive stability bound h <= 0.5 dx^2 / nu. Initial
conditions come from per-trajectory rng substreams seeded by
(seed, trajectory index) so generation order and parallelism cannot
change the data.

A generator call integrates all its splits ({name: (count, seed)}, as
`gen-data` passes them) as one batch: rows never interact, so each
split's states are the ones a call of its own would give, and the
per-step overhead is paid once; each split's `values` are its rows of
the (B, n_times, d) buffer the rollout records into. The Lorenz batch is
component-major (a Fortran-ordered (B, 3) array): x, y and z are each a
contiguous vector, and every operation of a step stays the same
element-wise one.

A batch is integrated in contiguous row parts at once
(`workers.split_rows`), each through the same `rollout` into its rows of
the one buffer, and the parts' diverged flags join in row order. Every
operation of a step works row by row, so the data are bit-identical to
one part. A part holds enough rows for each array operation of a step
to read `workers.PART_ENTRIES` entries or more; an operation reads as
many entries per row as the batch's row stride spans, so the batch's
layout sets the floor: 168 rows of a row-major Burgers batch at
nx = 100, but 16,384 of a component-major Lorenz batch, which no
benchmark generation reaches (CHANGES.md, "Generation splits a large
batch's rows").

Both right-hand sides run on every RK4 stage of generation, so they
finish their terms in place in a few arrays allocated per call. Each
operation keeps the order of the formula it evaluates, so the data are
bit-identical to evaluating the formulas as written (the tests keep
those expressions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergedError, InvalidArgumentError
from .odeint import SolverConfig, rollout
from .timegrid import TimeGrid, subsample_indices, uniform_grid
from .workers import PART_ENTRIES, split_rows

LORENZ_SIGMA = 10.0
LORENZ_RHO = 28.0
LORENZ_BETA = 8.0 / 3.0
LORENZ_SUBSTEPS = 10  # RK4 substeps per output interval of a Lorenz generation
# Most RK4 steps per row a generation may take: (n_times - 1) * substeps.
# The command defaults take at most 2,000 (Lorenz: 200 intervals x 10).
MAX_GENERATION_STEPS = 10**6


@dataclass
class TrajectorySet:
    """Trajectory j's n_j = len(grids[j]) snapshots are its rows of `values`, in order."""

    grids: list
    values: np.ndarray
    system_tag: str
    raw_horizon: float

    def __post_init__(self):
        values, rows = self.values, sum(len(g) for g in self.grids)
        if not self.grids or values.ndim != 2 or not values.flags.c_contiguous:
            raise InvalidArgumentError("need one C-contiguous (sum n, d) buffer of >= 1 trajectory")
        if self.state_dim < 1:
            raise InvalidArgumentError(f"state_dim must be >= 1, got {self.state_dim}")
        if len(values) != rows:
            raise InvalidArgumentError(f"{len(values)} snapshot rows do not match {rows} grid times")
        # min and max propagate nan and hold any inf, with no temporary
        if not (np.isfinite(values.min()) and np.isfinite(values.max())):
            raise InvalidArgumentError("trajectory states must be finite")
        if not (self.raw_horizon > 0.0):
            raise InvalidArgumentError("raw_horizon must be positive")

    @property
    def state_dim(self) -> int:
        return self.values.shape[1]

    @property
    def states(self) -> list:
        """Each trajectory's (n_j, d) snapshots, a view of `values`."""
        return np.split(self.values, np.cumsum([len(g) for g in self.grids[:-1]]))

    def stacked(self) -> np.ndarray:
        """The (n_traj, n_times, d) view of `values`; raises unless `shared_grid` exists."""
        return self.values.reshape(self.n_traj, len(self.shared_grid()), self.state_dim)

    @property
    def n_traj(self) -> int:
        return len(self.grids)

    def shared_grid(self) -> TimeGrid:
        """The one grid every trajectory lies on: the same object or equal times.

        Raises InvalidArgumentError for trajectories on different grids.
        """
        grid = self.grids[0]
        if not all(g is grid or np.array_equal(g.times, grid.times) for g in self.grids):
            raise InvalidArgumentError(f"the {self.n_traj} trajectories must lie on one grid shared by all")
        return grid

    def uniform_step(self, expected: float | None = None) -> float:
        """The normalized step of the shared grid, rounded to 1e-12.

        Raises InvalidArgumentError unless the shared grid exists and is
        uniform, or if its step differs from `expected`.
        """
        try:
            grid = self.shared_grid()
        except InvalidArgumentError:
            grid = None
        if grid is None or not grid.is_uniform():
            raise InvalidArgumentError("the trajectories must lie on one uniform grid shared by all")
        step = round(float(grid.steps[0]), 12)
        if expected is not None and abs(step - expected) > 1e-12:
            raise InvalidArgumentError(f"grid step {step!r} differs from the expected step {expected!r}")
        return step

    def subsampled(self, keep_rate: float, base_seed: int) -> "TrajectorySet":
        """Per-trajectory random time subsample (trajectory-specific seeds).

        The kept rows of all trajectories are gathered straight into the
        subsample's one (sum kept, d) buffer.
        """
        # Salted entropy keeps subsampling independent of the training
        # rng streams derived from the same base seed.
        keeps = [
            subsample_indices(g, keep_rate, [base_seed, 7919, j]) for j, g in enumerate(self.grids)
        ]
        kept = np.empty((sum(len(keep) for keep in keeps), self.state_dim))
        at = 0
        for u, keep in zip(self.states, keeps):
            kept[at : at + len(keep)] = u[keep]
            at += len(keep)
        return TrajectorySet(
            grids=[TimeGrid(times=g.times[keep]) for g, keep in zip(self.grids, keeps)],
            values=kept,
            system_tag=self.system_tag,
            raw_horizon=self.raw_horizon,
        )


def lorenz_rhs(state: np.ndarray) -> np.ndarray:
    """Lorenz-63 right-hand side with the classic chaotic parameters.

    Accepts (..., 3) arrays; time units are raw seconds. Each component is
    computed straight into its column of one output array, with the
    operations of sigma (y - x), x (rho - z) - y and x y - beta z in that
    order.
    """
    state = np.asarray(state, dtype=np.float64)
    x, y, z = state[..., 0], state[..., 1], state[..., 2]
    out = np.empty_like(state)
    x_dot, y_dot, z_dot = out[..., 0], out[..., 1], out[..., 2]
    np.subtract(y, x, out=x_dot)
    x_dot *= LORENZ_SIGMA
    np.subtract(LORENZ_RHO, z, out=y_dot)
    y_dot *= x
    y_dot -= y
    np.multiply(x, y, out=z_dot)
    z_dot -= LORENZ_BETA * z
    return out


def _split_table(n_traj, seed, splits) -> dict:
    """{name: (seed, its slice of the one batch)} of a generator call.

    `splits` is {name: (count, seed)}; a call without it is one split named None.
    """
    if splits is None:
        splits = {None: (n_traj, seed)}
    elif n_traj is not None:
        raise InvalidArgumentError("pass n_traj=None when splits are given")
    table, start = {}, 0
    for name, (count, split_seed) in splits.items():
        if count < 1:
            raise InvalidArgumentError(f"every split needs n_traj >= 1, got {splits}")
        table[name] = (split_seed, slice(start, start + count))
        start += count
    if not table:
        raise InvalidArgumentError("need at least one split")
    return table


def _check_times(n_times: int, horizon_seconds: float) -> None:
    if n_times < 2:
        raise InvalidArgumentError("n_times must be >= 2")
    if not (0.0 < horizon_seconds < math.inf):
        raise InvalidArgumentError(
            f"horizon_seconds must be positive and finite, got {horizon_seconds!r}"
        )


def _initial_batch(table: dict, state_dim: int, draw, order: str) -> np.ndarray:
    """The batch of every split's initial rows; row j of a split is draw([seed, j])."""
    u0 = np.empty((max(part.stop for _, part in table.values()), state_dim), order=order)
    for seed, part in table.values():
        for j, row in enumerate(range(part.start, part.stop)):
            u0[row] = draw([seed, j])
    return u0


def _integrate_splits(table, u0, rhs, n_times, horizon_seconds, substeps, system_tag, hint=""):
    """One RK4 rollout of the whole batch, cut back into one TrajectorySet per split.

    A large batch is integrated in row parts at once, each recording into
    its rows of the one (B, n_times, d) buffer. More than
    MAX_GENERATION_STEPS steps per row raise InvalidArgumentError before
    any step; any diverged row raises DivergedError with the count per
    named split. `hint` ends both messages. The one split None returns its
    set, not a dict.
    """
    if (n_times - 1) * substeps > MAX_GENERATION_STEPS:
        raise InvalidArgumentError(
            f"{system_tag} generation of {n_times - 1} intervals x {substeps} substeps = "
            f"{(n_times - 1) * substeps} RK4 steps per row exceeds the cap of "
            f"{MAX_GENERATION_STEPS}{hint}"
        )
    grid = uniform_grid(n_times)
    times = grid.times * horizon_seconds
    solver = SolverConfig(method="rk4", substeps_per_interval=substeps)
    states = np.empty((len(u0), n_times, u0.shape[1]))

    def integrate(lo, hi):
        part = states[lo:hi]
        record = lambda k, u: np.copyto(part[:, k], u)
        return rollout(lambda t, u: rhs(u), u0[lo:hi], times, solver, record).diverged

    # a part's array operations read u0.strides[0] / u0.itemsize entries
    # per row: d of a row-major batch, 1 of a component-major one
    floor = -(-PART_ENTRIES * u0.itemsize // u0.strides[0])
    diverged = np.concatenate(split_rows(integrate, len(u0), floor))
    if diverged.any():
        per_split = ", ".join(
            f"{name} {int(diverged[part].sum())}" for name, (_, part) in table.items() if name
        )
        raise DivergedError(
            f"{system_tag} integration unstable: {int(diverged.sum())} of {len(u0)} rows"
            f"{f' ({per_split})' if per_split else ''} diverged with {substeps} substeps "
            f"per interval{hint}"
        )
    sets = {
        name: TrajectorySet(
            grids=[grid] * (part.stop - part.start),
            values=states[part].reshape(-1, u0.shape[1]),
            system_tag=system_tag,
            raw_horizon=horizon_seconds,
        )
        for name, (_, part) in table.items()
    }
    return sets[None] if None in sets else sets


def generate_lorenz(
    n_traj: int | None,
    n_times: int,
    horizon_seconds: float = 5.0,
    init_box: float = 5.0,
    seed: int = 0,
    substeps: int = LORENZ_SUBSTEPS,
    splits: dict | None = None,
):
    """Lorenz trajectories from uniform initial conditions in a cube.

    RK4 with `substeps` per output interval; times are normalized so the
    horizon maps to [0, 1]. Returns the TrajectorySet of `n_traj` rows
    drawn from substreams [seed, j]; with `splits` ({name: (count, seed)})
    and n_traj=None, a dict of one set per name, integrated as one batch.
    A step too coarse for the dynamics raises DivergedError; diverged
    draws are never replaced by others.
    """
    _check_times(n_times, horizon_seconds)
    if not (0.0 < 2.0 * init_box < math.inf):
        raise InvalidArgumentError(
            f"init_box must be positive with a finite width 2 * init_box, got {init_box!r}"
        )
    table = _split_table(n_traj, seed, splits)
    u0 = _initial_batch(
        table, 3, lambda entropy: np.random.default_rng(entropy).uniform(-init_box, init_box, size=3),
        order="F",
    )
    return _integrate_splits(table, u0, lorenz_rhs, n_times, horizon_seconds, substeps, "lorenz")


@dataclass(frozen=True)
class BurgersConfig:
    """Spatial setup for 1D periodic viscous Burgers on a unit domain."""

    nu: float = 0.01
    nx: int = 100

    def __post_init__(self):
        if not (0.0 < self.nu < math.inf):
            raise InvalidArgumentError(f"viscosity nu must be positive and finite, got {self.nu!r}")
        if self.nx < 16:
            raise InvalidArgumentError("need at least 16 spatial points")

    @property
    def dx(self) -> float:
        return 1.0 / self.nx


def burgers_rhs(u: np.ndarray, config: BurgersConfig) -> np.ndarray:
    """du/dt = nu u_xx - u u_x with periodic second-order differences.

    Diffusion uses the central Laplacian nu (u_{i+1} - 2 u_i + u_{i-1}) / dx^2;
    advection uses the conservative flux form -(F_{i+1} - F_{i-1}) / (2 dx)
    with F = u^2 / 2. Accepts (..., nx) arrays. The +-1 neighbours are views
    of one copy of u padded with a periodic ghost cell at each end, and the
    terms are finished in place in the order the formulas are written.
    """
    u = np.asarray(u, dtype=np.float64)
    dx = config.dx
    ghost = np.concatenate([u[..., -1:], u, u[..., :1]], axis=-1)
    diffusion = 2.0 * u
    np.subtract(ghost[..., 2:], diffusion, out=diffusion)
    diffusion += ghost[..., :-2]
    diffusion *= config.nu
    diffusion /= dx * dx
    flux = 0.5 * ghost
    flux *= ghost
    advection = ghost[..., :-2]  # the padded copy is not read again
    np.subtract(flux[..., 2:], flux[..., :-2], out=advection)
    advection /= 2.0 * dx
    diffusion -= advection
    return diffusion


GRF_SCALE = 25.0  # covariance 25^2 (-Laplacian + 5^2 I)^{-4}, periodic unit domain
GRF_TAU = 5.0
GRF_POWER = 4


def grf_mode_std(k: np.ndarray) -> np.ndarray:
    """Standard deviation of complex Fourier mode k (wavenumber 2 pi k)."""
    lam = (2.0 * np.pi * np.asarray(k, dtype=np.float64)) ** 2 + GRF_TAU**2
    return GRF_SCALE * lam ** (-GRF_POWER / 2.0)


def sample_grf_initial(nx: int, seed) -> np.ndarray:
    """Real Gaussian random field sample on nx periodic grid points.

    Spectral sampling: mode k is complex normal with variance
    grf_mode_std(k)^2, Hermitian symmetry comes from irfft, and the k = 0
    mean mode is included with its own variance.
    """
    if nx < 16:
        raise InvalidArgumentError("need at least 16 spatial points")
    rng = np.random.default_rng(seed)
    n_half = nx // 2
    ks = np.arange(n_half + 1)
    sigma = grf_mode_std(ks)
    coeff = np.empty(n_half + 1, dtype=np.complex128)
    coeff[0] = sigma[0] * rng.standard_normal()
    re, im = rng.standard_normal((2, n_half - 1))
    coeff[1:n_half] = sigma[1:n_half] * (re + 1j * im) / np.sqrt(2.0)
    if nx % 2 == 0:
        coeff[n_half] = sigma[n_half] * rng.standard_normal()
    else:
        re_n, im_n = rng.standard_normal(2)
        coeff[n_half] = sigma[n_half] * (re_n + 1j * im_n) / np.sqrt(2.0)
    return np.fft.irfft(coeff * nx, n=nx)


def burgers_substeps(config: BurgersConfig, interval_seconds: float) -> int:
    """Substeps per output interval honoring h <= 0.5 dx^2 / nu.

    Raises InvalidArgumentError when the count is too large for a float.
    """
    h_max = 0.5 * config.dx**2 / config.nu
    count = interval_seconds / h_max if h_max > 0.0 else math.inf
    if not count < math.inf:
        raise InvalidArgumentError(
            f"viscosity nu needs more substeps per interval than a float can count "
            f"on {config.nx} points, got {config.nu!r}"
        )
    return max(1, math.ceil(count))


def generate_burgers(
    n_traj: int | None,
    n_times: int,
    config: BurgersConfig | None = None,
    seed: int = 0,
    horizon_seconds: float = 1.0,
    substeps: int | None = None,
    splits: dict | None = None,
):
    """Burgers trajectories from Gaussian-random-field initial conditions.

    Returns and batches like `generate_lorenz`; the batch is row-major,
    one contiguous field per row, as the periodic stencil reads it.
    """
    _check_times(n_times, horizon_seconds)
    config = config or BurgersConfig()
    table = _split_table(n_traj, seed, splits)
    needed = burgers_substeps(config, horizon_seconds / (n_times - 1))
    u0 = _initial_batch(
        table, config.nx, lambda entropy: sample_grf_initial(config.nx, entropy), order="C"
    )
    return _integrate_splits(
        table, u0, lambda u: burgers_rhs(u, config), n_times, horizon_seconds,
        needed if substeps is None else substeps, "burgers1d",
        hint=f"; needs >= {needed} substeps per interval",
    )
