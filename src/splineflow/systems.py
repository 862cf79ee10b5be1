"""Reference dynamics and dataset generation: Lorenz and 1D viscous Burgers.

Datasets are solver-converged by construction: Lorenz uses RK4 with a
fixed substep refinement of the output grid, Burgers derives its substep
count from the diffusive stability bound h <= 0.5 dx^2 / nu. Initial
conditions come from per-trajectory rng substreams seeded by
(seed, trajectory index) so generation order and parallelism cannot
change the data.

Both right-hand sides run on every RK4 stage of generation, so they
finish their terms in place in a few arrays allocated per call. Each
operation keeps the order of the formula it evaluates, so the data are
bit-identical to evaluating the formulas as written (the tests keep
those expressions).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DivergedError, InvalidArgumentError
from .odeint import SolverConfig, rollout
from .timegrid import TimeGrid, uniform_grid

LORENZ_SIGMA = 10.0
LORENZ_RHO = 28.0
LORENZ_BETA = 8.0 / 3.0


@dataclass
class TrajectorySet:
    """Snapshots of several trajectories on per-trajectory grids."""

    grids: list
    states: list
    state_dim: int
    system_tag: str
    raw_horizon: float

    def __post_init__(self):
        if len(self.grids) != len(self.states):
            raise InvalidArgumentError("grids and states must pair up")
        for g, u in zip(self.grids, self.states):
            if u.shape != (len(g), self.state_dim):
                raise InvalidArgumentError(
                    f"snapshot block {u.shape} does not match grid length {len(g)} "
                    f"and state_dim {self.state_dim}"
                )
            if not np.isfinite(u).all():
                raise InvalidArgumentError("trajectory states must be finite")
        if not (self.raw_horizon > 0.0):
            raise InvalidArgumentError("raw_horizon must be positive")

    @property
    def n_traj(self) -> int:
        return len(self.grids)

    def subsampled(self, keep_rate: float, base_seed: int) -> "TrajectorySet":
        """Per-trajectory random time subsample (trajectory-specific seeds)."""
        from .timegrid import subsample_indices

        grids, states = [], []
        for j, (g, u) in enumerate(zip(self.grids, self.states)):
            # Salted entropy keeps subsampling independent of the training
            # rng streams derived from the same base seed.
            keep = subsample_indices(g, keep_rate, [base_seed, 7919, j])
            grids.append(TimeGrid(times=g.times[keep]))
            states.append(u[keep])
        return TrajectorySet(
            grids=grids,
            states=states,
            state_dim=self.state_dim,
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


def generate_lorenz(
    n_traj: int,
    n_times: int,
    horizon_seconds: float = 5.0,
    init_box: float = 5.0,
    seed: int = 0,
    substeps: int = 10,
) -> TrajectorySet:
    """Lorenz trajectories from uniform initial conditions in a cube.

    RK4 with `substeps` per output interval; times are normalized so the
    horizon maps to [0, 1]. A step too coarse for the dynamics raises
    DivergedError; diverged draws are never replaced by others.
    """
    if n_times < 2:
        raise InvalidArgumentError("n_times must be >= 2")
    if n_traj < 1:
        raise InvalidArgumentError("n_traj must be >= 1")
    u0 = np.empty((n_traj, 3))
    for j in range(n_traj):
        rng = np.random.default_rng([seed, j])
        u0[j] = rng.uniform(-init_box, init_box, size=3)

    grid = uniform_grid(n_times)
    solver = SolverConfig(method="rk4", substeps_per_interval=substeps)
    result = rollout(lambda t, u: lorenz_rhs(u), u0, grid.times * horizon_seconds, solver)
    if result.diverged.any():
        raise DivergedError(
            f"lorenz integration unstable: {int(result.diverged.sum())} of {n_traj} rows "
            f"diverged with {substeps} substeps per interval"
        )
    states = np.swapaxes(result.states, 0, 1)  # (n_traj, n_times, 3)

    return TrajectorySet(
        grids=[grid] * n_traj,
        states=[states[j] for j in range(n_traj)],
        state_dim=3,
        system_tag="lorenz",
        raw_horizon=horizon_seconds,
    )


@dataclass(frozen=True)
class BurgersConfig:
    """Spatial setup for 1D periodic viscous Burgers on a unit domain."""

    nu: float = 0.01
    nx: int = 100

    def __post_init__(self):
        if self.nu <= 0.0:
            raise InvalidArgumentError("viscosity nu must be positive")
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
    """Substeps per output interval honoring h <= 0.5 dx^2 / nu."""
    h_max = 0.5 * config.dx**2 / config.nu
    return max(1, int(np.ceil(interval_seconds / h_max)))


def generate_burgers(
    n_traj: int,
    n_times: int,
    config: BurgersConfig | None = None,
    seed: int = 0,
    horizon_seconds: float = 1.0,
    substeps: int | None = None,
) -> TrajectorySet:
    """Burgers trajectories from Gaussian-random-field initial conditions."""
    if n_times < 2:
        raise InvalidArgumentError("n_times must be >= 2")
    if n_traj < 1:
        raise InvalidArgumentError("n_traj must be >= 1")
    config = config or BurgersConfig()
    grid = uniform_grid(n_times)
    interval = horizon_seconds / (n_times - 1)
    needed = burgers_substeps(config, interval)
    if substeps is None:
        substeps = needed
    u0 = np.stack([sample_grf_initial(config.nx, [seed, j]) for j in range(n_traj)])
    solver = SolverConfig(method="rk4", substeps_per_interval=substeps)
    result = rollout(lambda t, u: burgers_rhs(u, config), u0, grid.times * horizon_seconds, solver)
    if result.diverged.any():
        raise DivergedError(
            f"burgers integration unstable; needs >= {needed} substeps per "
            f"interval (got {substeps})"
        )
    states = np.swapaxes(result.states, 0, 1)
    return TrajectorySet(
        grids=[grid] * n_traj,
        states=[states[j] for j in range(n_traj)],
        state_dim=config.nx,
        system_tag="burgers1d",
        raw_horizon=horizon_seconds,
    )
