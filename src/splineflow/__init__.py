"""Spline-based flow matching for continuous-time dynamics.

Fits temporal splines (with finite-difference derivative estimates at the
knots) to trajectory snapshots, trains a neural vector field against the
splines' analytic velocities, and performs forward/reverse continuous-time
rollouts with fixed-step ODE solvers.
"""

__version__ = "0.1.0"

from .errors import (
    DataFormatError,
    DivergedError,
    InvalidArgumentError,
    NumericError,
    TrainingAbortedError,
    UndefinedMetricError,
)
from .interpolant import InterpolantSampler, SampleBatch
from .metrics import EvalReport, build_report, empirical_order
from .odeint import RolloutResult, SolverConfig, ar_rollout, rollout, rollout_reverse, step
from .spline import NoiseSchedule, build_linear, build_quintic, estimate_knot_derivatives
from .systems import (
    BurgersConfig,
    TrajectorySet,
    burgers_rhs,
    generate_burgers,
    generate_lorenz,
    lorenz_rhs,
    sample_grf_initial,
)
from .timegrid import TimeGrid, uniform_grid
from .trainer import (
    AdamState,
    TrainConfig,
    TrainResult,
    adam_step,
    train_flow_matching,
    train_one_step,
)
from .vector_field import (
    MlpConfig,
    VectorFieldParams,
    forward_batch,
    init_params,
    load_checkpoint,
    loss_and_grad,
    save_checkpoint,
    time_embedding,
)
