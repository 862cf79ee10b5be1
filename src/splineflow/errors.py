"""Exception types shared across the library.

The CLI maps these onto exit codes: invalid arguments -> 2, numeric
failures -> 3, I/O and file-format problems -> 4.
"""


class InvalidArgumentError(ValueError):
    """A precondition on an argument or configuration was violated."""


class UndefinedMetricError(InvalidArgumentError):
    """A metric is undefined for the given inputs (e.g. zero reference norm)."""


class NumericError(RuntimeError):
    """A computation produced non-finite values or blew up."""


class DivergedError(NumericError):
    """Rows of a rollout exceeded the state-norm bound where none may.

    Rollouts mask and count such rows; a caller that needs every row,
    such as reference-data generation, raises this after the rollout.
    """


class TrainingAbortedError(NumericError):
    """Training hit a numeric failure or an exploding loss.

    ``step`` is the step that failed; ``best_params`` are the last good
    parameters (or None) and ``best_step`` the step they came from.
    """

    def __init__(self, message, step, best_params=None, best_step=0, history=None):
        super().__init__(message)
        self.step = step
        self.best_params = best_params
        self.best_step = best_step
        self.history = history or []


class DataFormatError(RuntimeError):
    """A dataset or checkpoint file is malformed or has the wrong version."""
