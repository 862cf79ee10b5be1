"""Time-conditioned MLP velocity model with hand-written backpropagation.

The network maps concat(u, time_embedding(t)) -> R^d through ReLU hidden
layers and a linear output layer. Autoregressive one-step baselines reuse
the same stack with the time embedding disabled (input is u alone).

All parameters live in one contiguous float64 vector, laid out layer by
layer as w0, b0, w1, b1, ... (each weight matrix (fan_in, fan_out) in row
order); `VectorFieldParams.weights[i]` and `.biases[i]` are views into it.
Gradients use the same layout, so the optimizer works on whole vectors.

Gradients of the flow-matching loss are computed by explicit layer-local
backward rules rather than an autodiff tape; finite-difference tests pin
their correctness. The loss is the batch mean of the per-dimension mean
squared error, which keeps learning rates transferable across state
dimensions. A scalar time shared by a whole batch (every rollout call) is
embedded once and broadcast across the rows.

`forward_batch` sweeps a batch into one (B, d) output in row parts at
once (`workers.split_rows`). Parts start at multiples of 8 rows and hold
PART_ROWS = 160 rows or more: a smaller part of a d = 100 network's
output layer can round differently from the same rows of the whole
batch (CHANGES.md, "Evaluation scores as it integrates"). So every
output is bit-identical to one sweep of the whole batch.

A checkpoint (format 2) is an .npz archive of two arrays: `header_json`,
the UTF-8 JSON of {"format_version": 2, "mlp": the MlpConfig fields,
"meta": caller metadata}, and `flat`, the parameter vector.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataFormatError, InvalidArgumentError, NumericError
from .workers import split_rows

CHECKPOINT_VERSION = 2
PART_ROWS = 160  # fewest rows of a part of a split forward pass (module docstring)


def time_embedding(t, bands: int) -> np.ndarray:
    """Sinusoidal features [sin(2^j pi t), cos(2^j pi t)], j = 0..bands-1.

    Geometrically spaced frequencies; output dimension is 2 * bands.
    """
    if bands <= 0:
        raise InvalidArgumentError("embedding needs at least one frequency band")
    ts = np.atleast_1d(np.asarray(t, dtype=np.float64))
    phase = (2.0 ** np.arange(bands)) * np.pi * ts[:, None]
    emb = np.concatenate([np.sin(phase), np.cos(phase)], axis=1)
    return emb[0] if np.ndim(t) == 0 else emb


@dataclass(frozen=True)
class MlpConfig:
    state_dim: int
    hidden_dims: tuple = (64, 128, 128, 64)
    embed_bands: int = 8
    use_time_embedding: bool = True

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.state_dim < 1:
            raise InvalidArgumentError("state_dim must be positive")
        if not self.hidden_dims or any(h < 1 for h in self.hidden_dims):
            raise InvalidArgumentError("hidden_dims must be a nonempty tuple of positives")
        if self.use_time_embedding and self.embed_bands < 1:
            raise InvalidArgumentError("embed_bands must be positive")

    @property
    def embed_dim(self) -> int:
        return 2 * self.embed_bands if self.use_time_embedding else 0

    @property
    def input_dim(self) -> int:
        return self.state_dim + self.embed_dim

    @property
    def layer_dims(self) -> tuple:
        return (self.input_dim, *self.hidden_dims, self.state_dim)


class VectorFieldParams:
    """One flat float64 vector `flat` with per-layer views into it.

    `weights[i]` (fan_in, fan_out) and `biases[i]` (fan_out,) are views of
    `flat` in the order w0, b0, w1, b1, ...; writing to a view writes to
    `flat`. Without `flat` the parameters start at zero. Also used as the
    container for gradients, which share the layout.
    """

    def __init__(self, config: MlpConfig, flat: np.ndarray | None = None):
        dims = config.layer_dims
        n_params = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))
        flat = np.zeros(n_params) if flat is None else np.ascontiguousarray(flat, dtype=np.float64)
        if flat.shape != (n_params,):
            raise InvalidArgumentError(f"need {n_params} flat parameters, got shape {flat.shape}")
        self.config = config
        self.flat = flat
        self.weights, self.biases = [], []
        offset = 0
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            end = offset + fan_in * fan_out
            self.weights.append(flat[offset:end].reshape(fan_in, fan_out))
            self.biases.append(flat[end : end + fan_out])
            offset = end + fan_out

    @property
    def n_params(self) -> int:
        return self.flat.size


def init_params(config: MlpConfig, seed) -> VectorFieldParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    rng = np.random.default_rng(seed)
    params = VectorFieldParams(config)
    for w in params.weights:
        bound = 1.0 / np.sqrt(w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def _assemble_input(config: MlpConfig, ts, states: np.ndarray) -> np.ndarray:
    """Network input [states, time_embedding(ts)]; a 0-d ts is embedded once."""
    if states.ndim != 2 or states.shape[1] != config.state_dim:
        raise InvalidArgumentError(
            f"state batch has shape {states.shape}, expected (B, {config.state_dim})"
        )
    if not config.use_time_embedding:
        return states
    x = np.empty((states.shape[0], config.input_dim))
    x[:, : config.state_dim] = states
    x[:, config.state_dim :] = time_embedding(ts, config.embed_bands)
    return x


def _sweep(
    params: VectorFieldParams, x: np.ndarray, acts: list | None = None, out=None
) -> np.ndarray:
    """Forward pass; appends each hidden activation to `acts` when given.

    The output layer writes into `out` when given, a C-ordered
    (len(x), d) array.
    """
    last = len(params.weights) - 1
    h = x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = np.matmul(h, w, out=out if i == last else None)
        h += b
        if i < last:
            np.maximum(h, 0.0, out=h)
            if acts is not None:
                acts.append(h)
    return h


def forward_batch(params: VectorFieldParams, ts, states) -> np.ndarray:
    """Network output for a batch; states (B, d), ts scalar or (B,).

    Swept in row parts at once (module docstring).
    """
    states = np.asarray(states, dtype=np.float64)
    x = _assemble_input(params.config, ts, states)
    if not np.isfinite(x).all():
        raise NumericError("non-finite network input")
    out = np.empty((len(x), params.config.state_dim))
    split_rows(lambda lo, hi: _sweep(params, x[lo:hi], None, out[lo:hi]), len(x), PART_ROWS)
    return out


def loss_and_grad(params: VectorFieldParams, batch):
    """Flow-matching loss and its exact gradients on one batch.

    Takes a SampleBatch. Returns (loss, grads) where
    loss = mean_b mean_dim (model - target)^2 and grads is a fresh
    VectorFieldParams whose flat vector holds the gradient.
    """
    if len(batch) == 0:
        raise InvalidArgumentError("batch must be nonempty")
    x = _assemble_input(params.config, batch.t, batch.x)
    if not np.isfinite(x).all():
        raise NumericError("non-finite network input in batch")
    acts = [x]  # the input of every layer
    out = _sweep(params, x, acts)

    err = out - batch.v_target
    per_sample = np.einsum("ij,ij->i", err, err)
    denom = err.size  # batch * state_dim
    loss = float(per_sample.sum() / denom)
    if not np.isfinite(loss):
        bad = int(np.flatnonzero(~np.isfinite(per_sample))[0])
        raise NumericError(f"non-finite loss contribution at batch sample {bad}")

    grads = VectorFieldParams(params.config, np.empty(params.n_params))
    delta = (2.0 / denom) * err
    for i in range(len(params.weights) - 1, -1, -1):
        np.matmul(acts[i].T, delta, out=grads.weights[i])
        np.sum(delta, axis=0, out=grads.biases[i])
        if i > 0:
            delta = delta @ params.weights[i].T
            delta *= acts[i] > 0.0  # ReLU derivative of the layer below
    return loss, grads


def save_checkpoint(path, params: VectorFieldParams, meta: dict | None = None) -> None:
    """Write the config, the flat parameters and caller metadata to an .npz container."""
    header = {"format_version": CHECKPOINT_VERSION, "mlp": asdict(params.config), "meta": meta or {}}
    header_json = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, header_json=header_json, flat=params.flat)


def load_checkpoint(path):
    """Read a checkpoint; returns (params, meta).

    A file that is not a format-2 checkpoint (empty, truncated, a bare
    .npy, an older format, or a header or vector that does not make a
    VectorFieldParams) raises DataFormatError.
    """
    try:
        data = np.load(path)
    except (EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise DataFormatError(f"not a parameter checkpoint: {path}") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise DataFormatError(f"not a parameter checkpoint: {path}")
    with data:
        try:
            header = json.loads(bytes(data["header_json"]).decode())
            if header.get("format_version") != CHECKPOINT_VERSION:
                raise DataFormatError(
                    f"unsupported checkpoint version {header.get('format_version')}: {path}"
                )
            return VectorFieldParams(MlpConfig(**header["mlp"]), data["flat"]), header["meta"]
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"not a parameter checkpoint: {path}") from exc
