"""Time-conditioned MLP velocity model with hand-written backpropagation.

The network maps concat(u, time_embedding(t)) -> R^d through ReLU hidden
layers and a linear output layer. Autoregressive one-step baselines reuse
the same stack with the time embedding disabled (input is u alone).

Gradients of the flow-matching loss are computed by explicit layer-local
backward rules rather than an autodiff tape; finite-difference tests pin
their correctness. The loss is the batch mean of the per-dimension mean
squared error, which keeps learning rates transferable across state
dimensions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError, InvalidArgumentError, NumericError

CHECKPOINT_VERSION = 1


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

    def to_dict(self) -> dict:
        return {
            "state_dim": self.state_dim,
            "hidden_dims": list(self.hidden_dims),
            "embed_bands": self.embed_bands,
            "use_time_embedding": self.use_time_embedding,
        }

    @staticmethod
    def from_dict(d: dict) -> "MlpConfig":
        return MlpConfig(
            state_dim=int(d["state_dim"]),
            hidden_dims=tuple(d["hidden_dims"]),
            embed_bands=int(d["embed_bands"]),
            use_time_embedding=bool(d["use_time_embedding"]),
        )


@dataclass
class VectorFieldParams:
    """Per-layer weight matrices (fan_in, fan_out) and bias vectors.

    Also used as the container for gradients, which share the layout.
    """

    config: MlpConfig
    weights: list = field(default_factory=list)
    biases: list = field(default_factory=list)

    @property
    def n_params(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    def copy(self) -> "VectorFieldParams":
        return VectorFieldParams(
            config=self.config,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )

    def arrays(self) -> list:
        """Flat list of parameter arrays (weights then bias per layer)."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def to_flat(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.arrays()])

    def set_flat(self, flat: np.ndarray) -> None:
        offset = 0
        for a in self.arrays():
            a[...] = flat[offset : offset + a.size].reshape(a.shape)
            offset += a.size
        if offset != flat.size:
            raise InvalidArgumentError("flat vector does not match parameter count")


def init_params(config: MlpConfig, seed) -> VectorFieldParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    rng = np.random.default_rng(seed)
    dims = config.layer_dims
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return VectorFieldParams(config=config, weights=weights, biases=biases)


def _assemble_input(config: MlpConfig, ts: np.ndarray, states: np.ndarray) -> np.ndarray:
    if states.ndim != 2 or states.shape[1] != config.state_dim:
        raise InvalidArgumentError(
            f"state batch has shape {states.shape}, expected (B, {config.state_dim})"
        )
    if config.use_time_embedding:
        return np.concatenate([states, time_embedding(ts, config.embed_bands)], axis=1)
    return states


def forward_batch(params: VectorFieldParams, ts, states) -> np.ndarray:
    """Network output for a batch; states (B, d), ts scalar or (B,)."""
    states = np.asarray(states, dtype=np.float64)
    ts = np.broadcast_to(np.asarray(ts, dtype=np.float64), states.shape[:1])
    x = _assemble_input(params.config, ts, states)
    if not np.isfinite(x).all():
        raise NumericError("non-finite network input")
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        x = x @ w + b
        if i < last:
            np.maximum(x, 0.0, out=x)
    return x


def forward(params: VectorFieldParams, t: float, u: np.ndarray) -> np.ndarray:
    """Single-sample evaluation of the vector field at (t, u)."""
    u = np.asarray(u, dtype=np.float64)
    return forward_batch(params, float(t), u[None, :])[0]


def loss_and_grad(params: VectorFieldParams, batch):
    """Flow-matching loss and its exact gradients on one batch.

    Takes a SampleBatch. Returns (loss, grads) where
    loss = mean_b mean_dim (model - target)^2 and grads mirrors the
    parameter layout.
    """
    if len(batch) == 0:
        raise InvalidArgumentError("batch must be nonempty")
    config = params.config
    x = _assemble_input(config, batch.t, batch.x)
    if not np.isfinite(x).all():
        raise NumericError("non-finite network input in batch")

    # Forward pass keeping activations for the backward sweep.
    last = len(params.weights) - 1
    acts = [x]
    relu_masks = []
    h = x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w + b
        if i < last:
            mask = z > 0.0
            relu_masks.append(mask)
            h = z * mask
        else:
            h = z
        acts.append(h)
    out = acts[-1]

    err = out - batch.v_target
    per_sample = np.einsum("ij,ij->i", err, err)
    denom = err.size  # batch * state_dim
    loss = float(per_sample.sum() / denom)
    if not np.isfinite(loss):
        bad = int(np.flatnonzero(~np.isfinite(per_sample))[0])
        raise NumericError(f"non-finite loss contribution at batch sample {bad}")

    grads = VectorFieldParams(config=config, weights=[], biases=[])
    delta = (2.0 / denom) * err
    for i in range(last, -1, -1):
        grads.weights.insert(0, acts[i].T @ delta)
        grads.biases.insert(0, delta.sum(axis=0))
        if i > 0:
            delta = (delta @ params.weights[i].T) * relu_masks[i - 1]
    return loss, grads


def save_checkpoint(path, params: VectorFieldParams, meta: dict | None = None) -> None:
    """Write params + config (and caller metadata) to an .npz container."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "mlp": params.config.to_dict(),
        "n_layers": len(params.weights),
        "meta": meta or {},
    }
    arrays = {"header_json": np.frombuffer(json.dumps(payload).encode(), dtype=np.uint8)}
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path):
    """Read a checkpoint; returns (params, meta)."""
    with np.load(path) as data:
        try:
            payload = json.loads(bytes(data["header_json"]).decode())
        except (KeyError, json.JSONDecodeError) as exc:
            raise DataFormatError(f"not a parameter checkpoint: {path}") from exc
        if payload.get("format_version") != CHECKPOINT_VERSION:
            raise DataFormatError(
                f"unsupported checkpoint version {payload.get('format_version')}"
            )
        config = MlpConfig.from_dict(payload["mlp"])
        n_layers = int(payload["n_layers"])
        weights = [np.array(data[f"w{i}"]) for i in range(n_layers)]
        biases = [np.array(data[f"b{i}"]) for i in range(n_layers)]
    params = VectorFieldParams(config=config, weights=weights, biases=biases)
    dims = config.layer_dims
    for i, w in enumerate(params.weights):
        if w.shape != (dims[i], dims[i + 1]):
            raise DataFormatError("checkpoint arrays do not match the stored config")
    return params, payload["meta"]
