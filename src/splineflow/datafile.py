"""Self-describing trajectory dataset files (binary, one format).

Layout: an 8-byte magic, a little-endian uint32 header length, a
canonical-JSON header, then raw little-endian float64 arrays. The header
holds `format_version`, `system`, `state_dim`, `raw_horizon`, the
generator metadata under `generator`, and per split its `name` and the
`n_times` of each trajectory. Per split and per trajectory the payload
holds the normalized times followed by the snapshot block in time-major,
component-minor order. Header keys the reader does not use (such as the
`mode` of older files) are ignored.

Writes are canonical (sorted keys, fixed separators), so write -> read ->
write round-trips byte-identically.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DataFormatError, InvalidArgumentError
from .systems import TrajectorySet
from .timegrid import TimeGrid

MAGIC = b"SFTRAJ1\n"
FORMAT_VERSION = 1


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _header(splits: dict, generator_meta: dict) -> dict:
    first = next(iter(splits.values()))
    for name, ts in splits.items():
        if ts.state_dim != first.state_dim or ts.system_tag != first.system_tag:
            raise InvalidArgumentError(f"split {name!r} disagrees on system or dims")
        if ts.raw_horizon != first.raw_horizon:
            raise InvalidArgumentError(f"split {name!r} disagrees on the horizon")
    return {
        "format_version": FORMAT_VERSION,
        "system": first.system_tag,
        "state_dim": first.state_dim,
        "raw_horizon": first.raw_horizon,
        "generator": generator_meta,
        "splits": [
            {"name": name, "n_times": [len(g) for g in ts.grids]}
            for name, ts in splits.items()
        ],
    }


def write_dataset(path, splits: dict, generator_meta: dict | None = None) -> None:
    """Write named TrajectorySet splits plus metadata to one file."""
    if not splits:
        raise InvalidArgumentError("need at least one split to write")
    header = _header(splits, generator_meta or {})
    header_bytes = _canonical_json(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.uint32(len(header_bytes)).tobytes())
        fh.write(header_bytes)
        for ts in splits.values():
            for g, u in zip(ts.grids, ts.states):
                fh.write(np.ascontiguousarray(g.times, dtype="<f8").tobytes())
                fh.write(np.ascontiguousarray(u, dtype="<f8").tobytes())


def read_dataset(path):
    """Read a dataset file; returns (splits dict, header metadata dict)."""
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise DataFormatError(f"{path}: not a dataset file (bad magic)")
        raw_len = fh.read(4)
        if len(raw_len) != 4:
            raise DataFormatError(f"{path}: truncated header length")
        header_len = int(np.frombuffer(raw_len, dtype="<u4")[0])
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataFormatError(f"{path}: corrupt header") from exc
        if header.get("format_version") != FORMAT_VERSION:
            raise DataFormatError(
                f"{path}: unsupported dataset version {header.get('format_version')}"
            )
        for key in ("system", "state_dim", "raw_horizon", "splits"):
            if key not in header:
                raise DataFormatError(f"{path}: header is missing {key!r}")
        d = int(header["state_dim"])
        horizon = float(header["raw_horizon"])
        splits = {}
        for entry in header["splits"]:
            grids, states = [], []
            for n in entry["n_times"]:
                need = n * (1 + d) * 8
                buf = fh.read(need)
                if len(buf) != need:
                    raise DataFormatError(f"{path}: truncated payload")
                times = np.frombuffer(buf[: n * 8], dtype="<f8").copy()
                grids.append(TimeGrid(times=times))
                states.append(np.frombuffer(buf[n * 8 :], dtype="<f8").reshape(n, d).copy())
            splits[entry["name"]] = TrajectorySet(
                grids=grids,
                states=states,
                state_dim=d,
                system_tag=str(header["system"]),
                raw_horizon=horizon,
            )
        if fh.read(1):
            raise DataFormatError(f"{path}: trailing bytes after payload")
    return splits, header
