import json

import numpy as np
import pytest

from splineflow import DataFormatError, generate_lorenz
from splineflow.datafile import MAGIC, read_dataset, write_dataset


@pytest.fixture()
def tiny_splits():
    return {
        "train": generate_lorenz(3, 11, 2.0, 5.0, seed=0),
        "test": generate_lorenz(2, 11, 2.0, 5.0, seed=1),
    }


def test_round_trip_preserves_data(tmp_path, tiny_splits):
    path = tmp_path / "data.sftraj"
    write_dataset(path, tiny_splits, generator_meta={"seed": 0})
    loaded, header = read_dataset(path)
    assert set(loaded) == {"train", "test"}
    assert header["system"] == "lorenz"
    assert header["generator"] == {"seed": 0}
    for name, original in tiny_splits.items():
        got = loaded[name]
        assert got.state_dim == original.state_dim
        assert got.raw_horizon == original.raw_horizon
        for ga, gb, ua, ub in zip(original.grids, got.grids, original.states, got.states):
            assert np.array_equal(ga.times, gb.times)
            assert np.array_equal(ua, ub)


def test_round_trip_is_byte_identical(tmp_path, tiny_splits):
    first = tmp_path / "a.dat"
    second = tmp_path / "b.dat"
    write_dataset(first, tiny_splits, generator_meta={"seed": 3})
    loaded, header = read_dataset(first)
    write_dataset(second, loaded, generator_meta=header["generator"])
    assert first.read_bytes() == second.read_bytes()


def test_reads_files_whose_header_carries_a_mode(tmp_path, tiny_splits):
    # earlier writers put a constant "mode":"binary" into the header
    path = tmp_path / "data.sftraj"
    write_dataset(path, tiny_splits, generator_meta={"seed": 0})
    raw = path.read_bytes()
    header_len = int(np.frombuffer(raw[8:12], dtype="<u4")[0])
    header = json.loads(raw[12 : 12 + header_len])
    old = {**header, "mode": "binary"}
    old_header = json.dumps(old, sort_keys=True, separators=(",", ":")).encode()
    assert b'"generator":{"seed":0},"mode":"binary","raw_horizon"' in old_header
    path.write_bytes(
        MAGIC + np.uint32(len(old_header)).tobytes() + old_header + raw[12 + header_len :]
    )
    loaded, got_header = read_dataset(path)
    assert got_header["mode"] == "binary"
    for name, original in tiny_splits.items():
        got = loaded[name]
        for ga, gb, ua, ub in zip(original.grids, got.grids, original.states, got.states):
            assert np.array_equal(ga.times, gb.times)
            assert np.array_equal(ua, ub)


def test_irregular_grids_survive_round_trip(tmp_path, tiny_splits):
    sub = tiny_splits["train"].subsampled(0.6, base_seed=1)
    path = tmp_path / "sub.dat"
    write_dataset(path, {"train": sub})
    loaded, _ = read_dataset(path)
    for ga, gb in zip(sub.grids, loaded["train"].grids):
        assert np.array_equal(ga.times, gb.times)


def test_rejects_non_dataset_file(tmp_path):
    path = tmp_path / "nonsense.bin"
    path.write_bytes(b"\x00\x01\x02 not a dataset")
    with pytest.raises(DataFormatError):
        read_dataset(path)
    # nor is JSON text, which was once a second dataset format
    path.write_text('{"format_version":1,"mode":"json"}')
    with pytest.raises(DataFormatError):
        read_dataset(path)


def test_rejects_truncated_binary(tmp_path, tiny_splits):
    path = tmp_path / "data.bin"
    write_dataset(path, tiny_splits)
    clipped = path.read_bytes()[:-16]
    path.write_bytes(clipped)
    with pytest.raises(DataFormatError):
        read_dataset(path)


def test_rejects_unknown_version(tmp_path, tiny_splits):
    path = tmp_path / "data.sftraj"
    write_dataset(path, tiny_splits)
    # same length, so the header length field stays valid
    raw = path.read_bytes()
    assert raw.count(b'"format_version":1') == 1
    path.write_bytes(raw.replace(b'"format_version":1', b'"format_version":9'))
    with pytest.raises(DataFormatError):
        read_dataset(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_dataset(tmp_path / "absent.dat")
