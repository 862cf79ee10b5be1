import json

import numpy as np
import pytest

from splineflow import DataFormatError, InvalidArgumentError, cli, generate_lorenz
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


def test_each_split_reads_into_one_buffer(tmp_path, tiny_splits):
    # one allocation per split, so a freed split returns to the system whole
    path = tmp_path / "data.sftraj"
    write_dataset(path, tiny_splits)
    loaded, _ = read_dataset(path)
    train, test = loaded["train"], loaded["test"]
    for split in (train, test):
        assert split.values.flags.owndata
        assert all(u.base is split.values for u in split.states)
    assert not np.shares_memory(train.values, test.values)


def test_rejects_truncated_binary(tmp_path, tiny_splits):
    path = tmp_path / "data.bin"
    write_dataset(path, tiny_splits)
    clipped = path.read_bytes()[:-16]
    path.write_bytes(clipped)
    with pytest.raises(DataFormatError):
        read_dataset(path)


def test_rejects_a_file_that_ends_inside_its_first_split(tmp_path, tiny_splits):
    path = tmp_path / "data.bin"
    write_dataset(path, tiny_splits)
    test_split_bytes = 2 * 11 * (1 + 3) * 8
    path.write_bytes(path.read_bytes()[: -test_split_bytes - 8])
    with pytest.raises(DataFormatError, match="truncated"):
        read_dataset(path)


def test_rejects_trailing_bytes(tmp_path, tiny_splits):
    path = tmp_path / "data.bin"
    write_dataset(path, tiny_splits)
    path.write_bytes(path.read_bytes() + b"\0" * 8)
    with pytest.raises(DataFormatError, match="trailing"):
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


def test_trajectories_on_one_stored_grid_share_one_grid_object(tmp_path, tiny_splits):
    sub = tiny_splits["train"].subsampled(0.6, base_seed=1)
    path = tmp_path / "data.sftraj"
    write_dataset(path, {"train": tiny_splits["train"], "sub": sub})
    loaded, _ = read_dataset(path)
    shared = loaded["train"].shared_grid()
    assert all(g is shared for g in loaded["train"].grids)
    assert len({id(g) for g in loaded["sub"].grids}) == len({g.times.tobytes() for g in sub.grids})
    with pytest.raises(InvalidArgumentError, match="one grid shared by all"):
        loaded["sub"].shared_grid()


def _rewrite(path, header_change=None, times=None, payload_bytes=None):
    """Rewrite a one-trajectory file's header, its stored times, or its payload's length."""
    raw = path.read_bytes()
    header_len = int(np.frombuffer(raw[8:12], dtype="<u4")[0])
    header = json.loads(raw[12 : 12 + header_len])
    payload = bytearray(raw[12 + header_len :][:payload_bytes])
    if header_change:
        header_change(header)
    if times is not None:
        payload[: 8 * len(times)] = np.asarray(times, dtype="<f8").tobytes()
    encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(MAGIC + np.uint32(len(encoded)).tobytes() + encoded + bytes(payload))


@pytest.mark.parametrize(
    "damage",
    [
        dict(header_change=lambda h: h["splits"][0].pop("n_times")),
        dict(header_change=lambda h: h.update(state_dim="x")),
        dict(header_change=lambda h: h["splits"][0].update(n_times=[0])),
        dict(header_change=lambda h: h["splits"][0].update(n_times=[10**15])),
        dict(times=[0.0, 0.5, 0.5, 1.0]),
        # a payload of the 4 times alone: every block reads as (4, 0) states
        dict(header_change=lambda h: h.update(state_dim=0), payload_bytes=32),
        # the 4 stored times, then nan over the first state value
        dict(times=[0.0, 0.25, 0.5, 1.0, np.nan]),
    ],
    ids=["no n_times", "state_dim x", "n_times 0", "n_times 1e15", "times not increasing",
         "state_dim 0", "state nan"],
)
def test_malformed_header_or_times_raise_data_format_error_and_exit_4(tmp_path, damage):
    path = tmp_path / "data.sftraj"
    write_dataset(path, {"train": generate_lorenz(1, 4, 2.0, 5.0, seed=0)})
    _rewrite(path, **damage)
    with pytest.raises(DataFormatError):
        read_dataset(path)
    code = cli.main(["convergence", "--dataset", str(path), "--out", str(tmp_path / "c.csv")])
    assert code == 4
