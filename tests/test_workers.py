import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from splineflow import (
    MlpConfig, TrainConfig, forward_batch, generate_burgers, init_params, train_flow_matching,
    workers,
)


def _cpus(monkeypatch, n):
    """Let the worker pool see n CPUs."""
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: set(range(n)))


def test_split_rows_cuts_at_multiples_of_8_into_parts_of_the_floor(monkeypatch):
    monkeypatch.setattr(workers, "_pool", None)
    for cpus in (1, 2, 3, 4):
        _cpus(monkeypatch, cpus)
        for min_rows in (4, 160, 164, 16384):
            floor = -(-min_rows // 8) * 8
            for rows in range(701):
                cuts = workers.split_rows(lambda lo, hi: (lo, hi), rows, min_rows)
                assert cuts[0][0] == 0 and cuts[-1][1] == rows
                assert all(a[1] == b[0] for a, b in zip(cuts, cuts[1:]))
                assert all(lo % 8 == 0 and lo <= hi for lo, hi in cuts)
                if len(cuts) > 1:
                    assert min(hi - lo for lo, hi in cuts) >= floor
                parts = min(cpus, rows // floor) if rows >= 2 * floor else 1
                assert len(cuts) == parts, (cpus, min_rows, rows)
    workers._pool.shutdown()


def _train(data):
    cfg = TrainConfig(steps=3, batch_size=256, eval_every=3, seed=3, hidden=(16,),
                      embed_bands=2)
    result = train_flow_matching(data, cfg, val_set=data)
    return [(row.step, row.train_loss, row.val_rel_l2) for row in result.history], result.params.flat


def test_without_cpu_affinity_the_pool_counts_all_cpus_and_gives_the_same_bits(monkeypatch):
    # macOS and Windows have no os.sched_getaffinity: a training that
    # draws ahead (256 x 100 entries per batch) and a 640-row forward pass
    # that splits run on os.cpu_count() CPUs, or on one where that is unknown
    data = generate_burgers(4, 21, seed=0)
    params = init_params(MlpConfig(state_dim=100), seed=5)
    u = np.random.default_rng(0).standard_normal((640, 100))
    _cpus(monkeypatch, 2)
    history, flat = _train(data)
    out = forward_batch(params, 0.37, u)
    monkeypatch.delattr(workers.os, "sched_getaffinity")
    for count in (2, None):
        monkeypatch.setattr(workers.os, "cpu_count", lambda n=count: n)
        assert workers._cpus() == (count or 1)
        again_history, again_flat = _train(data)
        assert np.array_equal(np.array(again_history), np.array(history), equal_nan=True)
        assert np.array_equal(again_flat, flat)
        assert np.array_equal(forward_batch(params, 0.37, u), out)


_FORK_CHECK = """
import os
import signal
import numpy as np
from splineflow import MlpConfig, forward_batch, init_params, workers
os.sched_getaffinity = lambda pid: {0, 1}
params = init_params(MlpConfig(state_dim=100), seed=5)
u = np.random.default_rng(0).standard_normal((640, 100))
out = forward_batch(params, 0.37, u)
assert workers._pool is not None
pid = os.fork()
if pid == 0:
    signal.alarm(60)  # a child left waiting on the parent's pool threads ends here
    forgot = workers._pool is None
    same = np.array_equal(forward_batch(params, 0.37, u), out)
    os._exit(0 if forgot and same and workers._pool is not None else 1)
assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_forgets_the_pool_and_still_splits_a_forward_pass():
    # the parent's pool threads do not exist in the child, which makes its own
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", _FORK_CHECK], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_the_package_imports_where_there_are_no_fork_hooks():
    # Windows has no os.register_at_fork
    check = "import os\ndel os.register_at_fork\nimport splineflow.cli\n"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
