"""Rollouts keep no states; tests that read them all record them here, and
tests that read how generation or a forward pass cut its batch record the
rows of each part.
"""

import numpy as np

from splineflow import systems, vector_field


def recorded(roll, f, u0, *args):
    """(states, result) of roll(f, u0, *args, record): states is (K, B, d).

    The record keeps each state it is handed, as it is handed, so values
    written to a state after it was recorded would show. It checks that
    the states come in order.
    """
    states = []

    def record(k, u):
        assert k == len(states)
        states.append(u)

    result = roll(f, u0, *args, record=record)
    return np.stack(states) if states else np.empty((0,) + np.shape(u0)), result


def generation_rollout_rows(monkeypatch) -> list:
    """The rows of each `systems.rollout` call from here on.

    Generation integrates each row part of its batch in one such call. The
    parts run at once on different threads, so they enter the list in any
    order.
    """
    rows, real = [], systems.rollout

    def spy(f, u0, *args, **kwargs):
        rows.append(len(u0))
        return real(f, u0, *args, **kwargs)

    monkeypatch.setattr(systems, "rollout", spy)
    return rows


def forward_sweep_rows(monkeypatch) -> list:
    """The rows of each `vector_field._sweep` a forward pass makes from here on.

    A forward pass sweeps each row part of its batch in one such call. The
    parts run at once on different threads, so they enter the list in any
    order.
    """
    rows, real = [], vector_field._sweep

    def spy(params, x, *args):
        rows.append(len(x))
        return real(params, x, *args)

    monkeypatch.setattr(vector_field, "_sweep", spy)
    return rows
