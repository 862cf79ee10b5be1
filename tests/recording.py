"""Rollouts keep no states; tests that read them all record them here."""

import numpy as np


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
