"""The relative L2 error of one whole trajectory, written as its formula;
tests check the package's scores and data against it.
"""

import numpy as np


def relative_l2(pred, truth) -> float:
    """Frobenius norm of (pred - truth) over all entries, over the norm of truth."""
    pred, truth = np.asarray(pred, dtype=np.float64), np.asarray(truth, dtype=np.float64)
    assert pred.shape == truth.shape, (pred.shape, truth.shape)
    return float(np.linalg.norm(pred - truth) / np.linalg.norm(truth))
