"""Independent array-code routes to quantities the package computes on float
rows, kept as test oracles: the two performance metrics and the direct sum
of a run of gap readings."""

import numpy as np


def performance_phi(xs, x_hats, x_stars) -> float:
    """Mean over vehicles of estimation-error norm plus tracking-error norm."""
    if not len(xs) == len(x_hats) == len(x_stars):
        raise ValueError("state, estimate and target lists must have equal length")
    xs = np.asarray(xs, dtype=float)
    xh = np.asarray(x_hats, dtype=float)
    xt = np.asarray(x_stars, dtype=float)
    est = np.hypot(xh[:, 0] - xs[:, 0], xh[:, 1] - xs[:, 1])
    trk = np.hypot(xs[:, 0] - xt[:, 0], xs[:, 1] - xt[:, 1])
    return float((est + trk).sum()) / len(xs)


def platoon_phi(xs, x_stars) -> float:
    """Mean over vehicles of the tracking-error norm alone."""
    if len(xs) != len(x_stars):
        raise ValueError("state and target lists must have equal length")
    xs = np.asarray(xs, dtype=float)
    xt = np.asarray(x_stars, dtype=float)
    return float(np.hypot(xs[:, 0] - xt[:, 0], xs[:, 1] - xt[:, 1]).sum()) / len(xs)


def chain_sum(frame, lo: int, hi: int) -> np.ndarray:
    """Sum of gap readings ``y_{m-1,m}`` for ``m`` in ``lo..hi`` inclusive."""
    return frame.y_rel[lo - 2:hi - 1].sum(axis=0)
