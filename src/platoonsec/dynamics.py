"""Double-integrator vehicle dynamics and the desired formation chain.

State of a vehicle is ``x = (position, velocity)``.  With sampling period
``T`` one step reads ``x(t+1) = A x(t) + (0, T u(t)) + d(t)`` where ``A`` is
the discrete double integrator and ``d`` is bounded process noise.  The
virtual leader follows the same recursion with zero input and zero noise.
"""

import math
from dataclasses import dataclass

import numpy as np


def plant_norm(T: float) -> float:
    """Largest singular value of ``[[1, T], [0, 1]]`` in closed form.

    Strictly greater than 1 for every ``T > 0``, which is what makes the
    estimation-error recursions non-trivial.
    """
    if T < 0:
        raise ValueError("sampling period must be nonnegative")
    return math.sqrt((2.0 + T * T + T * math.sqrt(T * T + 4.0)) / 2.0)


@dataclass(frozen=True)
class PlantMatrix:
    """Sampling period, system matrix, and its spectral norm."""

    T: float
    A: np.ndarray
    norm_A: float

    @classmethod
    def build(cls, T: float) -> "PlantMatrix":
        if T <= 0:
            raise ValueError(f"sampling period must be positive, got {T}")
        A = np.array([[1.0, T], [0.0, 1.0]])
        return cls(T=float(T), A=A, norm_A=plant_norm(T))


def step_vehicle(x: np.ndarray, u: float | np.ndarray, d: np.ndarray,
                 plant: PlantMatrix) -> np.ndarray:
    """Advance one vehicle ``(2,)`` or a platoon ``(N, 2)``: ``A x + (0, T u) + d``."""
    out = np.empty(x.shape)
    out[..., 0] = x[..., 0] + plant.T * x[..., 1]
    out[..., 1] = x[..., 1] + plant.T * u
    out += d
    return out


def reference_step(x0: np.ndarray, plant: PlantMatrix) -> np.ndarray:
    """Advance the virtual leader: constant velocity, no input, no noise."""
    return np.array([x0[0] + plant.T * x0[1], x0[1]])


def desired_state_chain(x0: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Desired states of all vehicles given the leader state and gaps.

    ``deltas[k]`` is the desired offset of vehicle ``k+2`` behind vehicle
    ``k+1`` (front state minus rear state), so the chain unrolls as
    ``x*_1 = x0`` and ``x*_{i} = x*_{i-1} - deltas[i-2]``.
    """
    gaps = np.asarray(deltas, dtype=float).tolist()
    cur_s, cur_v = (float(x0[0]), float(x0[1]))
    rows = [(cur_s, cur_v)]
    for d in gaps:
        cur_s -= d[0]
        cur_v -= d[1]
        rows.append((cur_s, cur_v))
    return np.array(rows)


def advance_deltas(deltas: np.ndarray, plant: PlantMatrix) -> np.ndarray:
    """Propagate the desired-gap vectors one step: each follows ``A``."""
    out = np.array(deltas, dtype=float, copy=True)
    out[:, 0] += plant.T * out[:, 1]
    return out
