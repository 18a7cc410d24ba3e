"""Double-integrator vehicle dynamics and the desired formation chain.

State of a vehicle is ``x = (position, velocity)``.  With sampling period
``T`` one step reads ``x(t+1) = A x(t) + (0, T u(t)) + d(t)`` where ``A`` is
the discrete double integrator and ``d`` is bounded process noise.  The
virtual leader follows the same recursion with zero input and zero noise.
"""

import math
from dataclasses import dataclass
from itertools import chain

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


def rows_array(rows, width: int) -> np.ndarray:
    """``(len(rows), width)`` array of float rows, built faster than
    ``np.array(rows)`` and with the same bytes."""
    out = np.fromiter(chain.from_iterable(rows), float, len(rows) * width)
    out.resize((len(rows), width))  # same size, so in place, owning its data
    return out


def step_rows(x: list, u: list, T: float, d: list | None = None) -> list:
    """``A x + (0, T u)``, plus ``d`` when given, for float rows ``(s, v)``.

    The plant step passes its process noise ``d`` (zero rows included, which
    turn ``-0.0`` into ``0.0``); the observer's prediction passes none.
    """
    if d is None:
        return [(s + T * v, v + T * uk) for (s, v), uk in zip(x, u)]
    return [(s + T * v + d0, v + T * uk + d1)
            for (s, v), uk, (d0, d1) in zip(x, u, d)]


def step_vehicle(x: np.ndarray, u: float | np.ndarray, d: np.ndarray | None,
                 plant: PlantMatrix) -> np.ndarray:
    """Advance one vehicle ``(2,)`` or a platoon ``(N, 2)``: ``A x + (0, T u) + d``
    (array form of :func:`step_rows`; ``d=None`` adds no noise)."""
    rows = np.reshape(x, (-1, 2))
    out = step_rows(rows.tolist(), np.broadcast_to(u, len(rows)).tolist(), plant.T,
                    None if d is None else np.broadcast_to(d, rows.shape).tolist())
    return np.array(out).reshape(np.shape(x))


def reference_step(x0, plant: PlantMatrix) -> np.ndarray:
    """Advance the virtual leader ``(s, v)``: constant velocity, no input, no
    noise, which is the step :func:`advance_deltas` takes."""
    return np.array(advance_deltas((x0,), plant)[0])


def desired_state_chain(x0, deltas) -> np.ndarray:
    """Desired states of all vehicles given the leader state and gaps.

    ``deltas[k]`` is the desired offset of vehicle ``k+2`` behind vehicle
    ``k+1`` (front state minus rear state), so the chain unrolls as
    ``x*_1 = x0`` and ``x*_{i} = x*_{i-1} - deltas[i-2]``.
    """
    cur_s, cur_v = (float(x0[0]), float(x0[1]))
    rows = [(cur_s, cur_v)]
    for d0, d1 in deltas:
        cur_s -= d0
        cur_v -= d1
        rows.append((cur_s, cur_v))
    return rows_array(rows, 2)


def advance_deltas(deltas, plant: PlantMatrix):
    """Propagate the desired-gap vectors one step: each follows ``A``.

    Float rows give a list of rows and an ``(N-1, 2)`` array gives an array.
    """
    T = plant.T
    if isinstance(deltas, np.ndarray):
        return np.array(advance_deltas(deltas.tolist(), plant)).reshape(-1, 2)
    return [(s + T * v, v) for s, v in deltas]
