"""Tests for the double-integrator plant model and reference trajectories."""

import numpy as np
import pytest

from oracles import step_vehicle
from platoonsec.dynamics import (
    advance_deltas,
    desired_state_chain,
    plant_norm,
    reference_step,
    step_rows,
)


def test_plant_norm_matches_direct_singular_value():
    """The closed form must agree with numpy's 2-norm of [[1, T], [0, 1]]."""
    for T in (0.001, 0.01, 0.1, 0.5, 1.0):
        A = np.array([[1.0, T], [0.0, 1.0]])
        assert plant_norm(T) == pytest.approx(float(np.linalg.norm(A, 2)), rel=1e-14)


def test_plant_norm_pinned_values():
    assert plant_norm(0.01) == 1.0050124999218761
    assert plant_norm(0.001) == 1.000500124999992
    assert plant_norm(0.1) == 1.0512492197250394
    assert plant_norm(0.5) == 1.2807764064044151


def test_plant_norm_exceeds_one():
    for T in (1e-6, 0.02, 2.0):
        assert plant_norm(T) > 1.0


def test_step_vehicle_matches_matrix_form():
    T = 0.02
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.normal(size=2) * 100
        u = float(rng.normal() * 50)
        d = rng.normal(size=2) * 0.1
        got = step_vehicle(x, u, d, T)
        want = np.array([[1.0, T], [0.0, 1.0]]) @ x + np.array([0.0, T * u]) + d
        assert got == pytest.approx(want, rel=1e-15, abs=1e-15)


def test_step_vehicle_hand_example():
    out = step_vehicle(np.array([1.0, 2.0]), 10.0, np.array([0.5, -0.5]), 0.1)
    # position advances by T*v, velocity by T*u, then the disturbance lands
    assert np.array_equal(out, np.array([1.0 + 0.2 + 0.5, 2.0 + 1.0 - 0.5]))


def _plant_step(x, u, d, A, T):
    """``A x + (0, T u) + d`` of one vehicle, written out row by row of ``A``;
    ``d=None`` adds no noise, as in the observer's prediction."""
    s, v = x
    pos = A[0][0] * s + A[0][1] * v
    vel = A[1][0] * s + A[1][1] * v + T * u
    return (pos, vel) if d is None else (pos + d[0], vel + d[1])


@pytest.mark.parametrize("n", [5, 21])
def test_step_rows_equals_the_per_vehicle_plant_step_bit_for_bit(n):
    T = 0.01
    A = [[1.0, T], [0.0, 1.0]]
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 2)) * 100
    u = rng.normal(size=n) * 50
    d = rng.normal(size=(n, 2)) * 0.1
    x[0] = u[0] = -0.0  # a signed zero must survive the prediction
    x, u, d = x.tolist(), u.tolist(), d.tolist()
    got = np.array(step_rows(x, u, T, d))
    want = np.array([_plant_step(x[k], u[k], d[k], A, T) for k in range(n)])
    assert got.tobytes() == want.tobytes()
    got = np.array(step_rows(x, u, T))
    want = np.array([_plant_step(x[k], u[k], None, A, T) for k in range(n)])
    assert got.tobytes() == want.tobytes()
    assert np.signbit(got[0]).all()


def test_reference_step_is_constant_velocity():
    x = np.array([200.0, 10.0])
    x = reference_step(x, 0.01)
    assert np.array_equal(x, np.array([200.1, 10.0]))
    for _ in range(99):
        x = reference_step(x, 0.01)
    assert x[1] == 10.0
    assert x[0] == pytest.approx(200.0 + 10.0 * 0.01 * 100, rel=1e-12)


def test_desired_state_chain_subtracts_cumulative_gaps():
    chain = desired_state_chain(np.array([200.0, 10.0]), np.array([[20.0, 0.0]] * 4))
    assert chain.shape == (5, 2)
    assert np.array_equal(chain[:, 0], np.array([200.0, 180.0, 160.0, 140.0, 120.0]))
    assert np.array_equal(chain[:, 1], np.full(5, 10.0))


def test_desired_state_chain_matches_cumulative_sum():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        x0 = rng.normal(size=2) * 100
        deltas = rng.normal(size=(n - 1, 2)) * 10
        chain = desired_state_chain(x0, deltas)
        want = x0 - np.vstack([np.zeros(2), np.cumsum(deltas, axis=0)])
        assert chain == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_desired_state_chain_single_vehicle():
    chain = desired_state_chain(np.array([5.0, 1.0]), np.zeros((0, 2)))
    assert np.array_equal(chain, np.array([[5.0, 1.0]]))


def test_advance_deltas_moves_position_offset_by_velocity_offset():
    deltas = np.array([[10.0, 2.0], [20.0, 0.0]])
    out = advance_deltas(deltas, 0.5)
    assert np.array_equal(out, np.array([[11.0, 2.0], [20.0, 0.0]]))
    # constant-velocity gaps are fixed points
    again = advance_deltas(out, 0.5)
    assert np.array_equal(again[1], out[1])


def test_advance_deltas_closes_a_velocity_gap_linearly():
    """A formation with velocity offsets drifts apart at exactly T*dv per step."""
    deltas = np.array([[0.0, 5.0]])
    for k in range(1, 11):
        deltas = advance_deltas(deltas, 0.01)
        assert deltas[0][0] == pytest.approx(0.05 * k, rel=1e-12)
        assert deltas[0][1] == 5.0
