"""Tests for measurement generation, sensor attacks, and chained
reconstruction of absolute positions from secured gap readings."""

import math

import numpy as np
import pytest

from oracles import chain_sum, reconstruct_absolute, stream_rng
from platoonsec import core, rng as prng, sensing
from platoonsec.sensing import (
    AttackSpec,
    AttackState,
    attack_spec_from_json,
    estimate_based_measurement,
    measure,
    sample_noise,
    stack_measurements,
)

TOPO5 = core.Topology.build(5, 2)


def _states(n=5, seed=0, scale=100.0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 2)) * scale


def _no_attack():
    return AttackSpec(attacked=frozenset(), kind="bias")


def _clean_frame(xs, mu=0.0, t=0, state=None, spec=None, seed=77):
    spec = spec or _no_attack()
    state = state or AttackState(spec)
    rm = stream_rng(seed, 0, t, 0, prng.STREAM_MEASURE) if mu else None
    ra = stream_rng(seed, 0, t, 0, prng.STREAM_ATTACK) if spec.attacked else None
    return measure(xs, spec, mu, state, t, rm, ra)


# --------------------------------------------------------------------------
# noise model
# --------------------------------------------------------------------------

def test_sample_noise_zero_bound_is_exactly_zero():
    out = sample_noise(None, 0.0, 4)
    assert np.array_equal(out, np.zeros((4, 2)))


def test_sample_noise_norms_never_exceed_bound():
    rng = np.random.default_rng(3)
    for bound in (0.05, 0.3, 2.0):
        out = sample_noise(rng, bound, 500)
        assert out.shape == (500, 2)
        assert np.all(out >= 0.0)
        norms = np.hypot(out[:, 0], out[:, 1])
        assert np.max(norms) <= bound
        # the bound is actually approached, not just satisfied from afar
        assert np.max(norms) > 0.8 * bound


def test_sample_noise_is_reproducible_per_site():
    a = sample_noise(stream_rng(1, 2, 3, 0, 1), 0.1, 6)
    b = sample_noise(stream_rng(1, 2, 3, 0, 1), 0.1, 6)
    assert np.array_equal(a, b)


# --------------------------------------------------------------------------
# attack specification parsing
# --------------------------------------------------------------------------

def test_attack_spec_validation():
    with pytest.raises(ValueError):
        AttackSpec(attacked=frozenset({1}), kind="jamming")
    with pytest.raises(ValueError):
        AttackSpec(attacked=frozenset({0}), kind="bias")
    with pytest.raises(ValueError):
        AttackSpec(attacked=frozenset({1}), kind="replay", record_len=0)
    with pytest.raises(ValueError):
        AttackSpec(attacked=frozenset({1}), kind="dos", start=-1)


def test_attack_spec_per_sensor_knob_override():
    spec = AttackSpec(attacked=frozenset({2, 4}), kind="bias", offset=(1.0, 0.0),
                      start=3, per_sensor={4: {"start": 7, "offset": (0.0, 2.0)}})
    assert spec.knob(2, "start") == 3
    assert spec.knob(4, "start") == 7
    assert spec.knob(2, "offset") == (1.0, 0.0)
    assert spec.knob(4, "offset") == (0.0, 2.0)


@pytest.mark.parametrize("kind, knob, value, override, parsed", [
    ("random", "scale", 2.5, 0.5, 0.5),
    ("dos", "start", 2, 6, 6),
    ("bias", "offset", [5.0, -1.0], [0.0, 9.0], (0.0, 9.0)),
    ("replay", "record_len", 4, 8, 8),
], ids=["random", "dos", "bias", "replay"])
def test_attack_spec_json_round_trip(kind, knob, value, override, parsed):
    """The knob table writes ``to_json`` for every kind, ``start`` first,
    and reading it back gives the same spec."""
    doc = {"set": [2, 4], "kind": kind,
           "params": {"start": 2, knob: value, "per_sensor": {"4": {knob: override}}}}
    spec = attack_spec_from_json(doc)
    assert spec.attacked == frozenset({2, 4})
    assert getattr(spec, knob) == (tuple(value) if isinstance(value, list) else value)
    assert spec.per_sensor == {4: {knob: parsed}}
    assert spec.to_json() == {"set": [2, 4], "kind": kind, "params": doc["params"]}
    assert list(spec.to_json()["params"]) == list(dict.fromkeys(["start", knob, "per_sensor"]))
    assert attack_spec_from_json(spec.to_json()) == spec


def test_attack_spec_json_rejects_unknown_keys():
    with pytest.raises(ValueError):
        attack_spec_from_json({"set": [1], "kind": "dos", "mode": "hard"})
    with pytest.raises(ValueError):
        attack_spec_from_json({"set": [1], "kind": "dos", "params": {"scale": 2.0}})
    with pytest.raises(ValueError):
        attack_spec_from_json({"set": [1], "kind": "none"})
    with pytest.raises(ValueError):
        attack_spec_from_json({"set": [True], "kind": "dos"})
    with pytest.raises(ValueError):
        attack_spec_from_json({"set": [1], "kind": "bias",
                               "params": {"per_sensor": {"1": {"scale": 3.0}}}})


# --------------------------------------------------------------------------
# measurement frames
# --------------------------------------------------------------------------

def test_measure_noise_free_reads_exact_states():
    xs = _states()
    frame = _clean_frame(xs)
    assert np.array_equal(frame.y_abs, xs)
    assert np.array_equal(frame.y_rel, xs[1:] - xs[:-1])
    assert np.array_equal(frame.attack_norms, np.zeros(5))


def test_measure_noise_is_one_buffer_split_across_sensor_families():
    """Absolute sensors consume the first n rows of the site's uniform draw,
    relative sensors the remaining n-1; this pins the draw layout so traces
    stay reproducible."""
    xs = _states()
    mu = 0.2
    frame = _clean_frame(xs, mu=mu, seed=42)
    ref = stream_rng(42, 0, 0, 0, prng.STREAM_MEASURE)
    noise_abs = sample_noise(ref, mu, 5)
    noise_rel = sample_noise(ref, mu, 4)
    assert np.array_equal(frame.y_abs, xs + noise_abs)
    assert np.array_equal(frame.y_rel, xs[1:] - xs[:-1] + noise_rel)


def test_measure_noise_respects_radius():
    xs = _states()
    frame = _clean_frame(xs, mu=0.25, seed=9)
    assert np.max(np.hypot(*(frame.y_abs - xs).T)) <= 0.25
    assert np.max(np.hypot(*(frame.y_rel - (xs[1:] - xs[:-1])).T)) <= 0.25


def test_measure_requires_consecutive_steps():
    xs = _states()
    spec = AttackSpec(attacked=frozenset({3}), kind="bias", offset=(1.0, 0.0))
    state = AttackState(spec)
    _clean_frame(xs, state=state, spec=spec, t=0)
    with pytest.raises(RuntimeError):
        _clean_frame(xs, state=state, spec=spec, t=0)  # same step twice
    _clean_frame(xs, state=state, spec=spec, t=1)
    with pytest.raises(RuntimeError):
        _clean_frame(xs, state=state, spec=spec, t=3)  # skipped step 2


def test_bias_attack_adds_constant_offset():
    xs = _states()
    spec = AttackSpec(attacked=frozenset({2}), kind="bias", offset=(3.0, -4.0))
    frame = _clean_frame(xs, spec=spec, state=AttackState(spec))
    assert np.array_equal(frame.y_abs[1], xs[1] + np.array([3.0, -4.0]))
    assert frame.attack_norms[1] == 5.0
    clean = [i for i in range(5) if i != 1]
    assert np.array_equal(frame.y_abs[clean], xs[clean])
    # secured gap readings are never touched by an absolute-sensor attack
    assert np.array_equal(frame.y_rel, xs[1:] - xs[:-1])


def test_attack_waits_for_its_start_step():
    xs = _states()
    spec = AttackSpec(attacked=frozenset({2}), kind="bias", offset=(9.0, 0.0), start=2)
    state = AttackState(spec)
    for t in range(2):
        frame = _clean_frame(xs, spec=spec, state=state, t=t)
        assert np.array_equal(frame.y_abs[1], xs[1])
        assert frame.attack_norms[1] == 0.0
    frame = _clean_frame(xs, spec=spec, state=state, t=2)
    assert np.array_equal(frame.y_abs[1], xs[1] + np.array([9.0, 0.0]))


def _dyadic_states(n=5, seed=0):
    """States whose coordinates are multiples of 1/64: chained float sums and
    differences on them are exact, so equality checks can be bitwise."""
    rng = np.random.default_rng(seed)
    return rng.integers(-2**18, 2**18, size=(n, 2)).astype(float) / 64.0


@pytest.mark.parametrize("start, per_sensor", [
    (0, None), (1, None), (3, None), (0, {4: {"start": 2}}),
], ids=["start0", "start1", "start3", "per-sensor-start2"])
def test_dos_attack_freezes_the_start_reading(start, per_sensor):
    """A DoS sensor reads honestly up to its own start step and from the
    next step on re-emits the reading it logged at the start step."""
    spec = AttackSpec(attacked=frozenset({4}), kind="dos", start=start, per_sensor=per_sensor)
    onset = spec.knob(4, "start")
    state = AttackState(spec)
    held = None
    for t in range(onset + 4):
        xs = _dyadic_states(seed=t) + t * 16.0  # platoon keeps moving
        frame = _clean_frame(xs, spec=spec, state=state, t=t)
        if t < onset:
            assert np.array_equal(frame.y_abs[3], xs[3])
        elif t == onset:
            held = frame.y_abs[3].copy()
            assert np.array_equal(held, xs[3])  # hold begins with the honest reading
        else:
            assert np.array_equal(frame.y_abs[3], held)
            assert state.emitted[4][t] == state.emitted[4][onset]


def test_replay_attack_reemits_lagged_recordings():
    spec = AttackSpec(attacked=frozenset({1}), kind="replay", record_len=3)
    state = AttackState(spec)
    frames = []
    for t in range(6):
        xs = _dyadic_states(seed=100 + t)
        frames.append(_clean_frame(xs, spec=spec, state=state, t=t))
    # warm-up: until the recording is long enough the sensor stays honest
    for t in range(3):
        assert np.array_equal(frames[t].y_abs[0], _dyadic_states(seed=100 + t)[0])
    for t in range(3, 6):
        assert np.array_equal(frames[t].y_abs[0], frames[t - 3].y_abs[0])


def test_random_attack_is_state_proportional_and_reproducible():
    xs = _states(seed=8)
    spec = AttackSpec(attacked=frozenset({3}), kind="random", scale=2.5)
    frame = _clean_frame(xs, spec=spec, state=AttackState(spec), seed=314)
    w = stream_rng(314, 0, 0, 0, prng.STREAM_ATTACK).standard_normal() * 2.5
    assert np.array_equal(frame.y_abs[2], xs[2] + w * xs[2])
    assert frame.attack_norms[2] == pytest.approx(abs(w) * math.hypot(*xs[2]), rel=1e-15)


# --------------------------------------------------------------------------
# chained reconstruction
# --------------------------------------------------------------------------

def test_reconstruct_absolute_identity_and_neighborhood_guard():
    frame = _clean_frame(_states())
    assert np.array_equal(reconstruct_absolute(frame, 3, 3, TOPO5), frame.y_abs[2])
    with pytest.raises(ValueError):
        reconstruct_absolute(frame, 1, 5, TOPO5)  # 5 is outside vehicle 1's window


def test_reconstruct_absolute_noise_free_recovers_exact_state():
    xs = np.arange(10, dtype=float).reshape(5, 2) * 16.0  # dyadic, sums exact
    frame = _clean_frame(xs)
    for i in TOPO5.vehicles():
        for j in sorted(TOPO5.local_group(i)):
            assert np.array_equal(reconstruct_absolute(frame, i, j, TOPO5), xs[i - 1])


def test_reconstruct_absolute_carries_the_source_attack_only():
    xs = np.arange(10, dtype=float).reshape(5, 2) * 8.0
    spec = AttackSpec(attacked=frozenset({2}), kind="bias", offset=(16.0, -8.0))
    frame = _clean_frame(xs, spec=spec, state=AttackState(spec))
    for i in TOPO5.vehicles():
        for j in sorted(TOPO5.local_group(i)):
            want = xs[i - 1] + (np.array([16.0, -8.0]) if j == 2 else 0.0)
            assert np.array_equal(reconstruct_absolute(frame, i, j, TOPO5), want)


def test_reconstruction_error_grows_with_chain_length():
    """With noise, the reconstruction error stays within (|i-j|+1) noise radii."""
    rng = np.random.default_rng(21)
    mu = 0.3
    for trial in range(50):
        xs = rng.normal(size=(5, 2)) * 200.0
        frame = _clean_frame(xs, mu=mu, seed=1000 + trial)
        for i in TOPO5.vehicles():
            for j in sorted(TOPO5.local_group(i)):
                err = float(np.hypot(*(reconstruct_absolute(frame, i, j, TOPO5) - xs[i - 1])))
                assert err <= (abs(i - j) + 1) * mu + 1e-9


def test_chain_sum_agrees_with_prefix_differences():
    """Two routes to the same chained offset: direct slice summation and the
    cached prefix array.  Exact on integer-valued readings, tiny float
    reassociation otherwise."""
    xs_int = np.arange(10, dtype=float).reshape(5, 2) * 4.0
    frame = _clean_frame(xs_int)
    pref = frame.rel_prefix
    for lo in range(2, 6):
        for hi in range(lo, 6):
            assert np.array_equal(chain_sum(frame, lo, hi), pref[hi - 1] - pref[lo - 2])

    frame = _clean_frame(_states(seed=4), mu=0.2, seed=88)
    pref = frame.rel_prefix
    for lo in range(2, 6):
        for hi in range(lo, 6):
            assert chain_sum(frame, lo, hi) == pytest.approx(
                pref[hi - 1] - pref[lo - 2], abs=1e-12)


def test_rel_prefix_is_the_running_sum_of_gap_readings():
    frame = _clean_frame(_states(seed=6), mu=0.1, seed=12)
    pref = frame.rel_prefix
    assert np.array_equal(pref[0], np.zeros(2))
    run = np.zeros(2)
    for k, row in enumerate(frame.y_rel, start=1):
        run = run + row
        assert pref[k] == pytest.approx(run, rel=1e-12, abs=1e-15)


def test_stack_measurements_layout_and_values():
    frame = _clean_frame(_states(seed=2), mu=0.15, seed=5)
    stacked = stack_measurements(frame, 3, TOPO5)
    assert stacked.labels == (1, 2, 3, 4, 5)
    assert stacked.blocks.shape == (5, 2)
    for row, j in zip(stacked.blocks, stacked.labels):
        assert np.array_equal(row, reconstruct_absolute(frame, 3, j, TOPO5))


def test_stack_measurements_interior_only_window():
    topo7 = core.Topology.build(7, 2)
    frame = _clean_frame(_states(n=7, seed=3))
    stacked = stack_measurements(frame, 4, topo7)
    assert stacked.labels == (2, 3, 4, 5, 6)


def test_estimate_based_measurement_offsets_a_neighbor_prediction():
    frame = _clean_frame(_states(seed=14), mu=0.1, seed=31)
    x_bar_j = np.array([123.0, 4.5])
    assert np.array_equal(estimate_based_measurement(x_bar_j, frame, 4, 4), x_bar_j)
    pref = frame.rel_prefix
    got = estimate_based_measurement(x_bar_j, frame, 5, 3)
    assert np.array_equal(got, x_bar_j + (pref[4] - pref[2]))
    got = estimate_based_measurement(x_bar_j, frame, 1, 3)
    assert np.array_equal(got, x_bar_j + (pref[0] - pref[2]))
