"""Tests for the counter-based random streams.

Every draw site is addressed by (seed, run, t, vehicle, stream); the cached
RunRandom front end must reproduce, bit for bit, what a freshly constructed
generator at the same address produces.
"""

import numpy as np
import pytest

from conftest import baseline_doc
from oracles import stream_rng
from platoonsec import harness, sensing, rng as prng
from platoonsec.core import load_scenario


def test_stream_rng_is_deterministic():
    a = stream_rng(42, 0, 7, 3, 1).uniform(size=8)
    b = stream_rng(42, 0, 7, 3, 1).uniform(size=8)
    assert np.array_equal(a, b)


def test_stream_rng_separates_every_key_component():
    base = stream_rng(42, 0, 7, 3, 1).uniform(size=8)
    for other in [(43, 0, 7, 3, 1), (42, 1, 7, 3, 1), (42, 0, 8, 3, 1),
                  (42, 0, 7, 4, 1), (42, 0, 7, 3, 2)]:
        assert not np.array_equal(base, stream_rng(*other).uniform(size=8))


def test_run_random_matches_reference_generator_bitwise():
    rr = prng.RunRandom(20260823, 5)
    sites = [(0, 0, 0), (1, 0, 1), (1, 0, 2), (17, 4, 1), (500, 0, 0), (17, 4, 1)]
    for t, vehicle, stream in sites:
        got = rr.at(t, vehicle, stream).uniform(size=11)
        want = stream_rng(20260823, 5, t, vehicle, stream).uniform(size=11)
        assert np.array_equal(got, want)


def test_run_random_matches_reference_for_normal_draws():
    rr = prng.RunRandom(99, 0)
    got = rr.at(3, 2, 2).standard_normal(7)
    want = stream_rng(99, 0, 3, 2, 2).standard_normal(7)
    assert np.array_equal(got, want)


def test_run_random_repositioning_is_stateless():
    """Revisiting a site after other draws must replay the same numbers."""
    rr = prng.RunRandom(7, 1)
    first = rr.at(10, 0, 1).uniform(size=5)
    rr.at(11, 0, 0).uniform(size=100)  # unrelated traffic
    rr.process(12).standard_normal(3)
    again = rr.at(10, 0, 1).uniform(size=5)
    assert np.array_equal(first, again)


def test_stream_helpers_map_to_the_documented_streams():
    rr = prng.RunRandom(1234, 2)
    assert np.array_equal(rr.process(9).uniform(size=4),
                          stream_rng(1234, 2, 9, 0, prng.STREAM_PROCESS).uniform(size=4))
    assert np.array_equal(rr.measurement(9).uniform(size=4),
                          stream_rng(1234, 2, 9, 0, prng.STREAM_MEASURE).uniform(size=4))
    assert np.array_equal(rr.attack(9).uniform(size=4),
                          stream_rng(1234, 2, 9, 0, prng.STREAM_ATTACK).uniform(size=4))


def test_streams_are_order_independent_across_runs():
    """Run k's draws do not depend on whether other runs executed first."""
    lone = prng.RunRandom(55, 3).at(2, 1, 1).uniform(size=6)
    prng.RunRandom(55, 0).at(2, 1, 1).uniform(size=6)
    prng.RunRandom(55, 1).at(9, 0, 0).uniform(size=60)
    assert np.array_equal(prng.RunRandom(55, 3).at(2, 1, 1).uniform(size=6), lone)


@pytest.mark.parametrize("attacked, stream", [([3], prng.STREAM_ATTACK),
                                              ([], prng.STREAM_MEASURE)])
def test_run_draws_measurement_noise_at_the_attack_site_when_attacked(
        monkeypatch, attacked, stream):
    """With an attack set, the measurement noise and the random attack share
    one generator, positioned at ``(seed, run, t, 0, STREAM_ATTACK)``; only
    attack-free runs draw their noise at the ``STREAM_MEASURE`` site."""
    seen = []
    measure = sensing.measure

    def spy(x, mu, state, t, rng):
        counter = rng.bit_generator.state["state"]["counter"].tolist()
        seen.append((t, counter))
        return measure(x, mu, state, t, rng)

    monkeypatch.setattr(sensing, "measure", spy)
    attack = {"set": attacked, "kind": "random", "params": {"scale": 1.0}}
    harness.run_simulation(load_scenario(baseline_doc(horizon=4, attack=attack)))
    assert seen == [(t, [0, t, 0, stream]) for t in range(5)]


@pytest.mark.parametrize("seed, run, t", [(2 ** 64 - 1, 2 ** 64 - 1, 2 ** 64 - 1),
                                          (-1, 3, 2 ** 32), (0, 0, 2 ** 32 + 5),
                                          (20260823, 2 ** 63, 7)])
def test_run_random_matches_reference_at_extreme_keys_and_after_a_dirty_buffer(seed, run, t):
    """Every site of every stream starts fresh: uniform and normal draws
    equal a new generator's at keys and counters up to 2**64 - 1, also right
    after draws that left a partly used buffer and a cached uint32."""
    rr = prng.RunRandom(seed, run)
    for stream in (prng.STREAM_PROCESS, prng.STREAM_MEASURE, prng.STREAM_ATTACK):
        for vehicle in (0, 2 ** 64 - 1):
            got = rr.at(t, vehicle, stream)
            assert np.array_equal(got.uniform(size=5),
                                  stream_rng(seed, run, t, vehicle, stream).uniform(size=5))
            got.random()
            got.integers(0, 2 ** 32, dtype=np.uint32)
            state = got.bit_generator.state
            assert state["has_uint32"] == 1 and state["buffer_pos"] < 4
            assert np.array_equal(rr.at(t, vehicle, stream).standard_normal(6),
                                  stream_rng(seed, run, t, vehicle, stream).standard_normal(6))


@pytest.mark.parametrize("attacked, noise, sites", [
    ([3], 0.1, (prng.STREAM_PROCESS, prng.STREAM_ATTACK)),
    ([], 0.1, (prng.STREAM_PROCESS, prng.STREAM_MEASURE)),
    ([3], 0.0, (prng.STREAM_ATTACK,)),
    ([], 0.0, ()),
])
def test_run_positions_the_generator_once_per_draw_site_per_step(monkeypatch, attacked,
                                                                 noise, sites):
    """A step repositions the generator once per site it draws from: the
    process noise, then the attack site, or the measurement site in an
    attack-free run; step 0 draws no process noise."""
    seen = []
    at = prng.RunRandom.at

    def spy(self, t, vehicle, stream):
        seen.append((t, vehicle, stream))
        return at(self, t, vehicle, stream)

    monkeypatch.setattr(prng.RunRandom, "at", spy)
    attack = {"set": attacked, "kind": "random", "params": {"scale": 1.0}}
    harness.run_simulation(load_scenario(baseline_doc(horizon=4, attack=attack,
                                                      epsilon=noise, mu=noise)))
    want = [(t, 0, s) for t in range(5) for s in sites
            if t > 0 or s != prng.STREAM_PROCESS]
    assert seen == want
