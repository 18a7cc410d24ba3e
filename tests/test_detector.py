"""Tests for the sensor-attack detection rules.

The step function is cross-checked against a straight-line reimplementation
of its decision semantics on randomized inputs, so the fast path in the
production version can never silently diverge from the written-out rules.
"""

import math
import operator

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from oracles import split_suspicious
from platoonsec import sensing
from platoonsec.core import DetectionSets, InconsistentSetsError, Topology, fuse_sets
from platoonsec.detector import (
    DetectorStepResult,
    detector_step,
    innovation_check,
    min_attacked_count,
    pairwise_check,
    row_detector,
    saturation_check,
)

EMPTY = DetectionSets.empty()
NORM_A = 1.0050124999218761
Z = np.zeros(2)


def _step(i, fused, *, y_rel=Z, y_front=Z, y_own=Z, x_bar=Z,
          bound=1.0, n=5, b=1, mu=0.1, eps=0.1):
    return detector_step(i, fused, y_rel, y_front, y_own, x_bar,
                         bound, n, b, mu, eps, NORM_A)


# --------------------------------------------------------------------------
# individual checks
# --------------------------------------------------------------------------

def test_pairwise_check_fires_strictly_beyond_three_noise_radii():
    mu = 0.1
    assert not pairwise_check(np.array([0.3, 0.0]), Z, Z, mu)        # exactly 3 mu
    assert not pairwise_check(np.array([0.3 + 1e-13, 0.0]), Z, Z, mu)  # inside slack
    assert pairwise_check(np.array([0.3001, 0.0]), Z, Z, mu)
    assert pairwise_check(np.array([0.0, -0.31]), Z, Z, mu)
    # the three readings enter as rel + front - own
    assert not pairwise_check(np.array([-5.0, 0.0]), np.array([12.0, 0.0]),
                              np.array([7.0, 0.0]), mu)


def test_pairwise_check_never_fires_on_attack_free_readings():
    rng = np.random.default_rng(7)
    mu = 0.25
    for _ in range(300):
        x_front = rng.normal(size=2) * 100.0
        x_own = rng.normal(size=2) * 100.0
        y_rel = (x_own - x_front) + sample(rng, mu)
        assert not pairwise_check(y_rel, x_front + sample(rng, mu),
                                  x_own + sample(rng, mu), mu)


def test_innovation_check_threshold_includes_the_propagated_bound():
    thr = 0.1 + 0.1 + NORM_A * 2.0
    assert not innovation_check(np.array([thr, 0.0]), Z, 2.0, 0.1, 0.1, NORM_A)
    assert innovation_check(np.array([thr + 1e-6, 0.0]), Z, 2.0, 0.1, 0.1, NORM_A)
    # a larger bound absorbs the same deviation
    assert not innovation_check(np.array([thr + 1e-6, 0.0]), Z, 2.1, 0.1, 0.1, NORM_A)


def test_innovation_check_never_fires_on_attack_free_readings():
    rng = np.random.default_rng(8)
    eps, mu = 0.1, 0.2
    for _ in range(300):
        x = rng.normal(size=2) * 100.0
        bound = float(rng.uniform(0.0, 5.0))
        drift = sample(rng, 0.999 * (eps + NORM_A * bound))
        assert not innovation_check(x + sample(rng, mu), x - drift, bound,
                                    eps, mu, NORM_A)


def sample(rng, bound):
    return sensing.sample_noise(rng, bound, 1)[0]


# --------------------------------------------------------------------------
# counting rules
# --------------------------------------------------------------------------

def test_split_suspicious_groups_consecutive_runs():
    got = split_suspicious({1, 2, 3, 6, 9, 10, 11, 12, 15})
    assert got == [(1, 2, 3), (6,), (9, 10, 11, 12), (15,)]
    assert split_suspicious([]) == []
    assert split_suspicious([4]) == [(4,)]
    assert split_suspicious([5, 3, 4]) == [(3, 4, 5)]  # order-insensitive


def test_min_attacked_count_pinned_and_against_run_arithmetic():
    assert min_attacked_count({1, 2, 3, 6, 9, 10, 11, 12, 15}) == 5
    assert min_attacked_count([]) == 0
    assert min_attacked_count({4}) == 1
    assert min_attacked_count({4, 5}) == 1   # one attack can smear both ways
    assert min_attacked_count({4, 5, 6}) == 1
    assert min_attacked_count({4, 5, 6, 7}) == 2
    rng = np.random.default_rng(9)
    for _ in range(300):
        s = {int(v) for v in rng.choice(20, size=rng.integers(0, 12), replace=False)}
        want = sum(math.ceil(len(run) / 3) for run in split_suspicious(s))
        assert min_attacked_count(s) == want


def test_saturation_check_compares_against_the_budget():
    assert saturation_check({3}, 1)
    assert saturation_check({3, 4}, 1)
    assert not saturation_check({2, 5}, 1)
    assert saturation_check({2, 5}, 2)
    assert saturation_check(set(), 0)
    assert not saturation_check(set(), 1)


# --------------------------------------------------------------------------
# step function, hand-traced
# --------------------------------------------------------------------------

def test_quiet_step_returns_the_fused_sets_object():
    res = _step(2, EMPTY)
    assert res.sets is EMPTY
    assert res == DetectorStepResult(EMPTY, False, False, False, False)


def test_settled_detection_keeps_reporting_the_counting_flags():
    done = DetectionSets(frozenset({1, 2, 4, 5}), frozenset({3}), frozenset())
    res = _step(4, done)
    assert res.sets is done
    assert (res.pairwise, res.innovation) == (False, False)
    assert res.exhaustion and res.completion


def test_gap_alarm_with_trusted_own_sensor_convicts_the_front():
    sets = DetectionSets(frozenset({3}), frozenset(), frozenset())
    res = _step(3, sets, y_rel=np.array([10.0, 0.0]))
    assert res.sets == DetectionSets(frozenset({1, 3, 4, 5}), frozenset({2}), frozenset())
    assert (res.pairwise, res.innovation, res.exhaustion, res.completion) == (
        True, False, True, True)


def test_gap_alarm_with_trusted_front_sensor_convicts_the_own():
    sets = DetectionSets(frozenset({2}), frozenset(), frozenset())
    res = _step(3, sets, y_rel=np.array([10.0, 0.0]))
    assert res.sets == DetectionSets(frozenset({1, 2, 4, 5}), frozenset({3}), frozenset())
    assert res.pairwise and not res.innovation


def test_gap_alarm_without_an_anchor_suspects_the_pair():
    res = _step(3, EMPTY, y_rel=np.array([10.0, 0.0]), b=2)
    assert res.sets == DetectionSets(frozenset(), frozenset(), frozenset({2, 3}))
    assert (res.pairwise, res.innovation, res.exhaustion, res.completion) == (
        True, False, False, False)


def test_own_sensor_alarm_confirms_and_completes_under_budget_one():
    res = _step(1, EMPTY, y_own=np.array([50.0, 0.0]))
    assert res.sets == DetectionSets(frozenset({2, 3, 4, 5}), frozenset({1}), frozenset())
    assert (res.pairwise, res.innovation, res.exhaustion, res.completion) == (
        False, True, True, True)


def test_exhausted_budget_clears_everyone_unsuspected():
    fused = DetectionSets(frozenset(), frozenset(), frozenset({3}))
    res = _step(2, fused)
    # blame is pinned but not yet attributed: 3 stays suspected, others clear
    assert res.sets == DetectionSets(frozenset({1, 2, 4, 5}), frozenset(), frozenset({3}))
    assert (res.pairwise, res.innovation, res.exhaustion, res.completion) == (
        False, False, True, False)


def test_completed_budget_clears_everyone_else():
    fused = DetectionSets(frozenset(), frozenset({3}), frozenset())
    res = _step(2, fused)
    assert res.sets == DetectionSets(frozenset({1, 2, 4, 5}), frozenset({3}), frozenset())
    assert res.exhaustion and res.completion


def test_confirmed_front_sensor_suppresses_the_gap_test():
    fused = DetectionSets(frozenset(), frozenset({2}), frozenset())
    res = _step(3, fused, y_rel=np.array([10.0, 0.0]))
    assert not res.pairwise  # alarm explained by the known attack
    assert res.sets == DetectionSets(frozenset({1, 3, 4, 5}), frozenset({2}), frozenset())


def test_trusted_own_sensor_skips_the_innovation_test():
    sets = DetectionSets(frozenset({2}), frozenset(), frozenset())
    res = _step(2, sets, y_rel=np.array([50.0, 0.0]), y_own=np.array([50.0, 0.0]))
    assert res.sets is sets
    assert res == DetectorStepResult(sets, False, False, False, False)


def test_more_confirmed_attacks_than_budget_is_fatal():
    fused = DetectionSets(frozenset(), frozenset({2, 3}), frozenset())
    with pytest.raises(InconsistentSetsError):
        _step(4, fused)


def test_over_budget_error_names_the_confirmed_sensors():
    fused = DetectionSets(frozenset(), frozenset({2, 4}), frozenset())
    with pytest.raises(InconsistentSetsError, match="more than the budget") as info:
        _step(5, fused, y_own=np.array([50.0, 0.0]), b=2)
    assert "[2, 4, 5]" in str(info.value)


def test_equal_bias_on_adjacent_sensors_evades_the_gap_test():
    """Shifting both absolute sensors of a pair by the same offset leaves the
    secured gap reading consistent: only the pairs straddling the attack
    boundary can see it."""
    xs = np.arange(10, dtype=float).reshape(5, 2) * 8.0
    spec = sensing.AttackSpec(attacked=frozenset({2, 3}), kind="bias",
                              offset=(7.0, 0.0))
    frame = sensing.measure(xs, spec, 0.0, sensing.AttackState(spec), 0, None, None)
    assert not pairwise_check(frame.y_rel[1], frame.y_abs[1], frame.y_abs[2], 0.0)
    assert pairwise_check(frame.y_rel[0], frame.y_abs[0], frame.y_abs[1], 0.0)
    assert pairwise_check(frame.y_rel[2], frame.y_abs[2], frame.y_abs[3], 0.0)


# --------------------------------------------------------------------------
# step function against a written-out reference
# --------------------------------------------------------------------------

def _reference_step(i, fused, y_rel_own, y_abs_front, y_abs_own, x_bar_own,
                    bound_prev, n, b, mu, eps, norm_A):
    """The detection rules, restated without any shortcuts."""
    trusted = set(fused.trusted)
    attacked = set(fused.attacked)
    suspected = set(fused.suspected)

    fired_pair = False
    if i >= 2 and i not in attacked and (i - 1) not in attacked:
        g0 = y_rel_own[0] + y_abs_front[0] - y_abs_own[0]
        g1 = y_rel_own[1] + y_abs_front[1] - y_abs_own[1]
        fired_pair = math.hypot(g0, g1) - 1e-12 > 3.0 * mu
    if fired_pair:
        if i in trusted:
            attacked.add(i - 1)
        elif (i - 1) in trusted:
            attacked.add(i)
        else:
            suspected.add(i - 1)
            suspected.add(i)

    fired_inno = False
    if i not in attacked and i not in trusted:
        d0 = y_abs_own[0] - x_bar_own[0]
        d1 = y_abs_own[1] - x_bar_own[1]
        if math.hypot(d0, d1) - 1e-12 > eps + mu + norm_A * bound_prev:
            fired_inno = True
            attacked.add(i)

    everyone = set(range(1, n + 1))
    fired_exh = sum(math.ceil(len(r) / 3)
                    for r in split_suspicious(suspected | attacked)) == b
    if fired_exh:
        trusted |= everyone - suspected - attacked
    fired_comp = len(attacked) == b
    if fired_comp:
        trusted = everyone - attacked
    if len(attacked) > b:
        raise InconsistentSetsError("budget exceeded")
    sets = DetectionSets(frozenset(trusted), frozenset(attacked),
                         frozenset(suspected - attacked - trusted))
    return sets, fired_pair, fired_inno, fired_exh, fired_comp


def _random_sets(rng, n):
    pool = list(range(1, n + 1))
    rng.shuffle(pool)
    n_att = int(rng.choice([0, 0, 0, 1, 1, 2, 3]))
    attacked = set(pool[:n_att])
    rest = pool[n_att:]
    trusted = set(rest[:int(rng.integers(0, n - n_att + 1))])
    suspected = {int(v) for v in rng.choice(pool, size=int(rng.integers(0, 4)),
                                            replace=False)} - attacked
    # suspected may overlap trusted: fused views of divergent neighbours do
    return DetectionSets(frozenset(trusted), frozenset(attacked), frozenset(suspected))


def _targeted_vector(rng, target_norm):
    theta = float(rng.uniform(0.0, 2.0 * np.pi))
    return np.array([math.cos(theta), math.sin(theta)]) * target_norm


def _residual_norm(rng, threshold):
    roll = rng.uniform()
    if roll < 0.4:
        return float(rng.uniform(0.0, 0.9)) * threshold
    if roll < 0.8:
        return float(rng.uniform(1.1, 5.0)) * threshold
    return threshold + float(rng.uniform(-1e-9, 1e-9))  # razor edge


def test_detector_step_matches_the_reference_on_randomized_inputs():
    rng = np.random.default_rng(20260823)
    n, b = 7, 2
    seen = {"pair": 0, "inno": 0, "exh": 0, "comp": 0, "raise": 0, "fast": 0}
    for _ in range(1500):
        mu = float(rng.uniform(0.02, 0.3))
        eps = float(rng.uniform(0.02, 0.3))
        bound = float(rng.uniform(0.0, 4.0))
        i = int(rng.integers(1, n + 1))
        fused = _random_sets(rng, n)

        y_front = rng.normal(size=2) * 50.0
        y_own = rng.normal(size=2) * 50.0
        y_rel = _targeted_vector(rng, _residual_norm(rng, 3.0 * mu)) - y_front + y_own
        x_bar = y_own - _targeted_vector(
            rng, _residual_norm(rng, eps + mu + NORM_A * bound))

        args = (i, fused, y_rel, y_front, y_own, x_bar, bound, n, b, mu, eps, NORM_A)
        try:
            res = detector_step(*args)
            got = (res.sets.trusted, res.sets.attacked, res.sets.suspected,
                   res.pairwise, res.innovation, res.exhaustion, res.completion)
        except InconsistentSetsError:
            got = "raise"
        try:
            ref = _reference_step(*args)
            want = (ref[0].trusted, ref[0].attacked, ref[0].suspected,
                    ref[1], ref[2], ref[3], ref[4])
        except InconsistentSetsError:
            want = "raise"
        assert got == want

        if got == "raise":
            seen["raise"] += 1
            continue
        seen["pair"] += res.pairwise
        seen["inno"] += res.innovation
        seen["exh"] += res.exhaustion
        seen["comp"] += res.completion
        if res.sets is fused:
            seen["fast"] += 1
            # the object shortcut may only stand in for a genuine fixed point
            assert (res.pairwise, res.innovation) == (False, False)
        elif (not any((res.pairwise, res.innovation, res.exhaustion, res.completion))
              and res.sets == fused):
            pytest.fail("quiet step with unchanged sets must return the fused object")
    assert all(seen.values()), f"fuzz failed to reach every branch: {seen}"


# --------------------------------------------------------------------------
# one run's detector step against fusion and detection per vehicle
# --------------------------------------------------------------------------

_FLOAT = st.floats(-3.0, 3.0)
#: a residual off a reading: none, or one that may fire a test
_OFFSET = st.one_of(st.just((0.0, 0.0)), st.tuples(_FLOAT, _FLOAT))


@st.composite
def _detector_runs(draw):
    """A platoon of 5 to 9 vehicles with its budget and noise radii, and up
    to six steps of float rows: predictions, bounds, and absolute and gap
    readings that miss the prediction and the front reading by drawn
    residuals."""
    n = draw(st.integers(5, 9))
    topo = Topology.build(n, draw(st.integers(1, 2)))
    b, mu, eps = draw(st.integers(1, 2)), draw(st.floats(0.01, 1.0)), draw(st.floats(0.01, 1.0))
    rows = st.lists(_OFFSET, min_size=n, max_size=n)
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        x_bar = draw(st.lists(st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
                              min_size=n, max_size=n))
        y_abs = [(s + ds, v + dv) for (s, v), (ds, dv) in zip(x_bar, draw(rows))]
        y_rel = [(own[0] - front[0] + ds, own[1] - front[1] + dv)
                 for front, own, (ds, dv) in zip(y_abs, y_abs[1:], draw(rows))]
        alpha = draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n))
        steps.append((y_abs, y_rel, x_bar, alpha))
    return topo, b, mu, eps, steps


@settings(max_examples=150, deadline=None)
@given(case=_detector_runs())
def test_row_detector_matches_fusion_and_detector_step_per_vehicle(case):
    """Per step, every vehicle fuses the previous step's sets and runs
    ``detector_step`` without its memo: the run's detector gives the same
    sets and flag rows, one object per sets value over the run, and the
    last step's tuple exactly when none of its entries changed; a clash
    names its step and vehicle."""
    topo, b, mu, eps, steps = case
    n = topo.N
    sets, fired, detect_rows = row_detector(topo, fuse_sets, b, mu, eps, NORM_A)
    assert sets == (EMPTY,) * n and fired == ((False,) * 4,) * n
    want = sets
    held = list(sets)  # kept alive, so ids stay unique
    for t, (y_abs, y_rel, x_bar, alpha) in enumerate(steps, 1):
        rows, flags = [], []
        try:
            for i in topo.vehicles():
                fused = fuse_sets(want[i - 1], tuple(want[j - 1]
                                                     for j in sorted(topo.neighbors[i])))
                res = detector_step(i, fused, y_rel[i - 2] if i >= 2 else None,
                                    y_abs[i - 2] if i >= 2 else None, y_abs[i - 1],
                                    x_bar[i - 1], alpha[i - 1], n, b, mu, eps, NORM_A,
                                    memo=None)
                rows.append(res.sets)
                flags.append((res.pairwise, res.innovation, res.exhaustion, res.completion))
        except InconsistentSetsError:
            event("clash")
            with pytest.raises(InconsistentSetsError, match=rf"^step {t}, vehicle {i}: "):
                detect_rows(t, y_abs, y_rel, x_bar, alpha)
            break
        last_sets, last_fired = sets, fired
        sets, fired = detect_rows(t, y_abs, y_rel, x_bar, alpha)
        want = tuple(rows)
        assert sets == want and fired == tuple(flags)
        assert (sets is last_sets) == all(map(operator.is_, sets, last_sets))
        assert (fired is last_fired) == (fired == last_fired)
        event(f"sets kept: {sets is last_sets}, flags kept: {fired is last_fired}")
        held.extend(sets)
    assert len({id(s) for s in held}) == len(set(held))
