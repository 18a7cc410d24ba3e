"""Tests for the resilient observers, their error-bound recursions, and the
saturation-threshold design."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import baseline_doc
from oracles import (feasibility_check, local_counts, saturated_window_update, saturation_gain,
                     stream_rng)
from platoonsec import core, observer, sensing
from platoonsec.core import ConfigError, DetectionSets, Topology
from platoonsec.dynamics import plant_norm
from platoonsec.observer import (
    DEFAULT_OMEGA_GRID,
    InfeasibleBoundError,
    InfeasibleThresholdError,
    ObserverParams,
    asymptotic_bounds_adaptive,
    asymptotic_bounds_static,
    design_threshold,
    feasible_omegas,
    lambda_update,
    measurement_update_v1,
    measurement_update_v2,
    nearest_trusted,
    rho_update,
    static_threshold_interval,
    tau_update,
)

TOPO5 = Topology.build(5, 2)
EMPTY = DetectionSets.empty()


def _params(**overrides):
    from platoonsec.core import load_scenario
    cfg = load_scenario(baseline_doc())
    p = ObserverParams.from_config(cfg)
    if overrides:
        import dataclasses
        p = dataclasses.replace(p, **overrides)
    return p


# --------------------------------------------------------------------------
# scalar parameters
# --------------------------------------------------------------------------

def test_params_from_baseline_config():
    p = _params()
    assert p.L == 2 and p.b == 1 and p.q == 300.0
    assert p.mu_bar == 0.30000000000000004  # (L+1) chained noise radii
    assert p.beta_max == 301.9037499765629
    assert p.contraction == 0.9950372516297601
    assert p.beta_max == pytest.approx(p.norm_A * p.q + p.eps + (p.L + 1) * p.mu, rel=1e-14)
    assert p.contraction == pytest.approx((p.varpi - 1.0) * p.norm_A / p.varpi, rel=1e-14)
    assert 0.0 < p.contraction < 1.0


def test_params_reject_varpi_outside_open_interval():
    with pytest.raises(ConfigError):
        _params(varpi=1.0)
    with pytest.raises(ConfigError):
        _params(varpi=1000.0)


# --------------------------------------------------------------------------
# observer updates
# --------------------------------------------------------------------------

def test_step_rows_matches_plant_prediction():
    from platoonsec import dynamics
    got = dynamics.step_rows([(12.0, -3.0)], [7.0], 0.01)
    assert got == [(12.0 + 0.01 * -3.0, -3.0 + 0.01 * 7.0)]


def test_saturation_gain_cases():
    sets = DetectionSets(frozenset({1}), frozenset({5}), frozenset({4}))
    big = np.array([30.0, 40.0])  # norm 50
    assert saturation_gain(big, 5, sets, beta=10.0) == 0.0   # attacked: ignored
    assert saturation_gain(big, 1, sets, beta=10.0) == 1.0   # trusted: full gain
    assert saturation_gain(big, 4, sets, beta=10.0) == 0.2   # clipped to beta/norm
    assert saturation_gain(np.array([3.0, 4.0]), 4, sets, beta=10.0) == 1.0
    # zero innovation passes at full gain even with a zero threshold
    assert saturation_gain(np.zeros(2), 2, sets, beta=0.0) == 1.0


def test_measurement_update_v1_equals_saturation_gain_composition():
    """The incremental update must be bitwise the textbook composition:
    prediction plus the average of gain-weighted innovations."""
    rng = np.random.default_rng(42)
    frame_states = rng.normal(size=(5, 2)) * 150.0
    spec = sensing.AttackSpec(attacked=frozenset(), kind="bias")
    for trial in range(200):
        mu = float(rng.uniform(0.0, 0.4))
        frame = sensing.measure(frame_states, spec, mu,
                                sensing.AttackState(spec), 0,
                                stream_rng(trial, 0, 0, 0, 1) if mu else None, None)
        stacked = sensing.stack_measurements(frame, 3, TOPO5)
        labels = set(stacked.labels)
        att = {int(v) for v in rng.choice(sorted(labels), size=int(rng.integers(0, 2)), replace=False)}
        tru = {int(v) for v in rng.choice(sorted(labels - att), size=int(rng.integers(0, 3)), replace=False)}
        sets = DetectionSets(frozenset(tru), frozenset(att), frozenset())
        x_bar = rng.normal(size=2) * 150.0
        beta = float(rng.uniform(0.0, 60.0))

        got_x, got_g = measurement_update_v1(x_bar, stacked, sets, beta, L=2)

        c0 = c1 = 0.0
        want_g = []
        for row, sensor in zip(stacked.blocks, stacked.labels):
            eta = row - x_bar
            k = saturation_gain(eta, sensor, sets, beta)
            want_g.append(k)
            c0 += k * float(eta[0])
            c1 += k * float(eta[1])
        want_x = np.array([float(x_bar[0]) + c0 / 4.0, float(x_bar[1]) + c1 / 4.0])
        assert np.array_equal(got_x, want_x)
        assert np.array_equal(got_g, np.array(want_g))


def test_measurement_update_v1_all_trusted_recovers_mean_innovation():
    xs = np.arange(10, dtype=float).reshape(5, 2) * 16.0
    spec = sensing.AttackSpec(attacked=frozenset(), kind="bias")
    frame = sensing.measure(xs, spec, 0.0, sensing.AttackState(spec), 0, None, None)
    stacked = sensing.stack_measurements(frame, 3, TOPO5)
    sets = DetectionSets(frozenset({1, 2, 3, 4, 5}), frozenset(), frozenset())
    x_bar = np.zeros(2)
    got, gains = measurement_update_v1(x_bar, stacked, sets, beta=1.0, L=2)
    assert np.array_equal(gains, np.ones(5))
    # 2L = 4 but five full-gain sensors: deliberate 5/4 overshoot of the mean
    assert np.array_equal(got, stacked.blocks.sum(axis=0) / 4.0)


def test_measurement_update_v2_blends_toward_the_source():
    x_bar = np.array([10.0, 2.0])
    y = np.array([14.0, 0.0])
    got = measurement_update_v2(x_bar, y, varpi=4.0)
    assert np.array_equal(got, np.array([11.0, 1.5]))
    # varpi -> 1 would copy the source, large varpi trusts the prediction
    assert np.array_equal(measurement_update_v2(x_bar, y, varpi=1.0), y)


def test_nearest_trusted_prefers_interior_then_cleared_neighbors():
    assert nearest_trusted(1, EMPTY, TOPO5) == 3
    assert nearest_trusted(5, EMPTY, TOPO5) == 3
    # a cleared own-sensor neighbour at the same distance wins the tie by index
    sets = DetectionSets(frozenset({1, 3}), frozenset(), frozenset())
    assert nearest_trusted(2, sets, TOPO5) == 1
    sets = DetectionSets(frozenset({5}), frozenset(), frozenset())
    assert nearest_trusted(4, sets, TOPO5) == 3
    # trust beyond the neighbourhood is unusable: no chain readings that far
    sets = DetectionSets(frozenset({5}), frozenset(), frozenset())
    assert nearest_trusted(1, sets, TOPO5) == 3


def test_nearest_trusted_fails_loudly_without_candidates():
    lonely = Topology(N=2, L=1, v1=frozenset(), v2=frozenset({1, 2}),
                      neighbors={1: frozenset(), 2: frozenset()})
    with pytest.raises(ConfigError):
        nearest_trusted(1, EMPTY, lonely)


# --------------------------------------------------------------------------
# batched interior pass against the per-vehicle functions
# --------------------------------------------------------------------------

def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _assert_pass_matches_per_vehicle(p, thr, x_bar, y_abs, y_rel, sets, rho):
    """``interior_rows`` equals beta_at -> the per-window reference
    ``oracles.saturated_window_update`` -> rho_update, bit for bit, for a
    fresh memo and again for a reused memo whose sets objects changed.

    The ``update_rows`` of ``row_observer`` hands out the same interior
    rows, and each edge vehicle equals nearest_trusted -> its own reading or
    the chained surrogate ``estimate_based_measurement`` ->
    measurement_update_v2, with tau_update and lambda_update, bit for bit,
    on bounds rotated from ``rho``, from its own fresh and then reused memo."""
    n = len(x_bar)
    topo = Topology.build(n, p.L)
    frame = sensing.MeasurementFrame(t=0, y_abs=y_abs, y_rel=y_rel)
    memo = [None] * n
    update_rows = observer.row_observer(thr, p, topo)
    lam, tau, alpha = rho[1:] + rho[:1], rho[::-1], rho[2:] + rho[:2]
    for view in (sets, sets, sets[::-1]):
        _assert_edge_rows_match_per_vehicle(p, thr, x_bar, frame, view, rho, lam, tau, alpha,
                                            topo, update_rows)
        got_x, got_g, got_b, got_r = observer.interior_rows(
            x_bar.tolist(), y_abs.tolist(), frame.rel_prefix.tolist(), view, rho, thr, p,
            memo)
        want_x, want_g, want_b, want_r = [], [], [], []
        for i in sorted(topo.v1):
            k = i - 1
            bt = thr.beta_at(rho[k], p)
            xh, g = saturated_window_update(x_bar[k], frame, i, topo, view[k], bt)
            want_x.append(xh)
            want_g.append(g)
            want_b.append(bt)
            want_r.append(rho_update(rho[k], view[k], i, bt, p))
        assert _bits(got_x) == _bits(want_x)
        assert _bits(got_g) == _bits(want_g)
        assert _bits(got_b) == _bits(want_b)
        assert _bits(got_r) == _bits(want_r)


def _assert_edge_rows_match_per_vehicle(p, thr, x_bar, frame, sets, rho, lam, tau, alpha,
                                        topo, update_rows):
    n = len(x_bar)
    inner = slice(p.L, n - p.L)
    got_rho, got_lam, got_tau = list(rho), list(lam), list(tau)
    x_hat, gains, betas, got_alpha = update_rows(
        x_bar.tolist(), frame.y_abs.tolist(), frame.rel_prefix.tolist(), sets, got_rho,
        got_lam, got_tau, alpha)
    want_x, want_g, want_b, want_r = observer.interior_rows(
        x_bar.tolist(), frame.y_abs.tolist(), frame.rel_prefix.tolist(), sets, rho, thr, p,
        [None] * n)
    assert _bits(x_hat[inner]) == _bits(want_x) and _bits(gains[inner]) == _bits(want_g)
    assert _bits(betas[inner]) == _bits(want_b) and _bits(got_rho[inner]) == _bits(want_r)
    assert _bits(got_alpha[inner]) == _bits(want_r)
    for i in sorted(topo.v2):
        k = i - 1
        j = nearest_trusted(i, sets[k], topo)
        own = i in sets[k].trusted
        src = frame.y_abs[k] if own else sensing.estimate_based_measurement(
            x_bar[j - 1], frame, i, j)
        want_tau = tau_update(tau[k], abs(j - i), alpha[j - 1], p)
        want_lam = lambda_update(lam[k], p) if own else want_tau
        assert _bits(x_hat[k]) == _bits(measurement_update_v2(
            x_bar[k].tolist(), src.tolist(), p.varpi))
        assert _bits([got_tau[k], got_lam[k], got_alpha[k]]) == _bits(
            [want_tau, want_lam, want_lam])
        assert np.isnan(gains[k]).all() and len(gains[k]) == 2 * p.L + 1
        assert math.isnan(betas[k]) and _bits(got_rho[k]) == _bits(rho[k])


def _mixed_sets(rng, n):
    cls = rng.integers(0, 3, size=n)
    return DetectionSets(frozenset(int(j) + 1 for j in np.flatnonzero(cls == 1)),
                         frozenset(int(j) + 1 for j in np.flatnonzero(cls == 0)),
                         frozenset())


def test_window_terms_count_as_the_set_intersection_oracle():
    """The one window count: on random sets the gate classes behind
    ``_window_terms`` count each interior window's trusted and confirmed-
    attacked sensors as ``oracles.local_counts`` does by intersecting sets,
    and the count terms follow from those counts."""
    rng = np.random.default_rng(15)
    windows = 0
    for _ in range(200):
        L = int(rng.integers(1, 5))
        n = int(rng.integers(2 * L + 1, 41))
        p = ObserverParams(L=L, b=int(rng.integers(0, L + 1)), q=300.0, eps=0.1, mu=0.1,
                           norm_A=plant_norm(0.01), varpi=2.0)
        topo = Topology.build(n, L)
        sets = _mixed_sets(rng, n)
        for i in sorted(topo.v1):
            classes, terms = observer._window_terms(sets, i, p)
            counts = local_counts(sets, i, topo)
            assert (classes.count(observer._TRUSTED), classes.count(observer._ATTACKED),
                    len(sets.attacked)) == counts
            assert terms == observer._count_terms(*counts, p)
            windows += 1
    assert windows > 2000


@st.composite
def _interior_cases(draw):
    L = draw(st.integers(1, 4))
    n = draw(st.integers(2 * L + 1, 64))
    noise_free = draw(st.booleans())
    eps = 0.0 if noise_free else draw(st.floats(1e-3, 1.0))
    mu = 0.0 if noise_free else draw(st.floats(1e-3, 1.0))
    p = ObserverParams(L=L, b=draw(st.integers(1, 2 * L)),
                       q=draw(st.floats(1.0, 1e3)), eps=eps, mu=mu,
                       norm_A=plant_norm(draw(st.floats(0.005, 0.02))), varpi=2.0)
    beta0 = draw(st.one_of(st.just(0.0), st.floats(1e-3, 2.0 * p.beta_max)))
    thr = observer.ThresholdConfig(mode=draw(st.sampled_from(("static", "adaptive"))),
                                   beta0=beta0, k0=beta0 / p.beta_max)
    coord = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-1e3, 1e3))
    x_bar = draw(arrays(float, (n, 2), elements=coord))
    if draw(st.booleans()):  # every innovation exactly zero
        y_abs, y_rel = np.tile(x_bar[0], (n, 1)), np.zeros((n - 1, 2))
        x_bar = y_abs.copy()
    else:
        y_abs = draw(arrays(float, (n, 2), elements=coord))
        y_rel = draw(arrays(float, (n - 1, 2), elements=coord))
        # non-finite readings give NaN and infinite innovations, whose gate
        # is the ``not ‖e‖ <= beta`` rule
        for _ in range(draw(st.integers(0, 3))):
            y_abs[draw(st.integers(0, n - 1)), draw(st.integers(0, 1))] = draw(
                st.sampled_from((math.nan, math.inf, -math.inf)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    every = DetectionSets(frozenset(range(1, n + 1)), frozenset(), frozenset())
    sets = [draw(st.sampled_from((EMPTY, every, _mixed_sets(rng, n))))
            for _ in range(n)]
    rho = [draw(st.one_of(st.just(0.0), st.floats(0.0, 1e3))) for _ in range(n)]
    return p, thr, x_bar, y_abs, y_rel, sets, rho


@settings(max_examples=150, deadline=None)
@given(_interior_cases())
def test_interior_rows_matches_the_per_vehicle_functions(case):
    _assert_pass_matches_per_vehicle(*case)


@pytest.mark.parametrize("mode", ["static", "adaptive"])
def test_interior_rows_zero_innovation_zero_ceiling_and_negative_zero(mode):
    """beta = 0 with exactly-zero innovations keeps full gain; a noise-free
    bound at rho = 0 has a zero ceiling; -0.0 inputs keep their bits."""
    L, n = 2, 7
    p = ObserverParams(L=L, b=1, q=300.0, eps=0.0, mu=0.0,
                       norm_A=plant_norm(0.01), varpi=2.0)
    thr = observer.ThresholdConfig(mode=mode, beta0=0.0, k0=0.0)
    x_bar = np.full((n, 2), -0.0)
    y_abs = np.full((n, 2), -0.0)
    y_rel = np.zeros((n - 1, 2))
    mixed = DetectionSets(frozenset({1, 2}), frozenset({4}), frozenset({5}))
    sets = [EMPTY, mixed, EMPTY, mixed, EMPTY, mixed, EMPTY]
    _assert_pass_matches_per_vehicle(p, thr, x_bar, y_abs, y_rel, sets, [0.0] * n)
    _, gains, betas, bounds = observer.interior_rows(
        x_bar.tolist(), y_abs.tolist(),
        sensing.MeasurementFrame(0, y_abs, y_rel).rel_prefix.tolist(),
        sets, [0.0] * n, thr, p, [None] * n)
    assert betas == [0.0] * (n - 2 * L) and bounds == [0.0] * (n - 2 * L)
    assert list(gains[0]) == [1.0] * 5 and list(gains[1]) == [1.0, 1.0, 0.0, 1.0, 1.0]


def _classified_sets(rng, n, trusted_share):
    """Sets with every sensor trusted or confirmed attacked, none unknown."""
    trusted = rng.random(n) < trusted_share
    return DetectionSets(frozenset(int(j) + 1 for j in np.flatnonzero(trusted)),
                         frozenset(int(j) + 1 for j in np.flatnonzero(~trusted)),
                         frozenset())


@pytest.mark.parametrize("mode", ["static", "adaptive"])
def test_interior_rows_reuses_classified_windows_bit_for_bit(mode):
    """The same sets objects over several steps, with fresh predictions,
    readings and bounds: windows of trusted and attacked sources only equal
    beta_at -> oracles.saturated_window_update -> rho_update bit for bit
    from a reused memo, and a gain row handed out at one step is unchanged
    by later steps."""
    L, n = 2, 23
    p = ObserverParams(L=L, b=2, q=300.0, eps=0.1, mu=0.1,
                       norm_A=plant_norm(0.01), varpi=2.0)
    thr = design_threshold(p, mode)
    topo = Topology.build(n, L)
    rng = np.random.default_rng(7)
    every = DetectionSets(frozenset(range(1, n + 1)), frozenset(), frozenset())
    sets = [every if k % 3 == 0 else _classified_sets(rng, n, 0.7) for k in range(n)]
    memo = [None] * n
    handed_out = []
    for step in range(6):
        coord = rng.normal(0.0, 50.0, size=(3, n, 2))
        coord[:, rng.random(n) < 0.3] = 0.0
        coord[:, rng.random(n) < 0.3] = -0.0
        x_bar, y_abs, y_rel = coord[0], coord[1], coord[2, :n - 1]
        if step == 2:  # every innovation exactly zero, with -0.0 rows
            x_bar = y_abs = np.full((n, 2), -0.0)
            y_rel = np.zeros((n - 1, 2))
        rho = rng.uniform(0.0, 300.0, size=n).tolist()
        frame = sensing.MeasurementFrame(t=step, y_abs=y_abs, y_rel=y_rel)
        got_x, got_g, got_b, got_r = observer.interior_rows(
            x_bar.tolist(), y_abs.tolist(), frame.rel_prefix.tolist(), sets, rho, thr, p,
            memo)
        for row, i in enumerate(sorted(topo.v1)):
            k = i - 1
            bt = thr.beta_at(rho[k], p)
            xh, g = saturated_window_update(x_bar[k], frame, i, topo, sets[k], bt)
            assert _bits(got_x[row]) == _bits(xh)
            assert _bits(got_g[row]) == _bits(g)
            assert _bits(got_b[row]) == _bits(bt)
            assert _bits(got_r[row]) == _bits(rho_update(rho[k], sets[k], i, bt, p))
        handed_out.append((got_g, [list(g) for g in got_g]))
    for rows, copies in handed_out:
        assert [list(g) for g in rows] == copies
    assert any(0.0 in g for g in handed_out[0][0])  # some window holds an attacked source


@pytest.mark.parametrize("mode", ["static", "adaptive"])
@pytest.mark.parametrize("noise", [0.1, 0.0, -0.0])
def test_interior_rows_shares_bound_steps_bit_for_bit(mode, noise):
    """Vehicles that share a previous bound, as one float object or as equal
    floats, but differ in count terms each get the bound step of their own
    terms; noise-free passes at rho = 0, with 0.0 and -0.0 side by side in
    one class, keep each bound's bits (with -0.0 noise the adaptive
    threshold's sign of zero follows the bound's); and vehicles alike in
    both share the very same result objects."""
    L, n = 2, 17
    p = ObserverParams(L=L, b=2, q=300.0, eps=noise, mu=noise,
                       norm_A=plant_norm(0.01), varpi=2.0)
    thr = observer.ThresholdConfig(mode=mode, beta0=0.5 * p.beta_max, k0=0.5)
    rng = np.random.default_rng(11)
    every = DetectionSets(frozenset(range(1, n + 1)), frozenset(), frozenset())
    mixed = DetectionSets(frozenset({1, 2, 6, 7, 8, 9}), frozenset({4, 11}), frozenset({5}))
    sets = [EMPTY, every, mixed, EMPTY, every, mixed, every, EMPTY, mixed,
            every, every, EMPTY, mixed, mixed, EMPTY, every, EMPTY]
    coord = rng.normal(0.0, 50.0, size=(3, n, 2))
    x_bar, y_abs, y_rel = coord[0], coord[1], coord[2, :n - 1]
    shared = 123.456
    rho = [shared, 200.0 + 0.5, shared, shared, shared, float("123.456"), shared, 77.0,
           shared + 0.0, float("123.456"), shared, 77.0, shared, 0.0, -0.0, 0.0, -0.0]
    _assert_pass_matches_per_vehicle(p, thr, x_bar, y_abs, y_rel, sets, rho)
    zeros = [0.0, -0.0] * 8 + [0.0]
    _assert_pass_matches_per_vehicle(p, thr, x_bar, y_abs, y_rel, sets, zeros)
    _assert_pass_matches_per_vehicle(p, thr, x_bar, y_abs, y_rel, [every] * n, zeros)
    _, _, betas, bounds = observer.interior_rows(
        x_bar.tolist(), y_abs.tolist(),
        sensing.MeasurementFrame(0, y_abs, y_rel).rel_prefix.tolist(),
        sets, rho, thr, p, [None] * n)
    # vehicles 5, 7 and 11 hold the one object, vehicle 10 an equal float,
    # all four with an all-trusted window
    alike = [i - 1 - L for i in (5, 7, 10, 11)]
    assert len({id(bounds[r]) for r in alike}) == 1
    assert len({id(betas[r]) for r in alike}) == 1


def test_derived_params_are_computed_once_per_instance():
    import dataclasses
    p = _params()
    assert p.mu_bar is p.mu_bar and p.beta_max is p.beta_max
    assert p.contraction is p.contraction
    wider = dataclasses.replace(p, mu=0.2)
    assert wider.mu_bar == (wider.L + 1) * 0.2 and p.mu_bar == 0.30000000000000004


# --------------------------------------------------------------------------
# error-bound recursions
# --------------------------------------------------------------------------

def test_interior_bound_sequence_static_threshold():
    p = _params()
    thr = design_threshold(p, "static")
    r1 = rho_update(300.0, EMPTY, 3, thr.beta0, p)
    r2 = rho_update(r1, EMPTY, 3, thr.beta0, p)
    assert r1 == 159.08912203164363
    assert r2 == 48.089122031643605
    # once the gain floor saturates at one, the bound equals the pure drive
    assert r2 == pytest.approx(((p.eps + p.mu_bar) * 4 + thr.beta0) / 4.0, rel=1e-14)


def test_interior_bound_sequence_adaptive_threshold():
    p = _params()
    thr = design_threshold(p, "adaptive")
    want = [159.08912203164363, 84.58205496213365, 45.18621041600085,
            24.35553450098836, 13.341249515470116, 7.517411909951884,
            4.4380395766553455, 2.8098118324464023, 1.948881324516024,
            1.493661628056814]
    rho = 300.0
    for k, w in enumerate(want, start=1):
        bt = thr.beta_at(rho, p)
        if k == 1:
            assert bt == 190.75648812657442
        if k == 2:
            assert bt == 101.27631924170201
        if k == 10:
            assert bt == 1.49030215194354
        rho = rho_update(rho, EMPTY, 3, bt, p)
        assert rho == w


def test_interior_bound_first_step_formula():
    """With no sensor classified yet the recursion must reduce to the plain
    two-term form: contraction times the old bound plus the noise drive."""
    p = _params()
    beta = 100.0
    lbar = 2 * p.L + 1 - p.b
    k = min(1.0, beta / p.beta_max)
    m = 1.0 - (lbar * k) / (2.0 * p.L)
    drive = ((p.eps + p.mu_bar) * lbar + p.b * beta) / (2.0 * p.L)
    assert rho_update(300.0, EMPTY, 3, beta, p) == pytest.approx(
        m * p.norm_A * 300.0 + drive, rel=1e-14)


def test_interior_bound_survives_a_zero_ceiling():
    """Noise-free runs drive the bound to exact zero; the gain floor must not
    divide by the vanished honest-innovation ceiling."""
    p = _params(eps=0.0, mu=0.0)
    assert rho_update(0.0, EMPTY, 3, 0.0, p) == 0.0
    out = rho_update(0.0, EMPTY, 3, 10.0, p)
    assert math.isfinite(out) and out >= 0.0


def test_interior_bound_contracts_in_the_overshoot_regime():
    """More trusted sensors than the window nominally weighs still shrinks the
    bound: the recursion switches to the worst-deviation factor."""
    p = _params()
    all_trusted = DetectionSets(frozenset({1, 2, 3, 4, 5}), frozenset(), frozenset())
    rho = 300.0
    for _ in range(60):
        rho = rho_update(rho, all_trusted, 3, 50.0, p)
    # factor |1 - 5/4| * norm_A per step, so the floor is the drive-limit
    assert rho < 3.0


def test_edge_bound_updates_match_their_closed_forms():
    p = _params()
    assert lambda_update(300.0, p) == pytest.approx(
        p.contraction * 300.0 + (p.eps * (p.varpi - 1.0) + p.mu) / p.varpi, rel=1e-14)
    got = tau_update(300.0, 2, 300.0, p)
    assert got == 301.6057350759109
    assert got == pytest.approx(
        p.contraction * 300.0
        + (p.eps * p.varpi + p.mu * 2 + p.norm_A * 300.0) / p.varpi, rel=1e-14)


def test_edge_bound_distance_and_source_error_raise_the_drive():
    p = _params()
    base = tau_update(100.0, 1, 50.0, p)
    assert tau_update(100.0, 2, 50.0, p) > base
    assert tau_update(100.0, 1, 80.0, p) > base


# --------------------------------------------------------------------------
# threshold design
# --------------------------------------------------------------------------

def test_default_grid_covers_the_open_unit_interval():
    assert len(DEFAULT_OMEGA_GRID) == 99
    assert DEFAULT_OMEGA_GRID[0] == 0.01
    assert DEFAULT_OMEGA_GRID[-1] == 0.99


def test_baseline_interval_and_design():
    p = _params()
    assert feasible_omegas(p) == list(DEFAULT_OMEGA_GRID)
    thr = design_threshold(p, "static")
    assert thr.omega == 0.26
    assert thr.interval == (79.60922627658597, 301.9037499765629)
    assert thr.beta0 == 190.75648812657442
    assert thr.k0 == 0.6318453750289059
    assert thr.beta0 == pytest.approx(0.5 * (thr.interval[0] + thr.interval[1]), rel=1e-14)
    assert thr.beta_at(12345.0, p) == thr.beta0  # static ignores the bound


def test_design_evaluates_the_grid_in_one_call(monkeypatch):
    calls = []
    interval = observer.static_threshold_interval

    def counted(omega, p):
        calls.append(omega)
        return interval(omega, p)

    monkeypatch.setattr(observer, "static_threshold_interval", counted)
    assert design_threshold(_params(), "static").omega == 0.26
    assert len(calls) == 1 and calls[0].tolist() == list(DEFAULT_OMEGA_GRID)


def _per_omega_design(p):
    """The grid search one scalar ``omega`` at a time: the feasible
    ``(omega, lower, upper)`` triples and the first widest of them."""
    if p.b >= 2 * p.L + 1:
        return [], None
    found = []
    for w in DEFAULT_OMEGA_GRID:
        lo, hi = static_threshold_interval(w, p)
        if 0.0 < lo < hi:
            found.append((w, float(lo), float(hi)))
    return found, max(found, key=lambda c: c[2] - c[1]) if found else None


def test_grid_search_matches_the_per_omega_loop():
    """One array pass over the grid gives the scalar loop's intervals bit for
    bit, and the design picks the same first widest one, on random
    parameters that include infeasible and over-budget ones."""
    rng = np.random.default_rng(20261018)
    infeasible = 0
    for _ in range(300):
        L = int(rng.integers(1, 5))
        p = ObserverParams(L=L, b=int(rng.integers(1, 2 * L + 2)),
                           q=float(rng.uniform(1.0, 600.0)),
                           eps=float(rng.uniform(0.0, 3.0)), mu=float(rng.uniform(0.0, 3.0)),
                           norm_A=plant_norm(float(rng.uniform(0.005, 0.05))), varpi=2.0)
        found, best = _per_omega_design(p)
        assert repr(observer._feasible_intervals(p)) == repr(found)
        assert feasible_omegas(p) == [w for w, _, _ in found]
        if best is None:
            infeasible += 1
            with pytest.raises(InfeasibleThresholdError):
                design_threshold(p, "static")
            continue
        thr = design_threshold(p, "adaptive")
        assert repr((thr.omega, thr.interval)) == repr((best[0], best[1:]))
        assert thr.beta0 == 0.5 * (best[1] + best[2])
    assert 0 < infeasible < 300


def test_feasibility_check_agrees_with_the_interval():
    p = _params()
    for w in (0.05, 0.26, 0.9):
        lo, hi = static_threshold_interval(w, p)
        assert feasibility_check(w, p) == (0.0 < lo < hi)


def test_adaptive_design_shares_beta0_and_tightens_with_the_bound():
    p = _params()
    thr = design_threshold(p, "adaptive")
    assert thr.mode == "adaptive"
    assert thr.beta_at(p.q, p) == pytest.approx(thr.beta0, rel=1e-14)
    assert thr.beta_at(10.0, p) < thr.beta_at(100.0, p)
    assert thr.beta_at(50.0, p) == pytest.approx(
        thr.k0 * (p.norm_A * 50.0 + p.eps + p.mu_bar), rel=1e-14)


def test_design_threshold_rejects_over_budget_window():
    p = _params(L=1, b=3)
    assert feasible_omegas(p) == []
    with pytest.raises(InfeasibleThresholdError):
        design_threshold(p, "static")


def test_design_threshold_explicit_omega_must_be_feasible():
    p = _params()
    thr = design_threshold(p, "static", omega=0.5)
    lo, hi = static_threshold_interval(0.5, p)
    assert thr.interval == (lo, hi)
    assert thr.beta0 == 0.5 * (lo + hi)
    bad = _params(L=1, b=2)
    infeasible = [w for w in DEFAULT_OMEGA_GRID if not feasibility_check(w, bad)]
    with pytest.raises(InfeasibleThresholdError):
        design_threshold(bad, "static", omega=infeasible[0])


def test_design_threshold_rejects_unknown_mode():
    with pytest.raises(ConfigError):
        design_threshold(_params(), "fuzzy")


# --------------------------------------------------------------------------
# asymptotic bounds
# --------------------------------------------------------------------------

def test_asymptotic_bounds_pinned_baseline_values():
    p = _params()
    thr = design_threshold(p, "static")
    st = asymptotic_bounds_static(EMPTY, TOPO5, thr.beta0, p)
    ad = asymptotic_bounds_adaptive(EMPTY, TOPO5, thr.beta0, p)
    assert st == (76.33193973276764, 20.150124999218132, 173.9792321486477)
    assert ad == (0.9828914780255971, 20.150124999218132, 61.05237999762315)
    # the adaptive rule drops the initial-uncertainty term: strictly tighter
    assert ad[0] < st[0]
    assert ad[2] < st[2]


def test_asymptotic_cleared_edge_bound_closed_form():
    p = _params()
    _, a2, _ = asymptotic_bounds_static(EMPTY, TOPO5, 100.0, p)
    den = p.varpi - (p.varpi - 1.0) * p.norm_A
    assert a2 == pytest.approx((p.eps * (p.varpi - 1.0) + p.mu) / den, rel=1e-14)


def test_asymptotic_bounds_shrink_after_full_detection():
    p = _params()
    thr = design_threshold(p, "static")
    final = DetectionSets(frozenset({1, 2, 4, 5}), frozenset({3}), frozenset())
    st_before = asymptotic_bounds_static(EMPTY, TOPO5, thr.beta0, p)
    st_after = asymptotic_bounds_static(final, TOPO5, thr.beta0, p)
    assert st_after[0] < st_before[0]


def test_asymptotic_bounds_diverge_for_weak_gains_on_fast_sampling():
    """A huge sampling period inflates the plant norm; with a tiny threshold
    gain the interior recursion stops contracting and the bound is refused."""
    p = ObserverParams(L=1, b=1, q=1e6, eps=0.1, mu=0.1,
                       norm_A=1.2807764064044151, varpi=2.0)
    topo = Topology.build(3, 1)
    with pytest.raises(InfeasibleBoundError):
        asymptotic_bounds_static(EMPTY, topo, 1.0, p)


def test_adaptive_interior_bound_never_falls_as_k0_rises_past_one():
    """An honest gain never exceeds 1, so a threshold above the honest
    ceiling (k0 > 1) lets the unknown sources push harder and cannot shrink
    the interior radius: from k0 = 1 up, a1 never decreases as k0 grows,
    or the bound is refused, on the baseline with b = 2 and empty sets and
    on random designs and sets."""
    p = _params(b=2)
    a1 = [asymptotic_bounds_adaptive(EMPTY, TOPO5, k0 * p.beta_max, p)[0]
          for k0 in (1.0, 1.1, 1.2)]
    assert a1 == sorted(a1) and a1[2] == pytest.approx(3.7052, abs=5e-5)
    with pytest.raises(InfeasibleBoundError, match="contraction 1.25627"):
        asymptotic_bounds_adaptive(EMPTY, TOPO5, 2.0 * p.beta_max, p)
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(60):
        L = int(rng.integers(1, 5))
        n = int(rng.integers(2 * L + 1, 41))
        p = ObserverParams(L=L, b=int(rng.integers(0, L + 1)),
                           q=float(rng.uniform(100.0, 500.0)),
                           eps=float(rng.uniform(0.01, 0.3)), mu=float(rng.uniform(0.01, 0.3)),
                           norm_A=plant_norm(float(rng.uniform(0.005, 0.02))), varpi=2.0)
        topo = Topology.build(n, L)
        for sets in _grown_sets(rng, n, p.b)[::4]:
            prev, refused = 0.0, False
            for k0 in np.linspace(1.0, 2.0, 11).tolist():
                try:
                    a1 = asymptotic_bounds_adaptive(sets, topo, k0 * p.beta_max, p)[0]
                except InfeasibleBoundError:
                    refused = True
                    continue
                assert not refused and a1 >= prev
                prev = a1
                checked += 1
    assert checked > 1000


def _grown_sets(rng, n, b):
    """Fault-free sets grown one true sensor at a time, from empty until
    every sensor is classified: up to ``b`` sensors are truly attacked."""
    attacked = {int(v) for v in rng.choice(np.arange(1, n + 1),
                                           size=int(rng.integers(0, b + 1)), replace=False)}
    trusted, convicted = set(), set()
    grown = [EMPTY]
    for s in rng.permutation(np.arange(1, n + 1)).tolist():
        (convicted if s in attacked else trusted).add(s)
        grown.append(DetectionSets(frozenset(trusted), frozenset(convicted)))
    return grown


def test_interior_asymptotic_bound_never_rises_while_windows_hold_at_most_lbar_trusted():
    """Paper claim 2 where the code's derivation claims it: growing the sets
    never raises a1, in either mode, while every interior window holds at
    most 2L+1-b trusted sources (the first branch of ``_count_terms``)."""
    rng = np.random.default_rng(2)
    checked = designs = 0
    while designs < 150:
        L = int(rng.integers(1, 5))
        n = int(rng.integers(2 * L + 1, 41))
        p = ObserverParams(L=L, b=int(rng.integers(1, L + 1)),
                           q=float(rng.uniform(100.0, 500.0)),
                           eps=float(rng.uniform(0.01, 0.3)), mu=float(rng.uniform(0.01, 0.3)),
                           norm_A=plant_norm(float(rng.uniform(0.005, 0.02))), varpi=2.0)
        if not feasible_omegas(p):
            continue
        designs += 1
        beta0 = design_threshold(p, "static").beta0
        topo = Topology.build(n, L)
        lbar = 2 * L + 1 - p.b
        prev = None
        for sets in _grown_sets(rng, n, p.b):
            a1 = (asymptotic_bounds_static(sets, topo, beta0, p)[0],
                  asymptotic_bounds_adaptive(sets, topo, beta0, p)[0])
            if all(local_counts(sets, i, topo)[0] <= lbar for i in topo.v1):
                if prev is not None:
                    assert a1[0] <= prev[0] and a1[1] <= prev[1]
                    checked += 1
            prev = a1
    assert checked > 1000


@pytest.mark.parametrize("mode", ["static", "adaptive"])
def test_interior_asymptotic_bound_rises_past_lbar_trusted_a_known_departure(mode):
    """Where paper claim 2 does not hold: trusting sensor 6 gives vehicle 5's
    window 3 > 2L+1-b = 2 trusted sources.  The update still divides by
    2L, the gains sum above 2L and overshoot, and a1 rises."""
    p = ObserverParams(L=1, b=1, q=300.0, eps=0.1, mu=0.1,
                       norm_A=plant_norm(0.01), varpi=2.0)
    topo = Topology.build(6, 1)
    beta0 = design_threshold(p, mode).beta0
    bounds = asymptotic_bounds_static if mode == "static" else asymptotic_bounds_adaptive
    before = DetectionSets(frozenset({1, 2, 4, 5}), frozenset({3}))
    after = DetectionSets(frozenset({1, 2, 4, 5, 6}), frozenset({3}))
    assert local_counts(after, 5, topo)[0] == 3
    assert bounds(before, topo, beta0, p)[0] == pytest.approx(0.3000, abs=5e-5)
    assert bounds(after, topo, beta0, p)[0] == pytest.approx(0.7035, abs=5e-5)
