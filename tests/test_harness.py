"""Tests for the closed-loop simulation harness.

The run loop is validated against a replica that wires the same public
pieces together vehicle by vehicle, with exact equality on every traced
quantity — any unannounced change in pipeline order or data flow shows up
as a bit-level mismatch.
"""

import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import struct
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import baseline_doc, strict_json, string_overrides
from oracles import (Message, _fmt, bound_envelopes_per_vehicle, control_input,
                     controller_neighbors, local_counts, performance_phi, platoon_phi,
                     stack_rows, stack_traces, step_vehicle)
from platoonsec import detector, harness, observer, sensing
from platoonsec.core import (DetectionSets, InconsistentSetsError, Topology,
                            fuse_sets, load_scenario)
from platoonsec.dynamics import (advance_deltas, desired_state_chain,
                                 reference_step)
from platoonsec.harness import (
    MonteCarloSummary,
    RunTrace,
    TRACE_FIELDS,
    SimulationError,
    StepTrace,
    _phi_pair,
    bound_envelopes,
    feasibility_report,
    json_text,
    monte_carlo,
    run_simulation,
    summarize_run,
    trace_columns,
    write_detection_csv,
    write_json,
    write_monte_carlo_dir,
    write_run_dir,
    write_trace_csv,
)


@pytest.fixture(scope="module")
def baseline_cfg():
    return load_scenario(baseline_doc())


@pytest.fixture(scope="module")
def traces500(baseline_cfg):
    return run_simulation(baseline_cfg)


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def test_phi_metrics_agree_and_validate():
    rng = np.random.default_rng(21)
    for n in (1, 5, 7):
        xs = rng.normal(size=(n, 2)) * 40.0
        xh = xs + rng.normal(size=(n, 2))
        xt = xs + rng.normal(size=(n, 2))
        both = _phi_pair(xs, xh, xt)
        # the two routes use different hypot implementations: ulp-level slack
        assert both[0] == pytest.approx(performance_phi(xs, xh, xt), rel=1e-13)
        assert both[1] == pytest.approx(platoon_phi(xs, xt), rel=1e-13)
    with pytest.raises(ValueError):
        performance_phi(xs, xh[:-1], xt)
    with pytest.raises(ValueError):
        platoon_phi(xs, xt[:-1])


def test_phi_zero_when_estimates_and_formation_are_exact():
    xs = np.arange(10, dtype=float).reshape(5, 2)
    assert _phi_pair(xs, xs.copy(), xs.copy()) == (0.0, 0.0)


# --------------------------------------------------------------------------
# single run: basic contracts
# --------------------------------------------------------------------------

def test_zero_horizon_returns_no_traces(baseline_cfg):
    import dataclasses
    cfg = dataclasses.replace(baseline_cfg, horizon=0)
    assert list(run_simulation(cfg)) == []
    assert summarize_run(cfg, []) == {"horizon": 0, "steps": 0}
    assert stack_traces([]) == {}


def test_every_horizon_gives_a_run_trace(baseline_cfg, tmp_path):
    """At horizon 0 the trace is a ``RunTrace`` of no rows with the run's
    column shapes, and the run writers and ``monte_carlo`` take it."""
    cfg = dataclasses.replace(baseline_cfg, horizon=0)
    run = run_simulation(cfg)
    assert type(run) is RunTrace and len(run) == 0
    assert run.x.shape == (0, 5, 2) and run.gains.shape == (0, 5, 5)
    paths = write_run_dir(str(tmp_path), cfg, run, json_text(summarize_run(cfg, run)))
    with open(paths["trace"], encoding="utf-8") as fh:
        assert fh.read() == ",".join(trace_columns(cfg.L)) + "\n"
    mc = monte_carlo(cfg, runs=2)
    assert mc.eta_pos.shape == (0, 5) and mc.final_phi.tolist() == [0.0, 0.0]
    for horizon, steps in ((0, 0), (3, 4)):
        _assert_columns_follow_the_schema(
            run_simulation(dataclasses.replace(baseline_cfg, horizon=horizon)), steps)


def _assert_columns_follow_the_schema(run, steps):
    """Every column of ``run`` has the shape and type :data:`TRACE_FIELDS`
    gives it for the baseline's N=5 and 2L+1=5: ``t`` counts the steps in
    integers, every other computed field is a float64 column, and a stored
    field is a list of one tuple per step."""
    assert RunTrace.__slots__ == tuple(name for name, *_ in TRACE_FIELDS)
    dims = {"N": 5, "W": 5}
    for name, shape, form, _ in TRACE_FIELDS:
        col = getattr(run, name)
        step_shape = tuple(dims.get(d, d) for d in shape)
        if form == "stored":
            assert type(col) is list and len(col) == steps, name
            assert all(type(v) is tuple and np.shape(v) == step_shape for v in col), name
        elif name == "t":
            assert col.dtype.kind == "i" and col.tolist() == list(range(steps))
        else:
            assert col.dtype == np.float64 and col.shape == (steps, *step_shape), name


def test_initial_trace_row(baseline_cfg):
    tr = run_simulation(load_scenario(baseline_doc(horizon=1)))[0]
    assert tr.t == 0
    assert np.array_equal(tr.x, np.asarray(baseline_cfg.x_init, dtype=float))
    assert np.array_equal(tr.x_hat, np.zeros((5, 2)))
    assert tr.x_bar is tr.x_hat  # no prediction has happened yet
    assert np.array_equal(tr.x_leader, [200.0, 10.0])
    # interior bound applies only to vehicle 3, the edge bounds to the rest
    assert tr.rho[2] == 300.0 and all(math.isnan(tr.rho[k]) for k in (0, 1, 3, 4))
    assert all(math.isnan(tr.lam[k]) == (k == 2) for k in range(5))
    assert np.array_equal(tr.tau, tr.lam, equal_nan=True)
    assert tr.alpha == (300.0,) * 5
    assert all(math.isnan(v) for v in tr.beta)
    assert np.all(np.isnan(tr.gains)) and tr.gains.shape == (5, 5)
    assert tr.sets == (DetectionSets.empty(),) * 5
    assert tr.fired == ((False,) * 4,) * 5
    assert tr.phi == _phi_pair(tr.x, tr.x_hat, tr.x_star)[0]


def test_identical_arguments_reproduce_the_trace_bit_for_bit():
    cfg = load_scenario(baseline_doc(horizon=60))
    a = stack_traces(run_simulation(cfg))
    b = stack_traces(run_simulation(cfg))
    for key in a:
        assert np.array_equal(a[key], b[key], equal_nan=True), key
    other_seed = stack_traces(run_simulation(cfg, seed=cfg.seed + 1))
    assert not np.array_equal(a["phi"], other_seed["phi"])
    other_run = stack_traces(run_simulation(cfg, run_index=1))
    assert not np.array_equal(a["phi"], other_run["phi"])


def test_unstable_gains_refuse_to_simulate():
    with pytest.raises(SimulationError):
        run_simulation(load_scenario(baseline_doc(g_s=1000.0, g_v=5.0)))


def test_infeasible_threshold_refuses_to_simulate():
    doc = baseline_doc(L=1, b=3, N=3, delta_x=[[20.0, 0.0]] * 2,
                       x_init=[[200.0, 10.0], [100.0, 8.0], [50.0, 6.0]])
    with pytest.raises(SimulationError):
        run_simulation(load_scenario(doc))


def test_a_run_is_refused_at_its_first_step_past_the_float_range(monkeypatch):
    """A run whose φ leaves the float range at step 1 is refused there, with
    the step and φ named: however long its horizon, it measures steps 0 and
    1 only."""
    cfg = load_scenario(baseline_doc(
        horizon=500, q=1e10, epsilon=1e308,
        threshold_mode={"mode": "static", "beta": 5e-324, "omega": 0.999999}))
    measure_rows = sensing.measure_rows
    steps = []

    def counted(*args):
        steps.append(args[4])
        return measure_rows(*args)

    monkeypatch.setattr(sensing, "measure_rows", counted)
    with pytest.raises(SimulationError) as refused:
        run_simulation(cfg)
    assert str(refused.value) == "step 1 leaves the float range: phi=inf"
    assert steps == [0, 1]


def test_initial_error_above_q_refuses_to_simulate(baseline_cfg):
    x_hat_init = [list(x) for x in baseline_cfg.x_init]
    x_hat_init[3] = [320.0, 404.0]  # 500 from vehicle 4's true state
    cfg = load_scenario(baseline_doc(x_hat_init=x_hat_init))
    with pytest.raises(SimulationError,
                       match="initial estimation error 500 of vehicle 4 exceeds q=300"):
        run_simulation(cfg)
    assert feasibility_report(cfg)["initial_error"] == {
        "max": 500.0, "vehicle": 4, "q": 300.0, "within_q": False}
    assert feasibility_report(baseline_cfg)["initial_error"] == {
        "max": math.hypot(200.0, 10.0), "vehicle": 1, "q": 300.0, "within_q": True}


# --------------------------------------------------------------------------
# single run against the vehicle-by-vehicle replica
# --------------------------------------------------------------------------

def _u_all(n, x_star, x_leader, own_src, nb_src, g_s, g_v):
    u = []
    for i in range(1, n + 1):
        terms = []
        for j in controller_neighbors(i, n):
            if j == 0:
                x_j, star_j = x_leader, x_leader
            else:
                x_j, star_j = nb_src[j - 1], x_star[j - 1]
            terms.append((x_j, x_star[i - 1] - star_j))
        u.append(control_input(own_src[i - 1], terms, g_s, g_v))
    return np.array(u)


def _replica(cfg, seed=None, run_index=0):
    """The simulation loop reassembled from the public per-vehicle pieces."""
    from platoonsec.rng import RunRandom

    params = observer.ObserverParams.from_config(cfg)
    thr = observer.design_threshold(params, cfg.threshold_mode,
                                    beta=cfg.beta, omega=cfg.omega)
    topo = cfg.topology()
    n, Lw = cfg.N, cfg.L
    width = 2 * Lw + 1
    vehicles = list(range(1, n + 1))
    pwm = cfg.controller_mode == "pwm"
    rnd = RunRandom(cfg.seed if seed is None else seed, run_index)
    has_attack = bool(cfg.attack.attacked)

    x = np.asarray(cfg.x_init, dtype=float)
    x_hat = np.asarray(cfg.x_hat_init, dtype=float)
    x_leader = np.asarray(cfg.x0, dtype=float)
    deltas = np.asarray(cfg.delta_x, dtype=float)
    x_star = desired_state_chain(x_leader, deltas)

    sets = [DetectionSets.empty()] * n
    rho = [params.q if i in topo.v1 else math.nan for i in vehicles]
    lam = [math.nan if i in topo.v1 else params.q for i in vehicles]
    tau = list(lam)
    alpha = [params.q] * n

    att_state = sensing.AttackState(cfg.attack)
    frame = sensing.measure(x, cfg.attack, cfg.mu, att_state, 0,
                            rnd.measurement(0) if cfg.mu else None,
                            rnd.attack(0) if has_attack else None)
    ctrl = frame.y_abs if pwm else x_hat
    u = _u_all(n, x_star, x_leader, ctrl, ctrl, cfg.g_s, cfg.g_v)

    def snapshot(t, x_bar, beta, gains, fired):
        return {"t": t, "x": x.copy(), "x_star": x_star.copy(),
                "x_leader": x_leader.copy(), "x_hat": x_hat.copy(),
                "x_bar": x_bar.copy(), "u": u.copy(),
                "rho": np.array(rho), "lam": np.array(lam),
                "tau": np.array(tau), "alpha": np.array(alpha),
                "beta": np.array(beta), "gains": gains,
                "sets": tuple(sets), "fired": tuple(fired),
                "phi": performance_phi(x, x_hat, x_star),
                "phi_platoon": platoon_phi(x, x_star)}

    rows = [snapshot(0, x_hat, [math.nan] * n, np.full((n, width), np.nan),
                     ((False,) * 4,) * n)]

    for t in range(1, cfg.horizon + 1):
        d = (sensing.sample_noise(rnd.process(t), cfg.epsilon, n)
             if cfg.epsilon else np.zeros((n, 2)))
        x = np.stack([step_vehicle(x[k], float(u[k]), d[k], cfg.T)
                      for k in range(n)])
        x_leader = reference_step(x_leader, cfg.T)
        deltas = advance_deltas(deltas, cfg.T)
        x_star = desired_state_chain(x_leader, deltas)

        frame = sensing.measure(x, cfg.attack, cfg.mu, att_state, t,
                                rnd.measurement(t) if cfg.mu else None,
                                rnd.attack(t) if has_attack else None)
        y_abs, y_rel = frame.y_abs, frame.y_rel
        x_bar = np.stack([step_vehicle(x_hat[k], float(u[k]), None, cfg.T)
                          for k in range(n)])
        msgs = [Message(sender=i, t=t, y_abs=y_abs[i - 1],
                        y_rel=y_rel[i - 2] if i >= 2 else None,
                        x_bar=x_bar[i - 1], sets=sets[i - 1], alpha=alpha[i - 1])
                for i in vehicles]

        new_sets, fired = [], []
        for i in vehicles:
            k = i - 1
            fused = fuse_sets(sets[k], tuple(msgs[j - 1].sets
                                             for j in sorted(topo.neighbors[i])))
            res = detector.detector_step(
                i, fused, y_rel[i - 2] if i >= 2 else None,
                y_abs[i - 2] if i >= 2 else None, y_abs[k], x_bar[k],
                rho[k] if i in topo.v1 else tau[k],
                n, cfg.b, cfg.mu, cfg.epsilon, params.norm_A)
            new_sets.append(res.sets)
            fired.append((res.pairwise, res.innovation, res.exhaustion,
                          res.completion))

        x_hat_new = np.empty_like(x_hat)
        gains = np.full((n, width), np.nan)
        beta = [math.nan] * n
        alpha = [0.0] * n
        for i in vehicles:
            k = i - 1
            si = new_sets[k]
            if i in topo.v1:
                bt = thr.beta_at(rho[k], params)
                beta[k] = bt
                stacked = sensing.stack_measurements(frame, i, topo)
                x_hat_new[k], gains[k] = observer.measurement_update_v1(
                    x_bar[k], stacked, si, bt, Lw)
                rho[k] = observer.rho_update(rho[k], si, i, bt, params)
                alpha[k] = rho[k]
            else:
                j = observer.nearest_trusted(i, si, topo)
                if i in si.trusted:
                    src = y_abs[k]
                else:
                    src = sensing.estimate_based_measurement(
                        msgs[j - 1].x_bar, frame, i, j)
                x_hat_new[k] = observer.measurement_update_v2(x_bar[k], src,
                                                              cfg.varpi)
                tau[k] = observer.tau_update(tau[k], abs(j - i),
                                             msgs[j - 1].alpha, params)
                if i in si.trusted:
                    lam[k] = observer.lambda_update(lam[k], params)
                    alpha[k] = lam[k]
                else:
                    lam[k] = tau[k]
                    alpha[k] = tau[k]

        sets = new_sets
        x_hat = x_hat_new
        if pwm:
            u = _u_all(n, x_star, x_leader, y_abs, y_abs, cfg.g_s, cfg.g_v)
        else:
            u = _u_all(n, x_star, x_leader, x_hat, x_bar, cfg.g_s, cfg.g_v)
        rows.append(snapshot(t, x_bar, beta, gains, fired))
    return rows


def _assert_traces_equal(traces, rows):
    assert len(traces) == len(rows)
    for tr, row in zip(traces, rows):
        assert tr.t == row["t"]
        for key in ("x", "x_star", "x_leader", "x_hat", "x_bar", "u"):
            assert np.array_equal(getattr(tr, key), row[key]), (key, tr.t)
        for key in ("rho", "lam", "tau", "alpha", "beta"):
            assert np.array_equal(np.asarray(getattr(tr, key)), row[key],
                                  equal_nan=True), (key, tr.t)
        assert np.array_equal(tr.gains, row["gains"], equal_nan=True), tr.t
        assert tr.sets == row["sets"], tr.t
        assert tr.fired == row["fired"], tr.t
        # states match exactly; phi crosses hypot implementations (ulp slack)
        assert math.isclose(tr.phi, row["phi"], rel_tol=1e-13), tr.t
        assert math.isclose(tr.phi_platoon, row["phi_platoon"], rel_tol=1e-13), tr.t


def test_run_matches_replica_noise_free():
    doc = baseline_doc(epsilon=0.0, mu=0.0, horizon=200,
                       attack={"set": [], "kind": "random", "params": {}})
    cfg = load_scenario(doc)
    traces = run_simulation(cfg)
    _assert_traces_equal(traces, _replica(cfg))
    # honest noise-free data must never trip a measurement test
    for tr in traces:
        for pair, inno, _, _ in tr.fired:
            assert not pair and not inno


def test_run_matches_replica_with_noise_and_attack():
    cfg = load_scenario(baseline_doc(horizon=60))
    _assert_traces_equal(run_simulation(cfg), _replica(cfg))


def test_run_matches_replica_under_pwm_control():
    cfg = load_scenario(baseline_doc(horizon=40, controller_mode="pwm"))
    _assert_traces_equal(run_simulation(cfg), _replica(cfg))


def test_run_matches_replica_static_threshold_and_run_index():
    cfg = load_scenario(baseline_doc(horizon=40,
                                     threshold_mode={"mode": "static"}))
    got = run_simulation(cfg, seed=314, run_index=2)
    _assert_traces_equal(got, _replica(cfg, seed=314, run_index=2))


@pytest.mark.parametrize("attack", [
    {"set": [6, 15], "kind": "random", "params": {"scale": 1.0}},
    {"set": [6, 15], "kind": "bias", "params": {"offset": [6.0, -1.0]}},
    {"set": [6, 15], "kind": "dos",
     "params": {"start": 5, "per_sensor": {"15": {"start": 30}}}},
    {"set": [6, 15], "kind": "replay",
     "params": {"record_len": 10, "per_sensor": {"6": {"start": 12}}}},
])
def test_run_matches_replica_on_a_21_vehicle_string(attack):
    """Many interior vehicles and a budget of two, started inside ``q``."""
    x0 = [600.0, 10.0]
    deltas = [[20.0, 0.0]] * 20
    chain = desired_state_chain(np.array(x0), np.array(deltas)).tolist()
    cfg = load_scenario(baseline_doc(N=21, b=2, horizon=80, delta_x=deltas,
                                     x0=x0, x_init=chain, x_hat_init=chain,
                                     attack=attack))
    traces = run_simulation(cfg)
    _assert_traces_equal(traces, _replica(cfg))
    assert any(s.attacked for s in traces[-1].sets)


@pytest.mark.parametrize("overrides", [
    {"mu": 0.0},
    {"x_hat_init": [[200.0, -0.0], [100.0, 8.0], [-0.0, -0.0], [20.0, 4.0],
                    [-0.0, 2.0]]},
    {"x_hat_init": [[200.0, -0.0], [100.0, 8.0], [-0.0, -0.0], [20.0, 4.0],
                    [-0.0, 2.0]], "epsilon": 0.0, "mu": 0.0,
     "x_init": [[200.0, 10.0], [100.0, 8.0], [50.0, 6.0], [20.0, 4.0], [-0.0, -0.0]],
     "attack": {"set": [3], "kind": "bias", "params": {"offset": [4.0, 0.0]}}},
])
def test_run_matches_replica_on_the_sensing_edge_cases(overrides):
    """Noise-free sensors under process noise, and estimates and states
    started at a signed zero, which the prediction keeps and the zero noise
    of a noise-free plant clears: compared byte for byte."""
    cfg = load_scenario(baseline_doc(horizon=60, **overrides))
    traces, rows = run_simulation(cfg), _replica(cfg)
    _assert_traces_equal(traces, rows)
    for tr, row in zip(traces, rows):  # the sign of a zero, too
        for key in ("x", "x_hat", "x_bar", "u"):
            assert getattr(tr, key).tobytes() == row[key].tobytes(), (key, tr.t)
    if "x_hat_init" in overrides:
        assert np.signbit(traces[1].x_bar[2, 0])
    if "x_init" in overrides:
        assert np.signbit(traces[0].x[4, 0]) and not np.signbit(traces[1].x[4, 0])
    assert traces[-1].sets[2].attacked == {3}


@pytest.mark.parametrize("mode", ["adaptive", "static"])
def test_run_matches_replica_on_the_long_string(mode):
    """The 101-vehicle benchmark geometry over the steps where sets change:
    suspicion, budget exhaustion and completion, in both threshold modes."""
    x0 = [200.0 + 20.0 * 100, 10.0]
    deltas = [[20.0, 0.0]] * 100
    chain = desired_state_chain(np.array(x0), np.array(deltas)).tolist()
    cfg = load_scenario(baseline_doc(
        N=101, b=2, horizon=60, delta_x=deltas, x0=x0, x_init=chain,
        x_hat_init=chain, threshold_mode={"mode": mode},
        attack={"set": [30, 70], "kind": "random", "params": {"scale": 1.0}}))
    traces = run_simulation(cfg)
    _assert_traces_equal(traces, _replica(cfg))
    assert any(s.suspected for tr in traces for s in tr.sets)
    assert any(f[2] for tr in traces for f in tr.fired)  # exhaustion
    assert any(f[3] for tr in traces for f in tr.fired)  # completion
    assert traces[-1].sets[49].attacked == {30, 70}


def test_fusion_clash_names_the_disagreeing_vehicles(monkeypatch):
    """Vehicle 2 trusts sensor 3 and vehicle 4 convicts it; at step 2,
    vehicle 2 fuses its own sets with vehicle 4's and must stop, naming both."""
    honest = detector.detector_step
    planted = {2: DetectionSets(trusted=frozenset({3})),
               4: DetectionSets(attacked=frozenset({3}))}

    def plant(i, fused, *args):
        res = honest(i, fused, *args)
        return dataclasses.replace(res, sets=planted[i]) if i in planted else res

    monkeypatch.setattr(detector, "detector_step", plant)
    with pytest.raises(InconsistentSetsError) as exc:
        run_simulation(load_scenario(baseline_doc(horizon=3)))
    assert str(exc.value) == (
        "step 2, vehicle 2: sensors [3] trusted by one vehicle but confirmed "
        "attacked by another; sensor 3 trusted by vehicles [2] and confirmed "
        "attacked by vehicles [4]")


# --------------------------------------------------------------------------
# trace bundling and run digest
# --------------------------------------------------------------------------

def test_stack_traces_layout():
    traces = run_simulation(load_scenario(baseline_doc(horizon=7)))
    data = stack_traces(traces)
    assert sorted(data) == ["alpha", "lam", "phi", "phi_platoon", "rho", "t",
                            "tau", "u", "x", "x_hat", "x_leader", "x_star"]
    assert np.array_equal(data["t"], np.arange(8))
    assert data["x"].shape == (8, 5, 2)
    assert data["x_leader"].shape == (8, 2)
    assert data["u"].shape == (8, 5)
    assert data["alpha"].shape == (8, 5)
    assert data["phi"].shape == (8,)


_ROW_ARRAYS = ("x", "x_star", "x_leader", "x_hat", "x_bar", "u", "gains", "attack_norms")
_ROW_TUPLES = ("rho", "lam", "tau", "alpha", "beta")


def _assert_row_is_step(run, row, k):
    """Row ``k`` of ``run`` carries its column slices bit for bit, with the
    field types of a ``StepTrace``: arrays, float tuples, the step's own set
    and flag tuples, and Python scalars."""
    assert type(row) is StepTrace and type(row.t) is int and row.t == k
    for name in _ROW_ARRAYS:
        got = getattr(row, name)
        assert isinstance(got, np.ndarray), (name, k)
        assert got.tobytes() == getattr(run, name)[k].tobytes(), (name, k)
    for name in _ROW_TUPLES:
        got = getattr(row, name)
        assert type(got) is tuple and all(type(v) is float for v in got), (name, k)
        assert np.array(got).tobytes() == getattr(run, name)[k].tobytes(), (name, k)
    for name in ("phi", "phi_platoon"):
        got = getattr(row, name)
        assert type(got) is float, (name, k)
        assert np.float64(got).tobytes() == getattr(run, name)[k].tobytes(), (name, k)
    assert row.sets is run.sets[k] and type(row.sets) is tuple
    assert row.fired is run.fired[k] and type(row.fired) is tuple


def test_run_trace_rows_are_its_column_slices():
    run = run_simulation(load_scenario(baseline_doc(horizon=40)))
    assert type(run) is RunTrace and len(run) == 41
    for k, row in enumerate(run):
        _assert_row_is_step(run, row, k)
    _assert_row_is_step(run, run[-1], 40)
    _assert_row_is_step(run, run[-41], 0)
    for sliced, steps in ((run[-6:], range(35, 41)), (run[::10], range(0, 41, 10)),
                          (run[5:2], range(0))):
        assert type(sliced) is list and len(sliced) == len(steps)
        for row, k in zip(sliced, steps):
            _assert_row_is_step(run, row, k)
    for k in (41, -42):
        with pytest.raises(IndexError):
            run[k]
    empty = run_simulation(load_scenario(baseline_doc(horizon=0)))
    assert len(empty) == 0 and not empty and list(empty) == [] and empty[:] == []


def _deep_size(obj, seen: set) -> int:
    """Bytes held by ``obj``, counting each shared object once, as the
    benchmark's ``deep_size`` counts a run's trace."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, (tuple, list, frozenset)):
        size += sum(_deep_size(x, seen) for x in obj)
    elif hasattr(type(obj), "__slots__"):
        size += sum(_deep_size(getattr(obj, s), seen) for s in type(obj).__slots__)
    return size


def test_run_trace_keeps_no_container_per_vehicle_step():
    """The trace is its owning float columns and the per-step set tuples,
    plus per-step flag tuples over at most 16 shared flag rows."""
    run = run_simulation(load_scenario(baseline_doc(
        horizon=60, **string_overrides(21, [6, 15]))))
    assert any(any(f) for fired in run.fired for f in fired)
    assert len({id(f) for fired in run.fired for f in fired}) <= 16
    columns = [getattr(run, name) for name in RunTrace.__slots__
               if name not in ("sets", "fired")]
    assert all(col.base is None and col.flags.owndata for col in columns)
    held = sum(col.nbytes for col in columns) + _deep_size(run.sets, set())
    assert _deep_size(run, set()) <= 1.2 * held


_KIND_PARAMS = (("random", {"scale": 1.0}), ("bias", {"offset": [6.0, -1.0]}),
                ("dos", {"start": 5}), ("replay", {"record_len": 10, "start": 12}))


@pytest.mark.parametrize("doc", [
    baseline_doc(horizon=60, **string_overrides(21, [6, 15])),
    *(baseline_doc(horizon=60, attack={"set": [3], "kind": kind, "params": params})
      for kind, params in _KIND_PARAMS),
], ids=["string21", *(kind for kind, _ in _KIND_PARAMS)])
def test_a_run_keeps_one_sets_object_per_distinct_state(monkeypatch, doc):
    """Within a run equal detection states are one object: the fused sets
    handed to the detector and the sets the trace keeps have as many
    distinct objects as distinct values."""
    held = {}
    step = detector.detector_step

    def spy(i, fused, *args):
        held[id(fused)] = fused  # kept alive, so ids stay unique
        return step(i, fused, *args)
    monkeypatch.setattr(detector, "detector_step", spy)
    run = run_simulation(load_scenario(doc))
    assert all(s.attacked for s in run.sets[-1])
    held.update((id(s), s) for sets in run.sets for s in sets)
    assert len(held) == len(set(held.values())) > 2


def test_a_long_string_trace_holds_its_sets_in_under_0_2_mb():
    """The N=101 string passes through a handful of detection states, so
    its H=200 trace keeps a handful of sets objects, not one per vehicle
    and change (1.5 MB of copies when each vehicle built its own)."""
    run = run_simulation(load_scenario(baseline_doc(
        horizon=200, **string_overrides(101, [30, 70]))))
    assert _deep_size(run.sets, set()) < 0.2e6


def test_baseline_run_digest(baseline_cfg, traces500):
    digest = summarize_run(baseline_cfg, traces500)
    assert digest["horizon"] == 500 and digest["steps"] == 501
    assert digest["final_phi"] == 20.233359064156851
    assert digest["final_phi_platoon"] == 13.606427293346082
    assert digest["max_estimation_error"] == 200.24984394500785
    assert digest["bound_violations"] == 0
    assert digest["first_full_detection"] == 3
    assert digest["final_sets"] == [{"trusted": [1, 2, 4, 5], "attacked": [3],
                                     "suspected": []}] * 5


def test_baseline_estimation_errors_stay_inside_alpha(traces500):
    data = stack_traces(traces500)
    err = np.linalg.norm(data["x_hat"] - data["x"], axis=2)
    assert np.all(err <= data["alpha"] + 1e-9)


def test_digest_without_attack_has_no_detection_time():
    cfg = load_scenario(baseline_doc(
        horizon=5, attack={"set": [], "kind": "random", "params": {}}))
    digest = summarize_run(cfg, run_simulation(cfg))
    assert digest["first_full_detection"] is None


class _CountingSet(frozenset):
    """A frozenset that counts its ``==`` calls."""
    eq_calls = 0

    def __eq__(self, other):
        type(self).eq_calls += 1
        return frozenset.__eq__(self, other)

    __hash__ = frozenset.__hash__


def test_digest_judges_each_sets_object_once(monkeypatch):
    """``first_full_detection`` judges each distinct sets object once, and
    skips a step that repeats the last step's tuple."""
    cfg = load_scenario(baseline_doc(horizon=5))
    partial = DetectionSets(trusted=frozenset({1, 2}), attacked=_CountingSet({3}))
    exact = DetectionSets(trusted=frozenset({1, 2, 4, 5}), attacked=_CountingSet({3}))
    final = (exact,) * 5
    steps = [(exact,) * 4 + (partial,) for _ in range(4)] + [final, final]
    run = stack_rows([_synthetic_step(t, 5, 2, sets=s) for t, s in enumerate(steps)])
    monkeypatch.setattr(_CountingSet, "eq_calls", 0)
    digest = summarize_run(cfg, run)
    assert digest["first_full_detection"] == 4
    assert _CountingSet.eq_calls <= len({id(s) for sets in steps for s in sets}) == 2


# --------------------------------------------------------------------------
# Monte Carlo
# --------------------------------------------------------------------------

def test_monte_carlo_aggregates_the_expected_runs():
    cfg = load_scenario(baseline_doc(horizon=40))
    mc = monte_carlo(cfg, runs=3, base_seed=777)
    per_run = []
    for k in range(3):
        traces = run_simulation(cfg, seed=777 + k, run_index=k)
        data = stack_traces(traces)
        per_run.append(data)
        assert mc.final_phi[k] == traces[-1].phi
    want_phi = sum(d["phi"] for d in per_run) / 3
    assert np.array_equal(mc.phi, want_phi)
    want_eta = sum(np.abs(d["x_hat"] - d["x"])[:, :, 0] for d in per_run) / 3
    assert np.array_equal(mc.eta_pos, want_eta)
    want_zeta = sum((d["x"] - d["x_leader"][:, None, :])[:, :, 1]
                    for d in per_run) / 3
    assert np.array_equal(mc.zeta_vel, want_zeta)
    assert (mc.runs, mc.base_seed, mc.horizon, mc.n) == (3, 777, 40, 5)
    doc = mc.to_json()
    assert doc["runs"] == 3 and len(doc["phi"]) == 41
    json.dumps(doc)  # must already be plain-python serializable


def test_monte_carlo_defaults_and_degenerate_cases(baseline_cfg):
    import dataclasses
    cfg = dataclasses.replace(baseline_cfg, horizon=0)
    mc = monte_carlo(cfg, runs=2)
    assert mc.base_seed == cfg.seed
    assert mc.phi.shape == (0,) and mc.eta_pos.shape == (0, 5)
    assert np.array_equal(mc.final_phi, np.zeros(2))
    with pytest.raises(ValueError):
        monte_carlo(cfg, runs=0)


# --------------------------------------------------------------------------
# feasibility report and bound envelopes
# --------------------------------------------------------------------------

def test_feasibility_report_solves_the_loop_spectrum_once(baseline_cfg, monkeypatch):
    """The report's spectral radius also serves the certificate's Schur
    check, so the 2N x 2N closed loop goes through ``eigvals`` once."""
    shapes = []
    eigvals = np.linalg.eigvals

    def counting(mat):
        shapes.append(np.shape(mat))
        return eigvals(mat)
    monkeypatch.setattr(np.linalg, "eigvals", counting)
    loop = feasibility_report(baseline_cfg)["closed_loop"]
    assert loop["schur"] and loop["kappa"] > 0
    assert shapes.count((10, 10)) == 1


def test_feasibility_report_baseline(baseline_cfg):
    rep = feasibility_report(baseline_cfg)
    assert rep["plant"]["norm_A"] == 1.0050124999218761
    assert rep["topology"] == {"N": 5, "L": 2, "interior": [3],
                               "edge": [1, 2, 4, 5], "diameter": 2}
    thr = rep["threshold"]
    assert thr["feasible"] and thr["mode"] == "adaptive"
    assert thr["beta0"] == 190.75648812657442
    assert thr["omega"] == 0.26 and thr["feasible_omega_count"] == 99
    assert rep["gains"]["ok"] and rep["gains"]["velocity_margin"] == 49.5
    loop = rep["closed_loop"]
    assert loop["schur"] and loop["spectral_radius"] == pytest.approx(
        0.9899450911072051, rel=1e-12)
    assert loop["spectrum_gap"] <= 1e-8
    assert loop["lyapunov_residual"] <= 1e-6
    assert loop["kappa"] == pytest.approx(26260.463869075727, rel=1e-9)
    est = rep["estimation_bounds"]
    assert est["static"]["interior"] == pytest.approx(76.33193973276764, rel=1e-12)
    assert est["static"]["edge_leaning"] == pytest.approx(173.9792321486477, rel=1e-12)
    assert est["adaptive"]["interior"] == pytest.approx(0.9828914780255971, rel=1e-12)
    assert est["adaptive"]["edge_leaning"] == pytest.approx(61.05237999762315, rel=1e-12)
    track = rep["tracking_bounds"]
    assert track["static"]["total"] == pytest.approx(3783089.2767347367, rel=1e-9)
    assert track["adaptive"]["total"] == pytest.approx(1327905.0677513487, rel=1e-9)
    json.dumps(rep)


def test_feasibility_report_names_the_interior_overshoot_windows(baseline_cfg):
    """``interior_overshoot`` lists the interior vehicles whose window holds
    fewer than b configured attacked sensors: the baseline's one window
    holds sensor 3, and in the pinned departure (N=6, L=1, b=1, attacked
    {3}) only vehicle 5's window {4, 5, 6} misses it."""
    assert feasibility_report(baseline_cfg)["interior_overshoot"] == []
    x_init = [[200.0 - 20.0 * k, 10.0] for k in range(6)]
    doc = baseline_doc(N=6, L=1, b=1, delta_x=[[20.0, 0.0]] * 5, x_init=x_init,
                       x_hat_init=x_init)
    rep = feasibility_report(load_scenario(doc))
    assert rep["topology"]["interior"] == [2, 3, 4, 5]
    assert rep["interior_overshoot"] == [5]
    json.dumps(rep)


def test_feasibility_report_with_infeasible_threshold():
    doc = baseline_doc(L=1, b=3, N=3, delta_x=[[20.0, 0.0]] * 2,
                       x_init=[[200.0, 10.0], [100.0, 8.0], [50.0, 6.0]])
    rep = feasibility_report(load_scenario(doc))
    assert rep["threshold"]["feasible"] is False
    assert "error" in rep["threshold"]
    assert rep["threshold"]["feasible_omega_count"] == 0
    assert "estimation_bounds" not in rep
    assert rep["gains"]["ok"]


def test_bound_envelopes_baseline_prefix():
    rows = list(bound_envelopes(load_scenario(baseline_doc(horizon=2))))
    assert len(rows) == 3 * 5
    first = {(t, i): (r, l, ta, a) for t, i, r, l, ta, a in rows}
    assert first[(0, 3)][0] == 300.0 and math.isnan(first[(0, 3)][1])
    assert first[(0, 1)][1] == 300.0 and math.isnan(first[(0, 1)][0])
    assert first[(0, 1)][3] == 300.0
    assert first[(1, 3)][0] == 159.08912203164363
    assert first[(1, 3)][3] == 159.08912203164363
    assert math.isnan(first[(1, 3)][1]) and math.isnan(first[(1, 3)][2])
    assert first[(1, 5)][2] == 301.6057350759109
    assert first[(1, 5)][3] == first[(1, 5)][2]
    assert first[(2, 3)][0] == 84.58205496213365  # adaptive second step


def test_bound_envelopes_static_mode_differs():
    rows = list(bound_envelopes(load_scenario(
        baseline_doc(horizon=2, threshold_mode={"mode": "static"}))))
    by = {(t, i): vals for t, i, *vals in rows}
    assert by[(1, 3)][0] == 159.08912203164363   # same first step
    assert by[(2, 3)][0] == 48.089122031643605   # tighter than adaptive


def _envelope_bits(rows) -> list:
    return [struct.pack("<2q4d", *row) for row in rows]


def _random_envelope_doc(rng, mode):
    L = int(rng.integers(1, 5))
    n = int(rng.integers(2 * L + 1, 41))
    b = int(rng.integers(0, L + 1))
    T = float(rng.uniform(0.005, 0.02))
    attacked = sorted(int(v) for v in rng.choice(np.arange(1, n + 1), size=b, replace=False))
    return baseline_doc(
        horizon=int(rng.integers(1, 40)), N=n, L=L, b=b, T=T,
        q=float(rng.uniform(100.0, 500.0)), epsilon=float(rng.uniform(0.01, 0.3)),
        mu=float(rng.uniform(0.01, 0.3)), delta_x=[[20.0, 0.0]] * (n - 1),
        x0=[0.0, 0.0], x_init=[[0.0, 0.0]] * n, threshold_mode={"mode": mode},
        attack={"set": attacked, "kind": "random", "params": {"scale": 1.0}})


@pytest.mark.parametrize("mode", ["static", "adaptive"])
def test_bound_envelopes_match_the_per_vehicle_driver(mode):
    """One shared interior ``rho`` per step gives the rows of the driver that
    advances every interior and edge vehicle on its own, bit for bit: on the
    N=21 string, whose edge vehicles lean on different interior ones, and on
    random configs with N <= 40 and L <= 4."""
    docs = [baseline_doc(horizon=60, threshold_mode={"mode": mode},
                         **string_overrides(21, [6, 15]))]
    rng = np.random.default_rng(5 if mode == "static" else 6)
    docs += [_random_envelope_doc(rng, mode) for _ in range(60)]
    for doc in docs:
        cfg = load_scenario(doc)
        assert _envelope_bits(bound_envelopes(cfg)) == _envelope_bits(
            bound_envelopes_per_vehicle(cfg))


def test_bound_envelopes_stream_the_first_steps_of_an_unbounded_horizon(monkeypatch):
    """On a ``horizon: 2**62`` baseline the first three steps come at once,
    bit for bit the rows of the ``horizon: 2`` document: taking them advances
    the interior bound twice, and a third advance fails the test rather than
    letting a list of every row exhaust memory."""
    want = _envelope_bits(bound_envelopes(load_scenario(baseline_doc(horizon=2))))
    calls, advance = [], observer.rho_update

    def rho_update(*args):
        calls.append(args)
        assert len(calls) <= 2, "bound_envelopes ran ahead of the rows taken"
        return advance(*args)

    monkeypatch.setattr(observer, "rho_update", rho_update)
    rows = bound_envelopes(load_scenario(baseline_doc(horizon=2 ** 62)))
    assert _envelope_bits(itertools.islice(rows, 3 * 5)) == want
    assert len(calls) == 2


def test_bound_envelopes_memory_does_not_grow_with_the_horizon():
    """Draining N=21, H=5,000 (105,021 rows) peaks far below the rows held
    as a list, which take about 100 B each."""
    cfg = load_scenario(baseline_doc(horizon=5000, **string_overrides(21, [6, 15])))
    tracemalloc.start()
    try:
        count = sum(1 for _ in bound_envelopes(cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 5001 * 21
    assert peak < 5 * count, peak


# --------------------------------------------------------------------------
# persistence
# --------------------------------------------------------------------------

def test_fmt_round_trips_every_cell_type():
    rng = np.random.default_rng(22)
    for v in [0.0, -0.0, 1e-300, -1e300, math.pi, 1 / 3,
              *(float(x) for x in rng.normal(size=20) * 10.0 ** rng.integers(-10, 10, 20))]:
        assert float(_fmt(v)) == v
    assert _fmt(float("nan")) == "nan"
    assert _fmt(True) == "1" and _fmt(False) == "0"
    assert _fmt(np.bool_(True)) == "1"
    assert _fmt(7) == "7" and _fmt(np.int64(-3)) == "-3"
    assert float(_fmt(np.float64(0.1))) == 0.1


def test_write_json_handles_numpy_and_rejects_unknown(tmp_path):
    path = os.path.join(tmp_path, "doc.json")
    write_json(path, {"a": np.int64(3), "b": np.float64(0.5),
                      "c": np.arange(3), "d": [1, 2]})
    raw = open(path, encoding="utf-8").read()
    assert raw.endswith("\n")
    assert strict_json(raw) == {"a": 3, "b": 0.5, "c": [0, 1, 2], "d": [1, 2]}
    with pytest.raises(TypeError):
        write_json(os.path.join(tmp_path, "bad.json"), {"s": {1, 2}})


def test_trace_columns_depend_on_the_window():
    cols = trace_columns(2)
    assert cols[:2] == ["t", "i"]
    assert cols[-5:] == ["gain_1", "gain_2", "gain_3", "gain_4", "gain_5"]
    assert len(trace_columns(1)) == len(cols) - 2


def test_write_run_dir_artifacts(tmp_path):
    cfg = load_scenario(baseline_doc(horizon=5))
    traces = run_simulation(cfg)
    out = os.path.join(tmp_path, "run")
    paths = write_run_dir(out, cfg, traces, json_text(summarize_run(cfg, traces)))
    assert sorted(paths) == ["detection", "feasibility", "scenario", "summary",
                             "trace"]
    for p in paths.values():
        assert os.path.isfile(p)

    lines = open(paths["trace"], encoding="utf-8").read().splitlines()
    assert lines[0] == ",".join(trace_columns(2))
    assert len(lines) == 1 + 6 * 5
    det = open(paths["detection"], encoding="utf-8").read().splitlines()
    assert det[0].startswith("t,i,trusted,attacked,suspected")
    assert len(det) == 1 + 6 * 5

    digest = strict_json(open(paths["summary"], encoding="utf-8").read())
    assert digest["steps"] == 6
    round_trip = load_scenario(strict_json(open(paths["scenario"], encoding="utf-8").read()))
    assert round_trip == cfg
    rep = strict_json(open(paths["feasibility"], encoding="utf-8").read())
    assert rep["threshold"]["feasible"]


def test_write_run_dir_is_byte_deterministic(tmp_path):
    cfg = load_scenario(baseline_doc(horizon=4))
    traces = run_simulation(cfg)
    summary = json_text(summarize_run(cfg, traces))
    pa = write_run_dir(os.path.join(tmp_path, "a"), cfg, traces, summary)
    pb = write_run_dir(os.path.join(tmp_path, "b"), cfg, traces, summary)
    for key in pa:
        assert open(pa[key], "rb").read() == open(pb[key], "rb").read(), key


#: SHA-256 of trace.csv followed by detection.csv for 60-step baseline
#: variants, recorded before the step loop moved to float rows, and for an
#: N=21 string, where tail blocks and quiet detection steps repeat, recorded
#: before the writers formatted each distinct block once per step; any
#: reordered float operation in the loop or changed cell in a writer
#: changes some of these bytes
PINNED_ARTIFACTS = {
    "string21": (string_overrides(21, [6, 15]),
                 "5c0aaf92db10ff5666a7e2654851247b353bd1bc622964e934e11a1d7ff02557"),
    "baseline": ({}, "eb607bad56eb027631130e5fb95e37a01ce91cea093b7246b5831fb616bb7972"),
    "pwm": ({"controller_mode": "pwm"},
            "c712c3aa48b47100ad48044c75014231124863cb4d914c5c7cbaf9379c23b4e8"),
    "dos": ({"attack": {"set": [3], "kind": "dos", "params": {"start": 5}}},
            "39e0c951fbb5daba1f9fdffde01ea9a7a8f026b01279020714fbfa4086bf9c48"),
    "bias": ({"attack": {"set": [3], "kind": "bias", "params": {"offset": [6.0, -1.0]}}},
             "de89cdded28b463a6458240e583cb66200aaeafef3dfa3fbdc17af6c274dcba1"),
    "replay": ({"attack": {"set": [3], "kind": "replay",
                           "params": {"record_len": 7, "start": 2}}},
               "a84f369868242d48553c04b0c9669a09ec88a19e1296199d6c88cb1df3632205"),
    "static": ({"threshold_mode": {"mode": "static"}},
               "97559aa5ea3e584691efce92e169a18461dcd12af0e653c9273cbb1343a32cbd"),
    "noise_free": ({"epsilon": 0.0, "mu": 0.0,
                    "attack": {"set": [], "kind": "random", "params": {}}},
                   "6c7d440c34feb333ae5486db03f65a8620137ffa7f879f51b84c040f56b574ab"),
}


@pytest.mark.parametrize("name", sorted(PINNED_ARTIFACTS))
def test_run_artifacts_match_their_pinned_bytes(tmp_path, name):
    overrides, digest = PINNED_ARTIFACTS[name]
    cfg = load_scenario(baseline_doc(horizon=60, **overrides))
    traces = run_simulation(cfg)
    h = hashlib.sha256()
    for fname, write in (("trace.csv", lambda p: write_trace_csv(p, traces, cfg.L)),
                         ("detection.csv", lambda p: write_detection_csv(p, traces))):
        path = os.path.join(tmp_path, fname)
        write(path)
        with open(path, "rb") as fh:
            h.update(fh.read())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("n, attacked, t_first, t_exact", [
    (21, [6, 15], 5, 10),
    (101, [30, 70], 12, 37),
])
def test_string_identifies_the_attacks_within_one_diameter(n, attacked, t_first, t_exact):
    """Paper claim 1 on the string geometry: from the first step at which
    some vehicle has confirmed b attacks, every vehicle's sets are exact
    within one diameter and stay exact."""
    diameter = Topology.build(n, 2).diameter()
    cfg = load_scenario(baseline_doc(horizon=t_first + diameter,
                                     **string_overrides(n, attacked)))
    exact = DetectionSets(trusted=frozenset(range(1, n + 1)) - set(attacked),
                          attacked=frozenset(attacked))
    first = exact_from = None
    for tr in run_simulation(cfg):
        if first is None and any(len(s.attacked) == cfg.b for s in tr.sets):
            first = tr.t
        if any(s != exact for s in tr.sets):
            exact_from = None
        elif exact_from is None:
            exact_from = tr.t
    assert (first, exact_from) == (t_first, t_exact)
    assert exact_from <= first + diameter


def test_run_advances_each_distinct_interior_bound_once_per_step(monkeypatch):
    """Interior vehicles that share their count terms and their previous
    bound share one bound step: in each step's interior pass ``_rho_next``
    runs exactly once per distinct (terms, previous bound) pair, far fewer
    times than there are interior vehicles."""
    cfg = load_scenario(baseline_doc(horizon=40, **string_overrides(21, [6, 15])))
    topo = cfg.topology()
    params = observer.ObserverParams.from_config(cfg)
    steps = []
    rows, advance = observer.interior_rows, observer._rho_next

    def counted_rows(xb, ya, pf, sets, rho, *rest):
        pairs = {(observer._count_terms(*local_counts(sets[i - 1], i, topo), params),
                  struct.pack("<d", rho[i - 1])) for i in topo.v1}
        steps.append([0, len(pairs)])
        return rows(xb, ya, pf, sets, rho, *rest)

    def counted_advance(*args):
        steps[-1][0] += 1
        return advance(*args)

    monkeypatch.setattr(observer, "interior_rows", counted_rows)
    monkeypatch.setattr(observer, "_rho_next", counted_advance)
    run_simulation(cfg)
    assert len(steps) == 40
    assert [calls for calls, _ in steps] == [distinct for _, distinct in steps]
    assert sum(calls for calls, _ in steps) < 40 * len(topo.v1) // 2


# --------------------------------------------------------------------------
# artifact writers against the per-cell oracle
# --------------------------------------------------------------------------

def _oracle_trace_csv(path, traces, L):
    """The per-cell trace writer: one ``_fmt`` call per cell via csv."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(trace_columns(L))
        for tr in traces:
            for i in range(1, len(tr.x) + 1):
                row = [tr.t, i,
                       tr.x[i - 1][0], tr.x[i - 1][1],
                       tr.x_star[i - 1][0], tr.x_star[i - 1][1],
                       tr.x_hat[i - 1][0], tr.x_hat[i - 1][1],
                       tr.x_bar[i - 1][0], tr.x_bar[i - 1][1],
                       tr.u[i - 1], tr.rho[i - 1], tr.lam[i - 1], tr.tau[i - 1],
                       tr.alpha[i - 1], tr.beta[i - 1], tr.attack_norms[i - 1],
                       tr.phi, tr.phi_platoon, *tr.gains[i - 1]]
                w.writerow([_fmt(v) for v in row])


def _oracle_detection_csv(path, traces):
    """The per-cell detection writer: every set sorted and joined per row."""
    cols = ["t", "i", "trusted", "attacked", "suspected",
            "pairwise", "innovation", "exhaustion", "completion"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(cols)
        for tr in traces:
            for i in range(1, len(tr.x) + 1):
                s = tr.sets[i - 1]
                w.writerow([str(tr.t), str(i),
                            "|".join(map(str, sorted(s.trusted))),
                            "|".join(map(str, sorted(s.attacked))),
                            "|".join(map(str, sorted(s.suspected))),
                            *(_fmt(f) for f in tr.fired[i - 1])])


def _oracle_metrics_csv(path, summary):
    """The per-cell ``metrics.csv`` writer of ``write_monte_carlo_dir``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["t", "i", "eta_pos", "eta_vel", "zeta_pos", "zeta_vel",
                    "phi", "phi_platoon"])
        for t in range(summary.phi.shape[0]):
            for i in range(1, summary.n + 1):
                w.writerow([str(t), str(i),
                            _fmt(summary.eta_pos[t][i - 1]),
                            _fmt(summary.eta_vel[t][i - 1]),
                            _fmt(summary.zeta_pos[t][i - 1]),
                            _fmt(summary.zeta_vel[t][i - 1]),
                            _fmt(summary.phi[t]), _fmt(summary.phi_platoon[t])])


def _oracle_bounds_csv(out, rows):
    """The per-cell CSV writer of the ``bounds`` command."""
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["t", "i", "rho", "lambda", "tau", "alpha"])
    for t, i, rho, lam, tau, alpha in rows:
        w.writerow([str(t), str(i), _fmt(rho), _fmt(lam), _fmt(tau), _fmt(alpha)])


def _float_of_bits(word: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", word))[0]


_BOUNDARY = [b * s for b in (1e16, 1e17) for s in (1.0, -1.0)]

#: cells that stress ``%.17g``: NaN of either sign with any payload bits,
#: ±0, subnormals, ±inf, and the 1e16/1e17 exponents, across which it moves
#: from integer digits to an exponent (the float below 1e17 prints
#: ``99999999999999984``, 1e17 ``1e+17``)
_CELLS = st.one_of(
    st.builds(lambda sign, payload: _float_of_bits(sign << 63 | 0x7FF << 52 | payload),
              st.integers(0, 1), st.integers(1, 2 ** 52 - 1)),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, *_BOUNDARY,
                     *(math.nextafter(b, d) for b in _BOUNDARY for d in (0.0, 2 * b))]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),  # subnormals and ±0
    st.floats(1e15, 1e18) | st.floats(-1e18, -1e15),
    st.floats(),
)


def _drawn_cells(data, *shape) -> np.ndarray:
    """A float64 array of ``shape`` whose cells are drawn from ``_CELLS``."""
    size = math.prod(shape)
    return np.array(data.draw(st.lists(_CELLS, min_size=size, max_size=size)),
                    dtype=float).reshape(shape)


def _assert_run_csvs_match_oracle(tmp_path, traces, L):
    pairs = [(write_trace_csv, _oracle_trace_csv, (L,)),
             (write_detection_csv, _oracle_detection_csv, ())]
    for writer, oracle, extra in pairs:
        got = os.path.join(tmp_path, "got.csv")
        want = os.path.join(tmp_path, "want.csv")
        writer(got, stack_rows(traces), *extra)
        oracle(want, traces, *extra)
        assert open(got, "rb").read() == open(want, "rb").read(), writer.__name__


def _seven_vehicle_doc(**overrides):
    x0 = [200.0, 10.0]
    deltas = [[20.0, 0.0]] * 6
    chain = desired_state_chain(np.array(x0), np.array(deltas)).tolist()
    return baseline_doc(N=7, delta_x=deltas, x0=x0, x_init=chain,
                        x_hat_init=chain, **overrides)


@pytest.mark.parametrize("doc", [
    baseline_doc(horizon=60),
    baseline_doc(L=1, horizon=60),
    _seven_vehicle_doc(L=3, horizon=60, attack={
        "set": [4], "kind": "random", "params": {"scale": 1.0}}),
    baseline_doc(horizon=40, controller_mode="pwm"),
    baseline_doc(horizon=60, attack={
        "set": [3], "kind": "dos",
        "params": {"start": 5, "per_sensor": {"3": {"start": 12}}}}),
    baseline_doc(horizon=60, attack={
        "set": [2], "kind": "bias",
        "params": {"offset": [8.0, -1.0], "per_sensor": {"2": {"start": 20}}}}),
    baseline_doc(horizon=60, attack={
        "set": [4], "kind": "replay",
        "params": {"record_len": 10, "per_sensor": {"4": {"start": 15}}}}),
    baseline_doc(horizon=0),
], ids=["L2", "L1", "L3", "pwm", "dos", "bias", "replay", "horizon0"])
def test_run_csvs_match_the_per_cell_oracle(tmp_path, doc):
    cfg = load_scenario(doc)
    traces = run_simulation(cfg)
    _assert_run_csvs_match_oracle(tmp_path, traces, cfg.L)
    if not traces:  # header only
        assert open(os.path.join(tmp_path, "got.csv"), "rb").read().count(b"\n") == 1


def test_run_csvs_match_the_oracle_on_special_floats(tmp_path):
    nan, inf = math.nan, math.inf
    shared = DetectionSets(trusted=frozenset({1}), attacked=frozenset({2}),
                           suspected=frozenset())
    odd = np.array([[-0.0, inf], [-inf, 5e-324]])

    def step(t, sets, fired):
        return StepTrace(
            t=t, x=odd, x_star=-odd, x_leader=np.array([0.0, -0.0]),
            x_hat=np.array([[nan, -nan], [1e308, -1e-308]]), x_bar=odd,
            u=np.array([-0.0, 0.1]), rho=(nan, -0.0), lam=(inf, nan),
            tau=(-inf, 5e-324), alpha=(1 / 3, -nan), beta=(nan, 2.0 ** 60),
            gains=np.array([[nan, -0.0, inf], [5e-324, -nan, 1.5]]),
            sets=sets, fired=fired, attack_norms=np.array([0.0, -0.0]),
            phi=nan, phi_platoon=-0.0)

    traces = [
        step(0, (DetectionSets.empty(),) * 2, ((False,) * 4,) * 2),
        step(1, (shared, shared), ((True, False, np.bool_(True), False),
                                   (np.False_, True, False, True))),
        step(7, (DetectionSets(trusted=frozenset({1}), attacked=frozenset({2}),
                               suspected=frozenset()),
                 DetectionSets(suspected=frozenset({1, 2}))),
             ((False, True, False, True),) * 2),
    ]
    _assert_run_csvs_match_oracle(tmp_path, traces, 1)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def drawn(data):  # every float field of one to three steps drawn
        n, steps = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        dims = {"N": n, "W": 3}
        _assert_run_csvs_match_oracle(tmp_path, [StepTrace(
            t=t, sets=(DetectionSets.empty(),) * n, fired=((False,) * 4,) * n,
            **{name: _drawn_cells(data, *(dims.get(d, d) for d in shape))
               for name, shape, form, _ in TRACE_FIELDS if form != "stored" and name != "t"})
            for t in range(steps)], 1)
    drawn()


def _synthetic_step(t, n, L, *, sets=None, fired=None, phi=1.5, **tail):
    """An ``n``-vehicle step whose head rows all differ; the tail fields are
    shared by every vehicle unless given in ``tail``."""
    head = np.arange(2.0 * n).reshape(n, 2) + 0.125
    fields = {"rho": (2.0,) * n, "lam": (3.0,) * n, "tau": (4.0,) * n,
              "alpha": (2.0,) * n, "beta": (0.5,) * n,
              "gains": np.ones((n, 2 * L + 1)), "attack_norms": np.zeros(n)}
    fields.update(tail)
    return StepTrace(
        t=t, x=head, x_star=head + 1.0, x_leader=np.zeros(2), x_hat=head / 3.0,
        x_bar=head - 7.0, u=np.arange(float(n)),
        sets=sets or (DetectionSets.empty(),) * n, fired=fired or ((False,) * 4,) * n,
        phi=phi, phi_platoon=phi / 3.0, **fields)


def test_trace_tails_are_told_apart_by_their_bytes(tmp_path):
    """Rows whose tails differ only in the sign of a zero or in a NaN's
    payload, and a step whose tails recur in the next one under another phi,
    each print as the per-cell oracle prints them."""
    n, L = 4, 1
    nan_payload = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000123))[0]
    signed_gain = np.ones((n, 3))
    signed_gain[[0, 2], 1] = 0.0
    signed_gain[[1, 3], 1] = -0.0
    nans = {"rho": (math.nan, -math.nan, nan_payload, math.nan),
            "attack_norms": np.array([0.0, -0.0, 0.0, 3.0])}
    traces = [
        _synthetic_step(0, n, L, gains=signed_gain),
        _synthetic_step(1, n, L, rho=(0.0, -0.0, 0.0, -0.0)),
        _synthetic_step(2, n, L, attack_norms=np.array([-0.0, 0.0, 0.0, -0.0])),
        _synthetic_step(3, n, L, **nans),
        _synthetic_step(4, n, L, phi=-0.0, **nans),
    ]
    _assert_run_csvs_match_oracle(tmp_path, traces, L)
    path = os.path.join(tmp_path, "trace.csv")
    write_trace_csv(path, stack_rows(traces), L)
    rows = open(path, encoding="utf-8").read().splitlines()
    assert rows[1].endswith(",1,0,1") and rows[2].endswith(",1,-0,1")
    assert [row.split(",")[11] for row in rows[5:9]] == ["0", "-0", "0", "-0"]
    assert {row.split(",")[17] for row in rows[13:17]} == {"1.5"}
    assert {row.split(",")[17] for row in rows[17:21]} == {"-0"}


def test_detection_rows_are_reused_only_for_the_same_sets_and_flags(tmp_path):
    """Quiet steps (the same set objects and flags) differ only in ``t``; a
    flipped flag, equal but distinct set objects and a changed set each
    print as the per-cell oracle prints them."""
    n = 3
    a = DetectionSets(trusted=frozenset({1, 2}), attacked=frozenset({3}),
                      suspected=frozenset())
    b = DetectionSets(suspected=frozenset({2}))
    sets = (a, b, a)
    quiet = ((False,) * 4, (True, False, False, False), (False,) * 4)
    flipped = ((False,) * 4, (True, False, False, True), (False,) * 4)
    equal = (DetectionSets(trusted=frozenset({1, 2}), attacked=frozenset({3}),
                           suspected=frozenset()), b, a)
    grown = (a, DetectionSets(suspected=frozenset({2, 3})), a)
    traces = [_synthetic_step(t, n, 1, sets=s, fired=f) for t, s, f in [
        (0, sets, quiet), (1, sets, quiet), (2, sets, quiet), (3, sets, flipped),
        (4, sets, quiet), (5, equal, quiet), (6, grown, quiet), (7, grown, quiet)]]
    _assert_run_csvs_match_oracle(tmp_path, traces, 1)
    path = os.path.join(tmp_path, "detection.csv")
    write_detection_csv(path, stack_rows(traces))
    rows = open(path, encoding="utf-8").read().splitlines()
    assert [row.split(",", 1)[1] for row in rows[4:7]] == [
        row.split(",", 1)[1] for row in rows[1:4]]
    assert rows[11] == "3,2,,,2,1,0,0,1" and rows[14] == "4,2,,,2,1,0,0,0"
    assert rows[20] == "6,2,,,2|3,1,0,0,0"


def test_metrics_csv_matches_the_per_cell_oracle(tmp_path):
    import dataclasses
    cfg = load_scenario(baseline_doc(horizon=20))
    mc = monte_carlo(cfg, runs=3, base_seed=41)
    odd = mc.eta_pos.copy()
    odd[0, :4] = [-0.0, math.inf, -math.inf, 5e-324]
    odd[1, 0] = math.nan
    phi = mc.phi.copy()
    phi[2] = -math.nan

    def check(summary):
        paths = write_monte_carlo_dir(os.path.join(tmp_path, "mc"), cfg, summary)
        want = os.path.join(tmp_path, "want.csv")
        _oracle_metrics_csv(want, summary)
        assert open(paths["metrics"], "rb").read() == open(want, "rb").read()

    for summary in (mc, dataclasses.replace(mc, eta_pos=odd, phi=phi)):
        check(summary)

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def drawn(data):  # every metric of one to three steps and vehicles drawn
        n, steps = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        check(dataclasses.replace(
            mc, n=n, horizon=steps - 1, phi=_drawn_cells(data, steps),
            phi_platoon=_drawn_cells(data, steps),
            **{key: _drawn_cells(data, steps, n)
               for key in ("eta_pos", "eta_vel", "zeta_pos", "zeta_vel")}))
    drawn()


def test_bounds_csv_matches_the_per_cell_oracle(tmp_path, monkeypatch, capsys):
    from platoonsec import cli
    cfg_path = os.path.join(tmp_path, "scenario.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(baseline_doc(horizon=30), fh)
    rows = list(bound_envelopes(load_scenario(baseline_doc(horizon=30))))
    odd = [(0, 1, -0.0, math.inf, -math.inf, 5e-324),
           (12, 3, math.nan, -math.nan, 1 / 3, 1e308)]

    def check(case):
        monkeypatch.setattr(harness, "bound_envelopes", lambda config: case)
        want = io.StringIO()
        _oracle_bounds_csv(want, case)
        dest = os.path.join(tmp_path, "bounds.csv")
        assert cli.main(["bounds", "--config", cfg_path, "--out", dest]) == 0
        assert open(dest, encoding="utf-8", newline="").read() == want.getvalue()
        capsys.readouterr()
        assert cli.main(["bounds", "--config", cfg_path]) == 0
        assert capsys.readouterr().out == want.getvalue()

    for case in (rows, odd):
        check(case)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def drawn(data):  # one to three steps of one to three vehicles, bounds drawn
        steps, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        cells = _drawn_cells(data, steps, n, 4).tolist()
        check([(t, i, *cells[t][i - 1]) for t in range(steps) for i in range(1, n + 1)])
    drawn()
