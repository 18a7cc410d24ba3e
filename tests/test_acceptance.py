"""Acceptance gate: the nine verifiable guarantees of the package.

Each test prints one ``ACCEPTANCE <k> ... PASS`` line when its criterion
holds; tolerances are pinned in the assertions.  The five-vehicle reference
scenario shared by several criteria lives in ``conftest.baseline_doc``.
"""

import json
import math
import os
from time import perf_counter

import numpy as np
import pytest

from conftest import baseline_doc
from oracles import measure, reconstruct_absolute, stack_measurements
from platoonsec import cli, controller, observer, sensing
from platoonsec.core import DetectionSets, Topology, load_scenario
from platoonsec.dynamics import plant_norm
from platoonsec.harness import feasibility_report, run_simulation

FULL_SETS = DetectionSets(frozenset({1, 2, 4, 5}), frozenset({3}), frozenset())
DIAMETER = Topology.build(5, 2).diameter()  # == 2


def _report(k: int, label: str) -> None:
    print(f"ACCEPTANCE {k} ({label}): PASS")


# --------------------------------------------------------------------------
# shared 100-run ensemble of the reference scenario (criteria 1 and 3)
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ensemble():
    cfg = load_scenario(baseline_doc())
    runs = []
    sim_time = 0.0
    for k in range(100):
        t0 = perf_counter()
        traces = run_simulation(cfg, seed=cfg.seed + k, run_index=k)
        sim_time += perf_counter() - t0
        worst_gap = -math.inf
        t_sat = None
        settled = True
        for tr in traces:
            err = np.linalg.norm(tr.x_hat - tr.x, axis=1)
            worst_gap = max(worst_gap, float(np.max(err - np.asarray(tr.alpha))))
            if t_sat is None and any(len(s.attacked) == 1 for s in tr.sets):
                t_sat = tr.t
            if (t_sat is not None and tr.t >= t_sat + DIAMETER
                    and any(s != FULL_SETS for s in tr.sets)):
                settled = False
        runs.append((worst_gap, t_sat, settled))
    return {"sim_time": sim_time, "runs": runs}


def test_acceptance_1_bound_soundness(ensemble):
    worst = max(r[0] for r in ensemble["runs"])
    assert worst <= 1e-9, f"estimation error exceeded alpha by {worst}"
    assert ensemble["sim_time"] < 10.0, (
        f"100 runs took {ensemble['sim_time']:.2f}s, over the 10s budget")
    _report(1, f"bound soundness, worst gap {worst:.3e}, "
               f"{ensemble['sim_time']:.2f}s for 100 runs")


def test_acceptance_3_finite_time_identification(ensemble):
    for k, (_, t_sat, settled) in enumerate(ensemble["runs"]):
        assert t_sat is not None, f"run {k} never confirmed the attacked sensor"
        assert settled, (f"run {k}: sets not exactly settled within "
                         f"{DIAMETER} steps of t={t_sat}")
    _report(3, "finite-time identification, exact sets within diameter steps")


# --------------------------------------------------------------------------
# criterion 2: detector fault-freeness on >= 10^4 randomized scenarios
# --------------------------------------------------------------------------

def _stable_gains(rng, T, n):
    while True:
        g_v = float(rng.uniform(5.0, 0.45 / T))
        g_s = float(rng.uniform(5.0, 80.0))
        if controller.check_gains(g_s, g_v, T, n).ok:
            return g_s, g_v


def _random_scenario(rng, index, horizon_range=(8, 21), q_range=(100.0, 500.0)):
    n = int(rng.integers(5, 10))
    L = int(rng.integers(1, min(3, (n - 1) // 2) + 1))
    b = int(rng.integers(1, L + 1))
    T = float(rng.uniform(0.005, 0.02))
    q = float(rng.uniform(*q_range))
    eps = float(rng.uniform(0.01, 0.3))
    mu = float(rng.uniform(0.01, 0.3))
    g_s, g_v = _stable_gains(rng, T, n)

    kind = ("random", "dos", "bias", "replay")[index % 4]
    params = {"start": int(rng.integers(0, 8))}
    if kind == "random":
        params["scale"] = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
    elif kind == "bias":
        beta_max = plant_norm(T) * q + eps + (L + 1) * mu
        mag = float(np.exp(rng.uniform(np.log(0.1 * 3 * mu),
                                       np.log(10.0 * beta_max))))
        ang = float(rng.uniform(0.0, 2 * np.pi))
        params["offset"] = [mag * math.cos(ang), mag * math.sin(ang)]
    elif kind == "replay":
        params["record_len"] = int(rng.integers(1, 10))
    attacked = sorted(int(v) for v in rng.choice(np.arange(1, n + 1),
                                                 size=b, replace=False))

    pos = rng.uniform(0.0, 0.6 * q / math.sqrt(2.0), size=n)
    vel = rng.uniform(-10.0, 10.0, size=n)
    x_init = [[float(p), float(v)] for p, v in zip(pos, vel)]
    return {
        "N": n, "L": L, "b": b, "T": T, "q": q, "epsilon": eps, "mu": mu,
        "g_s": g_s, "g_v": g_v,
        "threshold_mode": {"mode": "adaptive" if index % 2 else "static"},
        "attack": {"set": attacked, "kind": kind, "params": params},
        "horizon": int(rng.integers(*horizon_range)),
        "seed": int(rng.integers(2 ** 31)),
        "delta_x": [[20.0, 0.0]] * (n - 1),
        "x0": x_init[0],
        "x_init": x_init,
    }


def test_acceptance_2_detector_fault_freeness():
    rng = np.random.default_rng(987654321)
    scenarios = 10500
    for s in range(scenarios):
        doc = _random_scenario(rng, s)
        cfg = load_scenario(doc)
        true_attacked = frozenset(cfg.attack.attacked)
        clean = frozenset(range(1, cfg.N + 1)) - true_attacked
        prev = (DetectionSets.empty(),) * cfg.N
        for tr in run_simulation(cfg):
            for k, si in enumerate(tr.sets):
                assert si.attacked <= true_attacked, (s, tr.t, k)
                assert si.trusted <= clean, (s, tr.t, k)
                assert si.attacked >= prev[k].attacked, (s, tr.t, k)
                assert si.trusted >= prev[k].trusted, (s, tr.t, k)
            prev = tr.sets
    _report(2, f"detector fault-freeness, {scenarios} scenarios, 0 violations")


# --------------------------------------------------------------------------
# criterion 4: asymptotic estimation bounds on long horizons
# --------------------------------------------------------------------------

def test_acceptance_4_asymptotic_bounds():
    rng = np.random.default_rng(24680)
    accepted = 0
    worst_margin = -math.inf
    while accepted < 50:
        doc = _random_scenario(rng, accepted)
        doc["horizon"] = 2000
        cfg = load_scenario(doc)
        rep = feasibility_report(cfg)
        est = rep.get("estimation_bounds")
        if (not rep["threshold"]["feasible"] or est is None
                or "error" in est["static"] or "error" in est["adaptive"]):
            continue
        accepted += 1

        params = observer.ObserverParams.from_config(cfg)
        thr = observer.design_threshold(params, cfg.threshold_mode,
                                        beta=cfg.beta, omega=cfg.omega)
        bound_fn = (observer.asymptotic_bounds_static
                    if cfg.threshold_mode == "static"
                    else observer.asymptotic_bounds_adaptive)
        topo = cfg.topology()

        traces = run_simulation(cfg)
        tail = traces[-200:]  # final 10% of the horizon
        final_sets = traces[-1].sets
        sup = np.max(np.stack(
            [np.linalg.norm(tr.x_hat - tr.x, axis=1) for tr in tail]), axis=0)
        for i in range(1, cfg.N + 1):
            a1, a2, a3 = bound_fn(final_sets[i - 1], topo, thr.beta0, params)
            if i in topo.v1:
                bound = a1
            elif i in final_sets[i - 1].trusted:
                bound = a2
            else:
                bound = a3
            margin = float(sup[i - 1]) - bound
            worst_margin = max(worst_margin, margin)
            assert margin <= 1e-6, (accepted, i, margin)

        # the adaptive limit never exceeds the static one on the same inputs
        empty = DetectionSets.empty()
        st = observer.asymptotic_bounds_static(empty, topo, thr.beta0, params)
        ad = observer.asymptotic_bounds_adaptive(empty, topo, thr.beta0, params)
        assert ad[0] <= st[0] + 1e-12
    _report(4, f"asymptotic bounds, 50 configs, worst margin {worst_margin:.3e}")


# --------------------------------------------------------------------------
# criterion 5: noise-free convergence
# --------------------------------------------------------------------------

def test_acceptance_5_noise_free_convergence():
    cfg = load_scenario(baseline_doc(epsilon=0.0, mu=0.0, horizon=2000))
    traces = run_simulation(cfg)
    ratio = traces[-1].phi / traces[0].phi
    assert ratio <= 1e-3, f"phi(2000)/phi(0) = {ratio}"
    _report(5, f"noise-free convergence, ratio {ratio:.3e} <= 1e-3")


# --------------------------------------------------------------------------
# criterion 6: closed-loop analysis
# --------------------------------------------------------------------------

def test_acceptance_6_closed_loop_analysis():
    loop = controller.closed_loop_matrix(5, 0.01, 50.0, 50.0)
    radius = controller.spectral_radius(loop)
    assert radius < 1.0

    blocks = controller.block_spectrum(5, 0.01, 50.0, 50.0)
    full = sorted(np.linalg.eigvals(loop), key=lambda z: (abs(z), z.real, z.imag))
    assert np.max(np.abs(blocks - np.array(full))) <= 1e-8

    cert = controller.iss_certificate(loop)
    residual = np.linalg.norm(loop.T @ cert.M @ loop - cert.M + np.eye(10))
    assert residual <= 1e-8 * np.linalg.norm(cert.M)

    rng = np.random.default_rng(13579)
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        raw = rng.normal(size=(dim, dim))
        mat = raw * (float(rng.uniform(0.3, 0.95)) / controller.spectral_radius(raw))
        sigma = float(rng.uniform(0.1, 2.0))
        c = controller.iss_certificate(mat)
        x = np.zeros(dim)
        peak = 0.0
        for t in range(1500):
            w = rng.normal(size=dim)
            w *= sigma / np.linalg.norm(w)
            x = mat @ x + w
            if t >= 1300:
                peak = max(peak, float(np.linalg.norm(x)))
        assert peak <= c.xi(sigma) + 1e-9
        worst = max(worst, peak / c.xi(sigma))
    _report(6, f"closed-loop analysis, worst peak/xi {worst:.3f} <= 1")


# --------------------------------------------------------------------------
# criterion 7: threshold feasibility algebra
# --------------------------------------------------------------------------

def _random_params(rng, L, b):
    T = float(rng.uniform(0.005, 0.02))
    norm_A = plant_norm(T)
    hi = norm_A / (norm_A - 1.0)
    return observer.ObserverParams(
        L=L, b=b, q=float(rng.uniform(100.0, 500.0)),
        eps=float(rng.uniform(0.01, 0.3)), mu=float(rng.uniform(0.01, 0.3)),
        norm_A=norm_A, varpi=(1.0 + hi) / 2.0)


def test_acceptance_7_feasibility_algebra():
    rng = np.random.default_rng(97531)
    for _ in range(200):
        L = int(rng.integers(1, 4))
        b = int(rng.integers(L + 1, 2 * L + 2))  # over budget: b > L
        p = _random_params(rng, L, b)
        assert observer.feasible_omegas(p) == [], (L, b)
    for _ in range(200):
        L = int(rng.integers(1, 4))
        b = int(rng.integers(1, L + 1))          # within budget: b <= L
        p = _random_params(rng, L, b)
        assert len(observer.feasible_omegas(p)) >= 1, (L, b)
    _report(7, "feasibility algebra, 200+200 configs")


# --------------------------------------------------------------------------
# criterion 8: measurement reconstruction identities
# --------------------------------------------------------------------------

def test_acceptance_8_reconstruction_identities():
    rng = np.random.default_rng(55555)
    for trial in range(1000):
        n = int(rng.integers(5, 10))
        L = int(rng.integers(1, min(3, (n - 1) // 2) + 1))
        b = int(rng.integers(1, L + 1))
        topo = Topology.build(n, L)
        xs = rng.integers(-2 ** 19 + 1, 2 ** 19, size=(n, 2)) / 64.0

        noisy = trial % 2 == 1
        clean = trial % 4 == 0
        if clean:
            spec = sensing.AttackSpec(attacked=frozenset(), kind="bias")
            offsets = {}
            mu = 0.0
        else:
            attacked = frozenset(int(v) for v in rng.choice(
                np.arange(1, n + 1), size=b, replace=False))
            if noisy:
                off = rng.normal(size=2) * 50.0
                mu = float(rng.uniform(0.01, 0.5))
            else:
                off = rng.integers(1, 2 ** 12, size=2) / 64.0
                mu = 0.0
            spec = sensing.AttackSpec(attacked=attacked, kind="bias",
                                      offset=(float(off[0]), float(off[1])))
            offsets = {j: np.asarray(off, dtype=float) for j in attacked}

        frame = measure(
            xs, mu, sensing.AttackState(spec), 0,
            np.random.default_rng(trial) if mu else None)

        for i in topo.vehicles():
            if i in topo.v1:
                stacked = stack_measurements(frame, i, topo)
                pairs = list(zip(stacked.blocks, stacked.labels))
            else:  # truncated neighbourhood: reconstruct sensor by sensor
                pairs = [(reconstruct_absolute(frame, i, j, topo), j)
                         for j in sorted({i} | set(topo.neighbors[i]))]
            x_i = xs[i - 1]
            deviants = set()
            for row, j in pairs:
                adj = row - offsets.get(j, 0.0)
                if mu == 0.0:
                    if not np.array_equal(adj, x_i):
                        deviants.add(j)
                    if clean:
                        assert np.array_equal(row, x_i), (trial, i, j)
                else:
                    slack = (abs(i - j) + 1) * mu + 1e-9
                    assert float(np.linalg.norm(adj - x_i)) <= slack, (trial, i, j)
            assert len(deviants) <= 2 * b, (trial, i)
            assert deviants <= set(spec.attacked), (trial, i)
    _report(8, "reconstruction identities, 1000 frames")


# --------------------------------------------------------------------------
# criterion 9: byte-level determinism of the CLI
# --------------------------------------------------------------------------

def test_acceptance_9_cli_determinism(tmp_path, capsys):
    cfg_path = os.path.join(tmp_path, "scenario.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(baseline_doc(horizon=50), fh)
    out_a = os.path.join(tmp_path, "a")
    out_b = os.path.join(tmp_path, "b")
    assert cli.main(["run", "--config", cfg_path, "--out", out_a]) == 0
    assert cli.main(["run", "--config", cfg_path, "--out", out_b]) == 0
    capsys.readouterr()
    trace_a = open(os.path.join(out_a, "trace.csv"), "rb").read()
    trace_b = open(os.path.join(out_b, "trace.csv"), "rb").read()
    assert len(trace_a) > 10000
    assert trace_a == trace_b
    for name in ("detection.csv", "summary.json"):
        assert (open(os.path.join(out_a, name), "rb").read()
                == open(os.path.join(out_b, name), "rb").read())
    _report(9, "byte-identical traces for identical config and seed")


# --------------------------------------------------------------------------
# resilient estimation versus raw-measurement control (regression)
# --------------------------------------------------------------------------

def test_resilient_control_beats_raw_measurement_feedthrough():
    """Under the reference attack, closing the loop on raw absolute readings
    tracks badly, while the resilient observer loop settles near its noise
    floor; both endpoints are pinned."""
    obs = run_simulation(load_scenario(baseline_doc()))
    pwm = run_simulation(load_scenario(baseline_doc(controller_mode="pwm")))
    assert obs[-1].phi_platoon == 13.606427293346082
    assert pwm[-1].phi_platoon == 122.68463126212207
    obs_tail = float(np.mean([tr.phi_platoon for tr in obs[-50:]]))
    pwm_tail = float(np.mean([tr.phi_platoon for tr in pwm[-50:]]))
    assert obs_tail < 25.0 < 100.0 < pwm_tail
    assert pwm_tail / obs_tail > 5.0
