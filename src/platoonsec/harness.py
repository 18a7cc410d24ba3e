"""Deterministic closed-loop simulation, Monte Carlo aggregation, persistence.

One simulated step runs, in order: plant propagation under the previous
control, reference/formation propagation, sensing with attack injection,
set fusion with the neighbours' previous-step sets plus detection, the
observer update, the error-bound recursions, and finally the controller.
The detector runs before the observer on purpose — the observer's gains and
the edge vehicles' source selection consume the *current* step's sets, while
the detection tests themselves only use previous-step bounds and predictions.

Every random draw comes from a counter-based generator keyed by
``(seed, run, t, vehicle, stream)``, so a run is reproducible bit for bit
regardless of execution order, and Monte Carlo runs are independent.
"""

import json
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from . import controller, detector, observer, sensing
from .core import (ConfigError, DetectionSets, InconsistentSetsError,
                   ScenarioConfig, describe_clash, fuse_sets)
from .dynamics import (advance_deltas, desired_state_chain, reference_step, rows_array,
                       step_rows)
from .rng import RunRandom

LOG = logging.getLogger(__name__)


class SimulationError(RuntimeError):
    """The scenario cannot be simulated with guarantees (infeasible design)."""


# --------------------------------------------------------------------------
# performance metrics
# --------------------------------------------------------------------------

def _phi_pair(xs, x_hats, x_stars) -> tuple:
    """Both performance metrics at once from rows of ``(s, v)`` pairs,
    sharing the tracking-error norms."""
    total = 0.0
    track = 0.0
    for (s, v), (hs, hv), (ts, tv) in zip(xs, x_hats, x_stars):
        est_i = math.hypot(hs - s, hv - v)
        trk_i = math.hypot(s - ts, v - tv)
        total += est_i + trk_i
        track += trk_i
    n = len(xs)
    return total / n, track / n


# --------------------------------------------------------------------------
# traces
# --------------------------------------------------------------------------

@dataclass(slots=True)
class StepTrace:
    """Complete state of the simulation after one step (treat as read-only)."""

    t: int
    x: np.ndarray        # (N, 2) true states
    x_star: np.ndarray   # (N, 2) desired formation states
    x_leader: np.ndarray  # (2,) reference state
    x_hat: np.ndarray    # (N, 2) estimates
    x_bar: np.ndarray    # (N, 2) predictions used this step
    u: np.ndarray        # (N,) control inputs computed this step
    rho: tuple           # (N,) interior bound, NaN for edge vehicles
    lam: tuple           # (N,) cleared-edge bound, NaN for interior
    tau: tuple           # (N,) leaning-edge bound, NaN for interior
    alpha: tuple         # (N,) active real-time error bound
    beta: tuple          # (N,) saturation threshold used, NaN for edge / t=0
    gains: np.ndarray    # (N, 2L+1) innovation gains, NaN where not applicable
    sets: tuple          # per-vehicle DetectionSets
    fired: tuple         # (N, 4) detector rule flags
    attack_norms: np.ndarray  # (N,) injected attack magnitude per sensor
    phi: float
    phi_platoon: float


def stack_traces(traces) -> dict:
    """Bundle a trace list into time-major arrays for analysis."""
    if not traces:
        return {}
    return {
        "t": np.array([tr.t for tr in traces]),
        "x": np.stack([tr.x for tr in traces]),
        "x_star": np.stack([tr.x_star for tr in traces]),
        "x_leader": np.stack([tr.x_leader for tr in traces]),
        "x_hat": np.stack([tr.x_hat for tr in traces]),
        "u": np.stack([tr.u for tr in traces]),
        "alpha": np.array([tr.alpha for tr in traces]),
        "rho": np.array([tr.rho for tr in traces]),
        "lam": np.array([tr.lam for tr in traces]),
        "tau": np.array([tr.tau for tr in traces]),
        "phi": np.array([tr.phi for tr in traces]),
        "phi_platoon": np.array([tr.phi_platoon for tr in traces]),
    }


# --------------------------------------------------------------------------
# single deterministic run
# --------------------------------------------------------------------------

def _validated_design(config: ScenarioConfig):
    """Initial error within ``q``, threshold policy and gain certificate, or a
    structured failure."""
    worst, vehicle = config.initial_error()
    if worst > config.q:
        raise SimulationError(
            f"initial estimation error {worst:.6g} of vehicle {vehicle} exceeds "
            f"q={config.q:.6g}; the error bounds and the detector's guarantees "
            "do not hold")
    params = observer.ObserverParams.from_config(config)
    try:
        thr = observer.design_threshold(params, config.threshold_mode,
                                        beta=config.beta, omega=config.omega)
    except (observer.InfeasibleThresholdError, ConfigError) as exc:
        raise SimulationError(f"threshold design failed: {exc}") from exc
    gains = controller.check_gains(config.g_s, config.g_v, config.T, config.N)
    if not gains.ok:
        raise SimulationError(
            "controller gains violate the stability condition: "
            f"velocity margin {gains.velocity_margin:.6g}, "
            f"rate margin {gains.rate_margin:.6g}")
    return params, thr, gains


def _control_all(n, stars, lead, own, nb, g_s, g_v) -> list:
    """Whole-platoon control law, term for term the per-vehicle rule, on
    float rows: desired states, the leader, and the own and neighbour sources.

    Vehicle ``i`` couples to its physical neighbours ``i-1`` (the virtual
    leader for ``i=1``) and ``i+1`` (absent for ``i=N``); each coupling adds
    a spring term on position and a damper term on velocity, offset by the
    desired formation gap.
    """
    u = [0.0] * n
    for k in range(n):
        star_s, star_v = stars[k]
        own_s, own_v = own[k]
        front = lead if k == 0 else nb[k - 1]
        front_star = lead if k == 0 else stars[k - 1]
        uk = g_s * (front[0] - own_s + (star_s - front_star[0]))
        uk += g_v * (front[1] - own_v + (star_v - front_star[1]))
        if k < n - 1:
            rear = nb[k + 1]
            rear_star = stars[k + 1]
            uk += g_s * (rear[0] - own_s + (star_s - rear_star[0]))
            uk += g_v * (rear[1] - own_v + (star_v - rear_star[1]))
        u[k] = uk
    return u


def run_simulation(config: ScenarioConfig, *, seed: int | None = None,
                   run_index: int = 0) -> list:
    """Simulate one closed-loop run and return a trace row per step.

    ``seed`` overrides ``config.seed``; ``run_index`` separates Monte Carlo
    runs in the random stream.  Identical arguments give identical traces.

    Every per-vehicle quantity is carried as Python float rows ``(s, v)``;
    numpy arrays are built once per step, for the ``StepTrace`` fields only.
    """
    params, thr, _ = _validated_design(config)
    topo = config.topology()
    plant = config.plant()
    if config.horizon == 0:
        return []

    n = config.N
    Lw = config.L
    width = 2 * Lw + 1
    T = plant.T
    vehicles = range(1, n + 1)
    interior = [i in topo.v1 for i in vehicles]
    inner = slice(Lw, n - Lw)  # rows of the interior vehicles L+1 .. N-L
    edge_vehicles = sorted(topo.v2)
    nbr_lists = [sorted(topo.neighbors[i]) for i in vehicles]
    pwm = config.controller_mode == "pwm"
    g_s, g_v = config.g_s, config.g_v
    mu, eps, b = config.mu, config.epsilon, config.b
    norm_A = plant.norm_A
    varpi = config.varpi
    nan = math.nan
    has_attack = bool(config.attack.attacked)
    rnd = RunRandom(config.seed if seed is None else seed, run_index)

    x = [(float(s), float(v)) for s, v in config.x_init]
    x_hat = [(float(s), float(v)) for s, v in config.x_hat_init]
    lead = (float(config.x0[0]), float(config.x0[1]))
    x_leader = np.array(lead)
    deltas = [(float(s), float(v)) for s, v in config.delta_x]
    x_star = desired_state_chain(lead, deltas)
    stars = x_star.tolist()

    sets = [DetectionSets.empty()] * n
    # bounds that never apply to a vehicle's class stay NaN in the trace
    rho = [params.q if flag else nan for flag in interior]
    lam = [nan if flag else params.q for flag in interior]
    tau = [nan if flag else params.q for flag in interior]
    alpha = [params.q] * n

    att_state = sensing.AttackState(config.attack)
    y_abs, _, norms = sensing.measure_rows(x, config.attack, mu, att_state, 0,
                                           rnd.measurement(0) if mu else None,
                                           rnd.attack(0) if has_attack else None)
    ctrl_src = y_abs if pwm else x_hat
    u = _control_all(n, stars, lead, ctrl_src, ctrl_src, g_s, g_v)

    phi0, phi0_platoon = _phi_pair(x, x_hat, stars)
    x_hat_arr = rows_array(x_hat, 2)
    traces = [StepTrace(
        t=0, x=rows_array(x, 2), x_star=x_star, x_leader=x_leader, x_hat=x_hat_arr,
        x_bar=x_hat_arr, u=np.array(u), rho=tuple(rho), lam=tuple(lam),
        tau=tuple(tau), alpha=tuple(alpha), beta=(nan,) * n,
        gains=np.full((n, width), np.nan), sets=tuple(sets),
        fired=((False,) * 4,) * n, attack_norms=np.array(norms),
        phi=phi0, phi_platoon=phi0_platoon)]

    # identity memos, one slot per vehicle; each is sound because fusion and
    # detection hand back the very same sets object whenever no set grew:
    # - fused: fusion is a pure function of its input sets, so it reruns only
    #   for the vehicles in ``refuse``, whose own or a neighbour's sets object
    #   changed in the last step; without this memo the N=101, H=500 run took
    #   about 22% longer (best of 10 on a 2-core Xeon host: 0.93 s -> 1.13 s)
    # - count_memo: the detector's counting rules on a quiet step
    # - class_memo: an interior window's gate classes and count terms
    # - edge_memo: an edge vehicle's source, its distance, and whether its
    #   own sensor is trusted
    fused = [None] * n
    refuse = set(range(n))
    local = [[k, *(j - 1 for j in nbr_lists[k])] for k in range(n)]
    count_memo = [None] * n
    class_memo = [None] * n
    edge_memo = [None] * n
    nan_gains = [nan] * width
    zero_noise = [(0.0, 0.0)] * n

    for t in range(1, config.horizon + 1):
        d = sensing.sample_noise(rnd.process(t), eps, n).tolist() if eps else zero_noise
        x = step_rows(x, u, T, d)
        x_leader = reference_step(lead, plant)
        lead = x_leader.tolist()
        deltas = advance_deltas(deltas, plant)
        x_star = desired_state_chain(lead, deltas)
        stars = x_star.tolist()

        y_abs, y_rel, norms = sensing.measure_rows(
            x, config.attack, mu, att_state, t,
            rnd.measurement(t) if mu else None, rnd.attack(t) if has_attack else None)
        pref = sensing.prefix_rows(y_rel)
        x_bar = step_rows(x_hat, u, T)

        new_sets = []
        flags = []
        try:
            for i in vehicles:
                k = i - 1
                if k in refuse:
                    fused[k] = fuse_sets(sets[k], tuple(sets[j - 1] for j in nbr_lists[k]))
                bound_prev = rho[k] if interior[k] else tau[k]
                res = detector.detector_step(
                    i, fused[k], y_rel[i - 2] if i >= 2 else None,
                    y_abs[i - 2] if i >= 2 else None, y_abs[k],
                    x_bar[k], bound_prev, n, b, mu, eps, norm_A, count_memo)
                new_sets.append(res.sets)
                flags.append((res.pairwise, res.innovation, res.exhaustion,
                              res.completion))
        except InconsistentSetsError as exc:
            parties = [(j, sets[j - 1]) for j in sorted([i, *nbr_lists[i - 1]])]
            clash = describe_clash(parties)
            raise InconsistentSetsError(f"step {t}, vehicle {i}: {exc}"
                                        + (f"; {clash}" if clash else "")) from exc

        x_hat = [None] * n
        gains = [nan_gains] * n
        beta_row = [nan] * n
        alpha_new = [0.0] * n
        estimates, gain_rows, betas, bounds = observer.interior_rows(
            x_bar, y_abs, pref, new_sets, rho, thr, params, class_memo)
        x_hat[inner] = estimates
        gains[inner] = gain_rows
        beta_row[inner] = betas
        rho[inner] = bounds
        alpha_new[inner] = bounds
        for i in edge_vehicles:
            k = i - 1
            si = new_sets[k]
            entry = edge_memo[k]
            if entry is None or entry[0] is not si:
                j = observer.nearest_trusted(i, si, topo)
                entry = edge_memo[k] = (si, j, abs(j - i), i in si.trusted)
            _, j, dist, own_trusted = entry
            if own_trusted:
                src = y_abs[k]
            else:
                src = sensing.chained_rows((x_bar[j - 1],), (pref[j - 1],), pref[k])[0]
            x_hat[k] = observer.measurement_update_v2(x_bar[k], src, varpi)
            tau[k] = observer.tau_update(tau[k], dist, alpha[j - 1], params)
            if own_trusted:
                lam[k] = observer.lambda_update(lam[k], params)
                alpha_new[k] = lam[k]
            else:
                lam[k] = tau[k]
                alpha_new[k] = tau[k]

        refuse = {j for k in range(n) if new_sets[k] is not sets[k] for j in local[k]}
        sets = new_sets
        alpha = alpha_new
        if pwm:
            u = _control_all(n, stars, lead, y_abs, y_abs, g_s, g_v)
        else:
            u = _control_all(n, stars, lead, x_hat, x_bar, g_s, g_v)

        phi_t, phi_t_platoon = _phi_pair(x, x_hat, stars)
        traces.append(StepTrace(
            t=t, x=rows_array(x, 2), x_star=x_star, x_leader=x_leader,
            x_hat=rows_array(x_hat, 2), x_bar=rows_array(x_bar, 2), u=np.array(u),
            rho=tuple(rho), lam=tuple(lam), tau=tuple(tau), alpha=tuple(alpha),
            beta=tuple(beta_row), gains=rows_array(gains, width), sets=tuple(new_sets),
            fired=tuple(flags), attack_norms=np.array(norms),
            phi=phi_t, phi_platoon=phi_t_platoon))
    return traces


# --------------------------------------------------------------------------
# Monte Carlo
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MonteCarloSummary:
    """Per-step aggregates over independent runs, per the usual conventions:
    ``eta`` is the mean absolute estimation error per vehicle and component,
    ``zeta`` the mean state relative to the reference vehicle."""

    runs: int
    base_seed: int
    horizon: int
    n: int
    eta_pos: np.ndarray       # (H+1, N)
    eta_vel: np.ndarray       # (H+1, N)
    zeta_pos: np.ndarray      # (H+1, N)
    zeta_vel: np.ndarray      # (H+1, N)
    phi: np.ndarray           # (H+1,)
    phi_platoon: np.ndarray   # (H+1,)
    final_phi: np.ndarray     # (runs,)

    def to_json(self) -> dict:
        return {
            "runs": self.runs, "base_seed": self.base_seed,
            "horizon": self.horizon, "N": self.n,
            "phi": list(self.phi), "phi_platoon": list(self.phi_platoon),
            "final_phi": list(self.final_phi),
            "eta_pos": [list(r) for r in self.eta_pos],
            "eta_vel": [list(r) for r in self.eta_vel],
            "zeta_pos": [list(r) for r in self.zeta_pos],
            "zeta_vel": [list(r) for r in self.zeta_vel],
        }


def _run_metrics(traces) -> dict:
    data = stack_traces(traces)
    err = data["x_hat"] - data["x"]
    rel = data["x"] - data["x_leader"][:, None, :]
    return {
        "eta_pos": np.abs(err[:, :, 0]), "eta_vel": np.abs(err[:, :, 1]),
        "zeta_pos": rel[:, :, 0], "zeta_vel": rel[:, :, 1],
        "phi": data["phi"], "phi_platoon": data["phi_platoon"],
    }


def monte_carlo(config: ScenarioConfig, runs: int,
                base_seed: int | None = None) -> MonteCarloSummary:
    """Aggregate ``runs`` independent simulations; run ``k`` is seeded with
    ``base_seed + k`` so the ensemble is reproducible and order-independent."""
    if runs < 1:
        raise ValueError(f"need at least one run, got {runs}")
    base = config.seed if base_seed is None else base_seed
    per_run = []
    for k in range(runs):
        traces = run_simulation(config, seed=base + k, run_index=k)
        if traces:
            per_run.append(_run_metrics(traces))
    if config.horizon == 0:
        shape = (0, config.N)
        zero = np.zeros(shape)
        return MonteCarloSummary(runs=runs, base_seed=base, horizon=0, n=config.N,
                                 eta_pos=zero, eta_vel=zero.copy(),
                                 zeta_pos=zero.copy(), zeta_vel=zero.copy(),
                                 phi=np.zeros(0), phi_platoon=np.zeros(0),
                                 final_phi=np.zeros(runs))
    agg = {key: sum(m[key] for m in per_run) / runs for key in per_run[0]}
    return MonteCarloSummary(
        runs=runs, base_seed=base, horizon=config.horizon, n=config.N,
        eta_pos=agg["eta_pos"], eta_vel=agg["eta_vel"],
        zeta_pos=agg["zeta_pos"], zeta_vel=agg["zeta_vel"],
        phi=agg["phi"], phi_platoon=agg["phi_platoon"],
        final_phi=np.array([m["phi"][-1] for m in per_run]))


# --------------------------------------------------------------------------
# feasibility report and offline bound envelopes
# --------------------------------------------------------------------------

def feasibility_report(config: ScenarioConfig) -> dict:
    """Every design check in one JSON-ready document: initial error against
    ``q``, threshold interval, gain margins, closed-loop spectrum, Lyapunov
    data, and the asymptotic estimation/tracking bounds evaluated with empty
    detection sets."""
    topo = config.topology()
    plant = config.plant()
    params = observer.ObserverParams.from_config(config)
    empty = DetectionSets.empty()
    worst, vehicle = config.initial_error()

    report = {
        "plant": {"T": config.T, "norm_A": plant.norm_A, "varpi": config.varpi,
                  "edge_contraction": params.contraction, "mu_bar": params.mu_bar},
        "topology": {"N": config.N, "L": config.L,
                     "interior": sorted(topo.v1), "edge": sorted(topo.v2),
                     "diameter": topo.diameter()},
        "initial_error": {"max": worst, "vehicle": vehicle, "q": config.q,
                          "within_q": worst <= config.q},
    }

    feasible_omegas = observer.feasible_omegas(params)
    try:
        thr = observer.design_threshold(params, config.threshold_mode,
                                        beta=config.beta, omega=config.omega)
        report["threshold"] = {
            "mode": thr.mode, "feasible": True, "beta0": thr.beta0, "k0": thr.k0,
            "omega": thr.omega,
            "interval": list(thr.interval) if thr.interval else None,
            "feasible_omega_count": len(feasible_omegas),
        }
    except (observer.InfeasibleThresholdError, ConfigError) as exc:
        thr = None
        report["threshold"] = {
            "mode": config.threshold_mode, "feasible": False, "error": str(exc),
            "feasible_omega_count": len(feasible_omegas),
        }

    g = controller.check_gains(config.g_s, config.g_v, config.T, config.N)
    report["gains"] = {"ok": g.ok, "lambda_max": g.lambda_max,
                       "velocity_margin": g.velocity_margin,
                       "rate_margin": g.rate_margin}

    P = controller.closed_loop_matrix(config.N, config.T, config.g_s, config.g_v)
    radius = controller.spectral_radius(P)
    block = controller.block_spectrum(config.N, config.T, config.g_s, config.g_v)
    full = np.array(sorted(np.linalg.eigvals(P), key=lambda z: (abs(z), z.real, z.imag)))
    report["closed_loop"] = {"spectral_radius": radius, "schur": radius < 1.0,
                             "spectrum_gap": float(np.max(np.abs(block - full)))}

    cert = None
    if radius < 1.0:
        cert = controller.iss_certificate(P)
        residual = np.linalg.norm(P.T @ cert.M @ P - cert.M + np.eye(2 * config.N))
        report["closed_loop"]["lyapunov_residual"] = float(residual)
        report["closed_loop"]["kappa"] = cert.kappa

    def _triple(fn, level):
        try:
            a1, a2, a3 = fn(empty, topo, level, params)
            return {"interior": a1, "edge_cleared": a2, "edge_leaning": a3}
        except observer.InfeasibleBoundError as exc:
            return {"error": str(exc)}

    if thr is not None:
        bounds = {"static": _triple(observer.asymptotic_bounds_static, thr.beta0),
                  "adaptive": _triple(observer.asymptotic_bounds_adaptive, thr.beta0)}
        report["estimation_bounds"] = bounds
        if cert is not None:
            tracking = {}
            for mode, entry in bounds.items():
                if "error" in entry:
                    tracking[mode] = {"error": entry["error"]}
                    continue
                tb = controller.tracking_bound(
                    max(entry.values()), config.N, config.T,
                    config.g_s, config.g_v, config.epsilon, cert)
                tracking[mode] = {"alpha_hat": tb.alpha_hat, "sigma": tb.sigma,
                                  "xi": tb.xi, "total": tb.total}
            report["tracking_bounds"] = tracking
    return report


def bound_envelopes(config: ScenarioConfig) -> list:
    """Offline worst-case bound trajectories with detection sets held empty.

    Returns one row per (t, vehicle): ``(t, i, rho, lam, tau, alpha)`` with
    NaN where a bound does not apply to the vehicle's class.
    """
    topo = config.topology()
    params = observer.ObserverParams.from_config(config)
    try:
        thr = observer.design_threshold(params, config.threshold_mode,
                                        beta=config.beta, omega=config.omega)
    except (observer.InfeasibleThresholdError, ConfigError) as exc:
        raise SimulationError(f"threshold design failed: {exc}") from exc
    empty = DetectionSets.empty()
    nan = float("nan")

    rho = {i: params.q for i in topo.v1}
    tau = {i: params.q for i in topo.v2}
    alpha = {i: params.q for i in topo.vehicles()}
    source = {i: observer.nearest_trusted(i, empty, topo) for i in topo.v2}

    rows = []
    for i in topo.vehicles():
        if i in topo.v1:
            rows.append((0, i, params.q, nan, nan, params.q))
        else:
            rows.append((0, i, nan, params.q, params.q, params.q))
    for t in range(1, config.horizon + 1):
        new_rho = {i: observer.rho_update(rho[i], empty, i, topo,
                                          thr.beta_at(rho[i], params), params)
                   for i in topo.v1}
        new_tau = {i: observer.tau_update(tau[i], abs(source[i] - i),
                                          alpha[source[i]], params)
                   for i in topo.v2}
        rho, tau = new_rho, new_tau
        alpha = {**rho, **tau}
        for i in topo.vehicles():
            if i in topo.v1:
                rows.append((t, i, rho[i], nan, nan, rho[i]))
            else:
                rows.append((t, i, nan, tau[i], tau[i], tau[i]))
    return rows


# --------------------------------------------------------------------------
# persistence (deterministic byte-stable formats)
# --------------------------------------------------------------------------

def _fmt(value) -> str:
    """Serialize one cell: the byte format every CSV artifact follows.

    Floats use 17 significant digits (round-trip exact), every NaN is ``nan``,
    flags are ``0``/``1``.  The writers render whole rows at once through
    :func:`_row_format` templates and the memoised detection cells, which
    give the same bytes as this function applied cell by cell.
    """
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return "nan"
    return format(v, ".17g")


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, default=_json_default)
        fh.write("\n")


def trace_columns(L: int) -> list:
    gains = [f"gain_{s}" for s in range(1, 2 * L + 2)]
    return ["t", "i", "x_s", "x_v", "x_star_s", "x_star_v", "x_hat_s", "x_hat_v",
            "x_bar_s", "x_bar_v", "u", "rho", "lambda", "tau", "alpha", "beta",
            "attack_norm", "phi", "phi_platoon"] + gains


def _row_format(n_floats: int) -> str:
    """printf template of one CSV row: the integer cells ``t`` and ``i``,
    then ``n_floats`` float cells, each rendered byte for byte as
    :func:`_fmt` renders it (``%.17g`` prints every NaN as ``nan``)."""
    return "%d,%d," + ",".join(["%.17g"] * n_floats) + "\n"


def _write_step(fh, fmt: str, t: int, cells: np.ndarray) -> None:
    """Write one step's rows; row ``i - 1`` of ``cells`` is vehicle ``i``."""
    fh.write("".join([fmt % (t, i, *row)
                      for i, row in enumerate(cells.tolist(), 1)]))


def write_trace_csv(path: str, traces, L: int) -> None:
    cols = trace_columns(L)
    fmt = _row_format(len(cols) - 2)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for tr in traces:
            n = len(tr.x)
            _write_step(fh, fmt, tr.t, np.column_stack((
                tr.x, tr.x_star, tr.x_hat, tr.x_bar, tr.u, tr.rho, tr.lam,
                tr.tau, tr.alpha, tr.beta, tr.attack_norms,
                np.full(n, tr.phi), np.full(n, tr.phi_platoon), tr.gains)))


def write_detection_csv(path: str, traces) -> None:
    cols = ["t", "i", "trusted", "attacked", "suspected",
            "pairwise", "innovation", "exhaustion", "completion"]
    # set objects recur across vehicles and steps, so each one's cells are
    # joined once; the memo holds the object itself, so its id stays unique
    set_cells = {}
    flag_cells = {}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for tr in traces:
            rows = []
            for i, (s, flags) in enumerate(zip(tr.sets, tr.fired), 1):
                entry = set_cells.get(id(s))
                if entry is None:
                    entry = set_cells[id(s)] = (s, ",".join(
                        "|".join(map(str, sorted(part)))
                        for part in (s.trusted, s.attacked, s.suspected)))
                flag_cell = flag_cells.get(flags)
                if flag_cell is None:
                    flag_cell = flag_cells[flags] = ",".join(
                        "1" if f else "0" for f in flags)
                rows.append(f"{tr.t},{i},{entry[1]},{flag_cell}\n")
            fh.write("".join(rows))


def summarize_run(config: ScenarioConfig, traces) -> dict:
    """Scalar digest of one run for summary.json."""
    if not traces:
        return {"horizon": 0, "steps": 0}
    data = stack_traces(traces)
    err = np.linalg.norm(data["x_hat"] - data["x"], axis=2)
    violations = int(np.sum(err > data["alpha"] + 1e-9))
    true_attacked = frozenset(config.attack.attacked)
    trusted_goal = frozenset(range(1, config.N + 1)) - true_attacked
    first_full = None
    if true_attacked:
        for tr in traces:
            if all(s.attacked == true_attacked and s.trusted == trusted_goal
                   for s in tr.sets):
                first_full = tr.t
                break
    return {
        "horizon": config.horizon,
        "steps": len(traces),
        "final_phi": traces[-1].phi,
        "final_phi_platoon": traces[-1].phi_platoon,
        "max_estimation_error": float(np.max(err)),
        "bound_violations": violations,
        "first_full_detection": first_full,
        "final_sets": [s.sorted_lists() for s in traces[-1].sets],
    }


def write_run_dir(outdir: str, config: ScenarioConfig, traces) -> dict:
    """Persist one run: resolved scenario, feasibility report, both trace
    CSVs, and a scalar summary.  Returns the path of each artifact."""
    os.makedirs(outdir, exist_ok=True)
    paths = {
        "scenario": os.path.join(outdir, "scenario.json"),
        "feasibility": os.path.join(outdir, "feasibility.json"),
        "trace": os.path.join(outdir, "trace.csv"),
        "detection": os.path.join(outdir, "detection.csv"),
        "summary": os.path.join(outdir, "summary.json"),
    }
    write_json(paths["scenario"], config.to_json())
    write_json(paths["feasibility"], feasibility_report(config))
    write_trace_csv(paths["trace"], traces, config.L)
    write_detection_csv(paths["detection"], traces)
    write_json(paths["summary"], summarize_run(config, traces))
    return paths


def write_monte_carlo_dir(outdir: str, config: ScenarioConfig,
                          summary: MonteCarloSummary) -> dict:
    os.makedirs(outdir, exist_ok=True)
    paths = {
        "scenario": os.path.join(outdir, "scenario.json"),
        "feasibility": os.path.join(outdir, "feasibility.json"),
        "summary": os.path.join(outdir, "summary.json"),
        "metrics": os.path.join(outdir, "metrics.csv"),
    }
    write_json(paths["scenario"], config.to_json())
    write_json(paths["feasibility"], feasibility_report(config))
    write_json(paths["summary"], summary.to_json())
    fmt = _row_format(6)
    with open(paths["metrics"], "w", encoding="utf-8", newline="") as fh:
        fh.write("t,i,eta_pos,eta_vel,zeta_pos,zeta_vel,phi,phi_platoon\n")
        for t in range(summary.phi.shape[0]):
            _write_step(fh, fmt, t, np.column_stack((
                summary.eta_pos[t], summary.eta_vel[t],
                summary.zeta_pos[t], summary.zeta_vel[t],
                np.full(summary.n, summary.phi[t]),
                np.full(summary.n, summary.phi_platoon[t]))))
    return paths
