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
regardless of execution order, and Monte Carlo runs are independent.  In a
run with an attack set, the measurement noise and the random attack's
normals are both drawn at the attack site ``(seed, run, t, 0,
STREAM_ATTACK)``, noise first; the ``STREAM_MEASURE`` site serves
attack-free runs only.
"""

import itertools
import json
import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from . import controller, detector, observer, sensing
from .core import (ConfigError, DetectionSets, InconsistentSetsError,
                   ScenarioConfig, describe_clash, fuse_sets)
from .dynamics import (advance_deltas, desired_state_chain, reference_step, rows_array,
                       step_rows)
from .rng import RunRandom


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


#: every detector flag row ``(pairwise, innovation, exhaustion, completion)``,
#: at index ``8*pairwise + 4*innovation + 2*exhaustion + completion``, so a
#: run shares these 16 tuples instead of keeping one per vehicle and step
_FLAG_ROWS = tuple(itertools.product((False, True), repeat=4))


class RunTrace:
    """One run's trace as per-run columns, one row per step.

    The float columns are ``(steps, N, 2)`` for ``x``, ``x_star``, ``x_hat``
    and ``x_bar``; ``(steps, N)`` for ``u``, ``rho`` .. ``beta`` and
    ``attack_norms``; ``(steps, N, 2L+1)`` for ``gains``; ``(steps, 2)`` for
    ``x_leader``; and ``(steps,)`` for ``t`` and both φ.  ``sets`` and
    ``fired`` hold each step's tuple of ``DetectionSets`` and of flag rows;
    steps with the same ones may share a tuple.

    Indexing, slicing and iteration hand out :class:`StepTrace` rows:
    arrays are views of the columns, ``rho`` .. ``beta`` are tuples of
    floats.  Step 0 has made no prediction, so its row hands out ``x_hat``
    as ``x_bar`` too; a run's ``x_bar`` column holds the same values there.
    Iteration goes through ``__getitem__`` until it raises ``IndexError``.
    """

    __slots__ = ("t", "x", "x_star", "x_leader", "x_hat", "x_bar", "u", "rho", "lam",
                 "tau", "alpha", "beta", "gains", "sets", "fired", "attack_norms",
                 "phi", "phi_platoon")

    def __init__(self, steps: int, n: int, width: int):
        self.t = np.arange(steps)
        self.x, self.x_star, self.x_hat, self.x_bar = (np.empty((steps, n, 2))
                                                       for _ in range(4))
        self.x_leader = np.empty((steps, 2))
        (self.u, self.rho, self.lam, self.tau, self.alpha, self.beta,
         self.attack_norms) = (np.empty((steps, n)) for _ in range(7))
        self.gains = np.empty((steps, n, width))
        self.phi, self.phi_platoon = np.empty(steps), np.empty(steps)
        self.sets = [None] * steps
        self.fired = [None] * steps

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[j] for j in range(*k.indices(len(self)))]
        k = operator.index(k)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError(f"step {k} outside a trace of {len(self)} steps")
        x_hat = self.x_hat[k]
        return StepTrace(
            t=int(self.t[k]), x=self.x[k], x_star=self.x_star[k], x_leader=self.x_leader[k],
            x_hat=x_hat, x_bar=x_hat if k == 0 else self.x_bar[k], u=self.u[k],
            rho=tuple(self.rho[k].tolist()), lam=tuple(self.lam[k].tolist()),
            tau=tuple(self.tau[k].tolist()), alpha=tuple(self.alpha[k].tolist()),
            beta=tuple(self.beta[k].tolist()), gains=self.gains[k], sets=self.sets[k],
            fired=self.fired[k], attack_norms=self.attack_norms[k],
            phi=float(self.phi[k]), phi_platoon=float(self.phi_platoon[k]))


# --------------------------------------------------------------------------
# single deterministic run
# --------------------------------------------------------------------------

def _designed_threshold(config: ScenarioConfig, params):
    """The configured threshold policy, or a structured failure."""
    try:
        return observer.design_threshold(params, config.threshold_mode,
                                         beta=config.beta, omega=config.omega)
    except (observer.InfeasibleThresholdError, ConfigError) as exc:
        raise SimulationError(f"threshold design failed: {exc}") from exc


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
    thr = _designed_threshold(config, params)
    gains = controller.check_gains(config.g_s, config.g_v, config.T, config.N)
    if not gains.ok:
        raise SimulationError(
            "controller gains violate the stability condition: "
            f"velocity margin {gains.velocity_margin:.6g}, "
            f"rate margin {gains.rate_margin:.6g}")
    return params, thr


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
                   run_index: int = 0) -> RunTrace:
    """Simulate one closed-loop run and return its trace, a row per step; a
    horizon of 0 has no steps and gives a trace of no rows.

    ``seed`` overrides ``config.seed``; ``run_index`` separates Monte Carlo
    runs in the random stream.  Identical arguments give identical traces.

    Every per-vehicle quantity is carried as Python float rows ``(s, v)``;
    each step's values are stored into the trace's preallocated columns.
    """
    params, thr = _validated_design(config)
    topo = config.topology()
    if config.horizon == 0:
        return RunTrace(0, config.N, 2 * config.L + 1)

    n = config.N
    Lw = config.L
    width = 2 * Lw + 1
    T = config.T
    vehicles = range(1, n + 1)
    interior = [i in topo.v1 for i in vehicles]
    inner = slice(Lw, n - Lw)  # rows of the interior vehicles L+1 .. N-L
    edge_vehicles = sorted(topo.v2)
    nbr_lists = [sorted(topo.neighbors[i]) for i in vehicles]
    pwm = config.controller_mode == "pwm"
    g_s, g_v = config.g_s, config.g_v
    mu, eps, b = config.mu, config.epsilon, config.b
    norm_A = params.norm_A
    varpi = config.varpi
    nan = math.nan
    has_attack = bool(config.attack.attacked)
    run = RunTrace(config.horizon + 1, n, width)
    rnd = RunRandom(config.seed if seed is None else seed, run_index)

    x = [(float(s), float(v)) for s, v in config.x_init]
    x_hat = [(float(s), float(v)) for s, v in config.x_hat_init]
    lead = (float(config.x0[0]), float(config.x0[1]))
    x_leader = np.array(lead)
    deltas = [(float(s), float(v)) for s, v in config.delta_x]
    x_star = desired_state_chain(lead, deltas)
    stars = x_star.tolist()

    # step 0 predicts nothing, so it controls on x_hat itself; bounds that
    # never apply to a vehicle's class stay NaN in the trace
    x_bar = x_hat
    sets = [DetectionSets.empty()] * n
    rho = [params.q if flag else nan for flag in interior]
    lam = [nan if flag else params.q for flag in interior]
    tau = [nan if flag else params.q for flag in interior]
    alpha = [params.q] * n
    nan_gains = [nan] * width
    gains = [nan_gains] * n
    beta_row = [nan] * n
    # a step that keeps the last step's set objects, or repeats its flag
    # rows, shares that step's tuple, so quiet steps keep no container
    step_sets = tuple(sets)
    step_fired = (_FLAG_ROWS[0],) * n
    att_state = sensing.AttackState(config.attack)

    # identity memos, one slot per vehicle; each is sound because fusion and
    # detection hand back the very same sets object whenever no set grew:
    # - fused: fusion is a pure function of its input sets, so it reruns only
    #   for the vehicles in ``refuse``, whose own or a neighbour's sets object
    #   changed in the last step; without this memo the N=101, H=500 run took
    #   about 22% longer (best of 10 on a 2-core Xeon host: 0.93 s -> 1.13 s)
    # - count_memo: the detector's counting rules on a quiet step
    # - class_memo: an interior window's count terms, non-attacked sources
    #   and 0/1 gain row
    # - edge_memo: an edge vehicle's source, its distance, and whether its
    #   own sensor is trusted
    fused = [None] * n
    refuse = set(range(n))
    local = [[k, *(j - 1 for j in nbr_lists[k])] for k in range(n)]
    count_memo = [None] * n
    class_memo = [None] * n
    edge_memo = [None] * n
    zero_noise = [(0.0, 0.0)] * n

    for t in range(config.horizon + 1):
        if t:
            d = sensing.sample_noise(rnd.process(t), eps, n).tolist() if eps else zero_noise
            x = step_rows(x, u, T, d)
            x_leader = reference_step(lead, T)
            lead = x_leader.tolist()
            deltas = advance_deltas(deltas, T)
            x_star = desired_state_chain(lead, deltas)
            stars = x_star.tolist()

        # with an attack set, one generator positioned once at the attack
        # site serves both streams, the noise drawn first
        rng_attack = rnd.attack(t) if has_attack else None
        rng_measure = (rng_attack if has_attack else rnd.measurement(t)) if mu else None
        y_abs, y_rel, norms = sensing.measure_rows(x, config.attack, mu, att_state, t,
                                                   rng_measure, rng_attack)

        if t:
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
                    flags.append(_FLAG_ROWS[8 * res.pairwise + 4 * res.innovation
                                            + 2 * res.exhaustion + res.completion])
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
            if refuse:
                step_sets = tuple(new_sets)
            sets = new_sets
            fired = tuple(flags)
            if fired != step_fired:
                step_fired = fired
            alpha = alpha_new

        if pwm:
            u = _control_all(n, stars, lead, y_abs, y_abs, g_s, g_v)
        else:
            u = _control_all(n, stars, lead, x_hat, x_bar, g_s, g_v)

        # float rows go through ``rows_array`` (``np.fromiter``): at N=101
        # that fills a row in 16 µs, where numpy's conversion of the list of
        # pairs takes 33 µs
        run.x[t] = rows_array(x, 2)
        run.x_star[t] = x_star
        run.x_leader[t] = x_leader
        run.x_hat[t] = rows_array(x_hat, 2)
        run.x_bar[t] = rows_array(x_bar, 2)
        run.u[t] = u
        run.rho[t] = rho
        run.lam[t] = lam
        run.tau[t] = tau
        run.alpha[t] = alpha
        run.beta[t] = beta_row
        run.gains[t] = rows_array(gains, width)
        run.sets[t] = step_sets
        run.fired[t] = step_fired
        run.attack_norms[t] = norms
        run.phi[t], run.phi_platoon[t] = _phi_pair(x, x_hat, stars)
    return run


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
        doc = {"runs": self.runs, "base_seed": self.base_seed,
               "horizon": self.horizon, "N": self.n}
        for key in ("phi", "phi_platoon", "final_phi", "eta_pos", "eta_vel",
                    "zeta_pos", "zeta_vel"):
            doc[key] = getattr(self, key).tolist()
        return doc


def _run_metrics(run: RunTrace) -> dict:
    """One run's per-step metrics, keyed by their ``MonteCarloSummary`` field
    names, from the only columns they read; a run of no steps gives arrays
    with no rows."""
    err = run.x_hat - run.x
    rel = run.x - run.x_leader.reshape(-1, 1, 2)
    return {
        "eta_pos": np.abs(err[:, :, 0]), "eta_vel": np.abs(err[:, :, 1]),
        "zeta_pos": rel[:, :, 0], "zeta_vel": rel[:, :, 1],
        "phi": run.phi, "phi_platoon": run.phi_platoon,
    }


def monte_carlo(config: ScenarioConfig, runs: int,
                base_seed: int | None = None) -> MonteCarloSummary:
    """Aggregate ``runs`` independent simulations; run ``k`` is seeded with
    ``base_seed + k`` so the ensemble is reproducible and order-independent."""
    if runs < 1:
        raise ConfigError(f"need at least one run, got {runs}")
    base = config.seed if base_seed is None else base_seed
    total, final_phi = {}, []
    for k in range(runs):  # summed as each run ends, in the order of ``sum`` from 0
        m = _run_metrics(run_simulation(config, seed=base + k, run_index=k))
        total = {key: total.get(key, 0) + value for key, value in m.items()}
        final_phi.append(m["phi"][-1] if config.horizon else 0.0)
    return MonteCarloSummary(runs=runs, base_seed=base, horizon=config.horizon, n=config.N,
                             final_phi=np.array(final_phi),
                             **{key: value / runs for key, value in total.items()})


# --------------------------------------------------------------------------
# feasibility report and offline bound envelopes
# --------------------------------------------------------------------------

def feasibility_report(config: ScenarioConfig) -> dict:
    """Every design check in one JSON-ready document: initial error against
    ``q``, the interior vehicles whose window can reach the overshoot regime,
    threshold interval, gain margins, closed-loop spectrum, Lyapunov data,
    and the asymptotic estimation/tracking bounds evaluated with empty
    detection sets."""
    topo = config.topology()
    params = observer.ObserverParams.from_config(config)
    empty = DetectionSets.empty()
    worst, vehicle = config.initial_error()

    report = {
        "plant": {"T": config.T, "norm_A": params.norm_A, "varpi": config.varpi,
                  "edge_contraction": params.contraction, "mu_bar": params.mu_bar},
        "topology": {"N": config.N, "L": config.L,
                     "interior": sorted(topo.v1), "edge": sorted(topo.v2),
                     "diameter": topo.diameter()},
        "initial_error": {"max": worst, "vehicle": vehicle, "q": config.q,
                          "within_q": worst <= config.q},
        # windows with fewer than b configured attacks can come to trust more
        # than 2L+1-b sources, where the interior bound may rise as sets grow
        "interior_overshoot": [i for i in sorted(topo.v1)
                               if len(topo.local_group(i) & config.attack.attacked) < config.b],
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
    if math.isfinite(g.velocity_margin) and math.isfinite(g.rate_margin):
        report["gains"] = {"ok": g.ok, "lambda_max": g.lambda_max,
                           "velocity_margin": g.velocity_margin,
                           "rate_margin": g.rate_margin}
    else:
        report["gains"] = {"error": f"gain margins overflow at T={config.T!r}, "
                                    f"g_s={config.g_s!r}, g_v={config.g_v!r}"}

    cert = None
    try:  # admitted gains can still overflow T * g times a Laplacian entry or eigenvalue
        with np.errstate(over="raise", invalid="raise"):
            P = controller.closed_loop_matrix(config.N, config.T, config.g_s, config.g_v)
            block = controller.block_spectrum(config.N, config.T, config.g_s, config.g_v)
    except FloatingPointError:
        report["closed_loop"] = {"error": f"closed-loop matrices overflow at T={config.T!r}, "
                                          f"g_s={config.g_s!r}, g_v={config.g_v!r}"}
    else:
        full = np.array(sorted(np.linalg.eigvals(P), key=lambda z: (abs(z), z.real, z.imag)))
        radius = float(np.max(np.abs(full)))
        report["closed_loop"] = {"spectral_radius": radius, "schur": radius < 1.0,
                                 "spectrum_gap": float(np.max(np.abs(block - full)))}
    if report["closed_loop"].get("schur"):
        cert = controller.iss_certificate(P)
        report["closed_loop"]["lyapunov_residual"] = cert.residual
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
                alpha_hat = max(entry.values())
                try:  # a huge estimation radius can overflow the disturbance's square
                    with np.errstate(over="raise", invalid="raise"):
                        tb = controller.tracking_bound(alpha_hat, config.N, config.T, config.g_s,
                                                       config.g_v, config.epsilon, cert)
                    tracking[mode] = {"alpha_hat": tb.alpha_hat, "sigma": tb.sigma,
                                      "xi": tb.xi, "total": tb.total}
                except FloatingPointError:
                    tracking[mode] = {"error": f"tracking bound overflows at "
                                               f"alpha_hat={alpha_hat!r}"}
            report["tracking_bounds"] = tracking
    return report


def bound_envelopes(config: ScenarioConfig) -> list:
    """Offline worst-case bound trajectories with detection sets held empty.

    Returns one row per (t, vehicle): ``(t, i, rho, lam, tau, alpha)`` with
    NaN where a bound does not apply to the vehicle's class.  With empty
    sets every interior window counts no trusted or attacked sensor, so all
    interior vehicles share one ``rho``, and every edge vehicle leans on an
    interior neighbour, whose bound is that ``rho``.
    """
    topo = config.topology()
    params = observer.ObserverParams.from_config(config)
    thr = _designed_threshold(config, params)
    empty = DetectionSets.empty()
    nan = float("nan")

    dist = {i: abs(observer.nearest_trusted(i, empty, topo) - i) for i in topo.v2}
    interior = min(topo.v1)
    rho = params.q
    tau = dict.fromkeys(topo.v2, params.q)

    rows = []
    for t in range(config.horizon + 1):
        if t:
            tau = {i: observer.tau_update(tau[i], dist[i], rho, params) for i in topo.v2}
            rho = observer.rho_update(rho, empty, interior, thr.beta_at(rho, params), params)
        for i in topo.vehicles():
            if i in topo.v1:
                rows.append((t, i, rho, nan, nan, rho))
            else:
                rows.append((t, i, nan, tau[i], tau[i], tau[i]))
    return rows


# --------------------------------------------------------------------------
# persistence (deterministic byte-stable formats)
# --------------------------------------------------------------------------

def _json_default(obj):
    """Error path of the JSON writers: numpy values other than float64."""
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def json_text(doc: dict) -> str:
    """The text of every JSON artifact and of the commands' JSON output."""
    return json.dumps(doc, indent=2, default=_json_default)


def write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(doc) + "\n")


def trace_columns(L: int) -> list:
    gains = [f"gain_{s}" for s in range(1, 2 * L + 2)]
    return ["t", "i", "x_s", "x_v", "x_star_s", "x_star_v", "x_hat_s", "x_hat_v",
            "x_bar_s", "x_bar_v", "u", "rho", "lambda", "tau", "alpha", "beta",
            "attack_norm", "phi", "phi_platoon"] + gains


def _row_format(labels, n_floats: int, end: str = "\n") -> list:
    """printf lines of one step's CSV rows, each without its leading ``t,``:
    the row label ``i``, then ``n_floats`` float cells rendered byte for byte
    as ``_fmt`` in ``tests/oracles.py`` renders them (``%.17g`` prints every
    NaN as ``nan``), then ``end``.  The list opens with an empty line, so
    joining it on ``t,`` puts the prefix in front of every row."""
    cells = ",".join(["%.17g"] * n_floats)
    return ["", *(f"{i},{cells}{end}" for i in labels)]


def _write_step(fh, lines, t: int, cells) -> None:
    """Write one step's rows with one format call; ``cells`` fills the
    ``_row_format`` ``lines`` in order."""
    fh.write(("%d," % t).join(lines) % tuple(cells))


def write_bounds_csv(fh, rows) -> None:
    """The ``bounds`` CSV of :func:`bound_envelopes` rows, one step at a time."""
    fh.write("t,i,rho,lambda,tau,alpha\n")
    for t, step in itertools.groupby(rows, operator.itemgetter(0)):
        step = list(step)
        _write_step(fh, _row_format([row[1] for row in step], 4), t,
                    itertools.chain.from_iterable(row[2:] for row in step))


def write_trace_csv(path: str, run: RunTrace, L: int) -> None:
    """``trace.csv``: per row the head ``x, x_star, x_hat, x_bar, u``, distinct
    on nearly every row, then the tail ``rho`` .. ``phi_platoon`` and the
    gains, which few vehicles of a step differ in.  Each distinct tail is
    formatted once per step and taken by the row template as ``%s``; tails
    are told apart by their bytes, since ``0.0 == -0.0`` prints differently
    and ``nan != nan``."""
    cols = trace_columns(L)
    n_tail = len(cols) - 11
    tail_fmt = ",".join(["%.17g"] * n_tail)
    tail_bytes = np.dtype((np.void, 8 * n_tail))
    n = run.x.shape[1]
    lines = _row_format(range(1, n + 1), 9, ",%s\n")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for k, t in enumerate(run.t.tolist()):
            tail = np.column_stack((
                run.rho[k], run.lam[k], run.tau[k], run.alpha[k], run.beta[k],
                run.attack_norms[k], np.full(n, run.phi[k]), np.full(n, run.phi_platoon[k]),
                run.gains[k]))
            keys = tail.view(tail_bytes).ravel().tolist()
            tails = dict(zip(keys, tail.tolist()))
            for key, row in tails.items():
                tails[key] = tail_fmt % tuple(row)
            cells = []
            for row, key in zip(np.column_stack((run.x[k], run.x_star[k], run.x_hat[k],
                                                 run.x_bar[k], run.u[k])).tolist(), keys):
                cells += row
                cells.append(tails[key])
            _write_step(fh, lines, t, cells)


def write_detection_csv(path: str, run: RunTrace) -> None:
    """``detection.csv``.  A step holding the last built step's set and flag
    tuples reprints its rows under its own ``t``: :class:`RunTrace` shares a
    step's tuples exactly when every set object and flag row repeats."""
    cols = ["t", "i", "trusted", "attacked", "suspected",
            "pairwise", "innovation", "exhaustion", "completion"]
    # set objects recur across vehicles and steps, so each one's cells are
    # joined once; the memo holds the object itself, so its id stays unique
    set_cells = {}
    flag_cells = {}
    last_sets = last_fired = None
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for t, sets, fired in zip(run.t.tolist(), run.sets, run.fired):
            if not (sets is last_sets and fired is last_fired):
                last_sets, last_fired = sets, fired
                rows = [""]
                for i, (s, flags) in enumerate(zip(sets, fired), 1):
                    entry = set_cells.get(id(s))
                    if entry is None:
                        entry = set_cells[id(s)] = (s, ",".join(
                            "|".join(map(str, sorted(part)))
                            for part in (s.trusted, s.attacked, s.suspected)))
                    flag_cell = flag_cells.get(flags)
                    if flag_cell is None:
                        flag_cell = flag_cells[flags] = ",".join(
                            "1" if f else "0" for f in flags)
                    rows.append(f"{i},{entry[1]},{flag_cell}\n")
            fh.write(f"{t},".join(rows))


def summarize_run(config: ScenarioConfig, run: RunTrace) -> dict:
    """Scalar digest of one run for summary.json."""
    if not run:
        return {"horizon": 0, "steps": 0}
    final = run[-1]
    gap = run.x_hat - run.x
    with np.errstate(over="ignore"):
        err = np.linalg.norm(gap, axis=2)
        # norm squares its entries, which overflows beyond about 1.3e154;
        # hypot scales instead, so only those entries are taken from it
        wide = np.isinf(err)
        err[wide] = np.hypot(gap[wide, 0], gap[wide, 1])
    violations = int(np.sum(err > run.alpha + 1e-9))
    true_attacked = frozenset(config.attack.attacked)
    trusted_goal = frozenset(range(1, config.N + 1)) - true_attacked
    first_full = None
    if true_attacked:
        for t, sets in zip(run.t.tolist(), run.sets):
            if all(s.attacked == true_attacked and s.trusted == trusted_goal
                   for s in sets):
                first_full = t
                break
    return {
        "horizon": config.horizon,
        "steps": len(run),
        "final_phi": final.phi,
        "final_phi_platoon": final.phi_platoon,
        "max_estimation_error": float(np.max(err)),
        "bound_violations": violations,
        "first_full_detection": first_full,
        "final_sets": [s.sorted_lists() for s in final.sets],
    }


def write_run_dir(outdir: str, config: ScenarioConfig, run: RunTrace, summary: dict) -> dict:
    """Persist one run: resolved scenario, both trace CSVs, its
    ``summarize_run`` digest ``summary`` and, last, the feasibility report,
    whose certificate can fail after the run succeeded.  Returns the path of
    each artifact."""
    os.makedirs(outdir, exist_ok=True)
    paths = {
        "scenario": os.path.join(outdir, "scenario.json"),
        "feasibility": os.path.join(outdir, "feasibility.json"),
        "trace": os.path.join(outdir, "trace.csv"),
        "detection": os.path.join(outdir, "detection.csv"),
        "summary": os.path.join(outdir, "summary.json"),
    }
    write_json(paths["scenario"], config.to_json())
    write_trace_csv(paths["trace"], run, config.L)
    write_detection_csv(paths["detection"], run)
    write_json(paths["summary"], summary)
    write_json(paths["feasibility"], feasibility_report(config))
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
    write_json(paths["summary"], summary.to_json())
    lines = _row_format(range(1, summary.n + 1), 6)
    with open(paths["metrics"], "w", encoding="utf-8", newline="") as fh:
        fh.write("t,i,eta_pos,eta_vel,zeta_pos,zeta_vel,phi,phi_platoon\n")
        for t in range(summary.phi.shape[0]):
            _write_step(fh, lines, t, np.column_stack((
                summary.eta_pos[t], summary.eta_vel[t],
                summary.zeta_pos[t], summary.zeta_vel[t],
                np.full(summary.n, summary.phi[t]),
                np.full(summary.n, summary.phi_platoon[t]))).ravel().tolist())
    # last: its certificate can fail after the ensemble is done
    write_json(paths["feasibility"], feasibility_report(config))
    return paths
