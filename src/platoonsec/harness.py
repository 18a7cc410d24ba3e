"""Deterministic closed-loop simulation, Monte Carlo aggregation, persistence.

One simulated step runs, in order: plant propagation under the previous
control, reference/formation propagation, sensing with attack injection,
set fusion with the neighbours' previous-step sets plus detection
(``detector.row_detector``), the observer with its error bounds
(``observer.row_observer``), then control (``controller.control_all``); the
two factories also make the step-0 sets, flags and bounds.  The detector
runs before the observer on purpose — the observer's gains and the edge
vehicles' source selection consume the *current* step's sets, while the
detection tests themselves only use previous-step bounds and predictions.

Every random draw comes from a counter-based generator keyed by
``(seed, run, t, vehicle, stream)``, so a run is reproducible bit for bit
regardless of execution order, and Monte Carlo runs are independent.  A
step's sensing draws its noise, then the random attack's normals, from one
generator: at the attack site ``STREAM_ATTACK`` in a run with an attack
set, else at the ``STREAM_MEASURE`` site.
"""

import itertools
import json
import math
import operator
import os
from dataclasses import asdict, dataclass, make_dataclass
from typing import Iterator

import numpy as np

from . import controller, detector, observer, sensing
from .core import ConfigError, DetectionSets, ScenarioConfig, fuse_sets
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

#: the trace schema in ``trace.csv`` order: name, one step's shape in ``N``
#: and ``W`` = 2L+1, the form a row hands it out in, and the ``trace.csv``
#: label, suffixed per pair ``_s``/``_v`` or per gain ``_1`` .. ``_W``;
#: ``None`` keeps a field out of the file, whose rows open with ``t,i``
TRACE_FIELDS = (
    ("t", (), "scalar", None),
    ("x", ("N", 2), "view", "x"),                 # true states
    ("x_star", ("N", 2), "view", "x_star"),       # desired formation states
    ("x_hat", ("N", 2), "view", "x_hat"),         # estimates
    ("x_bar", ("N", 2), "view", "x_bar"),         # predictions used this step
    ("u", ("N",), "view", "u"),                   # control inputs computed this step
    ("rho", ("N",), "floats", "rho"),             # interior bound, NaN for edge vehicles
    ("lam", ("N",), "floats", "lambda"),          # cleared-edge bound, NaN for interior
    ("tau", ("N",), "floats", "tau"),             # leaning-edge bound, NaN for interior
    ("alpha", ("N",), "floats", "alpha"),         # active real-time error bound
    ("beta", ("N",), "floats", "beta"),           # saturation threshold, NaN for edge / t=0
    ("attack_norms", ("N",), "view", "attack_norm"),  # injected attack magnitude per sensor
    ("phi", (), "scalar", "phi"),
    ("phi_platoon", (), "scalar", "phi_platoon"),
    ("gains", ("N", "W"), "view", "gain"),        # innovation gains, NaN where not applicable
    ("x_leader", (2,), "view", None),             # reference state
    ("sets", ("N",), "stored", None),             # per-vehicle DetectionSets
    ("fired", ("N", 4), "stored", None),          # detector rule flags
)

#: how a row hands out step ``k`` of a column, per form: a view of the
#: column, a tuple of floats, a Python int or float, or the stored tuple
_ROW_FORMS = {"view": operator.getitem, "floats": lambda col, k: tuple(col[k].tolist()),
              "scalar": lambda col, k: col[k].item(), "stored": operator.getitem}

StepTrace = make_dataclass("StepTrace", [name for name, *_ in TRACE_FIELDS], slots=True,
                           namespace={"__module__": __name__, "__doc__": "Complete state of "
                                      "the simulation after one step (treat as read-only)."})

class RunTrace:
    """One run's trace as per-run columns, one row per step: per
    :data:`TRACE_FIELDS` field a float64 column ``(steps, *shape)``, ``t``
    counting the steps, or for the stored ``sets`` and ``fired`` a list of
    each step's tuple, which steps with the same ones may share.

    Indexing, slicing and iteration hand out :class:`StepTrace` rows, each
    field in its form.  Step 0 has made no prediction, so its row hands out
    ``x_hat`` as ``x_bar`` too; a run's ``x_bar`` column holds the same
    values there.  Iteration goes through ``__getitem__`` until it raises
    ``IndexError``.
    """

    __slots__ = tuple(name for name, *_ in TRACE_FIELDS)

    def __init__(self, steps: int, n: int, width: int):
        dims = {"N": n, "W": width}
        for name, shape, form, _ in TRACE_FIELDS:
            setattr(self, name, [None] * steps if form == "stored" else
                    np.empty((steps, *(dims.get(d, d) for d in shape))))
        self.t = np.arange(steps)

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
        row = {name: _ROW_FORMS[form](getattr(self, name), k) for name, _, form, _ in TRACE_FIELDS}
        if k == 0:
            row["x_bar"] = row["x_hat"]
        return StepTrace(**row)


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


#: the control step; the benchmark's tracer wraps this module binding
_control_all = controller.control_all


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
    width = 2 * config.L + 1
    T = config.T
    pwm = config.controller_mode == "pwm"
    g_s, g_v = config.g_s, config.g_v
    mu, eps = config.mu, config.epsilon
    try:
        run = RunTrace(config.horizon + 1, n, width)
    except (ValueError, MemoryError) as exc:  # numpy: "array is too big", or no memory
        raise SimulationError(f"a trace of horizon {config.horizon} for N={n} vehicles "
                              f"cannot be allocated: {exc}") from exc
    rnd = RunRandom(config.seed if seed is None else seed, run_index)

    x = [(float(s), float(v)) for s, v in config.x_init]
    x_hat = [(float(s), float(v)) for s, v in config.x_hat_init]
    lead = (float(config.x0[0]), float(config.x0[1]))
    x_leader = np.array(lead)
    deltas = [(float(s), float(v)) for s, v in config.delta_x]
    x_star = desired_state_chain(lead, deltas)
    stars = x_star.tolist()

    # step 0 predicts nothing, so it controls on x_hat itself
    x_bar = x_hat
    gains = [[math.nan] * width] * n
    beta_row = [math.nan] * n
    att_state = sensing.AttackState(config.attack)
    sets, fired, detect_rows = detector.row_detector(topo, fuse_sets, config.b, mu, eps,
                                                     params.norm_A)
    rho, lam, tau, alpha, _, update_rows = observer.row_observer(thr, params, topo)
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

        # one generator serves the step's sensing: the attack site with an
        # attack set, else the measurement site when there is noise to draw
        rng = rnd.attack(t) if config.attack.attacked else rnd.measurement(t) if mu else None
        y_abs, y_rel, norms = sensing.measure(x, mu, att_state, t, rng)

        if t:
            pref = sensing.prefix_rows(y_rel)
            x_bar = step_rows(x_hat, u, T)
            sets, fired = detect_rows(t, y_abs, y_rel, x_bar, alpha)
            x_hat, gains, beta_row, alpha = update_rows(x_bar, y_abs, pref, sets,
                                                       rho, lam, tau, alpha)

        own, nb = (y_abs, y_abs) if pwm else (x_hat, x_bar)
        u = _control_all(n, stars, lead, own, nb, g_s, g_v)

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
        run.sets[t] = sets
        run.fired[t] = fired
        run.attack_norms[t] = norms
        phi, run.phi_platoon[t] = _phi_pair(x, x_hat, stars)
        if not math.isfinite(phi):  # φ is finite iff every error of its step is
            raise SimulationError(f"step {t} leaves the float range: phi={phi!r}")
        run.phi[t] = phi
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
        run = run_simulation(config, seed=base + k, run_index=k)
        try:  # a finite run's states relative to the leader, or their sums, can overflow
            with np.errstate(over="raise"):
                m = _run_metrics(run)
                total = {key: total.get(key, 0) + value for key, value in m.items()}
        except FloatingPointError as exc:
            raise SimulationError(f"run {k} takes the ensemble metrics out of the float "
                                  f"range: {exc}") from exc
        final_phi.append(m["phi"][-1] if config.horizon else 0.0)
    return MonteCarloSummary(runs=runs, base_seed=base, horizon=config.horizon, n=config.N,
                             final_phi=np.array(final_phi),
                             **{key: value / runs for key, value in total.items()})


# --------------------------------------------------------------------------
# feasibility report and offline bound envelopes
# --------------------------------------------------------------------------

def _strict(block: dict, error: dict) -> dict:
    """The report's one overflow rule: ``block`` if its numbers are strict
    JSON, else ``error``, which names the block and the inputs it came from."""
    try:
        json.dumps(block, allow_nan=False)
    except ValueError:
        return error
    return block


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
        "initial_error": _strict(
            {"max": worst, "vehicle": vehicle, "q": config.q, "within_q": worst <= config.q},
            {"error": f"initial error overflows at vehicle {vehicle}'s x_init and x_hat_init"}),
        # windows with fewer than b configured attacks can come to trust more
        # than 2L+1-b sources, where the interior bound may rise as sets grow
        "interior_overshoot": [i for i in sorted(topo.v1)
                               if len(topo.local_group(i) & config.attack.attacked) < config.b],
    }

    feasible_omegas = observer.feasible_omegas(params)

    def infeasible(error: str) -> dict:
        return {"mode": config.threshold_mode, "feasible": False, "error": error,
                "feasible_omega_count": len(feasible_omegas)}
    try:
        thr = observer.design_threshold(params, config.threshold_mode,
                                        beta=config.beta, omega=config.omega)
        report["threshold"] = _strict({
            "mode": thr.mode, "feasible": True, "beta0": thr.beta0, "k0": thr.k0,
            "omega": thr.omega,
            "interval": list(thr.interval) if thr.interval else None,
            "feasible_omega_count": len(feasible_omegas),
        }, infeasible(f"threshold design overflows at T={config.T!r}, q={config.q!r}, "
                      f"epsilon={config.epsilon!r}, mu={config.mu!r}, omega={thr.omega!r}"))
    except (observer.InfeasibleThresholdError, ConfigError) as exc:
        report["threshold"] = infeasible(str(exc))

    report["gains"] = _strict(
        asdict(controller.check_gains(config.g_s, config.g_v, config.T, config.N)),
        {"error": f"gain margins overflow at T={config.T!r}, "
                  f"g_s={config.g_s!r}, g_v={config.g_v!r}"})

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
        radius = controller.spectral_radius(P, full)
        report["closed_loop"] = {"spectral_radius": radius, "schur": radius < 1.0,
                                 "spectrum_gap": float(np.max(np.abs(block - full)))}
    if report["closed_loop"].get("schur"):
        cert = controller.iss_certificate(P, full)
        report["closed_loop"]["lyapunov_residual"] = cert.residual
        report["closed_loop"]["kappa"] = cert.kappa

    def _triple(fn, level):
        try:
            a1, a2, a3 = fn(empty, topo, level, params)
        except observer.InfeasibleBoundError as exc:
            return {"error": str(exc)}
        return _strict({"interior": a1, "edge_cleared": a2, "edge_leaning": a3},
                       {"error": f"estimation bounds overflow at beta0={level!r}, "
                                 f"T={config.T!r}, epsilon={config.epsilon!r}"})

    if report["threshold"]["feasible"]:
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
                with np.errstate(over="ignore", invalid="ignore"):  # judged by ``_strict``
                    tb = controller.tracking_bound(alpha_hat, config.N, config.T, config.g_s,
                                                   config.g_v, config.epsilon, cert)
                tracking[mode] = _strict({**asdict(tb), "total": tb.total}, {
                    "error": f"tracking bound overflows at alpha_hat={alpha_hat!r}"})
            report["tracking_bounds"] = tracking
    return report


def bound_envelopes(config: ScenarioConfig) -> Iterator[tuple]:
    """Offline worst-case bound trajectories with detection sets held empty.

    Yields one row per (t, vehicle): ``(t, i, rho, lam, tau, alpha)`` with
    NaN where a bound does not apply to the vehicle's class: the step-0
    rows and bound step of ``observer.row_observer`` over one tuple of
    empty sets, equal to a run's columns when its sets stay empty.  The
    design is made when this is called, so a refused design raises before
    the first row; the rows are made as they are taken, so memory does not
    grow with the horizon.
    """
    topo = config.topology()
    params = observer.ObserverParams.from_config(config)
    thr = _designed_threshold(config, params)
    rho, lam, tau, alpha, update_bounds, _ = observer.row_observer(thr, params, topo)
    sets = (DetectionSets.empty(),) * config.N

    def rows(alpha):
        for t in range(config.horizon + 1):
            if t:
                _, alpha = update_bounds(sets, rho, lam, tau, alpha)
            yield from zip(itertools.repeat(t), topo.vehicles(), rho, lam, tau, alpha)

    return rows(alpha)


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


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_json(path: str, doc: dict) -> None:
    _write_text(path, json_text(doc))


def trace_columns(L: int) -> list:
    ends = {(): ("",), (2,): ("_s", "_v"), ("W",): [f"_{s}" for s in range(1, 2 * L + 2)]}
    return ["t", "i", *(label + end for _, shape, _, label in TRACE_FIELDS if label
                        for end in ends[shape[1:]])]


def _row_format(labels, n_floats: int, end: bytes = b"\n") -> list:
    """printf lines of one step's CSV rows, each without its leading ``t,``:
    the row label ``i``, then ``n_floats`` float cells rendered byte for byte
    as ``_fmt`` in ``tests/oracles.py`` renders them (``%.17g`` prints every
    NaN as ``nan``), then ``end``.  The list opens with an empty line, so
    joining it on ``t,`` puts the prefix in front of every row."""
    cells = b",".join([b"%.17g"] * n_floats)
    return [b"", *(b"%d,%b%b" % (i, cells, end) for i in labels)]


def _write_step(fh, lines, t: int, cells) -> None:
    """Write one step's rows to the binary file ``fh`` with one format call;
    ``cells`` fills the ``_row_format`` ``lines`` in order."""
    fh.write((b"%d," % t).join(lines) % tuple(cells))


def write_bounds_csv(fh, rows) -> None:
    """The ``bounds`` CSV of :func:`bound_envelopes` rows, one step at a
    time, to the binary file ``fh``; steps of the same vehicles share a template."""
    fh.write(b"t,i,rho,lambda,tau,alpha\n")
    templates = {}
    for t, step in itertools.groupby(rows, operator.itemgetter(0)):
        step = list(step)
        labels = tuple(row[1] for row in step)
        lines = templates.get(labels) or templates.setdefault(labels, _row_format(labels, 4))
        _write_step(fh, lines, t, itertools.chain.from_iterable(row[2:] for row in step))


def write_trace_csv(path: str, run: RunTrace, L: int) -> None:
    """``trace.csv``: per row the head, the leading views of
    :data:`TRACE_FIELDS` (``x`` .. ``u``), distinct on nearly every row, then
    the tail ``rho`` .. ``gains``, which few vehicles of a step differ in.

    Each step formats its one-value columns (``phi``, ``phi_platoon``) once,
    into the step's tail template, and each distinct tail once, from one of
    its rows; the row template takes the tail as ``%b``.  Tails are told
    apart by the bytes of their per-vehicle cells, since ``0.0 == -0.0``
    prints differently and ``nan != nan``, and equal bytes print alike.  A
    step's cells are laid out in one object block, heads then tail, which
    hands them out in row order."""
    cols = trace_columns(L)
    fields = [(getattr(run, name), form) for name, _, form, label in TRACE_FIELDS if label]
    split = next(k for k, (_, form) in enumerate(fields) if form != "view")
    head, tail = ([col for col, _ in part] for part in (fields[:split], fields[split:]))
    n_head = sum(math.prod(col.shape[2:]) for col in head)
    per_row = [col for col in tail if col.ndim > 1]
    per_step = [col for col in tail if col.ndim == 1]
    # a step's tail template: ``%%.17g`` survives the step's ``%`` as the cell
    # of a per-vehicle value, ``%b`` takes a one-value column's cell
    tail_fmt = b",".join(b",".join([b"%%.17g"] * math.prod(col.shape[2:])) if col.ndim > 1
                         else b"%b" for col in tail)
    tail_bytes = np.dtype((np.void, 8 * sum(math.prod(col.shape[2:]) for col in per_row)))
    n = run.x.shape[1]
    lines = _row_format(range(1, n + 1), n_head, b",%b\n")
    block = np.empty((n, n_head + 1), dtype=object)
    with open(path, "wb") as fh:
        fh.write(",".join(cols).encode() + b"\n")
        for k, t in enumerate(run.t.tolist()):
            step_fmt = tail_fmt % tuple(b"%.17g" % col[k] for col in per_step)
            tail_k = np.column_stack([col[k] for col in per_row])
            keys = tail_k.view(tail_bytes).ravel().tolist()
            tails = {key: step_fmt % tuple(tail_k[j].tolist())
                     for key, j in dict(zip(keys, range(n))).items()}
            block[:, :n_head] = np.column_stack([col[k] for col in head])
            block[:, n_head] = [tails[key] for key in keys]
            _write_step(fh, lines, t, block.ravel().tolist())


def write_detection_csv(path: str, run: RunTrace) -> None:
    """``detection.csv``.  A step holding the last built step's set and flag
    tuples reprints its rows under its own ``t``: :class:`RunTrace` shares a
    step's tuples exactly when every set object and flag row repeats."""
    cols = ["t", "i", "trusted", "attacked", "suspected",
            "pairwise", "innovation", "exhaustion", "completion"]
    # set objects recur across vehicles and steps, so each one's cells are
    # joined once; ``run_simulation`` keeps one object per distinct state, so
    # that is once per state; the trace keeps each object alive, so its id
    # stays unique
    set_cells = {}
    flag_cells = {}
    last_sets = last_fired = None
    with open(path, "wb") as fh:
        fh.write(",".join(cols).encode() + b"\n")
        for t, sets, fired in zip(run.t.tolist(), run.sets, run.fired):
            if not (sets is last_sets and fired is last_fired):
                last_sets, last_fired = sets, fired
                rows = [b""]
                for i, (s, flags) in enumerate(zip(sets, fired), 1):
                    set_cell = set_cells.get(id(s))
                    if set_cell is None:
                        set_cell = set_cells[id(s)] = b",".join(
                            b"|".join(b"%d" % j for j in sorted(part))
                            for part in (s.trusted, s.attacked, s.suspected))
                    flag_cell = flag_cells.get(flags)
                    if flag_cell is None:
                        flag_cell = flag_cells[flags] = b",".join(
                            b"1" if f else b"0" for f in flags)
                    rows.append(b"%d,%b,%b\n" % (i, set_cell, flag_cell))
            fh.write((b"%d," % t).join(rows))


def summarize_run(config: ScenarioConfig, run: RunTrace) -> dict:
    """Scalar digest of one run for summary.json."""
    if not run:
        return {"horizon": 0, "steps": 0}
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
        verdict = {}
        last = None
        for t, sets in zip(run.t.tolist(), run.sets):
            if sets is last:
                continue
            last = sets
            for s in sets:
                if id(s) not in verdict:  # the trace keeps s alive, so its id stays unique
                    verdict[id(s)] = s.attacked == true_attacked and s.trusted == trusted_goal
            if all(verdict[id(s)] for s in sets):
                first_full = t
                break
    return {
        "horizon": config.horizon,
        "steps": len(run),
        "final_phi": float(run.phi[-1]),
        "final_phi_platoon": float(run.phi_platoon[-1]),
        "max_estimation_error": float(np.max(err)),
        "bound_violations": violations,
        "first_full_detection": first_full,
        "final_sets": [s.sorted_lists() for s in run.sets[-1]],
    }


def _write_dir(outdir: str, config: ScenarioConfig, *artifacts) -> dict:
    """The directory of ``run`` and ``monte-carlo``: the resolved scenario
    first, then the command's ``artifacts`` in order, each ``(file name,
    writer, *args)`` written as ``writer(path, *args)``, and last the
    feasibility report, whose certificate can fail after the command's work,
    which then stays on disk beside an ``error.json`` naming the failure.  A
    report or error left by an earlier write is removed first.  Returns each
    path keyed by its file's stem."""
    os.makedirs(outdir, exist_ok=True)
    names = ("scenario.json", "feasibility.json", *(name for name, *_ in artifacts))
    paths = {name.split(".")[0]: os.path.join(outdir, name) for name in names}
    error = os.path.join(outdir, "error.json")
    for stale in (paths["feasibility"], error):
        if os.path.exists(stale):
            os.remove(stale)
    write_json(paths["scenario"], config.to_json())
    for name, write, *args in artifacts:
        write(os.path.join(outdir, name), *args)
    try:
        report = feasibility_report(config)
    except controller.CertificateError as exc:
        write_json(error, {"error": str(exc)})
        raise
    write_json(paths["feasibility"], report)
    return paths


def write_run_dir(outdir: str, config: ScenarioConfig, run: RunTrace, summary: str) -> dict:
    """Persist one run through :func:`_write_dir`: both trace CSVs, then
    ``summary``, the :func:`json_text` of its ``summarize_run`` digest."""
    return _write_dir(outdir, config, ("trace.csv", write_trace_csv, run, config.L),
                      ("detection.csv", write_detection_csv, run),
                      ("summary.json", _write_text, summary))


def write_metrics_csv(path: str, summary: MonteCarloSummary) -> None:
    """``metrics.csv``: per step and vehicle the ensemble's ``eta`` and
    ``zeta`` components, then the step's ``phi`` and ``phi_platoon``."""
    lines = _row_format(range(1, summary.n + 1), 6)
    with open(path, "wb") as fh:
        fh.write(b"t,i,eta_pos,eta_vel,zeta_pos,zeta_vel,phi,phi_platoon\n")
        for t in range(summary.phi.shape[0]):
            _write_step(fh, lines, t, np.column_stack((
                summary.eta_pos[t], summary.eta_vel[t],
                summary.zeta_pos[t], summary.zeta_vel[t],
                np.full(summary.n, summary.phi[t]),
                np.full(summary.n, summary.phi_platoon[t]))).ravel().tolist())


def write_monte_carlo_dir(outdir: str, config: ScenarioConfig,
                          summary: MonteCarloSummary) -> dict:
    """Persist one ensemble through :func:`_write_dir`: summary, then metrics."""
    return _write_dir(outdir, config, ("summary.json", write_json, summary.to_json()),
                      ("metrics.csv", write_metrics_csv, summary))
