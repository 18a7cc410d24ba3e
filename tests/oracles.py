"""Reference routes the tests compare the package against: array-code
forms of quantities the package computes on float rows (the performance
metrics, the direct sum of a run of gap readings, the plant step, a
reconstruction), per-vehicle forms of batched code (the control law, the
saturation gain, the saturated window update, the bound envelopes), the
window counts by set intersection, a fresh generator per draw site, the
per-cell CSV format, the message and run-splitting helpers the reference
step loop uses, the stack of every array field of a trace list, the
stack of hand-built trace rows into the columns the writers read, and the
paper's claims read off a run's trace."""

import math
from dataclasses import dataclass

import numpy as np

from platoonsec import observer
from platoonsec.core import ConfigError, DetectionSets, InconsistentSetsError, Topology
from platoonsec.dynamics import step_rows
from platoonsec.harness import RunTrace, _designed_threshold
from platoonsec.observer import ObserverParams
from platoonsec.rng import _MASK
from platoonsec.sensing import MeasurementFrame, _chain_to


def performance_phi(xs, x_hats, x_stars) -> float:
    """Mean over vehicles of estimation-error norm plus tracking-error norm."""
    if not len(xs) == len(x_hats) == len(x_stars):
        raise ValueError("state, estimate and target lists must have equal length")
    xs = np.asarray(xs, dtype=float)
    xh = np.asarray(x_hats, dtype=float)
    xt = np.asarray(x_stars, dtype=float)
    est = np.hypot(xh[:, 0] - xs[:, 0], xh[:, 1] - xs[:, 1])
    trk = np.hypot(xs[:, 0] - xt[:, 0], xs[:, 1] - xt[:, 1])
    return float((est + trk).sum()) / len(xs)


def platoon_phi(xs, x_stars) -> float:
    """Mean over vehicles of the tracking-error norm alone."""
    if len(xs) != len(x_stars):
        raise ValueError("state and target lists must have equal length")
    xs = np.asarray(xs, dtype=float)
    xt = np.asarray(x_stars, dtype=float)
    return float(np.hypot(xs[:, 0] - xt[:, 0], xs[:, 1] - xt[:, 1]).sum()) / len(xs)


def chain_sum(frame, lo: int, hi: int) -> np.ndarray:
    """Sum of gap readings ``y_{m-1,m}`` for ``m`` in ``lo..hi`` inclusive."""
    return frame.y_rel[lo - 2:hi - 1].sum(axis=0)


@dataclass(slots=True)
class Message:
    """What vehicle ``sender`` broadcasts to its neighbours at step ``t``.

    Carries the current sensor readings and state prediction together with
    the previous step's detection sets and error bound; consumers must check
    the step tag so information never flows backwards in time.  Messages are
    value objects: never mutate one after handing it out.
    """

    sender: int
    t: int
    y_abs: np.ndarray
    y_rel: np.ndarray | None  # gap reading to the vehicle ahead; None for vehicle 1
    x_bar: np.ndarray
    sets: DetectionSets
    alpha: float

    def __post_init__(self):
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"error bound must be finite and nonnegative, got {self.alpha}")
        if self.sender >= 2 and self.y_rel is None:
            raise ValueError(f"vehicle {self.sender} must forward its gap reading")
        sets = self.sets
        if sets.suspected and sets.trusted and (sets.trusted & sets.suspected):
            raise InconsistentSetsError(
                f"sensors {sorted(sets.trusted & sets.suspected)} "
                "both trusted and suspected in an outgoing message")


def controller_neighbors(i: int, n: int) -> tuple:
    """Control neighbours of vehicle ``i`` on the chain; ``0`` is the leader."""
    if not 1 <= i <= n:
        raise ValueError(f"vehicle index {i} outside 1..{n}")
    if i == n:
        return (n - 1,) if n > 1 else (0,)
    return (i - 1, i + 1)


def control_input(x_own, neighbor_terms, g_s: float, g_v: float) -> float:
    """Acceleration command from the own state estimate and neighbour data.

    ``neighbor_terms`` is a sequence of ``(x_j, delta_ji)`` pairs where
    ``x_j`` is the neighbour's broadcast state and ``delta_ji`` the desired
    offset making ``x_j + delta_ji`` the spot this vehicle should occupy.
    """
    u = 0.0
    for x_j, delta in neighbor_terms:
        u += g_s * (x_j[0] - x_own[0] + delta[0])
        u += g_v * (x_j[1] - x_own[1] + delta[1])
    return u


def split_suspicious(indices) -> list:
    """Maximal runs of consecutive indices, ascending."""
    runs = []
    cur = []
    for v in sorted(indices):
        if cur and v == cur[-1] + 1:
            cur.append(v)
        else:
            if cur:
                runs.append(tuple(cur))
            cur = [v]
    if cur:
        runs.append(tuple(cur))
    return runs


def step_vehicle(x: np.ndarray, u: float | np.ndarray, d: np.ndarray | None,
                 T: float) -> np.ndarray:
    """Advance one vehicle ``(2,)`` or a platoon ``(N, 2)``: ``A x + (0, T u) + d``
    (array form of :func:`step_rows`; ``d=None`` adds no noise)."""
    rows = np.reshape(x, (-1, 2))
    out = step_rows(rows.tolist(), np.broadcast_to(u, len(rows)).tolist(), T,
                    None if d is None else np.broadcast_to(d, rows.shape).tolist())
    return np.array(out).reshape(np.shape(x))


def saturation_gain(innovation: np.ndarray, sensor: int, sets: DetectionSets,
                    beta: float) -> float:
    """Weight of one innovation block: 0 for a confirmed-attacked sensor, 1
    for a trusted one, and ``min(1, beta / ‖e‖)`` for an unknown one, with
    the norm by ``math.hypot``; a zero innovation keeps weight 1 and a NaN
    norm gives a NaN weight."""
    if sensor in sets.attacked:
        return 0.0
    if sensor in sets.trusted:
        return 1.0
    norm = math.hypot(float(innovation[0]), float(innovation[1]))
    return beta / norm if not norm <= beta else 1.0


def local_counts(sets: DetectionSets, i: int, topo: Topology) -> tuple[int, int, int]:
    """Trusted and confirmed-attacked sensors in vehicle ``i``'s local group,
    and all confirmed-attacked sensors, by set intersection."""
    local = topo.local_group(i)
    return len(sets.trusted & local), len(sets.attacked & local), len(sets.attacked)


def bound_envelopes_per_vehicle(config) -> list:
    """Per-vehicle form of ``harness.bound_envelopes``: every interior vehicle
    advances its own ``rho`` and every edge vehicle reads its source's bound
    from the previous step's ``alpha``."""
    topo = config.topology()
    params = observer.ObserverParams.from_config(config)
    thr = _designed_threshold(config, params)
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
        new_rho = {i: observer.rho_update(rho[i], empty, i,
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


def feasibility_check(omega: float, p: ObserverParams) -> bool:
    """Sufficient condition for a non-empty threshold interval at ``omega``."""
    if not 0.0 < omega < 1.0:
        raise ConfigError(f"omega must lie in (0, 1), got {omega}")
    window = 2 * p.L + 1
    if p.b >= window:
        return False
    two_l = 2.0 * p.L
    lbar = window - p.b
    f1 = (p.eps + p.mu_bar) * lbar / two_l
    f2 = (omega * (p.eps + p.mu_bar) + (p.norm_A - 1.0) * p.beta_max) / p.norm_A
    den = omega * p.q - f1
    if den <= 0.0:
        return False
    ratio = (omega * p.q + f2) / den
    cond_budget = lbar / p.b > ratio > 0.0
    cond_rate = lbar / two_l > (omega + p.norm_A - 1.0) / p.norm_A
    return cond_budget and cond_rate


def stream_rng(seed: int, run: int, t: int, vehicle: int, stream: int) -> np.random.Generator:
    """Build a fresh generator positioned at the given draw site.

    Reference implementation: constructs a new Philox bit generator each
    call.  :class:`RunRandom` produces bitwise-identical draws faster.
    """
    key = np.array([seed & _MASK, run & _MASK], dtype=np.uint64)
    counter = np.array([0, t & _MASK, vehicle & _MASK, stream & _MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def reconstruct_absolute(frame: MeasurementFrame, i: int, j: int, topo) -> np.ndarray:
    """Vehicle ``i``'s absolute state as seen through sensor ``j``.

    Chains the secured gap readings between ``j`` and ``i`` onto ``j``'s
    absolute reading.  Any attack on sensor ``j`` carries through additively
    and the accumulated noise stays within ``(|i-j|+1) * mu``.
    """
    if j != i and j not in topo.neighbors[i]:
        raise ValueError(f"sensor {j} is outside the neighbourhood of vehicle {i}")
    if i == j:
        return frame.y_abs[i - 1]
    return _chain_to(frame.y_abs[j - 1], frame, i, j)


def saturated_window_update(x_bar: np.ndarray, frame: MeasurementFrame, i: int, topo,
                            sets: DetectionSets, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-window form of the interior correction: each sensor ``j`` of
    ``i-L .. i+L`` reconstructs vehicle ``i``'s state, its innovation gets
    :func:`saturation_gain`'s weight, and the prediction moves by the
    weighted innovations, summed in sensor order, over ``2L``.  A
    confirmed-attacked source is cut off, whatever its innovation.  Returns
    the estimate and the gain of each sensor."""
    c0 = c1 = 0.0
    gains = []
    for j in range(i - topo.L, i + topo.L + 1):
        eta = reconstruct_absolute(frame, i, j, topo) - x_bar
        k = saturation_gain(eta, j, sets, beta)
        gains.append(k)
        if j not in sets.attacked:
            c0 += k * float(eta[0])
            c1 += k * float(eta[1])
    scale = 2.0 * topo.L
    return np.array([float(x_bar[0]) + c0 / scale, float(x_bar[1]) + c1 / scale]), np.array(gains)


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


def stack_rows(traces) -> RunTrace:
    """``traces`` as columns: a :class:`RunTrace` as it is, or a sequence
    of :class:`StepTrace` rows, such as hand-built ones, stacked into one."""
    if isinstance(traces, RunTrace):
        return traces
    n, width = np.shape(traces[0].gains) if traces else (0, 0)
    run = RunTrace(len(traces), n, width)
    for k, row in enumerate(traces):
        for name in RunTrace.__slots__:
            getattr(run, name)[k] = getattr(row, name)
    return run


def paper_claims(config, run: RunTrace) -> dict:
    """The paper's claims on one run, read off its trace alone, not through
    ``summarize_run``:

    - ``worst_gap``: the largest ``‖x̂ − x‖ − α`` over steps and vehicles;
    - ``unsound``: each ``(t, i)`` whose sets call a clean sensor attacked or
      an attacked one trusted, or lose a member since the last step;
    - ``first_confirmed``: the first step at which some vehicle confirms b
      attacks, and ``exact_from``: the step from which on every vehicle's
      sets are exact, all b attacked and every other sensor trusted (each
      ``None`` if there is none);
    - ``risen``: each ``(mode, sets)`` of a distinct final state whose
      static or adaptive asymptotic radii exceed those at empty sets.
    """
    attacked = frozenset(config.attack.attacked)
    clean = frozenset(range(1, config.N + 1)) - attacked
    exact = DetectionSets(trusted=clean, attacked=attacked)
    gap = np.hypot(*np.moveaxis(run.x_hat - run.x, 2, 0)) - run.alpha
    unsound = []
    first_confirmed = exact_from = None
    prev = (DetectionSets.empty(),) * config.N
    for t, sets in zip(run.t.tolist(), run.sets):
        if sets is prev:  # the same objects, judged on the step they came
            continue
        for i, (was, now) in enumerate(zip(prev, sets), 1):
            if now is not was and not (now.attacked <= attacked and now.trusted <= clean
                                       and was.attacked <= now.attacked
                                       and was.trusted <= now.trusted):
                unsound.append((t, i))
        if first_confirmed is None and any(len(s.attacked) == config.b for s in sets):
            first_confirmed = t
        if all(s == exact for s in sets):
            exact_from = t if exact_from is None else exact_from
        else:
            exact_from = None
        prev = sets
    topo = config.topology()
    params = ObserverParams.from_config(config)
    beta0 = _designed_threshold(config, params).beta0
    risen = []
    for mode, radii in (("static", observer.asymptotic_bounds_static),
                        ("adaptive", observer.asymptotic_bounds_adaptive)):
        at_empty = radii(DetectionSets.empty(), topo, beta0, params)
        for s in set(run.sets[-1]):
            if any(r > e for r, e in zip(radii(s, topo, beta0, params), at_empty)):
                risen.append((mode, s))
    return {"worst_gap": float(np.max(gap)), "unsound": unsound,
            "first_confirmed": first_confirmed, "exact_from": exact_from, "risen": risen}
