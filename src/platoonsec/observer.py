"""Saturated resilient observer: state estimation under sensor attacks.

Interior vehicles fuse all ``2L+1`` reconstructed absolute measurements of
their own state through innovation gains that are saturated at a threshold
``beta``: a compromised source can then shift the estimate per step by at
most ``beta / 2L`` no matter how large the injected signal is, while honest
sources keep their full correction weight.  Edge vehicles, whose window is
truncated, instead track either their own sensor (once proven attack-free)
or a chain surrogate built from the nearest dependable vehicle.

The same structure yields computable error bounds: ``rho`` for interior
vehicles, ``lambda`` for edge vehicles with a cleared own sensor, ``tau``
for the rest.  All three are sound envelopes of the true estimation error
and are what the detector consumes as decision thresholds.
"""

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import ConfigError, DetectionSets, Topology
from .dynamics import step_vehicle
from .sensing import chained_rows

LOG = logging.getLogger(__name__)

DEFAULT_OMEGA_GRID = tuple(round(0.01 * k, 2) for k in range(1, 100))


class InfeasibleThresholdError(RuntimeError):
    """No saturation threshold satisfies the design inequalities."""


class InfeasibleBoundError(RuntimeError):
    """An asymptotic error bound diverges for the given parameters."""


@dataclass(frozen=True)
class ObserverParams:
    """Scalar problem data shared by every observer formula."""

    L: int
    b: int
    q: float
    eps: float
    mu: float
    norm_A: float
    varpi: float

    def __post_init__(self):
        hi = self.norm_A / (self.norm_A - 1.0)
        if not 1.0 < self.varpi < hi:
            raise ConfigError(f"varpi must lie in (1, {hi:.6g}), got {self.varpi}")

    # the derived scalars below are read per vehicle and step, so each is
    # computed once per instance

    @cached_property
    def mu_bar(self) -> float:
        """Worst-case noise of a chained reconstruction: ``(L+1) * mu``."""
        return (self.L + 1) * self.mu

    @cached_property
    def contraction(self) -> float:
        """Error decay factor of the edge-vehicle observer."""
        return (self.varpi - 1.0) * self.norm_A / self.varpi

    @cached_property
    def beta_max(self) -> float:
        """Innovation level a saturation threshold can never exceed usefully:
        the worst honest innovation ``norm_A * q + eps + mu_bar``."""
        return self.norm_A * self.q + self.eps + self.mu_bar

    @classmethod
    def from_config(cls, config) -> "ObserverParams":
        from . import dynamics
        return cls(L=config.L, b=config.b, q=config.q, eps=config.epsilon,
                   mu=config.mu, norm_A=dynamics.plant_norm(config.T),
                   varpi=config.varpi)


# --------------------------------------------------------------------------
# state updates
# --------------------------------------------------------------------------

def time_update(x_hat: np.ndarray, u: float | np.ndarray, plant) -> np.ndarray:
    """Prediction ``A x_hat + (0, T u)`` for one vehicle ``(2,)`` or a platoon
    ``(N, 2)``; no zero noise is added, which would turn ``-0.0`` into ``0.0``."""
    return step_vehicle(x_hat, u, None, plant)


# gate class of a source: cut off, full weight, or clipped at the threshold
_ATTACKED, _TRUSTED, _UNKNOWN = 0, 1, 2


def _gate_classes(sensors, sets: DetectionSets) -> tuple:
    attacked = sets.attacked
    trusted = sets.trusted
    return tuple(_ATTACKED if s in attacked else _TRUSTED if s in trusted else _UNKNOWN
                 for s in sensors)


def _saturated_update(xb0: float, xb1: float, rows, classes, beta: float,
                      scale: float) -> tuple[float, float, list]:
    """Estimate and gains of one window: the prediction plus the gain-weighted
    innovations, summed in sensor order and divided by ``scale = 2L``.

    Confirmed-attacked sources are cut off entirely, proven attack-free
    sources pass unsaturated, and unknown sources are clipped so their
    weighted innovation never exceeds ``beta`` in norm.  A zero innovation
    needs no clipping and keeps full weight.
    """
    gains = []
    corr0 = 0.0
    corr1 = 0.0
    for (r0, r1), cls in zip(rows, classes):
        if cls == _ATTACKED:
            gains.append(0.0)
            continue
        e0 = r0 - xb0
        e1 = r1 - xb1
        if cls == _TRUSTED:
            k = 1.0
        else:
            nrm = math.hypot(e0, e1)
            k = 1.0 if nrm <= beta else beta / nrm
        gains.append(k)
        corr0 += k * e0
        corr1 += k * e1
    return xb0 + corr0 / scale, xb1 + corr1 / scale, gains


def saturation_gain(innovation: np.ndarray, sensor: int, sets: DetectionSets,
                    beta: float) -> float:
    """Weight of one innovation block (see :func:`_saturated_update`)."""
    row = (float(innovation[0]), float(innovation[1]))
    return _saturated_update(0.0, 0.0, (row,), _gate_classes((sensor,), sets),
                             beta, 1.0)[2][0]


def measurement_update_v1(x_bar: np.ndarray, stacked, sets: DetectionSets,
                          beta: float, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Interior-vehicle correction: saturated average of all local innovations.

    Returns the new estimate and the gain applied to each source, ordered as
    ``stacked.labels``.
    """
    x0, x1, gains = _saturated_update(
        float(x_bar[0]), float(x_bar[1]), stacked.blocks.tolist(),
        _gate_classes(stacked.labels, sets), beta, 2.0 * L)
    return np.array((x0, x1)), np.array(gains)


def interior_update(x_bar: np.ndarray, y_abs: np.ndarray, pref: np.ndarray,
                    sets, rho, thr: "ThresholdConfig", p: ObserverParams,
                    memo: list) -> tuple[list, list, list, list]:
    """:func:`interior_rows` for ``(N, 2)`` arrays."""
    return interior_rows(x_bar.tolist(), y_abs.tolist(), pref.tolist(), sets, rho,
                         thr, p, memo)


def interior_rows(xb: list, ya: list, pf: list, sets, rho, thr: "ThresholdConfig",
                  p: ObserverParams, memo: list) -> tuple[list, list, list, list]:
    """One observer step for every interior vehicle ``L+1 .. N-L`` at once.

    ``xb`` and ``ya`` are the platoon's predictions and absolute readings,
    ``pf`` the gap-reading prefix sums (``sensing.prefix_rows``), all as
    float rows; ``sets`` and ``rho`` hold each vehicle's current sets and
    previous bound.  Each vehicle's window is stacked as in
    ``stack_measurements``, its threshold taken from ``thr.beta_at``, its
    estimate and gains computed as in ``measurement_update_v1`` and its
    bound advanced as in ``rho_update``, bit for bit.  ``memo`` has one slot
    per vehicle, kept by the caller across steps: it holds the window's
    gate classes and count terms for the last sets object seen, which
    fusion and detection return unchanged, by identity, whenever no set
    grew.

    Returns, in vehicle order, the new estimates, the gain rows, the
    thresholds and the new bounds.
    """
    L = p.L
    scale = 2.0 * L
    estimates, gains, betas, bounds = [], [], [], []
    for k in range(L, len(xb) - L):
        si = sets[k]
        entry = memo[k]
        if entry is None or entry[0] is not si:
            classes = _gate_classes(range(k + 1 - L, k + L + 2), si)
            terms = _count_terms(classes.count(_TRUSTED), classes.count(_ATTACKED),
                                 len(si.attacked), p)
            entry = memo[k] = (si, classes, terms)
        _, classes, terms = entry
        rho_prev = rho[k]
        bt = thr.beta_at(rho_prev, p)
        xb0, xb1 = xb[k]
        rows = chained_rows(ya[k - L:k + L + 1], pf[k - L:k + L + 1], pf[k])
        x0, x1, g = _saturated_update(xb0, xb1, rows, classes, bt, scale)
        estimates.append((x0, x1))
        gains.append(g)
        betas.append(bt)
        bounds.append(_rho_next(rho_prev, terms, bt, p))
    return estimates, gains, betas, bounds


def measurement_update_v2(x_bar, y_source, varpi: float) -> tuple:
    """Edge-vehicle correction: fractional step toward the chosen source,
    for float pairs."""
    xb0, xb1 = x_bar
    y0, y1 = y_source
    return (xb0 + (y0 - xb0) / varpi, xb1 + (y1 - xb1) / varpi)


def nearest_trusted(i: int, sets: DetectionSets, topo: Topology) -> int:
    """Source vehicle for an edge vehicle that cannot use its own sensor.

    Candidates are neighbours that either run the full interior observer or
    have had their own sensor proven attack-free; chain readings beyond the
    neighbourhood are not available, so farther vehicles are not considered.
    Ties break toward the smaller index.
    """
    nbrs = topo.neighbors[i]
    candidates = (nbrs & topo.v1) | (nbrs & sets.trusted)
    if not candidates:
        raise ConfigError(f"vehicle {i} has no dependable source to lean on")
    return min(candidates, key=lambda j: (abs(j - i), j))


# --------------------------------------------------------------------------
# error-bound recursions
# --------------------------------------------------------------------------

def _count_terms(s1: int, sa1: int, sa: int, p: ObserverParams) -> tuple:
    """The part of one interior-bound step that the local sensor counts fix.

    ``s1``/``sa1`` count trusted / confirmed-attacked sensors inside the
    ``2L+1`` window and ``sa`` counts all confirmed-attacked sensors.

    When more than ``2L+1-b`` local sensors are already trusted (possible
    once detection completes and fewer than ``b`` attacks landed nearby) the
    total correction weight can exceed ``2L``, the update overshoots, and
    the nominal factor would go negative; the error then contracts by the
    worst absolute deviation of the weight sum from ``2L``, and the drive
    must count every local source as a noise contributor.  The second branch
    covers that regime soundly.
    """
    two_l = 2.0 * p.L
    window = 2 * p.L + 1
    lbar = window - p.b
    if s1 <= lbar:
        return (True, two_l, s1, lbar - s1, (p.eps + p.mu_bar) * lbar,
                max(p.b - sa, 0))
    c_hi = window - sa1
    m = max(abs(1.0 - s1 / two_l), abs(1.0 - c_hi / two_l))
    unknown = max(0, min(p.b - sa, window - s1 - sa1))
    return (False, two_l, m, m * p.eps + (c_hi / two_l) * p.mu_bar, unknown)


def _contraction_and_drive(terms: tuple, kfloor: float,
                           beta_t: float) -> tuple[float, float]:
    """Factor and offset of one interior-bound step, from the count terms of
    :func:`_count_terms`; ``kfloor`` lower-bounds the gain of an unknown
    attack-free source."""
    if terms[0]:
        _, two_l, s1, free, noise, open_ = terms
        return 1.0 - (s1 + free * kfloor) / two_l, (noise + open_ * beta_t) / two_l
    _, two_l, m, base, unknown = terms
    return m, base + unknown * beta_t / two_l


def _local_counts(sets: DetectionSets, i: int, topo: Topology) -> tuple[int, int, int]:
    local = topo.local_group(i)
    return len(sets.trusted & local), len(sets.attacked & local), len(sets.attacked)


def _rho_next(rho_prev: float, terms: tuple, beta_t: float,
              p: ObserverParams) -> float:
    ceiling = p.norm_A * rho_prev + p.eps + p.mu_bar
    # a zero ceiling means every honest innovation is exactly zero, and a
    # zero innovation passes the saturation gate at full gain
    kbar = min(1.0, beta_t / ceiling) if ceiling > 0.0 else 1.0
    m, drive = _contraction_and_drive(terms, kbar, beta_t)
    return m * p.norm_A * rho_prev + drive


def rho_update(rho_prev: float, sets: DetectionSets, i: int, topo: Topology,
               beta_t: float, p: ObserverParams) -> float:
    """Advance the interior-vehicle error bound one step."""
    terms = _count_terms(*_local_counts(sets, i, topo), p)
    return _rho_next(rho_prev, terms, beta_t, p)


def lambda_update(lam_prev: float, p: ObserverParams) -> float:
    """Advance the bound of an edge vehicle tracking its own cleared sensor."""
    return p.contraction * lam_prev + (p.eps * (p.varpi - 1.0) + p.mu) / p.varpi


def tau_update(tau_prev: float, dist: int, s_prev: float, p: ObserverParams) -> float:
    """Advance the bound of an edge vehicle leaning on a source ``dist`` hops
    away whose own broadcast error bound was ``s_prev`` last step."""
    drive = (p.eps * p.varpi + p.mu * dist + p.norm_A * s_prev) / p.varpi
    return p.contraction * tau_prev + drive


def realtime_bound(i: int, sets: DetectionSets, topo: Topology,
                   rho_i: float, lam_i: float, tau_i: float) -> float:
    """The currently-valid error bound of vehicle ``i``."""
    if i in topo.v1:
        return rho_i
    if i in sets.trusted:
        return lam_i
    return tau_i


# --------------------------------------------------------------------------
# saturation-threshold design
# --------------------------------------------------------------------------

def static_threshold_interval(omega: float, p: ObserverParams) -> tuple[float, float]:
    """Admissible static-threshold interval for contraction target ``omega``.

    A feasible threshold must be large enough that honest saturated gains
    keep the error contracting at rate ``omega`` (lower end) and small
    enough that the at-most-``b`` compromised sources cannot push the bound
    back above its previous value (upper end).
    """
    if not 0.0 < omega < 1.0:
        raise ConfigError(f"omega must lie in (0, 1), got {omega}")
    window = 2 * p.L + 1
    if p.b >= window:
        raise ConfigError(f"attack budget b={p.b} saturates the whole window of {window} sensors")
    two_l = 2.0 * p.L
    lbar = window - p.b
    beta0 = p.beta_max
    lower = (two_l / lbar) * ((omega + p.norm_A - 1.0) * beta0 / p.norm_A)
    upper = min(beta0, (two_l / p.b) * (omega * p.q - (p.eps + p.mu_bar) * lbar / two_l))
    return lower, upper


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


def _feasible_intervals(p: ObserverParams) -> list:
    """``(omega, lower, upper)`` for each grid point with a non-empty,
    positive threshold interval."""
    if p.b >= 2 * p.L + 1:
        return []
    out = []
    for w in DEFAULT_OMEGA_GRID:
        lo, hi = static_threshold_interval(w, p)
        if 0.0 < lo < hi:
            out.append((w, lo, hi))
    return out


def feasible_omegas(p: ObserverParams) -> list:
    """Grid points with a non-empty, positive threshold interval."""
    return [w for w, _, _ in _feasible_intervals(p)]


@dataclass(frozen=True)
class ThresholdConfig:
    """Resolved saturation-threshold policy.

    ``beta0`` is the static threshold itself, or the design value the
    adaptive rule scales: ``beta(t) = k0 * (norm_A * rho(t-1) + eps +
    mu_bar)`` with ``k0 = beta0 / beta_max``, so the adaptive threshold
    starts at ``beta0`` and tightens as the bound shrinks.
    """

    mode: str
    beta0: float
    k0: float
    omega: float | None = None
    interval: tuple | None = None

    def beta_at(self, rho_prev: float, p: ObserverParams) -> float:
        if self.mode == "static":
            return self.beta0
        return self.k0 * (p.norm_A * rho_prev + p.eps + p.mu_bar)


def design_threshold(p: ObserverParams, mode: str, beta: float | None = None,
                     omega: float | None = None) -> ThresholdConfig:
    """Resolve the threshold policy, searching the ``omega`` grid if needed.

    With no explicit ``beta`` the widest admissible interval on the grid is
    located and its midpoint chosen; if the grid holds no feasible point the
    design fails loudly rather than running an observer with no guarantees.
    """
    if mode not in ("static", "adaptive"):
        raise ConfigError(f"unknown threshold mode {mode!r}")
    interval = None
    if beta is None:
        if omega is not None:
            lo, hi = static_threshold_interval(omega, p)
            if not 0.0 < lo < hi:
                raise InfeasibleThresholdError(
                    f"threshold interval empty at omega={omega}: ({lo:.6g}, {hi:.6g})")
            interval = (lo, hi)
        else:
            candidates = _feasible_intervals(p)
            if not candidates:
                raise InfeasibleThresholdError(
                    "no omega in (0,1) admits a saturation threshold for these parameters")
            # the first widest interval wins ties, as ``max`` keeps the first
            omega, lo, hi = max(candidates, key=lambda c: c[2] - c[1])
            interval = (lo, hi)
        beta = 0.5 * (interval[0] + interval[1])
    else:
        if beta >= p.beta_max:
            LOG.warning("threshold beta=%.6g is at or above the honest innovation "
                        "ceiling %.6g; saturation will never engage", beta, p.beta_max)
        if omega is not None:
            lo, hi = static_threshold_interval(omega, p)
            interval = (lo, hi)
            if not lo < beta < hi:
                LOG.warning("explicit beta=%.6g lies outside the designed interval "
                            "(%.6g, %.6g) at omega=%.3g", beta, lo, hi, omega)
    return ThresholdConfig(mode=mode, beta0=float(beta), k0=float(beta) / p.beta_max,
                           omega=omega, interval=interval)


# --------------------------------------------------------------------------
# asymptotic bounds
# --------------------------------------------------------------------------

def _edge_bound(a1: float, p: ObserverParams, sets: DetectionSets,
                topo: Topology) -> tuple[float, float]:
    den = p.varpi - (p.varpi - 1.0) * p.norm_A
    a2 = (p.eps * (p.varpi - 1.0) + p.mu) / den
    worst = 0.0
    for i in sorted(topo.v2):
        dist = abs(nearest_trusted(i, sets, topo) - i)
        worst = max(worst, (p.eps * p.varpi + p.mu * dist + p.norm_A * max(a1, a2)) / den)
    return a2, worst


def asymptotic_bounds_static(sets: DetectionSets, topo: Topology, beta: float,
                             p: ObserverParams) -> tuple[float, float, float]:
    """Steady-state error bounds under a static threshold, evaluated at the
    given (frozen) detection sets; each entry is the worst case over its
    vehicle class (interior, cleared edge, leaning edge)."""
    kstar = min(1.0, beta / p.beta_max)
    a1 = 0.0
    for i in sorted(topo.v1):
        terms = _count_terms(*_local_counts(sets, i, topo), p)
        m, drive = _contraction_and_drive(terms, kstar, beta)
        den = 1.0 - m * p.norm_A
        if den <= 0.0:
            raise InfeasibleBoundError(
                f"interior bound diverges for vehicle {i}: contraction {m * p.norm_A:.6g} >= 1")
        a1 = max(a1, drive / den)
    a2, a3 = _edge_bound(a1, p, sets, topo)
    return a1, a2, a3


def asymptotic_bounds_adaptive(sets: DetectionSets, topo: Topology, beta0: float,
                               p: ObserverParams) -> tuple[float, float, float]:
    """Steady-state error bounds under the adaptive threshold.

    Substituting ``beta(t) = k0 * (norm_A * rho(t-1) + eps + mu_bar)`` into
    the interior recursion makes it affine in ``rho``, so its limit no
    longer carries the large initial-uncertainty term — the reason the
    adaptive bound is tighter than the static one.
    """
    k0 = beta0 / p.beta_max
    two_l = 2.0 * p.L
    window = 2 * p.L + 1
    lbar = window - p.b
    a1 = 0.0
    for i in sorted(topo.v1):
        s1, sa1, sa = _local_counts(sets, i, topo)
        if s1 <= lbar:
            bp = max(p.b - sa, 0)
            factor = 1.0 - (s1 + (lbar - s1) * k0) / two_l + bp * k0 / two_l
            offset = (lbar + bp * k0) * (p.eps + p.mu_bar) / two_l
        else:
            m, _ = _contraction_and_drive(_count_terms(s1, sa1, sa, p), k0, 0.0)
            c_hi = window - sa1
            bp = max(0, min(p.b - sa, window - s1 - sa1))
            factor = m + bp * k0 / two_l
            offset = (m * p.eps + (c_hi / two_l) * p.mu_bar
                      + (bp * k0 / two_l) * (p.eps + p.mu_bar))
        den = 1.0 - factor * p.norm_A
        if den <= 0.0:
            raise InfeasibleBoundError(
                f"interior bound diverges for vehicle {i}: contraction {factor * p.norm_A:.6g} >= 1")
        a1 = max(a1, offset / den)
    a2, a3 = _edge_bound(a1, p, sets, topo)
    return a1, a2, a3
