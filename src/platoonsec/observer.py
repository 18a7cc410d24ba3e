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

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .dynamics import plant_norm
from . import sensing
from .sensing import ConfigError

if TYPE_CHECKING:
    from .core import DetectionSets, Topology

DEFAULT_OMEGA_GRID = tuple(round(0.01 * k, 2) for k in range(1, 100))
_OMEGA_GRID = np.array(DEFAULT_OMEGA_GRID)


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
        return cls(L=config.L, b=config.b, q=config.q, eps=config.epsilon,
                   mu=config.mu, norm_A=plant_norm(config.T),
                   varpi=config.varpi)


# --------------------------------------------------------------------------
# state updates
# --------------------------------------------------------------------------

# gate class of a source: cut off, full weight, or clipped at the threshold
_ATTACKED, _TRUSTED, _UNKNOWN = 0, 1, 2


def _gate_classes(sensors, sets: DetectionSets) -> tuple:
    attacked = sets.attacked
    trusted = sets.trusted
    return tuple(_ATTACKED if s in attacked else _TRUSTED if s in trusted else _UNKNOWN
                 for s in sensors)


def _window_terms(sets: DetectionSets, i: int, p: ObserverParams) -> tuple[tuple, tuple]:
    """Gate classes of the window ``i-L .. i+L`` and its :func:`_count_terms`."""
    classes = _gate_classes(range(i - p.L, i + p.L + 1), sets)
    return classes, _count_terms(classes.count(_TRUSTED), classes.count(_ATTACKED),
                                 len(sets.attacked), p)


def _window(classes, first: int) -> tuple[tuple, tuple]:
    """The non-attacked sources of a window, in sensor order, as ``(position,
    reading index, gated)`` with reading index ``first + position``, and its
    gain row before gating: 0 for a confirmed-attacked source, else 1."""
    sources = tuple((m, first + m, c == _UNKNOWN)
                    for m, c in enumerate(classes) if c != _ATTACKED)
    return sources, tuple(0.0 if c == _ATTACKED else 1.0 for c in classes)


def measurement_update_v1(xb0: float, xb1: float, y_abs: list, pref: list, pref_own,
                          sources: tuple, row: tuple, beta: float,
                          scale: float) -> tuple[float, float, tuple | list]:
    """Estimate and gains of one window: the prediction plus the gain-weighted
    innovations ``e = (y_abs[j] + (pref_own - pref[j])) - x_bar`` of its
    ``sources``, summed in sensor order and divided by ``scale = 2L``.

    An unknown (gated) source whose ``‖e‖`` exceeds ``beta`` gets the gain
    ``beta / ‖e‖``, and ``not <=`` keeps the gain NaN where the norm or
    ``beta`` is NaN; every other source adds ``e`` itself, which is exactly
    ``1.0 * e``.  The gain row is ``row`` unless a source was clipped.
    """
    p0, p1 = pref_own
    gains = row
    corr0 = 0.0
    corr1 = 0.0
    for m, j, gated in sources:
        a0, a1 = y_abs[j]
        f0, f1 = pref[j]
        e0 = (a0 + (p0 - f0)) - xb0
        e1 = (a1 + (p1 - f1)) - xb1
        if gated:
            norm = math.hypot(e0, e1)
            if not norm <= beta:
                k = beta / norm if norm else beta  # only a NaN beta clips a zero norm
                if gains is row:
                    gains = list(row)
                gains[m] = k
                e0 = k * e0
                e1 = k * e1
        corr0 += e0
        corr1 += e1
    return xb0 + corr0 / scale, xb1 + corr1 / scale, gains


def interior_bounds(sets, rho, thr: "ThresholdConfig", p: ObserverParams,
                    memo: list) -> tuple[list, list]:
    """One bound step for every interior vehicle ``L+1 .. N-L``: each
    vehicle's threshold ``thr.beta_at`` and :func:`rho_update` from its
    sets and previous bound, in vehicle order.  ``memo``, kept across
    steps, holds per vehicle the window's count terms, non-attacked sources
    and 0/1 gain row (:func:`_window`) for the last sets object seen, which
    fusion and detection return unchanged, by identity, when no set grew;
    its last slot holds the last ``sets`` tuple, which the detector also
    hands out again when nothing changed, the interior count terms and
    whether they are all equal.

    Vehicles with equal ``(previous bound, count terms)`` keys share one
    step, made once in ``steps``, and so the same float objects, all at once
    when they share one key.  A nonzero bound is keyed by its value and a
    zero by its object, since ``0.0 == -0.0``; a NaN matches only itself, as
    list and tuple equality test identity first.  ``rho`` holds every key's
    object for the whole call, so the ids stay unique.  Count terms come
    from the window's counts and ``p`` alone, with no zero whose sign
    differs between windows, so equal terms give bit-equal steps.
    """
    L, n = p.L, len(sets)
    if memo[n] is None or memo[n][0] is not sets:
        for k in range(L, n - L):
            si = sets[k]
            entry = memo[k]
            if entry is None or entry[0] is not si:
                classes, terms = _window_terms(si, k + 1, p)
                memo[k] = (si, terms, *_window(classes, k - L))
        terms_in = [entry[1] for entry in memo[L:n - L]]
        memo[n] = (sets, terms_in, terms_in.count(terms_in[0]) == len(terms_in))
    _, terms_in, one_terms = memo[n]
    rho_in = rho[L:n - L]
    m, r0 = len(rho_in), rho_in[0]
    if one_terms and r0 and rho_in.count(r0) == m:
        bt = thr.beta_at(r0, p)
        return [bt] * m, [rho_update(r0, terms_in[0], bt, p)] * m
    betas, bounds, steps = [], [], {}
    for rho_prev, terms in zip(rho_in, terms_in):
        key = (rho_prev or (id(rho_prev),), terms)  # a zero by its object: 0.0 == -0.0
        step = steps.get(key)
        if step is None:
            bt = thr.beta_at(rho_prev, p)
            step = steps[key] = (bt, rho_update(rho_prev, terms, bt, p))
        betas.append(step[0])
        bounds.append(step[1])
    return betas, bounds


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


def row_observer(thr: "ThresholdConfig", p: ObserverParams, topo: Topology):
    """The observer of one run's platoon: its step-0 rows ``rho, lam, tau,
    alpha`` (``q`` for the vehicles a bound applies to, NaN elsewhere) and
    two steps over one ``memo``.  ``update_bounds(sets, rho, lam, tau,
    alpha)`` reads no measurement: it advances the interior bounds by
    :func:`interior_bounds` and each edge vehicle's ``tau`` from its
    ``nearest_trusted`` source's previous ``alpha``, and ``lam`` while its
    sensor is trusted, else it takes ``tau``.  ``rho``, ``lam`` and ``tau``
    advance in place, and the thresholds (NaN for edge vehicles) and the
    new ``alpha`` are returned.  ``update_rows(xb, ya, pf, sets, rho, lam,
    tau, alpha)`` runs it, then moves each interior estimate by
    :func:`measurement_update_v1` on its memo entry's window and each edge
    vehicle by ``measurement_update_v2`` toward its own reading once
    trusted, else toward its source's prediction chained to it, on float
    rows of the predictions, readings and gap-reading prefix sums, and
    returns the estimates and gain rows before those two rows.  An edge
    vehicle's memo slot holds its source row, distance and own-trusted
    flag for the last sets object seen.
    """
    n, L = topo.N, p.L
    inner = slice(L, n - L)
    edges = (*range(L), *range(n - L, n))
    nan_gains = [math.nan] * (2 * L + 1)
    scale = 2.0 * L
    memo = [None] * (n + 1)

    def update_bounds(sets, rho: list, lam: list, tau: list, alpha: list) -> tuple[list, list]:
        betas, bounds = interior_bounds(sets, rho, thr, p, memo)
        beta_row = [math.nan] * n
        alpha_new = [0.0] * n
        beta_row[inner] = betas
        rho[inner] = bounds
        alpha_new[inner] = bounds
        for k in edges:
            si = sets[k]
            entry = memo[k]
            if entry is None or entry[0] is not si:
                j = nearest_trusted(k + 1, si, topo)
                entry = memo[k] = (si, j - 1, abs(j - k - 1), k + 1 in si.trusted)
            _, s, dist, own_trusted = entry
            tau[k] = tau_update(tau[k], dist, alpha[s], p)
            lam[k] = alpha_new[k] = lambda_update(lam[k], p) if own_trusted else tau[k]
        return beta_row, alpha_new

    def update_rows(xb: list, ya: list, pf: list, sets, rho: list, lam: list, tau: list,
                    alpha: list) -> tuple[list, list, list, list]:
        beta_row, alpha_new = update_bounds(sets, rho, lam, tau, alpha)
        x_hat = [None] * n
        gains = [nan_gains] * n
        for k in range(L, n - L):
            _, _, sources, row = memo[k]
            xb0, xb1 = xb[k]
            x0, x1, gains[k] = measurement_update_v1(xb0, xb1, ya, pf, pf[k], sources, row,
                                                     beta_row[k], scale)
            x_hat[k] = (x0, x1)
        for k in edges:
            _, s, _, own_trusted = memo[k]
            src = ya[k] if own_trusted else sensing.estimate_based_measurement(xb[s], pf[s], pf[k])
            x_hat[k] = measurement_update_v2(xb[k], src, p.varpi)
        return x_hat, gains, beta_row, alpha_new
    rho, lam = [math.nan] * n, [p.q] * n
    rho[inner] = [p.q] * (n - 2 * L)
    lam[inner] = [math.nan] * (n - 2 * L)
    return rho, lam, list(lam), [p.q] * n, update_bounds, update_rows


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
        m = 1.0 - (s1 + free * kfloor) / two_l
        if s1 + free > two_l:  # b = 0: 2L+1 honest weights can overshoot 2L
            m = max(m, (s1 + free) / two_l - 1.0)
        return m, (noise + open_ * beta_t) / two_l
    _, two_l, m, base, unknown = terms
    return m, base + unknown * beta_t / two_l


def rho_update(rho_prev: float, terms: tuple, beta_t: float, p: ObserverParams) -> float:
    """Advance an interior vehicle's error bound one step, from its window's
    count terms (:func:`_count_terms`) and threshold ``beta_t``."""
    ceiling = p.norm_A * rho_prev + p.eps + p.mu_bar
    # a zero ceiling means every honest innovation is exactly zero, and a
    # zero innovation passes the saturation gate at full gain
    kbar = min(1.0, beta_t / ceiling) if ceiling > 0.0 else 1.0
    m, drive = _contraction_and_drive(terms, kbar, beta_t)
    return m * p.norm_A * rho_prev + drive


def lambda_update(lam_prev: float, p: ObserverParams) -> float:
    """Advance the bound of an edge vehicle tracking its own cleared sensor."""
    return p.contraction * lam_prev + (p.eps * (p.varpi - 1.0) + p.mu) / p.varpi


def tau_update(tau_prev: float, dist: int, s_prev: float, p: ObserverParams) -> float:
    """Advance the bound of an edge vehicle leaning on a source ``dist`` hops
    away whose own broadcast error bound was ``s_prev`` last step."""
    drive = (p.eps * p.varpi + p.mu * dist + p.norm_A * s_prev) / p.varpi
    return p.contraction * tau_prev + drive


# --------------------------------------------------------------------------
# saturation-threshold design
# --------------------------------------------------------------------------

def static_threshold_interval(omega, p: ObserverParams) -> tuple:
    """Admissible static-threshold interval for contraction target ``omega``.

    A feasible threshold must be large enough that honest saturated gains
    keep the error contracting at rate ``omega`` (lower end) and small
    enough that the at-most-``b`` compromised sources cannot push the bound
    back above its previous value (upper end).  ``omega`` may also be an
    array of targets, such as the whole grid; the ends are then arrays too.
    """
    targets = np.asarray(omega)
    if not np.all((targets > 0.0) & (targets < 1.0)):
        raise ConfigError(f"omega must lie in (0, 1), got {omega}")
    window = 2 * p.L + 1
    if p.b >= window:
        raise ConfigError(f"attack budget b={p.b} saturates the whole window of {window} sensors")
    two_l = 2.0 * p.L
    lbar = window - p.b
    beta0 = p.beta_max
    lower = (two_l / lbar) * ((omega + p.norm_A - 1.0) * beta0 / p.norm_A)
    if p.b == 0:  # the b -> 0 limit: with no compromised source only beta0 caps it
        return lower, np.full(np.shape(lower), beta0)
    upper = np.minimum(beta0, (two_l / p.b) * (omega * p.q - (p.eps + p.mu_bar) * lbar / two_l))
    return lower, upper


def _feasible_intervals(p: ObserverParams) -> list:
    """``(omega, lower, upper)`` for each grid point with a non-empty,
    positive threshold interval."""
    if p.b >= 2 * p.L + 1:
        return []
    with np.errstate(over="ignore"):  # an end past the float range is an infinity of its sign
        lower, upper = static_threshold_interval(_OMEGA_GRID, p)
    return [(w, lo, hi) for w, lo, hi in zip(DEFAULT_OMEGA_GRID, lower.tolist(), upper.tolist())
            if 0.0 < lo < hi]


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
    An explicit ``beta`` is used as given; ``core.load_scenario`` warns of it.
    """
    if mode not in ("static", "adaptive"):
        raise ConfigError(f"unknown threshold mode {mode!r}")
    lo = hi = None
    if omega is not None:
        lo, hi = map(float, static_threshold_interval(omega, p))
        if beta is None and not 0.0 < lo < hi:
            raise InfeasibleThresholdError(
                f"threshold interval empty at omega={omega}: ({lo:.6g}, {hi:.6g})")
    elif beta is None:
        candidates = _feasible_intervals(p)
        if not candidates:
            raise InfeasibleThresholdError(
                "no omega in (0,1) admits a saturation threshold for these parameters")
        # the first widest interval wins ties, as ``max`` keeps the first
        omega, lo, hi = max(candidates, key=lambda c: c[2] - c[1])
    if beta is None:
        beta = 0.5 * (lo + hi)
        if beta == math.inf:  # two finite ends can overflow their sum
            beta = 0.5 * lo + 0.5 * hi
    return ThresholdConfig(mode=mode, beta0=float(beta), k0=float(beta) / p.beta_max,
                           omega=omega, interval=None if lo is None else (lo, hi))


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


def _asymptotic_bounds(sets: DetectionSets, topo: Topology, p: ObserverParams,
                       step) -> tuple[float, float, float]:
    """Worst steady-state error per vehicle class (interior, cleared edge,
    leaning edge) at the given (frozen) detection sets.  ``step`` maps an
    interior window's count terms to the ``(factor, offset)`` of its
    recursion ``rho <- factor * norm_A * rho + offset``, whose limit is
    ``offset / (1 - factor * norm_A)``."""
    a1 = 0.0
    for i in sorted(topo.v1):
        factor, offset = step(_window_terms(sets, i, p)[1])
        den = 1.0 - factor * p.norm_A
        if den <= 0.0:
            raise InfeasibleBoundError(
                f"interior bound diverges for vehicle {i}: contraction {factor * p.norm_A:.6g} >= 1")
        a1 = max(a1, offset / den)
    a2, a3 = _edge_bound(a1, p, sets, topo)
    return a1, a2, a3


def asymptotic_bounds_static(sets: DetectionSets, topo: Topology, beta: float,
                             p: ObserverParams) -> tuple[float, float, float]:
    """Steady-state error bounds under a static threshold."""
    kstar = min(1.0, beta / p.beta_max)
    return _asymptotic_bounds(sets, topo, p,
                              lambda terms: _contraction_and_drive(terms, kstar, beta))


def asymptotic_bounds_adaptive(sets: DetectionSets, topo: Topology, beta0: float,
                               p: ObserverParams) -> tuple[float, float, float]:
    """Steady-state error bounds under the adaptive threshold.

    Substituting ``beta(t) = k0 * (norm_A * rho(t-1) + eps + mu_bar)`` into
    the interior recursion makes it affine in ``rho``, so its limit no
    longer carries the large initial-uncertainty term — the reason the
    adaptive bound is tighter than the static one.  An honest gain never
    exceeds 1, so its floor is ``min(1, k0)``, while the sources that may
    still be compromised push with the full ``k0``.
    """
    k0 = beta0 / p.beta_max
    kfloor = min(1.0, k0)
    two_l = 2.0 * p.L
    lbar = 2 * p.L + 1 - p.b

    def step(terms):
        m, _ = _contraction_and_drive(terms, kfloor, 0.0)
        bp = terms[-1]  # sources that may still be compromised
        if terms[0]:
            offset = (lbar + bp * k0) * (p.eps + p.mu_bar) / two_l
        else:
            # terms[3] is the overshoot branch's noise drive
            offset = terms[3] + (bp * k0 / two_l) * (p.eps + p.mu_bar)
        return m + bp * k0 / two_l, offset

    return _asymptotic_bounds(sets, topo, p, step)
