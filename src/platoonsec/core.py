"""Vehicle-string topology, detection-set bookkeeping, and scenario
configuration.

Vehicles are labelled ``1..N`` front to back.  A vehicle exchanges messages
with every vehicle at most ``L`` hops away, so the interior vehicles (the
set ``v1``) see a full window of ``2L+1`` absolute sensors while the ``L``
vehicles at each end (the set ``v2``) see a truncated one and run a simpler
observer.
"""

import json
import logging
import math
from dataclasses import dataclass

from . import dynamics, observer, sensing
from .sensing import (COUNT, FINITE, INTEGER, NONNEGATIVE, OBJECT, PAIR, POSITIVE,
                      ConfigError, checked, one_of)

LOG = logging.getLogger(__name__)


class InconsistentSetsError(RuntimeError):
    """Detection sets from cooperating vehicles contradict each other."""


# --------------------------------------------------------------------------
# topology
# --------------------------------------------------------------------------

def _check_interior(N: int, L: int) -> None:
    """Refuse a string with no interior vehicle, in time and memory that do
    not grow with ``N``."""
    if L < 1:
        raise ConfigError(f"communication range L must be at least 1, got {L}")
    if 2 * L >= N:
        raise ConfigError(f"need N > 2L for a non-empty interior, got N={N}, L={L}")


def partition_vehicles(N: int, L: int) -> tuple[frozenset, frozenset]:
    """Split ``1..N`` into interior vehicles (full sensor window) and edge
    vehicles (truncated window)."""
    _check_interior(N, L)
    v1 = frozenset(range(L + 1, N - L + 1))
    v2 = frozenset(range(1, N + 1)) - v1
    return v1, v2


def neighbor_set(i: int, N: int, L: int) -> frozenset:
    """Communication neighbours of vehicle ``i`` in the string.

    Interior vehicles see ``i-L .. i+L``; the window is truncated at both
    string ends (capped at ``1`` and at ``N``) so the graph is symmetric.
    """
    if not 1 <= i <= N:
        raise ConfigError(f"vehicle index {i} out of range 1..{N}")
    return frozenset(range(max(1, i - L), min(N, i + L) + 1)) - {i}


@dataclass(frozen=True)
class Topology:
    """Immutable string topology with precomputed neighbourhoods."""

    N: int
    L: int
    v1: frozenset
    v2: frozenset
    neighbors: dict

    @classmethod
    def build(cls, N: int, L: int) -> "Topology":
        v1, v2 = partition_vehicles(N, L)
        nbrs = {i: neighbor_set(i, N, L) for i in range(1, N + 1)}
        return cls(N=N, L=L, v1=v1, v2=v2, neighbors=nbrs)

    def local_group(self, i: int) -> frozenset:
        """Neighbourhood of ``i`` including ``i`` itself."""
        return self.neighbors[i] | {i}

    def vehicles(self) -> range:
        return range(1, self.N + 1)

    def distance(self, i: int, j: int) -> int:
        """Hop count between ``i`` and ``j``; one hop spans up to ``L`` places."""
        return math.ceil(abs(i - j) / self.L)

    def diameter(self) -> int:
        return self.distance(1, self.N)


# --------------------------------------------------------------------------
# detection sets
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class DetectionSets:
    """A vehicle's running classification of all absolute sensors.

    ``trusted`` are sensors proven attack-free, ``attacked`` are confirmed
    compromised, ``suspected`` are pairs flagged by the gap test but not yet
    attributed.  Trusted and attacked never overlap; suspected never
    contains a confirmed-attacked sensor.
    """

    trusted: frozenset = frozenset()
    attacked: frozenset = frozenset()
    suspected: frozenset = frozenset()

    def __post_init__(self):
        if self.trusted and self.attacked and (self.trusted & self.attacked):
            raise InconsistentSetsError(
                f"sensors {sorted(self.trusted & self.attacked)} both trusted and attacked")

    @classmethod
    def empty(cls) -> "DetectionSets":
        return cls()

    def sorted_lists(self) -> dict:
        return {"trusted": sorted(self.trusted), "attacked": sorted(self.attacked),
                "suspected": sorted(self.suspected)}


def fuse_sets(own: DetectionSets, received) -> DetectionSets:
    """Union a vehicle's sets with those received from its neighbours.

    Raises :class:`InconsistentSetsError` when one party trusts a sensor
    another has confirmed attacked: under the fault-free detection rules
    that cannot happen, so it signals a corrupted exchange and the run must
    stop rather than continue on bad sets.
    """
    trusted = set(own.trusted)
    attacked = set(own.attacked)
    suspected = set(own.suspected)
    for other in received:
        trusted |= other.trusted
        attacked |= other.attacked
        suspected |= other.suspected
    clash = trusted & attacked
    if clash:
        raise InconsistentSetsError(
            f"sensors {sorted(clash)} trusted by one vehicle but confirmed attacked by another")
    suspected -= attacked
    if (len(trusted) == len(own.trusted) and len(attacked) == len(own.attacked)
            and suspected == own.suspected):
        return own  # nothing new anywhere; keep the object so callers can memoize
    return DetectionSets(frozenset(trusted), frozenset(attacked),
                         frozenset(suspected))


def describe_clash(parties) -> str:
    """Error path: who disagrees, for every sensor that one of the
    ``(vehicle, sets)`` parties trusts and another has confirmed attacked;
    empty if none does."""
    trusted = set().union(*(s.trusted for _, s in parties))
    attacked = set().union(*(s.attacked for _, s in parties))
    return "; ".join(
        f"sensor {sensor} trusted by vehicles "
        f"{[v for v, s in parties if sensor in s.trusted]} and confirmed attacked "
        f"by vehicles {[v for v, s in parties if sensor in s.attacked]}"
        for sensor in sorted(trusted & attacked))


# --------------------------------------------------------------------------
# scenario configuration
# --------------------------------------------------------------------------

_REQUIRED_KEYS = {"N", "L", "b", "T", "q", "epsilon", "mu", "g_s", "g_v",
                  "threshold_mode", "attack", "horizon", "seed", "delta_x", "x0"}
_OPTIONAL_KEYS = {"varpi", "v0", "x_init", "x_hat_init", "controller_mode"}

_THRESHOLD_MODE = one_of(("static", "adaptive"))
_CONTROLLER_MODE = one_of(("observer", "pwm"))


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully-resolved simulation scenario (all defaults filled in)."""

    N: int
    L: int
    b: int
    T: float
    q: float
    epsilon: float
    mu: float
    g_s: float
    g_v: float
    varpi: float
    threshold_mode: str
    beta: float | None
    omega: float | None
    attack: sensing.AttackSpec
    horizon: int
    seed: int
    delta_x: tuple
    x0: tuple
    x_init: tuple
    x_hat_init: tuple
    controller_mode: str = "observer"

    def topology(self) -> Topology:
        return Topology.build(self.N, self.L)

    def initial_error(self) -> tuple[float, int]:
        """Largest initial estimation error ``|x_hat_i(0) - x_i(0)|`` and the
        first vehicle with it."""
        errors = [math.hypot(h[0] - x[0], h[1] - x[1])
                  for h, x in zip(self.x_hat_init, self.x_init)]
        worst = max(errors)
        return worst, errors.index(worst) + 1

    def to_json(self) -> dict:
        return {
            "N": self.N, "L": self.L, "b": self.b, "T": self.T,
            "q": self.q, "epsilon": self.epsilon, "mu": self.mu,
            "g_s": self.g_s, "g_v": self.g_v, "varpi": self.varpi,
            "threshold_mode": {"mode": self.threshold_mode, "beta": self.beta,
                               "omega": self.omega},
            "attack": self.attack.to_json(),
            "horizon": self.horizon, "seed": self.seed,
            "delta_x": [list(d) for d in self.delta_x],
            "x0": list(self.x0),
            "x_init": [list(x) for x in self.x_init],
            "x_hat_init": [list(x) for x in self.x_hat_init],
            "controller_mode": self.controller_mode,
        }


def load_scenario(source) -> ScenarioConfig:
    """Build a :class:`ScenarioConfig` from a JSON document.

    ``source`` may be a path to a JSON file or an already-parsed dict.
    Unknown fields are rejected outright so typos cannot silently fall back
    to defaults.
    """
    if isinstance(source, dict):
        doc = dict(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:  # not UTF-8, or not JSON
                raise ConfigError(f"scenario file {source} is not valid JSON: {exc}") from exc
        checked(doc, "scenario document", OBJECT)

    unknown = set(doc) - _REQUIRED_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise ConfigError(f"unknown scenario fields: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(doc)
    if missing:
        raise ConfigError(f"missing scenario fields: {sorted(missing)}")

    N, L, b = (checked(doc[key], key, INTEGER) for key in ("N", "L", "b"))
    if N < 2:
        raise ConfigError(f"need at least two vehicles, got N={N}")
    _check_interior(N, L)  # the document's rows are counted before anything of size N is built
    if b < 1:
        LOG.warning("b=%d leaves no attack budget; detection rules will be vacuous", b)
    elif b > L:
        LOG.warning("b=%d exceeds L=%d: no static saturation threshold can be feasible", b, L)

    T, q, epsilon, mu, g_s, g_v = (float(checked(doc[key], key, rule)) for key, rule in (
        ("T", POSITIVE), ("q", POSITIVE), ("epsilon", NONNEGATIVE), ("mu", NONNEGATIVE),
        ("g_s", POSITIVE), ("g_v", POSITIVE)))
    if (L + 1) * mu == math.inf:  # ObserverParams.mu_bar
        raise ConfigError(f"mu={mu!r} overflows the chained noise bound (L+1)*mu")

    norm_A = dynamics.plant_norm(T)
    if not 1.0 < norm_A < math.inf:
        raise ConfigError(f"T={T!r} gives the plant norm {norm_A!r}; it must lie in (1, inf)")
    varpi_hi = norm_A / (norm_A - 1.0)
    varpi = (1.0 + varpi_hi) / 2.0  # the default, unless the document sets it
    if not 1.0 < varpi < varpi_hi:  # a huge T rounds the interval shut
        raise ConfigError(f"T={T!r} gives the plant norm {norm_A!r}, which leaves "
                          f"the interval (1, {varpi_hi!r}) for varpi no room")
    if doc.get("varpi") is not None:
        varpi = float(checked(doc["varpi"], "varpi", POSITIVE))
        if not 1.0 < varpi < varpi_hi:
            raise ConfigError(
                f"varpi must lie in (1, {varpi_hi:.6g}) for this sampling period, got {varpi}")

    tm = checked(doc["threshold_mode"], "threshold_mode", OBJECT)
    unknown = set(tm) - {"mode", "beta", "omega"}
    if unknown:
        raise ConfigError(f"unknown threshold_mode keys: {sorted(unknown)}")
    mode = checked(tm.get("mode"), "threshold_mode.mode", _THRESHOLD_MODE)
    beta, omega = (None if tm.get(key) is None
                   else float(checked(tm[key], f"threshold_mode.{key}", POSITIVE))
                   for key in ("beta", "omega"))
    if omega is not None and not omega < 1:
        raise ConfigError(f"threshold_mode.omega must lie in (0, 1), got {omega}")

    try:
        attack = sensing.attack_spec_from_json(doc["attack"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid attack block: {exc}") from exc
    if any(i > N for i in attack.attacked):
        raise ConfigError("attack set references vehicles beyond N")
    if len(attack.attacked) > b:
        raise ConfigError(
            f"attack set of size {len(attack.attacked)} exceeds the budget b={b}")

    horizon = checked(doc["horizon"], "horizon", COUNT)
    seed = checked(doc["seed"], "seed", INTEGER)

    x0 = tuple(map(float, checked(doc["x0"], "x0", PAIR)))
    v0 = doc.get("v0")
    if v0 is not None and float(checked(v0, "v0", FINITE)) != x0[1]:
        raise ConfigError(f"v0={v0} contradicts x0 velocity {x0[1]}")
    rows = {}  # delta_x is required, the initial states are optional
    for key, n in (("delta_x", N - 1), ("x_init", N), ("x_hat_init", N)):
        if key == "delta_x" or doc.get(key) is not None:
            checked(doc[key], key, (lambda v: isinstance(v, list) and len(v) == n,
                                    f"be a list of {n} pairs"))
            pairs = [checked(v, f"{key}[{k}]", PAIR) for k, v in enumerate(doc[key])]
            rows[key] = tuple((float(s), float(v)) for s, v in pairs)
    delta_x = rows["delta_x"]
    x_init = rows.get("x_init") or tuple(
        map(tuple, dynamics.desired_state_chain(x0, delta_x).tolist()))
    x_hat_init = rows.get("x_hat_init") or ((0.0, 0.0),) * N

    controller_mode = "observer"
    if doc.get("controller_mode") is not None:
        controller_mode = checked(doc["controller_mode"], "controller_mode", _CONTROLLER_MODE)

    config = ScenarioConfig(
        N=N, L=L, b=b, T=T, q=q, epsilon=epsilon, mu=mu, g_s=g_s, g_v=g_v,
        varpi=varpi, threshold_mode=mode, beta=beta, omega=omega, attack=attack,
        horizon=horizon, seed=seed, delta_x=delta_x, x0=x0,
        x_init=x_init, x_hat_init=x_hat_init, controller_mode=controller_mode)
    worst, _ = config.initial_error()
    if worst > q:
        LOG.warning("initial estimation error %.6g exceeds q=%.6g; "
                    "the reported error bounds are not guaranteed to hold", worst, q)
    if beta is not None:
        p = observer.ObserverParams.from_config(config)
        if beta >= p.beta_max:
            LOG.warning("threshold beta=%.6g is at or above the honest innovation "
                        "ceiling %.6g; saturation will never engage", beta, p.beta_max)
        if omega is not None and b < 2 * L + 1:  # a larger b fails the design
            lo, hi = map(float, observer.static_threshold_interval(omega, p))
            if not lo < beta < hi:
                LOG.warning("explicit beta=%.6g lies outside the designed interval "
                            "(%.6g, %.6g) at omega=%.3g", beta, lo, hi, omega)
    return config
