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

import numpy as np

from . import dynamics, sensing

LOG = logging.getLogger(__name__)


class ConfigError(ValueError):
    """A scenario document is malformed or violates a structural assumption."""


class InconsistentSetsError(RuntimeError):
    """Detection sets from cooperating vehicles contradict each other."""


# --------------------------------------------------------------------------
# topology
# --------------------------------------------------------------------------

def partition_vehicles(N: int, L: int) -> tuple[frozenset, frozenset]:
    """Split ``1..N`` into interior vehicles (full sensor window) and edge
    vehicles (truncated window)."""
    if L < 1:
        raise ConfigError(f"communication range L must be at least 1, got {L}")
    if 2 * L >= N:
        raise ConfigError(f"need N > 2L for a non-empty interior, got N={N}, L={L}")
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

_THRESHOLD_MODES = ("static", "adaptive")
_CONTROLLER_MODES = ("observer", "pwm")


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


def _number(value, name: str, rule: str = "a finite number", ok=math.isfinite) -> float:
    """``value`` as a float if it is a finite number that ``ok`` accepts; JSON
    also admits ``NaN``, ``Infinity`` and integers too large for a float."""
    if not (sensing._finite(value) and ok(value)):
        raise ConfigError(f"{name} must be {rule}, got {value!r}")
    return float(value)


def _vec2(value, name: str) -> tuple:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not (sensing._finite(value[0]) and sensing._finite(value[1]))):
        raise ConfigError(f"{name} must be a pair of finite numbers, got {value!r}")
    return (float(value[0]), float(value[1]))


def _vec2_list(value, name: str, expected_len: int) -> tuple:
    if not isinstance(value, list) or len(value) != expected_len:
        raise ConfigError(f"{name} must be a list of {expected_len} pairs")
    return tuple(_vec2(v, f"{name}[{k}]") for k, v in enumerate(value))


def _positive(value, name: str) -> float:
    return _number(value, name, "a positive finite number", lambda v: v > 0)


def _nonnegative(value, name: str) -> float:
    return _number(value, name, "a nonnegative finite number", lambda v: v >= 0)


def _integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


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
        if not isinstance(doc, dict):
            raise ConfigError("scenario document must be a JSON object")

    unknown = set(doc) - _REQUIRED_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise ConfigError(f"unknown scenario fields: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(doc)
    if missing:
        raise ConfigError(f"missing scenario fields: {sorted(missing)}")

    N = _integer(doc["N"], "N")
    L = _integer(doc["L"], "L")
    b = _integer(doc["b"], "b")
    if N < 2:
        raise ConfigError(f"need at least two vehicles, got N={N}")
    partition_vehicles(N, L)  # validates N > 2L, L >= 1
    if b < 1:
        LOG.warning("b=%d leaves no attack budget; detection rules will be vacuous", b)
    elif b > L:
        LOG.warning("b=%d exceeds L=%d: no static saturation threshold can be feasible", b, L)

    T = _positive(doc["T"], "T")
    q = _positive(doc["q"], "q")
    epsilon = _nonnegative(doc["epsilon"], "epsilon")
    mu = _nonnegative(doc["mu"], "mu")
    g_s = _positive(doc["g_s"], "g_s")
    g_v = _positive(doc["g_v"], "g_v")

    norm_A = dynamics.plant_norm(T)
    if not 1.0 < norm_A < math.inf:
        raise ConfigError(f"T={T!r} gives the plant norm {norm_A!r}; it must lie in (1, inf)")
    varpi_hi = norm_A / (norm_A - 1.0)
    if "varpi" in doc and doc["varpi"] is not None:
        varpi = _positive(doc["varpi"], "varpi")
        if not 1.0 < varpi < varpi_hi:
            raise ConfigError(
                f"varpi must lie in (1, {varpi_hi:.6g}) for this sampling period, got {varpi}")
    else:
        varpi = (1.0 + varpi_hi) / 2.0

    tm = doc["threshold_mode"]
    if not isinstance(tm, dict):
        raise ConfigError("threshold_mode must be an object")
    unknown = set(tm) - {"mode", "beta", "omega"}
    if unknown:
        raise ConfigError(f"unknown threshold_mode keys: {sorted(unknown)}")
    mode = tm.get("mode")
    if mode not in _THRESHOLD_MODES:
        raise ConfigError(f"threshold mode must be one of {_THRESHOLD_MODES}, got {mode!r}")
    beta = tm.get("beta")
    if beta is not None:
        beta = _positive(beta, "threshold_mode.beta")
    omega = tm.get("omega")
    if omega is not None:
        omega = _positive(omega, "threshold_mode.omega")
        if not omega < 1:
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

    horizon = _integer(doc["horizon"], "horizon")
    if horizon < 0:
        raise ConfigError(f"horizon must be nonnegative, got {horizon}")
    seed = _integer(doc["seed"], "seed")

    delta_x = _vec2_list(doc["delta_x"], "delta_x", N - 1)
    x0 = _vec2(doc["x0"], "x0")
    if "v0" in doc and doc["v0"] is not None:
        v0 = _number(doc["v0"], "v0")
        if v0 != x0[1]:
            raise ConfigError(f"v0={v0} contradicts x0 velocity {x0[1]}")

    chain = dynamics.desired_state_chain(np.array(x0), np.array(delta_x))
    if "x_init" in doc and doc["x_init"] is not None:
        x_init = _vec2_list(doc["x_init"], "x_init", N)
    else:
        x_init = tuple((float(r[0]), float(r[1])) for r in chain)
    if "x_hat_init" in doc and doc["x_hat_init"] is not None:
        x_hat_init = _vec2_list(doc["x_hat_init"], "x_hat_init", N)
    else:
        x_hat_init = tuple((0.0, 0.0) for _ in range(N))

    controller_mode = doc.get("controller_mode", "observer")
    if controller_mode not in _CONTROLLER_MODES:
        raise ConfigError(
            f"controller_mode must be one of {_CONTROLLER_MODES}, got {controller_mode!r}")

    config = ScenarioConfig(
        N=N, L=L, b=b, T=T, q=q, epsilon=epsilon, mu=mu, g_s=g_s, g_v=g_v,
        varpi=varpi, threshold_mode=mode, beta=beta, omega=omega, attack=attack,
        horizon=horizon, seed=seed, delta_x=delta_x, x0=x0,
        x_init=x_init, x_hat_init=x_hat_init, controller_mode=controller_mode)
    worst, _ = config.initial_error()
    if worst > q:
        LOG.warning("initial estimation error %.6g exceeds q=%.6g; "
                    "the reported error bounds are not guaranteed to hold", worst, q)
    return config
