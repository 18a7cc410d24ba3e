"""Sensors, sensor attacks, and measurement reconstruction.

Each vehicle carries an absolute-position sensor (attackable) and, from the
second vehicle on, a secured relative sensor measuring the gap to the
vehicle ahead.  Because relative sensors cannot be compromised, a vehicle
can rebuild its own absolute state from any neighbour's absolute sensor by
chaining the gap readings in between; an attack on that neighbour passes
through the chain unchanged, which is what the saturated observer and the
detector exploit.  The ``(check, description)`` field rules that every
scenario document is read through live here too, next to the attack knobs.
"""

import math
import numbers
import re
from dataclasses import dataclass

import numpy as np

_SQRT2 = np.sqrt(2.0)


class ConfigError(ValueError):
    """A scenario document is malformed or violates a structural assumption."""


def _finite(value) -> bool:
    """A real number that is finite; JSON also admits ``NaN``, ``Infinity``
    and integers too large for a float."""
    if type(value) is float:  # the common case, without the ABC check
        return math.isfinite(value)
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an integer too large for a float
        return False


def _integral(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def integer_at_least(low: int) -> tuple:
    return (lambda v: _integral(v) and v >= low, f"be an integer >= {low}")


def one_of(options: tuple) -> tuple:
    return (lambda v: v in options, f"be one of {options}")


#: ``(check, description)`` rules for the fields of a scenario document
FINITE = (_finite, "be a finite number")
POSITIVE = (lambda v: _finite(v) and v > 0, "be a positive finite number")
NONNEGATIVE = (lambda v: _finite(v) and v >= 0, "be a nonnegative finite number")
INTEGER = (_integral, "be an integer")
PAIR = (lambda v: isinstance(v, (tuple, list)) and len(v) == 2 and _finite(v[0])
        and _finite(v[1]), "be a pair of finite numbers")
OBJECT = (lambda v: isinstance(v, dict), "be an object")
COUNT = integer_at_least(0)


def checked(value, name: str, rule: tuple):
    """``value`` if it passes ``rule``, else a :class:`ConfigError` naming ``name``."""
    check, description = rule
    if not check(value):
        raise ConfigError(f"{name} must {description}, got {value!r}")
    return value


#: the knobs each attack kind takes, ``start`` first, and their rules
KNOBS = {
    "random": {"start": COUNT, "scale": FINITE},
    "dos": {"start": COUNT},
    "bias": {"start": COUNT, "offset": PAIR},
    "replay": {"start": COUNT, "record_len": integer_at_least(1)},
}
ATTACK_KINDS = tuple(KNOBS)
_KIND = one_of(ATTACK_KINDS)
#: every knob's rule, whichever kind takes it
_KNOB_RULES = {name: rule for knobs in KNOBS.values() for name, rule in knobs.items()}


@dataclass(frozen=True)
class AttackSpec:
    """Which absolute sensors are compromised and how.

    Parameters
    ----------
    attacked : frozenset of int
        Indices of compromised absolute sensors (1-based).
    kind : str
        One of ``random`` (state-proportional Gaussian corruption), ``dos``
        (measurement frozen at the attack-start reading), ``bias``
        (constant additive offset), ``replay`` (old readings re-emitted).
    scale, offset, record_len, start
        Kind-specific knobs (see :data:`KNOBS`); ``start`` delays the attack onset.
    per_sensor : dict, optional
        Per-sensor overrides of the kind's knobs, keyed by sensor index.
    """

    attacked: frozenset
    kind: str
    scale: float = 1.0
    offset: tuple = (0.0, 0.0)
    record_len: int = 100
    start: int = 0
    per_sensor: dict | None = None

    def __post_init__(self):
        knobs = KNOBS[checked(self.kind, "attack kind", _KIND)]
        if any(i < 1 for i in self.attacked):
            raise ConfigError("attacked sensor indices are 1-based and positive")
        for name, rule in _KNOB_RULES.items():
            checked(getattr(self, name), f"attack {name}", rule)
        for i, over in (self.per_sensor or {}).items():
            if i not in self.attacked:
                raise ConfigError(f"per-sensor override for sensor {i}, which is not in "
                                  f"the attack set {sorted(self.attacked)}")
            for name, value in over.items():
                if name not in knobs:
                    raise ConfigError(
                        f"unknown per-sensor attack param {name!r} for kind {self.kind!r}")
                checked(value, f"attack sensor {i} {name}", knobs[name])

    def knob(self, i: int, name: str):
        if self.per_sensor and i in self.per_sensor and name in self.per_sensor[i]:
            return self.per_sensor[i][name]
        return getattr(self, name)

    def to_json(self) -> dict:
        params = _knobs_to_json({name: getattr(self, name) for name in KNOBS[self.kind]})
        if self.per_sensor:
            params["per_sensor"] = {str(i): _knobs_to_json(over)
                                    for i, over in sorted(self.per_sensor.items())}
        return {"set": sorted(self.attacked), "kind": self.kind, "params": params}


def _knobs_to_json(knobs: dict) -> dict:
    return {name: list(v) if isinstance(v, tuple) else v for name, v in knobs.items()}


def _knobs_from_json(knobs: dict) -> dict:
    return {name: tuple(v) if isinstance(v, list) else v for name, v in knobs.items()}


_SET = (lambda v: isinstance(v, list) and all(map(_integral, v)), "be a list of integers")
#: keys are decimal sensor ids as :meth:`AttackSpec.to_json` writes them, of 64 bits at most
_SENSOR_ID = re.compile(r"0|[1-9][0-9]{0,18}")
_PER_SENSOR = (lambda v: v is None or isinstance(v, dict) and all(
    isinstance(k, str) and _SENSOR_ID.fullmatch(k) and isinstance(p, dict)
    for k, p in v.items()), "map sensor ids to objects")


def attack_spec_from_json(doc: dict) -> AttackSpec:
    """Parse the attack block of a scenario document (strict keys)."""
    unknown = set(checked(doc, "attack", OBJECT)) - {"set", "kind", "params"}
    if unknown:
        raise ConfigError(f"unknown attack keys: {sorted(unknown)}")
    kind = checked(doc.get("kind"), "attack kind", _KIND)
    attacked = frozenset(checked(doc.get("set", []), "attack set", _SET))
    params = dict(checked(doc.get("params", {}), "attack params", OBJECT))
    per_sensor = checked(params.pop("per_sensor", None), "attack per_sensor", _PER_SENSOR)
    unknown = set(params) - set(KNOBS[kind])
    if unknown:
        raise ConfigError(f"unknown attack params for kind {kind!r}: {sorted(unknown)}")
    return AttackSpec(attacked=attacked, kind=kind, **_knobs_from_json(params), per_sensor={
        int(i): _knobs_from_json(p) for i, p in (per_sensor or {}).items()} or None)


class AttackState:
    """Per-run attack bookkeeping: the attack kind, each attacked sensor's
    knobs, resolved once so the hot loop never walks the override
    dictionary, and its emitted readings, which the DoS hold and the replay
    read back."""

    def __init__(self, spec: AttackSpec):
        self.kind = spec.kind
        self.order = sorted(spec.attacked)
        self.knobs = {i: {name: spec.knob(i, name) for name in KNOBS[spec.kind]}
                      for i in self.order}
        self.emitted: dict[int, list] = {i: [] for i in spec.attacked}


def sample_noise(rng: np.random.Generator, bound: float, n: int) -> np.ndarray:
    """Draw ``n`` noise vectors with components uniform on ``[0, bound/sqrt(2))``.

    The componentwise cap guarantees every vector norm stays at or below
    ``bound``; the distribution is deliberately one-sided so the bound is
    exercised rather than hugged around zero.
    """
    if bound == 0.0:
        return np.zeros((n, 2))
    return rng.uniform(0.0, bound / _SQRT2, size=(n, 2))


_ZERO = (0.0, 0.0)


def attack_signal(i: int, t: int, x_i, noise_i, state: AttackState,
                  rng: np.random.Generator) -> tuple:
    """Additive corruption ``(a_s, a_v)`` of attacked sensor ``i`` at step
    ``t``, from its true state and noise as float pairs.

    The DoS and replay kinds cancel the true state plus fresh noise so the
    emitted measurement is exactly the held (resp. recorded) reading:
    ``held - x - n``.
    """
    knobs = state.knobs[i]
    if t < knobs["start"]:
        return _ZERO
    kind = state.kind
    if kind == "random":
        w = rng.standard_normal() * knobs["scale"]
        return (w * x_i[0], w * x_i[1])
    if kind == "bias":
        return knobs["offset"]
    if kind == "dos":
        if t == knobs["start"]:
            return _ZERO  # the attack-start emission becomes the held value
        held = state.emitted[i][knobs["start"]]
    else:  # replay
        lag = knobs["record_len"]
        if t - knobs["start"] < lag:
            return _ZERO  # warm-up: nothing recorded far enough back
        held = state.emitted[i][t - lag]
    return (held[0] - x_i[0] - noise_i[0], held[1] - x_i[1] - noise_i[1])


def prefix_rows(y_rel: list) -> list:
    """Running sums of the gap-reading rows: row ``k`` holds the first ``k``.

    Chaining from sensor ``j`` to vehicle ``i`` is then one subtraction,
    ``pref[i-1] - pref[j-1]``, whichever side ``j`` is on.
    """
    rows = [_ZERO]
    s0 = 0.0
    s1 = 0.0
    for r0, r1 in y_rel:
        s0 += r0
        s1 += r1
        rows.append((s0, s1))
    return rows


def measure(xs: list, mu: float, state: AttackState, t: int, rng) -> tuple[list, list, list]:
    """The step-``t`` readings of true states ``xs`` (float rows ``(s, v)``).

    Returns the absolute readings ``(x + n) + a``, the gap readings
    ``(x_j - x_{j-1}) + n`` and the attack norms, as lists.  A zero noise
    or attack signal is still added, so a ``-0.0`` state reads as ``0.0``.
    The one generator ``rng`` gives the ``2N-1`` noise rows first, then a
    random attack's normal per attacked sensor in sensor order.  Must be
    called once per step in increasing ``t`` so replay/DoS history lines up
    with the emitted readings.
    """
    n = len(xs)
    # one draw covers both sensor families, absolute sensors first
    buf = sample_noise(rng, mu, 2 * n - 1).tolist()
    noise_abs, noise_rel = buf[:n], buf[n:]
    y_abs = [(s + n0, v + n1) for (s, v), (n0, n1) in zip(xs, noise_abs)]
    attack_norms = [0.0] * n
    for i in state.order:
        if i > n:
            continue
        k = i - 1
        a0, a1 = attack_signal(i, t, xs[k], noise_abs[k], state, rng)
        y0, y1 = y_abs[k]
        y_abs[k] = row = (y0 + a0, y1 + a1)
        attack_norms[k] = math.hypot(a0, a1)
        log = state.emitted[i]
        if len(log) != t:
            raise RuntimeError("sensors must be read once per step, in step order")
        log.append(row)
    y_rel = [(s1 - s0 + n0, v1 - v0 + n1)
             for (s0, v0), (s1, v1), (n0, n1) in zip(xs, xs[1:], noise_rel)]
    return y_abs, y_rel, attack_norms


def estimate_based_measurement(row_j, pref_j, pref_i) -> tuple:
    """Vehicle ``i``'s absolute state rebuilt from a row held at vehicle
    ``j``, a reading or a broadcast prediction, as a float pair: ``row_j +
    (pref_i - pref_j)`` with the two vehicles' :func:`prefix_rows` rows.
    An attack on ``j``'s sensor passes through unchanged; a prediction
    carries none."""
    p0, p1 = pref_i
    f0, f1 = pref_j
    return (row_j[0] + (p0 - f0), row_j[1] + (p1 - f1))


def stack_measurements(y_abs: list, pref: list, i: int, L: int) -> list:
    """Vehicle ``i``'s window: its state rebuilt from every sensor ``i-L ..
    i+L`` by :func:`estimate_based_measurement` (interior vehicles only)."""
    if not L < i <= len(y_abs) - L:
        raise ValueError(f"vehicle {i} has a truncated neighbourhood; stacking needs all 2L+1 sensors")
    return [estimate_based_measurement(y_abs[j], pref[j], pref[i - 1])
            for j in range(i - L - 1, i + L)]
