"""Sensors, sensor attacks, and measurement reconstruction.

Each vehicle carries an absolute-position sensor (attackable) and, from the
second vehicle on, a secured relative sensor measuring the gap to the
vehicle ahead.  Because relative sensors cannot be compromised, a vehicle
can rebuild its own absolute state from any neighbour's absolute sensor by
chaining the gap readings in between; an attack on that neighbour passes
through the chain unchanged, which is what the saturated observer and the
detector exploit.
"""

import logging
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

LOG = logging.getLogger(__name__)

ATTACK_KINDS = ("random", "dos", "bias", "replay")

_SQRT2 = np.sqrt(2.0)


def _finite(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _count_at_least(low: int):
    return lambda v: (isinstance(v, numbers.Integral) and not isinstance(v, bool)
                      and v >= low)


#: every attack knob, at the top level and per sensor: (check, what it must be)
_KNOB_RULES = {
    "start": (_count_at_least(0), "an integer >= 0"),
    "record_len": (_count_at_least(1), "an integer >= 1"),
    "scale": (_finite, "a finite number"),
    "offset": (lambda v: (isinstance(v, (tuple, list)) and len(v) == 2
                          and all(map(_finite, v))), "a pair of finite numbers"),
}


def _check_knob(name: str, value, where: str) -> None:
    check, rule = _KNOB_RULES[name]
    if not check(value):
        raise ValueError(f"attack {where}{name} must be {rule}, got {value!r}")


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
        Kind-specific knobs; ``start`` delays the attack onset.
    per_sensor : dict, optional
        Per-sensor overrides of the knobs above, keyed by sensor index.
    """

    attacked: frozenset
    kind: str
    scale: float = 1.0
    offset: tuple = (0.0, 0.0)
    record_len: int = 100
    start: int = 0
    per_sensor: dict | None = None

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}; expected one of {ATTACK_KINDS}")
        if any(i < 1 for i in self.attacked):
            raise ValueError("attacked sensor indices are 1-based and positive")
        for name in _KNOB_RULES:
            _check_knob(name, getattr(self, name), "")
        for i, over in (self.per_sensor or {}).items():
            if i not in self.attacked:
                raise ValueError(f"per-sensor override for sensor {i}, which is not in "
                                 f"the attack set {sorted(self.attacked)}")
            for name, value in over.items():
                if name not in _KNOB_RULES:
                    raise ValueError(f"unknown per-sensor attack param {name!r}")
                _check_knob(name, value, f"sensor {i} ")

    def knob(self, i: int, name: str):
        if self.per_sensor and i in self.per_sensor and name in self.per_sensor[i]:
            return self.per_sensor[i][name]
        return getattr(self, name)

    def to_json(self) -> dict:
        params = {"start": self.start}
        if self.kind == "random":
            params["scale"] = self.scale
        elif self.kind == "bias":
            params["offset"] = list(self.offset)
        elif self.kind == "replay":
            params["record_len"] = self.record_len
        if self.per_sensor:
            params["per_sensor"] = {
                str(i): {k: (list(v) if isinstance(v, tuple) else v) for k, v in over.items()}
                for i, over in sorted(self.per_sensor.items())
            }
        return {"set": sorted(self.attacked), "kind": self.kind, "params": params}


_PARAM_KEYS = {
    "random": {"scale", "start"},
    "bias": {"offset", "start"},
    "dos": {"start"},
    "replay": {"record_len", "start"},
}


def attack_spec_from_json(doc: dict) -> AttackSpec:
    """Parse the attack block of a scenario document (strict keys)."""
    if not isinstance(doc, dict):
        raise ValueError("attack must be an object")
    unknown = set(doc) - {"set", "kind", "params"}
    if unknown:
        raise ValueError(f"unknown attack keys: {sorted(unknown)}")
    kind = doc.get("kind")
    if kind not in ATTACK_KINDS:
        raise ValueError(f"unknown attack kind {kind!r}")
    raw = doc.get("set", [])
    if not isinstance(raw, list) or any(not isinstance(v, int) or isinstance(v, bool) for v in raw):
        raise ValueError("attack set must be a list of integers")
    params = dict(doc.get("params", {}))
    per_raw = params.pop("per_sensor", None)
    allowed = _PARAM_KEYS[kind]
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(f"unknown attack params for kind {kind!r}: {sorted(unknown)}")

    def _clean(p: dict) -> dict:
        out = {}
        for k, v in p.items():
            if k not in allowed:
                raise ValueError(f"unknown per-sensor attack param {k!r} for kind {kind!r}")
            out[k] = tuple(v) if k == "offset" else v
        return out

    per_sensor = None
    if per_raw is not None:
        per_sensor = {int(i): _clean(dict(p)) for i, p in per_raw.items()}
    kwargs = _clean(params)
    return AttackSpec(attacked=frozenset(raw), kind=kind, per_sensor=per_sensor, **kwargs)


class AttackState:
    """Per-run mutable attack bookkeeping: emitted readings and DoS holds.

    Also resolves the per-sensor knobs once so the hot loop never walks the
    override dictionary.
    """

    def __init__(self, spec: AttackSpec):
        self.spec = spec
        self.order = sorted(spec.attacked)
        self.start = {i: spec.knob(i, "start") for i in self.order}
        self.scale = {i: spec.knob(i, "scale") for i in self.order}
        self.offset = {i: tuple(map(float, spec.knob(i, "offset"))) for i in self.order}
        self.lag = {i: spec.knob(i, "record_len") for i in self.order}
        self.emitted: dict[int, list] = {i: [] for i in spec.attacked}
        self.frozen: dict[int, tuple] = {}


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


def attack_signal(spec: AttackSpec, i: int, t: int, x_i, noise_i,
                  state: AttackState, rng: np.random.Generator) -> tuple:
    """Additive corruption ``(a_s, a_v)`` of sensor ``i`` at step ``t``, from
    its true state and noise as float pairs.

    The DoS and replay kinds cancel the true state plus fresh noise so the
    emitted measurement is exactly the held (resp. recorded) reading:
    ``held - x - n``.
    """
    if i not in spec.attacked or t < state.start[i]:
        return _ZERO
    kind = spec.kind
    if kind == "random":
        w = rng.standard_normal() * state.scale[i]
        return (w * x_i[0], w * x_i[1])
    if kind == "bias":
        return state.offset[i]
    if kind == "dos":
        held = state.frozen.get(i)
        if held is None:
            return _ZERO  # the attack-start emission becomes the held value
    else:  # replay
        lag = state.lag[i]
        if t - state.start[i] < lag:
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


@dataclass(frozen=True)
class MeasurementFrame:
    """All sensor outputs of one step, as arrays.

    ``y_abs[i-1]`` is vehicle ``i``'s absolute reading; ``y_rel[j-2]`` is the
    secured gap reading ``x_j - x_{j-1}`` held by vehicle ``j`` (j >= 2).
    Frames are treated as immutable once built.
    """

    t: int
    y_abs: np.ndarray
    y_rel: np.ndarray
    attack_norms: np.ndarray = field(default=None)

    def abs_of(self, i: int) -> np.ndarray:
        return self.y_abs[i - 1]

    @cached_property
    def rel_prefix(self) -> np.ndarray:
        """:func:`prefix_rows` of the gap readings, as an ``(N, 2)`` array."""
        return np.array(prefix_rows(self.y_rel.tolist()))


def measure_rows(xs: list, spec: AttackSpec, mu: float, state: AttackState, t: int,
                 rng_measure: np.random.Generator,
                 rng_attack: np.random.Generator) -> tuple[list, list, list]:
    """The step-``t`` readings of true states ``xs`` (float rows ``(s, v)``).

    Returns the absolute readings ``(x + n) + a``, the gap readings
    ``(x_j - x_{j-1}) + n`` and the attack norms, as lists.  A zero noise
    or attack signal is still added, so a ``-0.0`` state reads as ``0.0``.
    Must be called once per step in increasing ``t`` so replay/DoS history
    lines up with the emitted readings.
    """
    n = len(xs)
    if mu == 0.0:
        noise_abs = [_ZERO] * n
        noise_rel = noise_abs[1:]
    else:
        # one draw covers both sensor families, absolute sensors first
        buf = rng_measure.uniform(0.0, mu / _SQRT2, size=(2 * n - 1, 2)).tolist()
        noise_abs = buf[:n]
        noise_rel = buf[n:]
    y_abs = [(s + n0, v + n1) for (s, v), (n0, n1) in zip(xs, noise_abs)]
    attack_norms = [0.0] * n
    for i in state.order:
        if i > n:
            continue
        k = i - 1
        a0, a1 = attack_signal(spec, i, t, xs[k], noise_abs[k], state, rng_attack)
        y0, y1 = y_abs[k]
        y_abs[k] = row = (y0 + a0, y1 + a1)
        attack_norms[k] = math.hypot(a0, a1)
        log = state.emitted[i]
        if len(log) != t:
            raise RuntimeError("measurement frames must be produced step by step")
        log.append(row)
        if spec.kind == "dos" and t == state.start[i] and i not in state.frozen:
            state.frozen[i] = row
    y_rel = [(s1 - s0 + n0, v1 - v0 + n1)
             for (s0, v0), (s1, v1), (n0, n1) in zip(xs, xs[1:], noise_rel)]
    return y_abs, y_rel, attack_norms


def measure(xs: np.ndarray, spec: AttackSpec, mu: float, state: AttackState, t: int,
            rng_measure: np.random.Generator, rng_attack: np.random.Generator) -> MeasurementFrame:
    """:func:`measure_rows` for an ``(N, 2)`` array of true states, as a frame."""
    y_abs, y_rel, attack_norms = measure_rows(
        np.asarray(xs, dtype=float).tolist(), spec, mu, state, t, rng_measure, rng_attack)
    return MeasurementFrame(t=t, y_abs=np.array(y_abs), y_rel=np.array(y_rel).reshape(-1, 2),
                            attack_norms=np.array(attack_norms))


def reconstruct_absolute(frame: MeasurementFrame, i: int, j: int, topo) -> np.ndarray:
    """Vehicle ``i``'s absolute state as seen through sensor ``j``.

    Chains the secured gap readings between ``j`` and ``i`` onto ``j``'s
    absolute reading.  Any attack on sensor ``j`` carries through additively
    and the accumulated noise stays within ``(|i-j|+1) * mu``.
    """
    if j != i and j not in topo.neighbors[i]:
        raise ValueError(f"sensor {j} is outside the neighbourhood of vehicle {i}")
    if i == j:
        return frame.abs_of(i)
    return _chain_to(frame.abs_of(j), frame, i, j)


@dataclass(frozen=True, slots=True)
class StackedMeasurement:
    """Reconstructed absolute states of vehicle ``i`` from every local sensor."""

    vehicle: int
    labels: tuple
    blocks: np.ndarray  # shape (2L+1, 2), row s belongs to labels[s]

    @property
    def flat(self) -> np.ndarray:
        return self.blocks.reshape(-1)


def chained_rows(y_abs_rows: list, pref_rows: list, pref_own) -> list:
    """Reconstructions ``y_abs[j] + (pref_own - pref[j])`` of one vehicle's
    state, as float pairs, from matching rows of readings (or predictions)
    held at vehicles ``j`` and of :func:`prefix_rows`, and the vehicle's own
    prefix row."""
    p0, p1 = pref_own
    return [(a0 + (p0 - f0), a1 + (p1 - f1))
            for (a0, a1), (f0, f1) in zip(y_abs_rows, pref_rows)]


def _chain_to(row, frame: MeasurementFrame, i: int, j: int) -> np.ndarray:
    """:func:`chained_rows` of one ``(2,)`` reading held at vehicle ``j``,
    carried to vehicle ``i`` through the frame's gap readings."""
    pref = frame.rel_prefix
    return np.array(chained_rows((np.asarray(row, dtype=float).tolist(),),
                                 (pref[j - 1].tolist(),), pref[i - 1].tolist())[0])


def stack_measurements(frame: MeasurementFrame, i: int, topo) -> StackedMeasurement:
    """Stack reconstructions from sensors ``i-L .. i+L`` (interior vehicles only)."""
    if i not in topo.v1:
        raise ValueError(f"vehicle {i} has a truncated neighbourhood; stacking needs all 2L+1 sensors")
    L = topo.L
    labels = tuple(range(i - L, i + L + 1))
    pref = frame.rel_prefix
    rows = slice(i - L - 1, i + L)
    blocks = np.array(chained_rows(frame.y_abs[rows].tolist(), pref[rows].tolist(),
                                   pref[i - 1].tolist()))
    return StackedMeasurement(vehicle=i, labels=labels, blocks=blocks)


def estimate_based_measurement(x_bar_j: np.ndarray, frame: MeasurementFrame,
                               i: int, j: int) -> np.ndarray:
    """Absolute-state surrogate for vehicle ``i`` built from vehicle ``j``'s
    broadcast prediction instead of ``j``'s (possibly compromised) sensor."""
    if i == j:
        return np.asarray(x_bar_j, dtype=float)
    return _chain_to(x_bar_j, frame, i, j)
