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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

LOG = logging.getLogger(__name__)

ATTACK_KINDS = ("random", "dos", "bias", "replay")

_SQRT2 = np.sqrt(2.0)


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
        if self.record_len < 1:
            raise ValueError("record_len must be at least 1")
        if self.start < 0:
            raise ValueError("attack start must be nonnegative")
        if any(i < 1 for i in self.attacked):
            raise ValueError("attacked sensor indices are 1-based and positive")

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
        self.offset = {i: np.asarray(spec.knob(i, "offset"), dtype=float)
                       for i in self.order}
        self.lag = {i: spec.knob(i, "record_len") for i in self.order}
        self.emitted: dict[int, list] = {i: [] for i in spec.attacked}
        self.frozen: dict[int, np.ndarray] = {}


def sample_noise(rng: np.random.Generator, bound: float, n: int) -> np.ndarray:
    """Draw ``n`` noise vectors with components uniform on ``[0, bound/sqrt(2))``.

    The componentwise cap guarantees every vector norm stays at or below
    ``bound``; the distribution is deliberately one-sided so the bound is
    exercised rather than hugged around zero.
    """
    if bound == 0.0:
        return np.zeros((n, 2))
    return rng.uniform(0.0, bound / _SQRT2, size=(n, 2))


def attack_signal(spec: AttackSpec, i: int, t: int, x_i: np.ndarray, noise_i: np.ndarray,
                  state: AttackState, rng: np.random.Generator) -> np.ndarray:
    """Additive corruption of sensor ``i`` at step ``t``.

    The DoS and replay kinds cancel the true state plus fresh noise so the
    emitted measurement is exactly the held (resp. recorded) reading.
    """
    if i not in spec.attacked or t < state.start[i]:
        return np.zeros(2)
    kind = spec.kind
    if kind == "random":
        w = rng.standard_normal() * state.scale[i]
        return w * np.asarray(x_i, dtype=float)
    if kind == "bias":
        return state.offset[i]
    if kind == "dos":
        held = state.frozen.get(i)
        if held is None:
            return np.zeros(2)  # the attack-start emission becomes the held value
        return held - x_i - noise_i
    # replay
    lag = state.lag[i]
    if t - state.start[i] < lag:
        return np.zeros(2)  # warm-up: nothing recorded far enough back
    return state.emitted[i][t - lag] - x_i - noise_i


@dataclass(frozen=True)
class MeasurementFrame:
    """All sensor outputs of one step.

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
        """Running sums of the gap readings: row ``k`` holds the first ``k``.

        Chaining from sensor ``j`` to vehicle ``i`` is then one subtraction,
        ``rel_prefix[i-1] - rel_prefix[j-1]``, whichever side ``j`` is on.
        """
        rows = [(0.0, 0.0)]
        s0 = 0.0
        s1 = 0.0
        for r in self.y_rel.tolist():
            s0 += r[0]
            s1 += r[1]
            rows.append((s0, s1))
        return np.array(rows)


def measure(xs: np.ndarray, spec: AttackSpec, mu: float, state: AttackState, t: int,
            rng_measure: np.random.Generator, rng_attack: np.random.Generator) -> MeasurementFrame:
    """Produce the step-``t`` measurement frame for true states ``xs``.

    Must be called once per step in increasing ``t`` so replay/DoS history
    lines up with the emitted readings.
    """
    n = len(xs)
    if mu == 0.0:
        noise_abs = np.zeros((n, 2))
        noise_rel = np.zeros((n - 1, 2))
    else:
        # one draw covers both sensor families, absolute sensors first
        buf = rng_measure.uniform(0.0, mu / _SQRT2, size=(2 * n - 1, 2))
        noise_abs = buf[:n]
        noise_rel = buf[n:]
    y_abs = xs + noise_abs
    attack_norms = np.zeros(n)
    for i in state.order:
        if i > n:
            continue
        a = attack_signal(spec, i, t, xs[i - 1], noise_abs[i - 1], state, rng_attack)
        y_abs[i - 1] += a
        attack_norms[i - 1] = math.hypot(a[0], a[1])
        log = state.emitted[i]
        if len(log) != t:
            raise RuntimeError("measurement frames must be produced step by step")
        log.append(y_abs[i - 1].copy())
        if spec.kind == "dos" and t == state.start[i] and i not in state.frozen:
            state.frozen[i] = y_abs[i - 1].copy()
    y_rel = xs[1:] - xs[:-1] + noise_rel
    return MeasurementFrame(t=t, y_abs=y_abs, y_rel=y_rel, attack_norms=attack_norms)


def chain_sum(frame: MeasurementFrame, lo: int, hi: int) -> np.ndarray:
    """Sum of gap readings ``y_{m-1,m}`` for ``m`` in ``lo..hi`` inclusive."""
    return frame.y_rel[lo - 2:hi - 1].sum(axis=0)


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
    pref = frame.rel_prefix
    return frame.abs_of(j) + (pref[i - 1] - pref[j - 1])


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
    state, as float pairs, from matching ``y_abs`` and ``rel_prefix`` rows
    (``tolist()`` slices) and the vehicle's own prefix row."""
    p0, p1 = pref_own
    return [(a0 + (p0 - f0), a1 + (p1 - f1))
            for (a0, a1), (f0, f1) in zip(y_abs_rows, pref_rows)]


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
    pref = frame.rel_prefix
    return x_bar_j + (pref[i - 1] - pref[j - 1])
