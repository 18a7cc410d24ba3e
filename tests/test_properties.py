"""Scenario-level properties of the closed loop at sizes beyond the
acceptance gate's N <= 9: random platoons up to N=64 with windows up to
L=4, every attack kind with a start time per attacked sensor, and both
threshold modes.  Every step and vehicle of every run must keep the true
state inside its real-time error bound, and every vehicle's detection sets
must stay fault-free and never shrink.  Once some vehicle has confirmed
all b attacks, every vehicle's sets must be exact one diameter later.  The
N=401 string is checked against the same claims, and claim 2's radii at
its final sets, through ``oracles.paper_claims``."""

import math

import numpy as np
from hypothesis import event, given, settings, strategies as st

from conftest import baseline_doc, string_overrides
from oracles import paper_claims
from platoonsec.core import DetectionSets, load_scenario
from platoonsec.dynamics import plant_norm
from platoonsec.harness import run_simulation

#: ``bound_violations`` tolerance, as in ``summarize_run`` and acceptance 1
SLACK = 1e-9


@st.composite
def scenarios(draw, max_n=64, min_b=0, max_horizon=20, min_scale=1e-3, min_offset=0.3,
              settle=None):
    """A scenario document.  ``min_scale`` and ``min_offset`` (in units of
    ``mu``) are the smallest ``random`` scale and ``bias`` offset drawn;
    with ``settle`` the horizon leaves at least that many steps beyond one
    diameter, as far as ``max_horizon`` allows."""
    L = draw(st.integers(1, 4))
    n = draw(st.integers(2 * L + 1, max_n))
    b = draw(st.integers(min_b, L))
    T = draw(st.floats(0.005, 0.02))
    q = draw(st.floats(100.0, 500.0))
    eps = draw(st.floats(0.01, 0.3))
    mu = draw(st.floats(0.01, 0.3))
    # g_v <= 0.45/T keeps the rate margin positive for every N, and
    # g_v >= 5 > T * g_s the velocity margin
    g_v = draw(st.floats(5.0, 0.45 / T))
    g_s = draw(st.floats(5.0, 80.0))
    kind = draw(st.sampled_from(("random", "dos", "bias", "replay")))
    attacked = sorted(draw(st.sets(st.integers(1, n), min_size=b, max_size=b)))
    params = {"start": draw(st.integers(0, 7)),
              "per_sensor": {str(i): {"start": draw(st.integers(0, 7))} for i in attacked}}
    if kind == "random":
        params["scale"] = math.exp(draw(st.floats(math.log(min_scale), math.log(10.0))))
    elif kind == "bias":
        beta_max = plant_norm(T) * q + eps + (L + 1) * mu
        mag = math.exp(draw(st.floats(math.log(min_offset * mu), math.log(10.0 * beta_max))))
        ang = draw(st.floats(0.0, 2.0 * math.pi))
        params["offset"] = [mag * math.cos(ang), mag * math.sin(ang)]
    elif kind == "replay":
        params["record_len"] = draw(st.integers(1, 9))
    # estimates start at zero, within q of states whose position is at most
    # 0.6 q / sqrt(2) and whose speed is at most 10
    pos = draw(st.lists(st.floats(0.0, 0.6 * q / math.sqrt(2.0)), min_size=n, max_size=n))
    vel = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    x_init = [[p, v] for p, v in zip(pos, vel)]
    min_horizon = 1 if settle is None else min(max_horizon, settle + math.ceil((n - 1) / L))
    return {
        "N": n, "L": L, "b": b, "T": T, "q": q, "epsilon": eps, "mu": mu,
        "g_s": g_s, "g_v": g_v,
        "threshold_mode": {"mode": draw(st.sampled_from(("static", "adaptive")))},
        "attack": {"set": attacked, "kind": kind, "params": params},
        "horizon": draw(st.integers(min_horizon, max_horizon)),
        "seed": draw(st.integers(0, 2 ** 31 - 1)),
        "delta_x": [[20.0, 0.0]] * (n - 1),
        "x0": x_init[0],
        "x_init": x_init,
    }


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_bounds_hold_and_sets_stay_fault_free_and_monotone(doc):
    cfg = load_scenario(doc)
    attacked = frozenset(cfg.attack.attacked)
    clean = frozenset(range(1, cfg.N + 1)) - attacked
    prev = (DetectionSets.empty(),) * cfg.N
    for tr in run_simulation(cfg):
        err = np.hypot(*(tr.x_hat - tr.x).T)
        worst = float(np.max(err - np.asarray(tr.alpha)))
        assert worst <= SLACK, (tr.t, int(np.argmax(err - np.asarray(tr.alpha))) + 1, worst)
        for i, (was, now) in enumerate(zip(prev, tr.sets), 1):
            assert now.attacked <= attacked and now.trusted <= clean, (tr.t, i, now)
            assert was.attacked <= now.attacked and was.trusted <= now.trusted, (tr.t, i)
        prev = tr.sets


@settings(max_examples=150, deadline=None)
@given(scenarios(max_n=40, min_b=1, max_horizon=60, min_scale=0.1, min_offset=10.0, settle=8))
def test_sets_are_exact_one_diameter_after_b_attacks_are_confirmed(doc):
    """Paper claim 1, where the code claims it: if some vehicle has confirmed
    all b attacks at step t1, every vehicle's sets are exact (all b attacked
    sensors confirmed, every other sensor trusted, none suspected) at
    t1 + ceil((N-1)/L), whenever that step lies within the horizon."""
    cfg = load_scenario(doc)
    exact = DetectionSets(trusted=frozenset(range(1, cfg.N + 1)) - set(cfg.attack.attacked),
                          attacked=frozenset(cfg.attack.attacked))
    diameter = cfg.topology().diameter()
    first = None
    for tr in run_simulation(cfg):
        if first is None and any(len(s.attacked) == cfg.b for s in tr.sets):
            first = tr.t
        if first is not None and tr.t == first + diameter:
            assert all(s == exact for s in tr.sets), (first, tr.t)
            event("identified within one diameter")
            return
    event("no vehicle confirmed b attacks" if first is None
          else "first confirmation plus one diameter beyond the horizon")


def test_the_paper_claims_hold_on_the_401_vehicle_string():
    """Claims 1 and 2 and bound soundness at N=401: the horizon ends one
    diameter (200 steps) after the first confirmation of b attacks, which
    comes at t=51, and every vehicle's sets are exact from t=152 on."""
    cfg = load_scenario(baseline_doc(**string_overrides(401, [100, 300]), horizon=251))
    claims = paper_claims(cfg, run_simulation(cfg))
    assert claims["worst_gap"] <= SLACK, claims["worst_gap"]
    assert claims["unsound"] == []
    assert claims["first_confirmed"] is not None
    assert claims["exact_from"] is not None
    assert claims["exact_from"] <= claims["first_confirmed"] + cfg.topology().diameter()
    assert claims["risen"] == []
