"""Tests for topology construction, detection-set algebra, messages, and
scenario loading."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import baseline_doc
from oracles import Message
from platoonsec import core, observer, sensing
from platoonsec.core import (
    ConfigError,
    DetectionSets,
    InconsistentSetsError,
    Topology,
    describe_clash,
    fuse_sets,
    load_scenario,
    neighbor_set,
    partition_vehicles,
)


# --------------------------------------------------------------------------
# vehicle partition and neighbourhoods
# --------------------------------------------------------------------------

def test_partition_five_vehicles_window_two():
    v1, v2 = partition_vehicles(5, 2)
    assert v1 == frozenset({3})
    assert v2 == frozenset({1, 2, 4, 5})


def test_partition_seven_vehicles_window_two():
    v1, v2 = partition_vehicles(7, 2)
    assert v1 == frozenset({3, 4, 5})
    assert v2 == frozenset({1, 2, 6, 7})


def test_partition_window_one():
    v1, v2 = partition_vehicles(5, 1)
    assert v1 == frozenset({2, 3, 4})
    assert v2 == frozenset({1, 5})


def test_partition_classes_are_disjoint_and_cover():
    rng = np.random.default_rng(7)
    for _ in range(50):
        N = int(rng.integers(3, 30))
        L = int(rng.integers(1, (N - 1) // 2 + 1))
        v1, v2 = partition_vehicles(N, L)
        assert v1 & v2 == frozenset()
        assert v1 | v2 == frozenset(range(1, N + 1))
        # interior vehicles see a full window on both sides
        assert all(L + 1 <= i <= N - L for i in v1)


def test_partition_rejects_wide_window():
    with pytest.raises(ConfigError):
        partition_vehicles(4, 2)  # needs N > 2L
    with pytest.raises(ConfigError):
        partition_vehicles(5, 0)


def test_neighbor_set_truncates_at_string_ends():
    assert neighbor_set(1, 5, 2) == frozenset({2, 3})
    assert neighbor_set(3, 5, 2) == frozenset({1, 2, 4, 5})
    assert neighbor_set(5, 5, 2) == frozenset({3, 4})
    assert neighbor_set(2, 7, 2) == frozenset({1, 3, 4})


def test_neighbor_set_is_symmetric():
    for N, L in [(5, 2), (9, 3), (6, 1)]:
        for i in range(1, N + 1):
            for j in neighbor_set(i, N, L):
                assert i in neighbor_set(j, N, L)


def test_topology_build_and_local_group():
    topo = Topology.build(5, 2)
    assert topo.v1 == frozenset({3})
    assert topo.local_group(3) == frozenset({1, 2, 3, 4, 5})
    assert topo.local_group(1) == frozenset({1, 2, 3})
    assert list(topo.vehicles()) == [1, 2, 3, 4, 5]


def test_topology_distance_and_diameter():
    topo = Topology.build(5, 2)
    assert topo.distance(1, 1) == 0
    assert topo.distance(1, 3) == 1
    assert topo.distance(1, 5) == 2
    assert topo.diameter() == 2
    assert Topology.build(9, 2).diameter() == 4
    assert Topology.build(7, 3).diameter() == 2


def _neighbor_set_oracle(i, N, L):
    """Window truncated at the string ends, written out case by case."""
    if i <= L:
        lo, hi = 1, i + L
    elif i > N - L:
        lo, hi = i - L, N
    else:
        lo, hi = i - L, i + L
    return frozenset(j for j in range(lo, hi + 1) if j != i)


def _bfs_distance_oracle(neighbors, i, j):
    """Hop count by breadth-first search over the communication graph."""
    if i == j:
        return 0
    seen = {i}
    frontier = [i]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in neighbors[u]:
                if v == j:
                    return d
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    raise AssertionError(f"no path between {i} and {j}")


def test_closed_form_topology_agrees_with_graph_search():
    for L in range(1, 5):
        for N in range(2 * L + 1, 41):
            topo = Topology.build(N, L)
            for i in topo.vehicles():
                assert neighbor_set(i, N, L) == _neighbor_set_oracle(i, N, L), (N, L, i)
                for j in topo.vehicles():
                    assert topo.distance(i, j) == _bfs_distance_oracle(
                        topo.neighbors, i, j), (N, L, i, j)
            assert topo.diameter() == max(
                _bfs_distance_oracle(topo.neighbors, 1, j) for j in topo.vehicles())


def test_importing_core_does_not_load_scipy():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    code = "import sys, platoonsec.core; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


#: code run in a fresh interpreter, which names the baseline document ``doc``,
#: a refused one ``bad`` and a scratch directory ``out``, and whether it
#: loads ``scipy.linalg``: no command does, and the last probe shows that the
#: guard sees it when it is loaded
_SCIPY_PROBES = {
    "import cli": ("import platoonsec.cli", False),
    "import harness": ("import platoonsec.harness", False),
    "run and writers": ("""
from platoonsec import harness
cfg = core.load_scenario(doc)
run = harness.run_simulation(cfg)
harness.summarize_run(cfg, run)
harness.write_trace_csv(os.path.join(out, "trace.csv"), run, cfg.L)
harness.write_detection_csv(os.path.join(out, "detection.csv"), run)
""", False),
    "monte_carlo": ("""
from platoonsec import harness
harness.monte_carlo(core.load_scenario(doc), 2)
""", False),
    "bounds command": ("""
from platoonsec import cli
assert cli.main(["bounds", "--config", doc, "--out", os.path.join(out, "b.csv")]) == 0
""", False),
    "refused document": ("""
from platoonsec import cli
assert cli.main(["run", "--config", bad, "--out", os.path.join(out, "run")]) == 2
""", False),
    "feasibility_report": ("""
from platoonsec import harness
harness.feasibility_report(core.load_scenario(doc))
""", False),
    "check-feasibility command": ("""
from platoonsec import cli
assert cli.main(["check-feasibility", "--config", doc]) == 0
""", False),
    "import scipy.linalg": ("import scipy.linalg", True),
}


@pytest.mark.parametrize("probe", sorted(_SCIPY_PROBES))
def test_no_command_loads_scipy(tmp_path, probe):
    code, loads = _SCIPY_PROBES[probe]
    paths = []
    for name, doc in (("doc", baseline_doc(horizon=20)), ("bad", baseline_doc(q=-1.0))):
        paths.append(os.path.join(tmp_path, f"{name}.json"))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    script = ("import os, sys\nfrom platoonsec import core\ndoc, bad, out = sys.argv[1:]\n"
              + code + "\nprint('scipy.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", script, *paths, str(tmp_path)], check=True,
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip().splitlines()[-1] == str(loads)


# --------------------------------------------------------------------------
# detection sets
# --------------------------------------------------------------------------

def test_detection_sets_empty_and_sorted_lists():
    s = DetectionSets.empty()
    assert s.trusted == s.attacked == s.suspected == frozenset()
    t = DetectionSets(frozenset({2, 1}), frozenset({5}), frozenset({4}))
    assert t.sorted_lists() == {"trusted": [1, 2], "attacked": [5], "suspected": [4]}


def test_detection_sets_reject_trusted_attacked_overlap():
    with pytest.raises(InconsistentSetsError):
        DetectionSets(frozenset({1, 2}), frozenset({2}), frozenset())


def test_fuse_sets_unions_all_three_classes():
    own = DetectionSets(frozenset({1}), frozenset(), frozenset({4}))
    other = DetectionSets(frozenset({2}), frozenset({3}), frozenset({5}))
    fused = fuse_sets(own, [other])
    assert fused.trusted == frozenset({1, 2})
    assert fused.attacked == frozenset({3})
    assert fused.suspected == frozenset({4, 5})


def test_fuse_sets_drops_suspicion_once_confirmed():
    own = DetectionSets(frozenset(), frozenset(), frozenset({3, 4}))
    other = DetectionSets(frozenset(), frozenset({3}), frozenset())
    fused = fuse_sets(own, [other])
    assert fused.attacked == frozenset({3})
    assert fused.suspected == frozenset({4})


def test_fuse_sets_detects_trust_attack_clash():
    own = DetectionSets(frozenset({2}), frozenset(), frozenset())
    other = DetectionSets(frozenset(), frozenset({2}), frozenset())
    with pytest.raises(InconsistentSetsError):
        fuse_sets(own, [other])


def test_describe_clash_names_both_sides_per_sensor():
    parties = [
        (3, DetectionSets(frozenset({2, 7}), frozenset(), frozenset())),
        (4, DetectionSets(frozenset({2}), frozenset({5}), frozenset())),
        (5, DetectionSets(frozenset({5}), frozenset({2}), frozenset())),
        (6, DetectionSets(frozenset(), frozenset({7}), frozenset({2}))),
    ]
    assert describe_clash(parties) == (
        "sensor 2 trusted by vehicles [3, 4] and confirmed attacked by vehicles [5]; "
        "sensor 5 trusted by vehicles [5] and confirmed attacked by vehicles [4]; "
        "sensor 7 trusted by vehicles [3] and confirmed attacked by vehicles [6]")
    assert describe_clash(parties[:1]) == ""
    assert describe_clash([]) == ""


def test_fuse_sets_returns_own_object_when_nothing_new():
    """Fusion that adds no information hands back the identical object.

    Callers memoize on object identity, so this also pins down that the
    function is pure: same inputs, same (is-identical) output.
    """
    own = DetectionSets(frozenset({1, 2}), frozenset({5}), frozenset({4}))
    weaker = DetectionSets(frozenset({1}), frozenset(), frozenset({4, 5}))
    assert fuse_sets(own, [weaker, own]) is own
    assert fuse_sets(own, []) is own


def test_fuse_sets_matches_plain_union_semantics():
    rng = np.random.default_rng(123)
    universe = list(range(1, 10))
    for _ in range(300):
        def rand_sets():
            att = frozenset(rng.choice(universe, size=rng.integers(0, 3), replace=False).tolist())
            tru = frozenset(v for v in rng.choice(universe, size=rng.integers(0, 4),
                                                  replace=False).tolist() if v not in att)
            sus = frozenset(v for v in rng.choice(universe, size=rng.integers(0, 4),
                                                  replace=False).tolist() if v not in att)
            return DetectionSets(tru, att, sus)

        own = rand_sets()
        rec = [rand_sets() for _ in range(rng.integers(0, 4))]
        tru = own.trusted.union(*[r.trusted for r in rec]) if rec else own.trusted
        att = own.attacked.union(*[r.attacked for r in rec]) if rec else own.attacked
        sus = (own.suspected.union(*[r.suspected for r in rec]) if rec else own.suspected) - att
        if tru & att:
            with pytest.raises(InconsistentSetsError):
                fuse_sets(own, rec)
            continue
        fused = fuse_sets(own, rec)
        assert fused.trusted == tru
        assert fused.attacked == att
        assert fused.suspected == sus


# --------------------------------------------------------------------------
# messages
# --------------------------------------------------------------------------

def _msg(sender=2, **overrides):
    kw = dict(sender=sender, t=3, y_abs=np.zeros(2),
              y_rel=None if sender == 1 else np.zeros(2),
              x_bar=np.zeros(2), sets=DetectionSets.empty(), alpha=1.0)
    kw.update(overrides)
    return Message(**kw)


def test_message_accepts_leader_without_gap_reading():
    m = _msg(sender=1)
    assert m.y_rel is None


def test_message_requires_gap_reading_behind_leader():
    with pytest.raises(ValueError):
        _msg(sender=2, y_rel=None)


def test_message_rejects_bad_alpha():
    with pytest.raises(ValueError):
        _msg(alpha=-1.0)
    with pytest.raises(ValueError):
        _msg(alpha=float("nan"))
    with pytest.raises(ValueError):
        _msg(alpha=float("inf"))


def test_message_rejects_trusted_suspected_overlap():
    bad = DetectionSets(frozenset({2}), frozenset(), frozenset({2, 3}))
    with pytest.raises(InconsistentSetsError):
        _msg(sets=bad)


# --------------------------------------------------------------------------
# scenario loading
# --------------------------------------------------------------------------

def test_load_scenario_baseline_fields():
    cfg = load_scenario(baseline_doc())
    assert cfg.N == 5 and cfg.L == 2 and cfg.b == 1
    assert cfg.T == 0.01 and cfg.q == 300.0
    assert cfg.threshold_mode == "adaptive"
    assert cfg.beta is None and cfg.omega is None
    assert cfg.attack.attacked == frozenset({3})
    assert cfg.attack.kind == "random"
    assert cfg.controller_mode == "observer"
    assert cfg.x_hat_init == tuple((0.0, 0.0) for _ in range(5))
    # default source-blend weight sits at the midpoint of its admissible range
    assert cfg.varpi == 100.75062499609065


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(baseline_doc()))
    cfg = load_scenario(str(path))
    assert cfg == load_scenario(baseline_doc())


def test_load_scenario_round_trips_through_to_json():
    cfg = load_scenario(baseline_doc())
    again = load_scenario(cfg.to_json())
    assert again == cfg


def test_load_scenario_rejects_unknown_and_missing_fields():
    with pytest.raises(ConfigError, match="unknown"):
        load_scenario(baseline_doc(typo_field=1))
    doc = baseline_doc()
    del doc["q"]
    with pytest.raises(ConfigError, match="missing"):
        load_scenario(doc)


def test_load_scenario_rejects_bad_threshold_mode():
    with pytest.raises(ConfigError, match="threshold_mode must be an object"):
        load_scenario(baseline_doc(threshold_mode="adaptive"))
    with pytest.raises(ConfigError):
        load_scenario(baseline_doc(threshold_mode={"mode": "fuzzy"}))
    with pytest.raises(ConfigError):
        load_scenario(baseline_doc(threshold_mode={"mode": "static", "omega": 1.5}))
    with pytest.raises(ConfigError):
        load_scenario(baseline_doc(threshold_mode={"mode": "static", "gamma": 1.0}))


def test_load_scenario_accepts_explicit_threshold_numbers():
    cfg = load_scenario(baseline_doc(
        threshold_mode={"mode": "static", "beta": 150.0, "omega": 0.3}))
    assert cfg.threshold_mode == "static"
    assert cfg.beta == 150.0
    assert cfg.omega == 0.3


def test_load_scenario_validates_varpi_range():
    cfg = load_scenario(baseline_doc(varpi=50.0))
    assert cfg.varpi == 50.0
    with pytest.raises(ConfigError):
        load_scenario(baseline_doc(varpi=1.0))
    with pytest.raises(ConfigError):
        load_scenario(baseline_doc(varpi=500.0))  # beyond norm_A/(norm_A - 1)


def test_load_scenario_validates_attack_block():
    with pytest.raises(ConfigError, match="beyond N"):
        load_scenario(baseline_doc(attack={"set": [6], "kind": "dos", "params": {}}))
    with pytest.raises(ConfigError, match="exceeds the budget"):
        load_scenario(baseline_doc(attack={"set": [2, 3], "kind": "dos", "params": {}}))


#: what a JSON reader can hand over: integers (one beyond any float), floats
#: with NaN and infinities, strings, booleans, null, and shallow arrays and objects
_JSON_SCALARS = st.one_of(st.integers(-3, 12), st.integers(), st.just(10 ** 310),
                          st.floats(), st.text(max_size=3), st.booleans(), st.none())
_JSON_VALUES = st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=3),
                         st.dictionaries(st.text(max_size=3), _JSON_SCALARS, max_size=2))
_KNOB_NAMES = ("start", "scale", "offset", "record_len")
_SENSOR_KEYS = st.one_of(st.sampled_from(["3", "03", "+3", " 3", "3.0", "4", "x", "", "\u0663"]),
                         st.text(max_size=3))


@st.composite
def _attack_blocks(draw):
    """An attack block on sensor 3 of any kind whose knobs, at the top level
    and under any ``per_sensor`` keys, hold any JSON value."""
    knobs = st.dictionaries(st.sampled_from(_KNOB_NAMES), _JSON_VALUES, max_size=3)
    params = draw(knobs)
    keys = draw(st.lists(_SENSOR_KEYS, max_size=3, unique=True))
    if keys:
        params["per_sensor"] = {key: draw(knobs) for key in keys}
    return {"set": [3], "kind": draw(st.sampled_from(sensing.ATTACK_KINDS)), "params": params}


@settings(max_examples=200, deadline=None)
@given(_attack_blocks())
def test_attack_block_loads_or_names_the_field_it_refuses(attack):
    """Whatever JSON value a knob or a ``per_sensor`` entry holds, the block
    loads or is refused with one line that names the knob or ``per_sensor``."""
    try:
        load_scenario(baseline_doc(attack=attack))
    except ConfigError as exc:
        message = str(exc)
        assert message.startswith("invalid attack block: ") and "\n" not in message
        overrides = attack["params"].get("per_sensor", {}).values()
        names = set(attack["params"]).union(*overrides) | {"per-sensor"}
        assert any(name in message for name in names), message


def test_load_scenario_warns_on_over_budget_window(caplog):
    import logging
    with caplog.at_level(logging.WARNING, logger="platoonsec.core"):
        load_scenario(baseline_doc(b=2, L=1, attack={"set": [3], "kind": "dos", "params": {}}))
    assert any("exceeds L" in r.message for r in caplog.records)


def test_load_scenario_warns_when_initial_error_exceeds_q(caplog):
    import logging
    with caplog.at_level(logging.WARNING, logger="platoonsec.core"):
        load_scenario(baseline_doc(q=50.0))
    assert any("exceeds q" in r.message for r in caplog.records)


def test_load_scenario_warns_on_suspicious_explicit_beta(caplog):
    """An explicit beta at or above the honest innovation ceiling, or outside
    the interval of an explicit omega, draws one warning when the scenario
    loads; designing the threshold afterwards logs nothing."""
    import logging
    for threshold, fragment in (
            ({"mode": "static", "beta": 1e6}, "never engage"),
            ({"mode": "static", "beta": 1.0, "omega": 0.26}, "outside the designed interval")):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="platoonsec.core"):
            cfg = load_scenario(baseline_doc(threshold_mode=threshold))
        assert [fragment in r.message for r in caplog.records] == [True], threshold
        caplog.clear()
        with caplog.at_level(logging.DEBUG):
            thr = observer.design_threshold(observer.ObserverParams.from_config(cfg),
                                            cfg.threshold_mode, beta=cfg.beta, omega=cfg.omega)
        assert thr.beta0 == threshold["beta"] and not caplog.records, threshold


def test_load_scenario_rejects_contradictory_v0():
    with pytest.raises(ConfigError):
        load_scenario(baseline_doc(v0=5.0))
    cfg = load_scenario(baseline_doc(v0=10.0))
    assert cfg.x0 == (200.0, 10.0)


def test_load_scenario_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        load_scenario(baseline_doc(delta_x=[[20.0, 0.0]] * 3))  # needs N-1 pairs
    with pytest.raises(ConfigError):
        load_scenario(baseline_doc(x0=[1.0]))
    with pytest.raises(ConfigError):
        load_scenario(baseline_doc(N=4))  # x_init length no longer matches
    with pytest.raises(ConfigError):
        load_scenario(baseline_doc(horizon=-1))
    with pytest.raises(ConfigError):
        load_scenario(baseline_doc(T=0.0))


def test_load_scenario_default_x_init_is_the_desired_chain():
    doc = baseline_doc()
    del doc["x_init"]
    cfg = load_scenario(doc)
    assert cfg.x_init == ((200.0, 10.0), (180.0, 10.0), (160.0, 10.0),
                          (140.0, 10.0), (120.0, 10.0))
