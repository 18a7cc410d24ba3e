"""End-to-end tests of the command-line interface."""

import dataclasses
import hashlib
import json
import logging
import math
import operator
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import baseline_doc, strict_json, string_overrides
from oracles import _fmt
import platoonsec
from platoonsec import cli, controller, detector, harness, observer, sensing
from platoonsec.core import DetectionSets, InconsistentSetsError, load_scenario


def _config_file(tmp_path, **overrides):
    path = os.path.join(tmp_path, "scenario.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(baseline_doc(**overrides), fh)
    return path


def test_run_writes_the_trace_directory_and_prints_the_digest(tmp_path, capsys, monkeypatch):
    docs = []
    json_text = harness.json_text
    monkeypatch.setattr(harness, "json_text", lambda doc: docs.append(doc) or json_text(doc))
    cfg_path = _config_file(tmp_path, horizon=5)
    out = os.path.join(tmp_path, "out")
    assert cli.main(["run", "--config", cfg_path, "--out", out]) == 0
    printed = capsys.readouterr().out
    digest = strict_json(printed)
    assert digest["steps"] == 6 and digest["horizon"] == 5
    for name in ("scenario.json", "feasibility.json", "trace.csv",
                 "detection.csv", "summary.json"):
        assert os.path.isfile(os.path.join(out, name))
    on_disk = open(os.path.join(out, "summary.json"), encoding="utf-8").read()
    assert strict_json(on_disk) == digest and on_disk == printed
    # one serialization of the digest serves both the file and stdout
    assert sum("final_sets" in doc for doc in docs) == 1


@pytest.mark.parametrize("command", [
    ["run", "--out", "run"], ["monte-carlo", "--runs", "2", "--out", "mc"],
    ["check-feasibility"], ["bounds", "--out", "bounds.csv"]])
def test_every_command_is_quiet_on_stderr_when_it_succeeds(tmp_path, command):
    cfg_path = _config_file(tmp_path)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(platoonsec.__file__)))
    done = subprocess.run([sys.executable, "-m", "platoonsec.cli", *command, "--config", cfg_path],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")


def test_run_seed_override_lands_in_the_written_scenario(tmp_path, capsys):
    cfg_path = _config_file(tmp_path, horizon=5)
    out = os.path.join(tmp_path, "out")
    assert cli.main(["run", "--config", cfg_path, "--seed", "999",
                     "--out", out]) == 0
    capsys.readouterr()
    doc = strict_json(open(os.path.join(out, "scenario.json"), encoding="utf-8").read())
    assert doc["seed"] == 999
    want = harness.run_simulation(load_scenario(baseline_doc(horizon=5)), seed=999)
    got = [line for line in open(os.path.join(out, "trace.csv"), encoding="utf-8")]
    assert len(got) == 1 + 6 * 5
    assert got[1].split(",")[2] == _fmt(want[0].x[0][0])


def test_monte_carlo_seed_override_lands_in_the_written_scenario(tmp_path, capsys):
    """``--seed`` is the ensemble's base seed and the written scenario's
    seed, so a re-run from that ``scenario.json`` writes the same directory."""
    cfg_path = _config_file(tmp_path, horizon=4)
    out, again = os.path.join(tmp_path, "mc"), os.path.join(tmp_path, "again")
    assert cli.main(["monte-carlo", "--config", cfg_path, "--runs", "2", "--seed", "7",
                     "--out", out]) == 0
    doc = strict_json(open(os.path.join(out, "scenario.json"), encoding="utf-8").read())
    assert doc["seed"] == 7
    assert cli.main(["monte-carlo", "--config", os.path.join(out, "scenario.json"),
                     "--runs", "2", "--out", again]) == 0
    capsys.readouterr()
    for name in ("scenario.json", "summary.json", "metrics.csv", "feasibility.json"):
        assert (open(os.path.join(out, name), "rb").read()
                == open(os.path.join(again, name), "rb").read()), name


def test_monte_carlo_command(tmp_path, capsys):
    cfg_path = _config_file(tmp_path, horizon=4)
    out = os.path.join(tmp_path, "mc")
    assert cli.main(["monte-carlo", "--config", cfg_path, "--runs", "2",
                     "--seed", "50", "--out", out]) == 0
    digest = strict_json(capsys.readouterr().out)
    assert digest["runs"] == 2 and digest["horizon"] == 4
    assert digest["phi_final"] is not None
    summary = strict_json(open(os.path.join(out, "summary.json"), encoding="utf-8").read())
    assert summary["base_seed"] == 50 and len(summary["phi"]) == 5
    metrics = open(os.path.join(out, "metrics.csv"), encoding="utf-8").read().splitlines()
    assert metrics[0] == "t,i,eta_pos,eta_vel,zeta_pos,zeta_vel,phi,phi_platoon"
    assert len(metrics) == 1 + 5 * 5


@pytest.mark.parametrize("runs", ["0", "-3"])
def test_monte_carlo_without_runs_exits_with_one_line(tmp_path, caplog, runs):
    cfg_path = _config_file(tmp_path, horizon=4)
    out = os.path.join(tmp_path, "mc")
    assert cli.main(["monte-carlo", "--config", cfg_path, "--runs", runs,
                     "--out", out]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [f"need at least one run, got {runs}"]
    assert not os.path.exists(out)


def test_a_mis_sized_document_is_refused_before_anything_of_size_n_is_built(tmp_path, caplog):
    """N=2,000,001 over the baseline's four ``delta_x`` rows: the row count is
    refused with one line before any N-sized set is built (those sets took
    259 MB at this N)."""
    cfg_path = _config_file(tmp_path, N=2_000_001)
    tracemalloc.start()
    try:
        code = cli.main(["check-feasibility", "--config", cfg_path])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].startswith("delta_x must be a list of 2000000 pairs")
    assert peak < 16e6


def test_check_feasibility_prints_the_report(tmp_path, capsys):
    cfg_path = _config_file(tmp_path)
    assert cli.main(["check-feasibility", "--config", cfg_path]) == 0
    report = strict_json(capsys.readouterr().out)
    assert report["threshold"]["feasible"] is True
    assert report["closed_loop"]["schur"] is True
    assert report["topology"]["N"] == 5


def test_bounds_to_file_and_stdout(tmp_path, capsys):
    cfg_path = _config_file(tmp_path, horizon=2)
    dest = os.path.join(tmp_path, "bounds.csv")
    assert cli.main(["bounds", "--config", cfg_path, "--out", dest]) == 0
    lines = open(dest, encoding="utf-8").read().splitlines()
    assert lines[0] == "t,i,rho,lambda,tau,alpha"
    assert len(lines) == 1 + 3 * 5
    capsys.readouterr()
    assert cli.main(["bounds", "--config", cfg_path]) == 0
    streamed = capsys.readouterr().out.splitlines()
    assert streamed == lines


def test_bounds_refuses_a_failed_threshold_design_before_its_file(tmp_path, capsys, caplog):
    """The design runs before the first row, so a refused design exits 2 with
    one ERROR line and ``--out`` is never created."""
    doc = baseline_doc(L=1, b=3, N=3, delta_x=[[20.0, 0.0]] * 2,
                       x_init=[[200.0, 10.0], [100.0, 8.0], [50.0, 6.0]])
    path = os.path.join(tmp_path, "scenario.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    command = ["bounds", "--out", os.path.join(tmp_path, "bounds.csv")]
    code, line = _exit_0_with_strict_json_or_2_with_one_line(command, path, doc, capsys,
                                                             caplog)
    assert code == 2 and line.startswith("threshold design failed: "), line
    assert not os.path.exists(command[-1])


def test_bad_configuration_exits_with_error_code(tmp_path, capsys):
    path = os.path.join(tmp_path, "broken.json")
    doc = baseline_doc()
    del doc["q"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert cli.main(["run", "--config", path, "--out",
                     os.path.join(tmp_path, "out")]) == 2
    assert cli.main(["check-feasibility", "--config",
                     os.path.join(tmp_path, "missing.json")]) == 2


def test_unstable_design_exits_with_error_code(tmp_path, capsys):
    cfg_path = _config_file(tmp_path, horizon=3, g_s=1000.0, g_v=5.0)
    assert cli.main(["run", "--config", cfg_path, "--out",
                     os.path.join(tmp_path, "out")]) == 2


@pytest.mark.parametrize("attack", [
    {"set": [3], "kind": "warp", "params": {}},
    {"set": [3], "kind": "random", "params": {"bogus": 1}},
    {"set": [3], "kind": "random", "params": 5},
])
def test_bad_attack_block_exits_with_error_code(tmp_path, caplog, attack):
    cfg_path = _config_file(tmp_path, horizon=3, attack=attack)
    assert cli.main(["run", "--config", cfg_path, "--out",
                     os.path.join(tmp_path, "out")]) == 2
    assert "invalid attack block" in caplog.text


@pytest.mark.parametrize("attack, reason", [
    ({"set": [3], "kind": "replay", "params": {"per_sensor": {"3": {"record_len": 0}}}},
     "attack sensor 3 record_len must be an integer >= 1, got 0"),
    ({"set": [3], "kind": "replay", "params": {"per_sensor": {"3": {"start": -2}}}},
     "attack sensor 3 start must be an integer >= 0, got -2"),
    ({"set": [3], "kind": "replay", "params": {"per_sensor": {"3": {"record_len": "x"}}}},
     "attack sensor 3 record_len must be an integer >= 1, got 'x'"),
    ({"set": [3], "kind": "random", "params": {"scale": "x"}},
     "attack scale must be a finite number, got 'x'"),
    ({"set": [3], "kind": "random", "params": {"scale": float("nan")}},
     "attack scale must be a finite number, got nan"),
    ({"set": [3], "kind": "bias", "params": {"offset": [float("inf"), 0.0]}},
     "attack offset must be a pair of finite numbers, got (inf, 0.0)"),
    ({"set": [3], "kind": "bias", "params": {"offset": [1.0]}},
     "attack offset must be a pair of finite numbers, got (1.0,)"),
    ({"set": [3], "kind": "dos", "params": {"start": 1.5}},
     "attack start must be an integer >= 0, got 1.5"),
    ({"set": [3], "kind": "bias",
      "params": {"offset": [1.0, 0.0], "per_sensor": {"4": {"start": 2}}}},
     "per-sensor override for sensor 4, which is not in the attack set [3]"),
    ({"set": [3], "kind": "bias", "params": {"offset": 5}},
     "attack offset must be a pair of finite numbers, got 5"),
    ({"set": [3], "kind": "bias", "params": {"per_sensor": {"3": {"offset": 5}}}},
     "attack sensor 3 offset must be a pair of finite numbers, got 5"),
    ({"set": [3], "kind": "dos", "params": {"per_sensor": {"x": {"start": 2}}}},
     "attack per_sensor must map sensor ids to objects, got {'x': {'start': 2}}"),
    ({"set": [3], "kind": "dos", "params": {"per_sensor": {"3": {"start": 2},
                                                          "03": {"start": 5}}}},
     "attack per_sensor must map sensor ids to objects, "
     "got {'3': {'start': 2}, '03': {'start': 5}}"),
])
def test_bad_attack_knob_exits_with_one_line(tmp_path, caplog, attack, reason):
    """Every knob is checked at load time, at the top level and per sensor,
    before the run starts; the reason is logged as one line."""
    cfg_path = _config_file(tmp_path, horizon=40, attack=attack)
    out = os.path.join(tmp_path, "out")
    assert cli.main(["run", "--config", cfg_path, "--out", out]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [f"invalid attack block: {reason}"]
    assert not os.path.exists(out)


_NAN, _INF = float("nan"), float("inf")
_BIAS = {"set": [3], "kind": "bias"}


@pytest.mark.parametrize("doc, reason", [
    ('{"N": 5,', "is not valid JSON: Expecting property name"),
    (b"\xff{}", "is not valid JSON: 'utf-8' codec can't decode byte 0xff"),
    ({"v0": "x"}, "v0 must be a finite number, got 'x'"),
    ({"v0": True}, "v0 must be a finite number, got True"),
    ({"attack": {**_BIAS, "params": []}},
     "invalid attack block: attack params must be an object, got []"),
    ({"attack": {**_BIAS, "params": {"per_sensor": []}}},
     "invalid attack block: attack per_sensor must map sensor ids to objects, got []"),
    ({"attack": {**_BIAS, "params": {"per_sensor": {"3": []}}}},
     "invalid attack block: attack per_sensor must map sensor ids to objects, "
     "got {'3': []}"),
    ({"attack": {**_BIAS, "params": {"per_sensor": {"1" * 5000: {}}}}},
     "invalid attack block: attack per_sensor must map sensor ids to objects, got {'111"),
    ({"attack": {"set": [3], "kind": "random", "params": {"scale": 10 ** 310}}},
     "invalid attack block: attack scale must be a finite number, got 1000"),
    ({"T": 1e-300}, "T=1e-300 gives the plant norm 1.0; it must lie in (1, inf)"),
    ({"x0": [_NAN, 10.0]}, "x0 must be a pair of finite numbers, got [nan, 10.0]"),
    ({"x_init": [[200.0, 10.0], [100.0, 8.0], [50.0, _NAN], [20.0, 4.0], [0.0, 2.0]]},
     "x_init[2] must be a pair of finite numbers, got [50.0, nan]"),
    ({"x_hat_init": [[0.0, 0.0]] * 4 + [[_INF, 0.0]]},
     "x_hat_init[4] must be a pair of finite numbers, got [inf, 0.0]"),
    ({"delta_x": [[20.0, 0.0]] * 3 + [[-_INF, 0.0]]},
     "delta_x[3] must be a pair of finite numbers, got [-inf, 0.0]"),
    ({"epsilon": _NAN}, "epsilon must be a nonnegative finite number, got nan"),
    ({"mu": _NAN}, "mu must be a nonnegative finite number, got nan"),
    ({"mu": 1e308}, "mu=1e+308 overflows the chained noise bound (L+1)*mu"),
    ({"threshold_mode": {"mode": "adaptive", "beta": _INF}},
     "threshold_mode.beta must be a positive finite number, got inf"),
], ids=["not-json", "not-utf8", "v0-string", "v0-bool", "params-list", "per-sensor-list",
        "per-sensor-entry-list", "per-sensor-key-5000-digits",
        "scale-beyond-float", "T-tiny", "x0-nan", "x-init-nan",
        "x-hat-init-inf", "delta-x-minus-inf", "epsilon-nan", "mu-nan", "mu-overflow",
        "beta-inf"])
def test_malformed_scenario_exits_with_one_line(tmp_path, caplog, capsys, doc, reason):
    """A scenario file that is not JSON, or a field that is not a finite
    number of the right kind, is refused at load time with one line naming
    the field, before any output is written."""
    path = os.path.join(tmp_path, "scenario.json")
    if isinstance(doc, dict):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(baseline_doc(**doc), fh)
    else:
        with open(path, "wb") as fh:
            fh.write(doc if isinstance(doc, bytes) else doc.encode())
    out = os.path.join(tmp_path, "out")
    assert cli.main(["run", "--config", path, "--out", out]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and reason in errors[0] and "\n" not in errors[0]
    assert "Traceback" not in capsys.readouterr().err
    assert not os.path.exists(out)


def _perturb_the_lyapunov_solve(monkeypatch):
    """Scale every Lyapunov solution by 1 + 1e-4, so that the certificate's
    own residual check refuses it."""
    solve = controller.lyapunov_series
    monkeypatch.setattr(controller, "lyapunov_series", lambda a: solve(a) * (1.0 + 1e-4))


@pytest.mark.parametrize("command, kept", [
    (["run"], ("trace.csv", "detection.csv", "summary.json")),
    (["monte-carlo", "--runs", "2"], ("summary.json", "metrics.csv")),
], ids=["run", "monte-carlo"])
def test_certificate_failure_keeps_the_run_artifacts(tmp_path, caplog, monkeypatch,
                                                     command, kept):
    """The feasibility report is written after the run's own artifacts, so a
    certificate that fails once the run is done leaves the run on disk."""
    _perturb_the_lyapunov_solve(monkeypatch)
    out = os.path.join(tmp_path, "out")
    assert cli.main([*command, "--config", _config_file(tmp_path, horizon=5),
                     "--out", out]) == 2
    assert "Lyapunov residual" in caplog.text
    for name in kept:
        assert os.path.isfile(os.path.join(out, name))
    assert not os.path.exists(os.path.join(out, "feasibility.json"))


def test_inconsistent_sets_mid_run_exits_with_error_code(tmp_path, caplog,
                                                        monkeypatch):
    def clash(own, received):
        raise InconsistentSetsError(
            "sensors [2] trusted by one vehicle but confirmed attacked by another")

    monkeypatch.setattr(harness, "fuse_sets", clash)
    cfg_path = _config_file(tmp_path, horizon=3)
    assert cli.main(["run", "--config", cfg_path, "--out",
                     os.path.join(tmp_path, "out")]) == 2
    assert "confirmed attacked by another" in caplog.text


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_inconsistent_sets_report_the_step_and_vehicle(tmp_path, caplog,
                                                      monkeypatch):
    # step 1 starts from empty sets, so every vehicle fuses in order
    calls = []

    def clash_at_third_vehicle(own, received):
        calls.append(own)
        if len(calls) == 3:
            raise InconsistentSetsError("sensors [2] trusted and attacked")
        return own

    monkeypatch.setattr(harness, "fuse_sets", clash_at_third_vehicle)
    with pytest.raises(InconsistentSetsError,
                       match=r"^step 1, vehicle 3: sensors \[2\]") as exc:
        harness.run_simulation(load_scenario(baseline_doc(horizon=3)))
    assert isinstance(exc.value.__cause__, InconsistentSetsError)
    cfg_path = _config_file(tmp_path, horizon=3)
    calls.clear()
    assert cli.main(["run", "--config", cfg_path, "--out",
                     os.path.join(tmp_path, "out")]) == 2
    assert "step 1, vehicle 3: sensors [2] trusted and attacked" in caplog.text


def test_fusion_clash_exits_with_error_code_naming_both_vehicles(
        tmp_path, caplog, monkeypatch):
    honest = detector.detector_step
    planted = {2: DetectionSets(trusted=frozenset({3})),
               4: DetectionSets(attacked=frozenset({3}))}

    def plant(i, fused, *args):
        res = honest(i, fused, *args)
        return dataclasses.replace(res, sets=planted[i]) if i in planted else res

    monkeypatch.setattr(detector, "detector_step", plant)
    cfg_path = _config_file(tmp_path, horizon=3)
    assert cli.main(["run", "--config", cfg_path, "--out",
                     os.path.join(tmp_path, "out")]) == 2
    assert ("step 2, vehicle 2: sensors [3] trusted by one vehicle but confirmed "
            "attacked by another; sensor 3 trusted by vehicles [2] and confirmed "
            "attacked by vehicles [4]") in caplog.text


def test_initial_error_above_q_exits_with_error_code(tmp_path, caplog):
    cfg_path = _config_file(tmp_path, q=150.0)
    assert cli.main(["run", "--config", cfg_path, "--out",
                     os.path.join(tmp_path, "out")]) == 2
    assert "initial estimation error 200.25 of vehicle 1 exceeds q=150" in caplog.text


def test_certificate_failure_exits_with_error_code(tmp_path, caplog,
                                                   monkeypatch):
    _perturb_the_lyapunov_solve(monkeypatch)
    assert issubclass(controller.CertificateError, RuntimeError)
    cfg_path = _config_file(tmp_path)
    assert cli.main(["check-feasibility", "--config", cfg_path]) == 2
    assert "Lyapunov residual" in caplog.text


def test_zero_attack_budget_runs_every_command(tmp_path, capsys):
    """With b = 0 no compromised source exists: the threshold interval ends
    at the honest innovation ceiling, every command exits 0, the run trusts
    every sensor and its bounds hold."""
    cfg_path = _config_file(tmp_path, b=0,
                            attack={"set": [], "kind": "random", "params": {}})
    out = os.path.join(tmp_path, "out")
    assert cli.main(["run", "--config", cfg_path, "--out", out]) == 0
    digest = strict_json(capsys.readouterr().out)
    assert digest["bound_violations"] == 0
    assert all(s["trusted"] == [1, 2, 3, 4, 5] for s in digest["final_sets"])
    assert cli.main(["check-feasibility", "--config", cfg_path]) == 0
    report = strict_json(capsys.readouterr().out)
    params = observer.ObserverParams.from_config(load_scenario(cfg_path))
    assert report["threshold"]["interval"][1] == params.beta_max
    assert cli.main(["bounds", "--config", cfg_path]) == 0


@pytest.mark.parametrize("gain", ["g_v", "g_s"])
def test_check_feasibility_reports_gains_that_overflow_the_closed_loop(tmp_path, capsys, gain):
    """At T = 1 a gain of 1e308 loads, but twice its product with T
    overflows the closed-loop matrix: the report names the overflow in place
    of the spectrum, carries no certificate and no tracking bounds, and the
    command still exits 0."""
    cfg_path = _config_file(tmp_path, T=1.0, **{gain: 1e308})
    assert cli.main(["check-feasibility", "--config", cfg_path]) == 0
    out, err = capsys.readouterr()
    report = strict_json(out)
    g_s, g_v = (50.0, 1e308) if gain == "g_v" else (1e308, 50.0)
    assert report["closed_loop"] == {
        "error": f"closed-loop matrices overflow at T=1.0, g_s={g_s!r}, g_v={g_v!r}"}
    assert "tracking_bounds" not in report and "Traceback" not in err


@pytest.mark.parametrize("command", [["run", "--out", "run"], ["check-feasibility"]])
def test_huge_sampling_period_exits_with_one_line_naming_T(tmp_path, command):
    """At T=1e100 the plant norm rounds the interval (1, norm/(norm-1)) for
    the default varpi shut; the document never set varpi, so the one error
    line names T."""
    cfg_path = _config_file(tmp_path, T=1e100)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(platoonsec.__file__)))
    done = subprocess.run([sys.executable, "-m", "platoonsec.cli", *command, "--config", cfg_path],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    lines = done.stderr.splitlines()
    assert done.returncode == 2 and len(lines) == 1, done.stderr
    assert "T=1e+100" in lines[0] and "got" not in lines[0]
    assert not os.path.exists(os.path.join(tmp_path, "run"))


#: each draw's seed, the finite extremes its real fields take, the largest
#: omega it keeps (a larger one is replaced by it), and the positions it may
#: give vehicle 1's estimate
_EXTREME_DRAWS = {
    "seed15": (15, (5e-324, 1e-300, 0.999999, 1.000001, 1e300, 1e308), math.inf, ()),
    "seed20": (20, (5e-324, 1e-300, 0.5, 0.9, 0.999999, 1.000001, 1e10, 1e300, 1e308),
               0.999999, (1e300, 1e308, -1e308)),
}


def _extreme_documents(seed, extremes, omega_max, positions):
    """200 baseline documents over horizons up to 8, each real field drawn
    from ``extremes`` with probability 1/2; with probability 0.3, when
    ``positions`` is not empty, vehicle 1's estimate starts at one of them."""
    rng = random.Random(seed)
    for _ in range(200):
        doc = baseline_doc(horizon=rng.randint(0, 8))
        threshold = doc["threshold_mode"] = {"mode": rng.choice(("static", "adaptive"))}
        for field in ("T", "q", "epsilon", "mu", "g_s", "g_v", "beta", "omega"):
            if rng.random() < 0.5:
                value = rng.choice(extremes)
                if field == "omega":
                    value = min(value, omega_max)
                (threshold if field in ("beta", "omega") else doc)[field] = value
        if positions and rng.random() < 0.3:
            doc["x_hat_init"] = [[rng.choice(positions), 0.0]] + [[0.0, 0.0]] * 4
        yield doc


def _commands(tmp_path, k):
    """The four commands, each with its own output paths for document ``k``."""
    return (["run", "--out", os.path.join(tmp_path, f"run{k}")],
            ["monte-carlo", "--runs", "2", "--out", os.path.join(tmp_path, f"mc{k}")],
            ["check-feasibility"],
            ["bounds", "--out", os.path.join(tmp_path, "bounds.csv")])


def _exit_0_with_strict_json_or_2_with_one_line(command, path, doc, capsys, caplog) -> tuple:
    """Run one command on the scenario at ``path``; it must not raise, must
    exit 0 or 2 and must log no record twice.  On exit 0 the JSON it prints
    and the JSON artifacts it writes are strict; on exit 2 it logs exactly
    one ERROR line.  Returns the exit code and the printed output, or the
    ERROR line."""
    caplog.clear()
    try:
        code = cli.main([command[0], "--config", path, *command[1:]])
    except Exception as exc:  # name the document that broke
        pytest.fail(f"{command[0]} raised {exc!r} on {doc}")
    records = [(r.levelno, r.getMessage()) for r in caplog.records]
    assert len(set(records)) == len(records), (command[0], records, doc)
    out = capsys.readouterr().out
    if code == 2:
        errors = [message for level, message in records if level == logging.ERROR]
        assert len(errors) == 1 and "\n" not in errors[0], (command[0], errors, doc)
        return code, errors[0]
    assert code == 0, (command[0], code, doc)
    texts = [] if command[0] == "bounds" else [out]
    if command[0] in ("run", "monte-carlo"):
        for name in ("feasibility.json", "summary.json"):
            with open(os.path.join(command[-1], name), encoding="utf-8") as fh:
                texts.append(fh.read())
    for text in texts:
        try:
            strict_json(text)
        except ValueError as exc:
            pytest.fail(f"{command[0]} gave {exc} on {doc}")
    return code, out


@pytest.mark.parametrize("draw", sorted(_EXTREME_DRAWS))
def test_every_command_exits_0_or_2_on_extreme_numbers(tmp_path, capsys, caplog, recwarn,
                                                       draw):
    """Baseline documents whose real fields are drawn from finite extremes:
    every command either succeeds or refuses the document with one line, and
    none raises.  A design report that a command prints or writes as
    ``feasibility.json`` is strict JSON, as are the digest that ``run``
    prints and writes as ``summary.json`` and the ensemble summary of
    ``monte-carlo``, no command logs the same record twice, and no formula
    warns of overflow."""
    path = os.path.join(tmp_path, "scenario.json")
    for k, doc in enumerate(_extreme_documents(*_EXTREME_DRAWS[draw])):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for command in _commands(tmp_path, k):
            _exit_0_with_strict_json_or_2_with_one_line(command, path, doc, capsys, caplog)
    overflows = [f"{os.path.basename(w.filename)}:{w.lineno}: {w.message}" for w in recwarn
                 if issubclass(w.category, RuntimeWarning)]
    assert not overflows


_D4_INIT = [[1e308, 10.0], [100.0, 8.0], [50.0, 6.0], [20.0, 4.0], [0.0, 2.0]]
#: vehicle 5 starts 1e308 ahead of its place: one run stays finite, but two
#: runs' summed positions relative to the leader overflow
_D5_INIT = [[200.0, 10.0], [100.0, 8.0], [50.0, 6.0], [20.0, 4.0], [1e308, 2.0]]


@pytest.mark.parametrize("overrides, outcomes", [
    ({"horizon": 1, "T": 1e10, "epsilon": 1.000001, "g_s": 5e-324,
      "threshold_mode": {"mode": "static", "beta": 1e308}},
     {"check-feasibility": (0, '"error": "estimation bounds overflow at beta0=1e+308, '
                               'T=10000000000.0, epsilon=1.000001"')}),
    ({"horizon": 2, "q": 1e10, "epsilon": 1e308,
      "threshold_mode": {"mode": "static", "beta": 5e-324, "omega": 0.999999}},
     {"check-feasibility": (0, '"error": "threshold design overflows at T=0.01, '
                               'q=10000000000.0, epsilon=1e+308, mu=0.1, omega=0.999999"'),
      "run": (2, "step 1 leaves the float range: phi=inf"),
      "monte-carlo": (2, "step 1 leaves the float range: phi=inf")}),
    ({"horizon": 0, "T": 0.9, "q": 1e-300, "mu": 0.9, "g_s": 1e-10, "g_v": 1e-10,
      "threshold_mode": {"mode": "static"}},
     {"check-feasibility": (2, "Lyapunov residual 8.663e+06 exceeds 1e-06/sqrt(10)")}),
    ({"horizon": 3, "x_init": _D4_INIT, "x_hat_init": [[-1e308, 0.0]] + [[0.0, 0.0]] * 4},
     {"check-feasibility": (0, '"initial_error": {\n    "error": "initial error overflows '
                               'at vehicle 1\'s x_init and x_hat_init"\n  }')}),
    ({"horizon": 1, "g_s": 1.5, "x_init": _D5_INIT, "x_hat_init": _D5_INIT},
     {"run": (0, '"bound_violations": 0'),
      "monte-carlo": (2, "run 1 takes the ensemble metrics out of the float range: ")}),
    # the interior bound turns NaN at step 4, and so does its threshold; a
    # zero innovation then drew a gain of NaN / 0.0, a ZeroDivisionError
    ({**string_overrides(3, []), "L": 1, "b": 1, "horizon": 4,
      "threshold_mode": {"mode": "adaptive", "beta": 1e300},
      "delta_x": [[5e-324, 1e300], [20.0, 0.0]]},
     {"run": (2, "step 4 leaves the float range: phi=nan"),
      "monte-carlo": (2, "step 4 leaves the float range: phi=nan")}),
], ids=["edge-bound-overflow", "threshold-overflow", "lyapunov-warning", "initial-error-overflow",
        "ensemble-overflow", "nan-threshold"])
def test_documents_past_the_float_range_give_strict_json_or_one_error_line(
        tmp_path, capsys, caplog, recwarn, overrides, outcomes):
    """Documents whose design numbers, run or ensemble leave the float
    range: each command prints and writes strict JSON, where the overflowing
    block holds an ``error``, or exits 2 with one line; none warns."""
    path = _config_file(tmp_path, **overrides)
    doc = baseline_doc(**overrides)
    for command in _commands(tmp_path, 0):
        code, text = _exit_0_with_strict_json_or_2_with_one_line(command, path, doc, capsys,
                                                                 caplog)
        if command[0] in outcomes:
            want_code, fragment = outcomes[command[0]]
            assert code == want_code and fragment in text, (command[0], text)
        if code == 2 and command[0] != "check-feasibility":
            assert not os.path.exists(command[-1])
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_a_trace_too_large_to_allocate_exits_with_one_line(tmp_path, capsys, caplog):
    """A horizon whose trace numpy cannot allocate is refused with one line
    naming the horizon and N, and no artifact is written.  ``bounds`` is not
    run: it streams its rows, so it has nothing to allocate up front (see
    ``test_bound_envelopes_stream_the_first_steps_of_an_unbounded_horizon``)."""
    path = _config_file(tmp_path, horizon=2 ** 62)
    doc = baseline_doc(horizon=2 ** 62)
    for command in _commands(tmp_path, 0)[:2]:
        code, line = _exit_0_with_strict_json_or_2_with_one_line(command, path, doc, capsys,
                                                                 caplog)
        assert code == 2 and line.startswith(
            f"a trace of horizon {2 ** 62} for N=5 vehicles cannot be allocated: "), line
        assert not os.path.exists(command[-1])


def test_design_matrices_too_large_to_allocate_exit_with_one_line(tmp_path, capsys, caplog,
                                                                 monkeypatch):
    """When numpy cannot allocate the dense N x N design matrices (at N=100,001
    the grounded Laplacian alone needs 74.5 GiB), the commands that certify
    the gains exit 2 with one line naming the allocation and write nothing."""
    message = ("Unable to allocate 74.5 GiB for an array with shape (100001, 100001) "
               "and data type float64")

    def refuse(n):
        raise MemoryError(message)
    monkeypatch.setattr(controller, "grounded_laplacian", refuse)
    path = _config_file(tmp_path)
    for command in _commands(tmp_path, 0)[:3]:
        caplog.clear()
        assert cli.main([command[0], "--config", path, *command[1:]]) == 2, command[0]
        assert [r.getMessage() for r in caplog.records] == [f"out of memory: {message}"]
        assert capsys.readouterr().out == ""
        assert command[0] == "check-feasibility" or not os.path.exists(command[-1])


#: finite magnitudes from the smallest subnormal to the largest float
_MAGNITUDES = st.sampled_from((5e-324, 1e-300, 0.5, 0.999999, 1.000001, 1e10, 1e300, 1e308))
_FINITE = st.one_of(_MAGNITUDES, _MAGNITUDES.map(operator.neg), st.just(0.0))
#: the values each field rule of ``sensing`` admits, keyed by its description
_ADMITTED = {
    sensing.FINITE[1]: _FINITE,
    sensing.POSITIVE[1]: _MAGNITUDES,
    sensing.NONNEGATIVE[1]: st.one_of(st.just(0.0), _MAGNITUDES),
    sensing.INTEGER[1]: st.integers(-2 ** 70, 2 ** 70),
    sensing.COUNT[1]: st.integers(0, 2 ** 70),
    sensing.integer_at_least(1)[1]: st.integers(1, 2 ** 70),
    sensing.PAIR[1]: st.lists(_FINITE, min_size=2, max_size=2),
}
#: JSON values of other kinds, which a field may hold instead
_OTHER = st.sampled_from((None, True, "1", [], {}, [1.0], -1, -1e308, 1.5))
#: the rule of each document field a draw may replace; a list field's
#: rule is its rows'
_FIELD_RULES = {
    "T": sensing.POSITIVE, "q": sensing.POSITIVE, "epsilon": sensing.NONNEGATIVE,
    "mu": sensing.NONNEGATIVE, "g_s": sensing.POSITIVE, "g_v": sensing.POSITIVE,
    "varpi": sensing.POSITIVE, "v0": sensing.FINITE, "seed": sensing.INTEGER,
    "x0": sensing.PAIR, "delta_x": sensing.PAIR, "x_init": sensing.PAIR,
    "x_hat_init": sensing.PAIR, "beta": sensing.POSITIVE, "omega": sensing.POSITIVE,
}


@st.composite
def _scenario_documents(draw):
    """A whole scenario document of horizon at most 8 on the string geometry
    of 3 to 9 vehicles: its attack takes knobs drawn for their rules in
    ``KNOBS``, up to four fields (or a row of a list field) take another
    value their rule admits, often at an end of the float range, and at
    most one field holds a JSON value of another kind."""
    n = draw(st.integers(3, 9))
    L = draw(st.integers(1, (n - 1) // 2))
    attacked = draw(st.lists(st.integers(1, n), max_size=L, unique=True))
    doc = baseline_doc(**{**string_overrides(n, attacked), "L": L, "b": L,
                          "horizon": draw(st.integers(0, 8))})
    kind = doc["attack"]["kind"] = draw(st.sampled_from(sensing.ATTACK_KINDS))
    doc["attack"]["params"] = {name: draw(_ADMITTED[rule[1]])
                               for name, rule in sensing.KNOBS[kind].items()
                               if draw(st.booleans())}
    threshold = doc["threshold_mode"] = {"mode": draw(st.sampled_from(("static", "adaptive")))}
    doc["controller_mode"] = draw(st.sampled_from(("observer", "pwm")))
    for key in draw(st.sets(st.sampled_from(sorted(_FIELD_RULES)), max_size=4)):
        value = draw(_ADMITTED[_FIELD_RULES[key][1]])
        if key in ("delta_x", "x_init", "x_hat_init"):
            doc[key][draw(st.integers(0, len(doc[key]) - 1))] = value
        else:
            (threshold if key in ("beta", "omega") else doc)[key] = value
    other = draw(st.none() | st.sampled_from(sorted(doc)))
    if other is not None:
        doc[other] = draw(_OTHER)
    return doc


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(doc=_scenario_documents())
def test_every_command_exits_0_or_2_on_whole_documents(capsys, caplog, recwarn, doc):
    """Whole scenario documents drawn from the field rules: every command
    prints and writes strict JSON on exit 0 or logs one ERROR line on exit 2,
    none raises, logs a record twice or warns."""
    recwarn.clear()  # the fixture outlives each drawn document
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for command in _commands(tmp, 0):
            _exit_0_with_strict_json_or_2_with_one_line(command, path, doc, capsys, caplog)
    overflows = [f"{os.path.basename(w.filename)}:{w.lineno}: {w.message}" for w in recwarn
                 if issubclass(w.category, RuntimeWarning)]
    assert not overflows, doc


@pytest.mark.parametrize("threshold, fragment", [
    ({"mode": "static", "beta": 1e6}, "saturation will never engage"),
    ({"mode": "static", "beta": 1, "omega": 0.26}, "lies outside the designed interval")])
def test_every_command_states_an_explicit_beta_warning_once(tmp_path, caplog, threshold,
                                                            fragment):
    """A scenario warning belongs to the document, so each command, which
    loads its scenario once, logs it once, however often it designs."""
    cfg_path = _config_file(tmp_path, horizon=5, threshold_mode=threshold)
    for command in (["run", "--out", os.path.join(tmp_path, "run")],
                    ["monte-carlo", "--runs", "3", "--out", os.path.join(tmp_path, "mc")],
                    ["check-feasibility"],
                    ["bounds", "--out", os.path.join(tmp_path, "bounds.csv")]):
        caplog.clear()
        assert cli.main([command[0], "--config", cfg_path, *command[1:]]) == 0
        hits = [r for r in caplog.records if fragment in r.getMessage()]
        assert [(r.name, r.levelname) for r in hits] == [("platoonsec.core", "WARNING")], command


@pytest.mark.parametrize("mode", ["adaptive", "static"])
def test_threshold_midpoint_stays_finite_where_the_interval_ends_overflow_their_sum(
        tmp_path, capsys, mode):
    """With q=1e308 both ends of the omega=0.9 interval are finite but their
    sum is not; the designed threshold is still their midpoint, so the
    design report is strict JSON both as printed and as a run writes it."""
    cfg_path = _config_file(tmp_path, horizon=3, q=1e308,
                            threshold_mode={"mode": mode, "omega": 0.9})
    assert cli.main(["check-feasibility", "--config", cfg_path]) == 0
    printed = capsys.readouterr().out
    out = os.path.join(tmp_path, "out")
    assert cli.main(["run", "--config", cfg_path, "--out", out]) == 0
    capsys.readouterr()
    with open(os.path.join(out, "feasibility.json"), encoding="utf-8") as fh:
        written = fh.read()
    assert strict_json(written) == strict_json(printed)
    threshold = strict_json(printed)["threshold"]
    lo, hi = threshold["interval"]
    assert lo + hi == math.inf and lo < threshold["beta0"] < hi
    assert 0.0 < threshold["k0"] < 1.0


def test_run_digest_stays_finite_where_the_error_norm_overflows(tmp_path, capsys, recwarn):
    """With mu=1e300 an estimate strays from its state by more than the
    square root of the float range, so squaring the gap overflows; the
    digest takes those norms by scaling instead, stays strict JSON and
    finds every error within its bound, without a warning."""
    cfg_path = _config_file(tmp_path, horizon=5, mu=1e300, epsilon=5e-324, g_s=1e-300,
                            threshold_mode={"mode": "adaptive", "beta": 1e-300})
    out = os.path.join(tmp_path, "out")
    assert cli.main(["run", "--config", cfg_path, "--out", out]) == 0
    printed = capsys.readouterr().out
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
        written = fh.read()
    digest = strict_json(printed)
    assert digest == strict_json(written)
    assert digest["bound_violations"] == 0 and 1e154 < digest["max_estimation_error"] < 1e300
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def _string_file(tmp_path_factory, n):
    path = os.path.join(tmp_path_factory.mktemp(f"string{n}"), "scenario.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(baseline_doc(horizon=20, **string_overrides(n, [30, 70])), fh)
    return path


@pytest.fixture(scope="module")
def string101(tmp_path_factory):
    """The 101-vehicle string, whose certificate the dense route still covers."""
    return _string_file(tmp_path_factory, 101)


def _assert_certified(path, n, capsys):
    assert cli.main(["check-feasibility", "--config", path]) == 0
    loop = strict_json(capsys.readouterr().out)["closed_loop"]
    assert loop["schur"] is True
    assert math.sqrt(2 * n) * loop["lyapunov_residual"] <= controller.CROSS_CHECK_TOL


def test_check_feasibility_certifies_the_101_vehicle_string(string101, capsys):
    _assert_certified(string101, 101, capsys)


@pytest.mark.parametrize("n", [161, 301])
def test_check_feasibility_certifies_the_longer_strings(tmp_path_factory, capsys, n):
    """Claim 3 past the sizes scipy's solver certified, which stopped near
    N=150; the doubling certifies the string up to N=376."""
    _assert_certified(_string_file(tmp_path_factory, n), n, capsys)


def test_run_writes_every_artifact_on_the_101_vehicle_string(string101, tmp_path, capsys):
    out = os.path.join(tmp_path, "out")
    assert cli.main(["run", "--config", string101, "--out", out]) == 0
    for name in ("scenario.json", "feasibility.json", "trace.csv",
                 "detection.csv", "summary.json"):
        assert os.path.isfile(os.path.join(out, name))
    with open(os.path.join(out, "feasibility.json"), encoding="utf-8") as fh:
        assert strict_json(fh.read())["closed_loop"]["schur"] is True


def _cli_artifact_digests(tmp_path, capsys, cfg_path) -> dict:
    """SHA-256 of every deterministic CLI artifact of one scenario: the run's
    scenario and summary, a three-run ensemble's summary and metrics, the
    bounds CSV and the feasibility report without its LAPACK-derived
    ``closed_loop`` and ``tracking_bounds`` blocks."""
    def path(name):
        return os.path.join(tmp_path, name)

    assert cli.main(["run", "--config", cfg_path, "--out", path("run")]) == 0
    assert cli.main(["monte-carlo", "--config", cfg_path, "--runs", "3",
                     "--out", path("mc")]) == 0
    assert cli.main(["bounds", "--config", cfg_path, "--out", path("bounds.csv")]) == 0
    capsys.readouterr()
    assert cli.main(["check-feasibility", "--config", cfg_path]) == 0
    report = strict_json(capsys.readouterr().out)
    del report["closed_loop"], report["tracking_bounds"]
    digests = {"feasibility": hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()}
    for name in ("run/scenario.json", "run/summary.json", "mc/summary.json",
                 "mc/metrics.csv", "bounds.csv"):
        with open(path(name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


#: digests of :func:`_cli_artifact_digests` on the 60-step baseline and N=21
#: string, recorded before the plant wrapper and the field-by-field Monte
#: Carlo summary were removed; the trace CSVs are pinned in test_harness.py
PINNED_CLI_ARTIFACTS = {
    "baseline": ({}, {
        "feasibility": "2ff2edd318c625a53b31921d9a675d62708400518e7b8d7f2d6bdff79f2c9698",
        "run/scenario.json": "13cbf29f0dee93c3d26f6f873d0c2eb3354c2ca8bf3811715ee945b4dad4509d",
        "run/summary.json": "16eeefa1c1ea438a04bc4ccb9fba36a83566d6f9dad420ee7c59f68dbc1476b3",
        "mc/summary.json": "9c9d8149ff4b1f260be9c43ec67c972f91067162cee6075f28a7b1536ab5bc1a",
        "mc/metrics.csv": "e1f9fac8a87560e9f153205ee8894c87b575cbe1268e3d473e2e0c0e74699d56",
        "bounds.csv": "c463e7d6e2727f618f23b3ea352003964af4a1e2d1a81d04b59a7c748cb84045",
    }),
    "string21": (string_overrides(21, [6, 15]), {
        "feasibility": "4dc1dbd054706a839a5bfacad92a64a680e4037e16a0d763372630d6e8421735",
        "run/scenario.json": "3b36d022d76c07731745b4a3e6cbc981f1109e67cc3b31351707502c16fefc35",
        "run/summary.json": "26cc6da5811b8a80a1922cd9ca54f3327030c09dfa6d70a2e04c2ce20bbe16a9",
        "mc/summary.json": "35b9faa56a438d1d7e6edc72b5aa627ebfe463353dcbda02f38bf80363fe70e7",
        "mc/metrics.csv": "80e5ae4108d2bc67eb9ae6266ddf6f48fc10e4612c8970e0472075a244cacae6",
        "bounds.csv": "d05ed4ab8fcb53201401928be40a8b249caa5f991064d76c2fd8075052ede5ca",
    }),
}


@pytest.mark.parametrize("name", sorted(PINNED_CLI_ARTIFACTS))
def test_cli_artifacts_match_their_pinned_bytes(tmp_path, capsys, name):
    overrides, digests = PINNED_CLI_ARTIFACTS[name]
    cfg_path = _config_file(tmp_path, horizon=60, **overrides)
    assert _cli_artifact_digests(tmp_path, capsys, cfg_path) == digests
