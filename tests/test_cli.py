"""End-to-end tests of the command-line interface."""

import dataclasses
import hashlib
import json
import math
import os
import random
import subprocess
import sys

import pytest
import scipy.linalg

from conftest import baseline_doc, string_overrides
from oracles import _fmt
import platoonsec
from platoonsec import cli, controller, detector, harness, observer
from platoonsec.core import DetectionSets, InconsistentSetsError, load_scenario


def _config_file(tmp_path, **overrides):
    path = os.path.join(tmp_path, "scenario.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(baseline_doc(**overrides), fh)
    return path


def test_run_writes_the_trace_directory_and_prints_the_digest(tmp_path, capsys):
    cfg_path = _config_file(tmp_path, horizon=5)
    out = os.path.join(tmp_path, "out")
    assert cli.main(["run", "--config", cfg_path, "--out", out]) == 0
    digest = json.loads(capsys.readouterr().out)
    assert digest["steps"] == 6 and digest["horizon"] == 5
    for name in ("scenario.json", "feasibility.json", "trace.csv",
                 "detection.csv", "summary.json"):
        assert os.path.isfile(os.path.join(out, name))
    on_disk = json.load(open(os.path.join(out, "summary.json"), encoding="utf-8"))
    assert on_disk == digest


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
    doc = json.load(open(os.path.join(out, "scenario.json"), encoding="utf-8"))
    assert doc["seed"] == 999
    want = harness.run_simulation(load_scenario(baseline_doc(horizon=5)), seed=999)
    got = [line for line in open(os.path.join(out, "trace.csv"), encoding="utf-8")]
    assert len(got) == 1 + 6 * 5
    assert got[1].split(",")[2] == _fmt(want[0].x[0][0])


def test_monte_carlo_command(tmp_path, capsys):
    cfg_path = _config_file(tmp_path, horizon=4)
    out = os.path.join(tmp_path, "mc")
    assert cli.main(["monte-carlo", "--config", cfg_path, "--runs", "2",
                     "--seed", "50", "--out", out]) == 0
    digest = json.loads(capsys.readouterr().out)
    assert digest["runs"] == 2 and digest["horizon"] == 4
    assert digest["phi_final"] is not None
    summary = json.load(open(os.path.join(out, "summary.json"), encoding="utf-8"))
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


def test_check_feasibility_prints_the_report(tmp_path, capsys):
    cfg_path = _config_file(tmp_path)
    assert cli.main(["check-feasibility", "--config", cfg_path]) == 0
    report = json.loads(capsys.readouterr().out)
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
    solve = scipy.linalg.solve_discrete_lyapunov
    monkeypatch.setattr(scipy.linalg, "solve_discrete_lyapunov",
                        lambda a, q: solve(a, q) * (1.0 + 1e-4))


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
    digest = json.loads(capsys.readouterr().out)
    assert digest["bound_violations"] == 0
    assert all(s["trusted"] == [1, 2, 3, 4, 5] for s in digest["final_sets"])
    assert cli.main(["check-feasibility", "--config", cfg_path]) == 0
    report = json.loads(capsys.readouterr().out)
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
    report = json.loads(out)
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


_EXTREMES = (5e-324, 1e-300, 0.999999, 1.000001, 1e300, 1e308)


def _is_strict_json(text: str) -> bool:
    """``text`` parses as JSON that holds no ``NaN`` and no infinity."""
    def refuse(constant):
        raise ValueError(f"non-finite JSON value {constant}")
    try:
        json.loads(text, parse_constant=refuse)
    except ValueError:
        return False
    return True


def test_every_command_exits_0_or_2_on_extreme_numbers(tmp_path, capsys, recwarn):
    """Baseline documents whose real fields are drawn from finite extremes,
    each field with probability 1/2, over horizons up to 8: every command
    either succeeds or refuses the document, and none raises.  A design
    report that a command prints or writes as ``feasibility.json`` is
    strict JSON, as are the digest that ``run`` prints and writes as
    ``summary.json`` and the ensemble summary of ``monte-carlo``, and no
    formula warns of overflow."""
    rng = random.Random(15)
    path = os.path.join(tmp_path, "scenario.json")
    for k in range(200):
        doc = baseline_doc(horizon=rng.randint(0, 8))
        threshold = doc["threshold_mode"] = {"mode": rng.choice(("static", "adaptive"))}
        for field in ("T", "q", "epsilon", "mu", "g_s", "g_v", "beta", "omega"):
            if rng.random() < 0.5:
                (threshold if field in ("beta", "omega") else doc)[field] = rng.choice(_EXTREMES)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for command in (["run", "--out", os.path.join(tmp_path, f"run{k}")],
                        ["monte-carlo", "--runs", "2", "--out", os.path.join(tmp_path, f"mc{k}")],
                        ["check-feasibility"],
                        ["bounds", "--out", os.path.join(tmp_path, "bounds.csv")]):
            try:
                code = cli.main([command[0], "--config", path, *command[1:]])
            except Exception as exc:  # name the document that broke
                pytest.fail(f"{command[0]} raised {exc!r} on {doc}")
            assert code in (0, 2), (command[0], doc)
            out = capsys.readouterr().out
            if code == 0 and command[0] == "check-feasibility":
                assert _is_strict_json(out), (command[0], doc)
            elif code == 0 and command[0] != "bounds":
                assert _is_strict_json(out), (command[0], doc)
                for name in ("feasibility.json", "summary.json"):
                    with open(os.path.join(command[-1], name), encoding="utf-8") as fh:
                        assert _is_strict_json(fh.read()), (command[0], name, doc)
    overflows = [f"{os.path.basename(w.filename)}:{w.lineno}: {w.message}" for w in recwarn
                 if issubclass(w.category, RuntimeWarning)]
    assert not overflows


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
    assert _is_strict_json(printed) and _is_strict_json(written)
    digest = json.loads(printed)
    assert digest == json.loads(written)
    assert digest["bound_violations"] == 0 and 1e154 < digest["max_estimation_error"] < 1e300
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.fixture(scope="module")
def string101(tmp_path_factory):
    """The 101-vehicle string, whose certificate the dense route still covers."""
    path = os.path.join(tmp_path_factory.mktemp("string101"), "scenario.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(baseline_doc(horizon=20, **string_overrides(101, [30, 70])), fh)
    return path


def test_check_feasibility_certifies_the_101_vehicle_string(string101, capsys):
    assert cli.main(["check-feasibility", "--config", string101]) == 0
    loop = json.loads(capsys.readouterr().out)["closed_loop"]
    assert loop["schur"] is True
    assert math.sqrt(202) * loop["lyapunov_residual"] <= controller.CROSS_CHECK_TOL


def test_run_writes_every_artifact_on_the_101_vehicle_string(string101, tmp_path, capsys):
    out = os.path.join(tmp_path, "out")
    assert cli.main(["run", "--config", string101, "--out", out]) == 0
    for name in ("scenario.json", "feasibility.json", "trace.csv",
                 "detection.csv", "summary.json"):
        assert os.path.isfile(os.path.join(out, name))
    with open(os.path.join(out, "feasibility.json"), encoding="utf-8") as fh:
        assert json.load(fh)["closed_loop"]["schur"] is True


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
    report = json.loads(capsys.readouterr().out)
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
