"""End-to-end tests of the command-line interface."""

import dataclasses
import json
import os

import pytest

from conftest import baseline_doc
from platoonsec import cli, controller, detector, harness
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
    assert got[1].split(",")[2] == harness._fmt(want[0].x[0][0])


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
    def no_convergence(mat, *args, **kwargs):
        raise controller.CertificateError(
            "Lyapunov series failed to converge within the term budget")

    monkeypatch.setattr(controller, "lyapunov_series", no_convergence)
    assert issubclass(controller.CertificateError, RuntimeError)
    cfg_path = _config_file(tmp_path)
    assert cli.main(["check-feasibility", "--config", cfg_path]) == 2
    assert "failed to converge" in caplog.text
