"""The benchmark's span tracer wraps library functions by name from outside
the package; a name it cannot find would only fail a traced benchmark run,
and a call that moves off its traced name would only zero a span."""

import importlib.util
import pathlib

from conftest import baseline_doc
from platoonsec import harness
from platoonsec.core import load_scenario

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

#: the spans one baseline run records calls in
RUN_SPANS = {
    "controller.check_gains", "controller.control_all", "core.fuse_sets",
    "detector.detector_step", "dynamics.advance_deltas", "dynamics.desired_state_chain",
    "dynamics.reference_step", "harness.phi_pair", "harness.run_simulation",
    "observer.design_threshold", "observer.static_threshold_interval",
    "observer.lambda_update", "observer.measurement_update_v2", "observer.nearest_trusted",
    "observer.tau_update", "rng.reposition", "sensing.sample_noise",
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_finds_every_traced_boundary():
    tracer = _load_tracer()
    missing = [name for name, owner, attr in tracer.BOUNDARIES
               if attr not in vars(owner)]
    assert not missing
    tracer.Tracer()


def test_benchmark_tracer_sees_every_layer_of_a_run_and_restores_it():
    """One traced baseline run (N=5, H=20) records calls in the same spans,
    as many fusions and detector steps as the step loop makes, and leaves
    every wrapped attribute as it found it."""
    tracer = _load_tracer()
    originals = [vars(owner)[attr] for _, owner, attr in tracer.BOUNDARIES]
    cfg = load_scenario(baseline_doc(horizon=20))
    tr = tracer.Tracer()
    idx = tr.begin_op(0)
    try:
        harness.run_simulation(cfg)
    finally:
        tr.end_op(idx)
    assert all(vars(owner)[attr] is original
               for (_, owner, attr), original in zip(tracer.BOUNDARIES, originals))
    calls = {name: count for name, (count, _) in tr.totals().items()
             if count and name != tracer.OP}
    assert set(calls) == RUN_SPANS
    assert calls["detector.detector_step"] == 20 * 5
    assert calls["core.fuse_sets"] == 20
