"""The benchmark's span tracer wraps library functions by name from outside
the package; a name it cannot find would only fail a traced benchmark run."""

import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_benchmark_tracer_finds_every_traced_boundary():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [name for name, owner, attr in tracer.BOUNDARIES
               if attr not in vars(owner)]
    assert not missing
    tracer.Tracer()
