"""``src/platoonsec`` holds only code a command runs: a fresh interpreter runs
the four CLI commands on the baseline under a profile hook, import-time calls
included, and every function or lambda written in the package must have been
entered, apart from the benchmark tracer's span boundaries, the two pieces
only those call, and the error paths.  Reference code lives in ``oracles.py``."""

import importlib.util
import inspect
import json
import os
import pathlib
import subprocess
import sys
import types

from conftest import baseline_doc
import platoonsec
from platoonsec import core, harness, sensing

PACKAGE = pathlib.Path(platoonsec.__file__).resolve().parent
TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
#: what only the tracer boundaries call, and the error paths
ALLOWED = (sensing.MeasurementFrame.__dict__["rel_prefix"].func, sensing._chain_to,
           core.describe_clash, harness._json_default)

#: argv: scenario file, output directory, result file
COMMANDS = """
import json, os, sys
import numpy, scipy.linalg  # third-party imports stay outside the hook
path, out, result = sys.argv[1:]
entered = set()
sys.setprofile(lambda frame, event, arg: event == "call" and entered.add(frame.f_code))
from platoonsec import cli
codes = [cli.main(["run", "--config", path, "--out", os.path.join(out, "run")]),
         cli.main(["monte-carlo", "--config", path, "--runs", "2",
                   "--out", os.path.join(out, "mc")]),
         cli.main(["check-feasibility", "--config", path]),
         cli.main(["bounds", "--config", path])]
sys.setprofile(None)
with open(result, "w", encoding="utf-8") as fh:
    json.dump([codes, [[os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name]
                       for c in entered]], fh)
"""


def _key(code):
    return os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name


def _written_functions() -> set:
    """Every function and lambda in the package's sources, nested ones too;
    class bodies and comprehensions are not functions."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            for code in stack.pop().co_consts:
                if isinstance(code, types.CodeType):
                    stack.append(code)
                    if (code.co_flags & inspect.CO_NEWLOCALS
                            and (code.co_name == "<lambda>" or not code.co_name.startswith("<"))):
                        found.add(_key(code))
    return found


def test_every_function_in_the_package_is_run_by_a_command(tmp_path):
    path = os.path.join(tmp_path, "scenario.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(baseline_doc(horizon=100), fh)  # keeps the test near 1 s
    result = os.path.join(tmp_path, "entered.json")
    subprocess.run([sys.executable, "-c", COMMANDS, path, str(tmp_path), result], check=True,
                   capture_output=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    with open(result, encoding="utf-8") as fh:
        codes, entered = json.load(fh)
    assert codes == [0, 0, 0, 0]
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    allowed = [vars(owner)[attr] for _, owner, attr in tracer.BOUNDARIES] + list(ALLOWED)
    unreached = (_written_functions() - {tuple(entry) for entry in entered}
                 - {_key(f.__code__) for f in allowed})
    assert not sorted(f"{pathlib.Path(f).name}:{line} {name}" for f, line, name in unreached)
