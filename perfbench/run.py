"""platoonsec benchmark: one workload per invocation, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports ``platoonsec`` from its
``src`` directory.  With ``--trace 0`` it prints the end-to-end metrics;
with ``--trace 1`` it runs the workload untraced for half the time and
traced for the other half and prints the per-module metrics.  Every
operation is checked outside its timed part.  The last line of standard
output is one JSON object; details, artifacts and spans go to
``.perfbench_out/<workload>/``.  Exits 2 when the checkout has no
``src/platoonsec``.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("ensemble", "long_string", "sweep", "certify")

#: the benchmark is one caller, so BLAS and OpenMP get one thread
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
#: fresh processes timed for setup_s; the median is reported
SETUP_REPEATS = 7
#: a tail percentile needs at least this many samples beyond it
TAIL_BEYOND = 10
#: and goes no higher than this: beyond it, the few worst stalls of the
#: shared host in a run, not the program, set the value
TAIL_MAX_PCT = 95.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("vehicle_steps_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("write_s", "s"),
    ("peak_rss_mb", "MB"),
)

WRITERS = ("harness.write_trace_csv", "harness.write_detection_csv",
           "harness.write_json", "harness.summarize_run")
RULES = ("pairwise", "innovation", "exhaustion", "completion")


def per_layer_units(span_names) -> list:
    """Every per-module metric with its unit, in report order."""
    units = []
    for name in span_names:
        units += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    units += [("core.fuse_sets.per_vehicle_step", "ratio"),
              ("detector.pass_through_ratio", "ratio")]
    units += [(f"detector.rules_fired.{r}", "count") for r in RULES]
    for name in WRITERS:
        units += [(f"{name}.bytes", "B"), (f"{name}.rows", "count")]
    units += [("harness.run_simulation.vehicle_steps", "count"),
              ("harness.run_simulation.trace_list_mb", "MB"),
              ("trace.sim_children_share", "ratio"),
              ("trace.overhead_ratio", "ratio")]
    return units


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


class SetupProbe:
    """Set-up time of fresh processes: import platoonsec and load every
    scenario document of the workload.  The probes are spread over the run,
    between operations, so their median follows the machine over the whole
    run rather than one moment of it."""

    def __init__(self, docs: list, workdir: str):
        self.docs_path = os.path.join(workdir, "setup_docs.json")
        with open(self.docs_path, "w", encoding="utf-8") as fh:
            json.dump(docs, fh)
        self.times = []

    def _probe(self) -> None:
        probe = os.path.join(HERE, "setup_probe.py")
        done = subprocess.run([sys.executable, probe, ROOT, self.docs_path],
                              capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-500:]}")
        self.times.append(float(done.stdout.strip().splitlines()[-1]))

    def __call__(self, progress: float) -> None:
        """Probe while the run is further along than the probes."""
        while len(self.times) < min(SETUP_REPEATS, SETUP_REPEATS * progress + 1):
            self._probe()


def tail(samples: list) -> tuple:
    """(value, percentile): the highest sample with at least TAIL_BEYOND
    samples above it, at most the TAIL_MAX_PCT percentile, or the median
    when there are too few samples."""
    xs = sorted(samples)
    n = len(xs)
    rank = min(n - 1 - TAIL_BEYOND, math.floor(TAIL_MAX_PCT / 100.0 * (n - 1)))
    if rank < (n - 1) / 2:
        return statistics.median(xs), 50.0
    return xs[rank], 100.0 * rank / (n - 1)


class Phase:
    """Operations of one workload run until their own time reaches the run's
    length, each checked.  Checks, set-up probes and collections between
    operations do not count toward the length."""

    def __init__(self):
        self.results = []
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run(self, workload, seconds: float, first_rep: int, tracer=None, after=None,
            between=None) -> int:
        measured = 0.0
        # checks, probes and collections add about a fifth to the measured
        # time; the wall limit only ends runs whose operations fail at once
        wall_limit = time.perf_counter() + 1.5 * seconds + 20.0
        rep = first_rep
        while rep == first_rep or (measured < seconds and time.perf_counter() < wall_limit):
            if between:
                between(measured / seconds)
            # each operation starts from the same collector state, as a
            # fresh process would; the collection is outside the timed part
            gc.collect()
            t0 = time.perf_counter()
            span = tracer.begin_op(rep) if tracer else None
            try:
                res = workload.op(rep)
            except Exception as exc:  # an operation failure is counted, not fatal
                res = None
                problems = [f"operation {rep} raised {type(exc).__name__}: {exc}"]
            finally:
                if tracer:
                    tracer.end_op(span)
                measured += time.perf_counter() - t0
            if res is not None:
                if after:
                    after(res)
                try:
                    problems = workload.check(rep, res)
                except Exception as exc:
                    problems = [f"check of operation {rep} raised {type(exc).__name__}: {exc}"]
                res.payload = None
                self.results.append(res)
            self.attempted += workload.operations
            if problems:  # one problem per failed operation at most
                self.failed += min(len(problems), workload.operations)
                self.failures += problems[:5]
            rep += 1
        return rep


def end_to_end(phase: Phase, setup_times: list) -> tuple:
    """Times per operation are means over the run: the machine's speed
    switches between a fast and a slow state every few seconds, and a mean
    follows the share of slow time smoothly where a median jumps between
    the two states."""
    rs = phase.results
    latencies = [x for r in rs for x in r.latencies]
    tail_ms, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.fmean(r.wall for r in rs),
        "vehicle_steps_per_s": sum(r.steps for r in rs) / sum(r.sim for r in rs),
        "op_ms_p50": 1e3 * statistics.median(latencies),
        "op_ms_tail": 1e3 * tail_ms,
        "write_s": statistics.fmean(r.write for r in rs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"op_ms_tail": f"p{tail_pct:.2f} of {len(latencies)} operations",
             "setup_s": f"median of {len(setup_times)} fresh processes",
             "wall_s": f"mean of {len(rs)} timed units"}
    return metrics, notes


def deep_size(obj, seen: set) -> int:
    """Bytes held by a trace list, counting each shared object once."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, (tuple, list, frozenset)):
        size += sum(deep_size(x, seen) for x in obj)
    elif hasattr(type(obj), "__slots__"):
        size += sum(deep_size(getattr(obj, s), seen) for s in type(obj).__slots__)
    return size


class LayerCounters:
    """Counts taken from the calls the tracer captured, after each operation."""

    def __init__(self):
        self.rules = dict.fromkeys(RULES, 0)
        self.bytes = dict.fromkeys(WRITERS, 0)
        self.rows = dict.fromkeys(WRITERS, 0)
        self.vehicle_steps = 0
        self.trace_bytes = []

    def absorb(self, captured: list) -> None:
        for name, args, result in captured:
            if name == "harness.run_simulation":
                config, traces = args[0], result
                self.vehicle_steps += config.N * config.horizon
                for tr in traces:
                    for flags in tr.fired:
                        for rule, fired in zip(RULES, flags):
                            self.rules[rule] += fired
                self.trace_bytes.append(deep_size(traces, set()))
            elif name == "harness.summarize_run":
                config, traces = args[0], args[1]
                self.bytes[name] += len(json.dumps(result))
                self.rows[name] += len(traces) * config.N
            else:
                with open(args[0], "rb") as fh:
                    data = fh.read()
                self.bytes[name] += len(data)
                self.rows[name] += data.count(b"\n")
        captured.clear()


def per_layer(tracer, counters: LayerCounters, operations: int,
              untraced: Phase, traced: Phase) -> tuple:
    from tracer import SPAN_NAMES
    totals = tracer.totals()
    metrics = {}
    for name in SPAN_NAMES:
        calls, self_s = totals[name]
        metrics[f"{name}.calls"] = calls / operations
        metrics[f"{name}.self_s"] = self_s / operations
    vehicle_steps = counters.vehicle_steps
    fuse_calls = totals["core.fuse_sets"][0]
    metrics["core.fuse_sets.per_vehicle_step"] = fuse_calls / vehicle_steps if vehicle_steps else 0.0
    detector_calls = tracer.detector_calls
    metrics["detector.pass_through_ratio"] = (
        tracer.detector_pass_through / detector_calls if detector_calls else 0.0)
    for rule in RULES:
        metrics[f"detector.rules_fired.{rule}"] = counters.rules[rule] / operations
    for name in WRITERS:
        metrics[f"{name}.bytes"] = counters.bytes[name] / operations
        metrics[f"{name}.rows"] = counters.rows[name] / operations
    metrics["harness.run_simulation.vehicle_steps"] = vehicle_steps / operations
    sizes = counters.trace_bytes
    metrics["harness.run_simulation.trace_list_mb"] = (
        statistics.fmean(sizes) / 2 ** 20 if sizes else 0.0)
    sim_total, beneath, sim_self = tracer.simulation_closure()
    metrics["trace.sim_children_share"] = beneath / sim_total if sim_total else 0.0
    metrics["trace.overhead_ratio"] = (
        statistics.median(r.wall for r in traced.results)
        / statistics.median(r.wall for r in untraced.results))
    closure_gap = abs(beneath + sim_self - sim_total)
    problems = []
    if closure_gap > 1e-9 * max(1.0, sim_total):
        problems.append(f"span self times miss the simulation time by {closure_gap:.3e}s")
    notes = {"trace.sim_children_share":
             f"children {beneath:.6f}s + run_simulation self {sim_self:.6f}s "
             f"= traced simulation {sim_total:.6f}s"}
    return metrics, notes, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        fail("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "platoonsec", "__init__.py")):
        fail(f"no platoonsec sources under {SRC}; run from a source checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import platoonsec
    if os.path.dirname(os.path.dirname(os.path.abspath(platoonsec.__file__))) != SRC:
        fail(f"imported platoonsec from {platoonsec.__file__}, not from {SRC}")
    import workloads

    workdir = os.path.join(OUT, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    with open(os.path.join(HERE, "reference.json"), "r", encoding="utf-8") as fh:
        reference = json.load(fh)
    workload = workloads.make(args.workload, args.seed, workdir, reference)
    env = environment()
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas/omp threads=1")

    units = dict(END_TO_END)
    untraced = Phase()
    if args.trace == 0:
        setup = SetupProbe(workload.setup_docs(), workdir)
        untraced.run(workload, args.seconds, 0, between=setup)
        setup(1.0)
        phases = [untraced]
    else:
        from tracer import SPAN_NAMES, Tracer
        tracer = Tracer()
        counters = LayerCounters()
        traced = Phase()
        rep = untraced.run(workload, args.seconds / 2, 0)
        traced.run(workload, args.seconds / 2, rep, tracer,
                   after=lambda res: counters.absorb(tracer.captured))
        phases = [untraced, traced]
    failures = [f for p in phases for f in p.failures]
    if not all(p.results for p in phases):
        for failure in failures[:20]:
            print(f"FAIL {failure.strip()}")
        fail("no operation completed, so there is nothing to measure")
    if args.trace == 0:
        metrics, notes = end_to_end(untraced, setup.times)
        problems = []
    else:
        operations = len(traced.results) * workload.operations
        units = dict(per_layer_units(SPAN_NAMES))
        metrics, notes, problems = per_layer(tracer, counters, operations,
                                             untraced, traced)
        tracer.write(os.path.join(workdir, "spans.npz"))

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    failures += problems
    correct = failed == 0 and not problems
    for failure in failures[:20]:
        print(f"FAIL {failure.strip()}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {units[name]}{note}")
    print(f"fail_ratio {failed / attempted:.6g} ratio  ({failed} of {attempted} operations)")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    with open(os.path.join(workdir, f"result-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"args": vars(args), "environment": env, "notes": notes,
                   "failures": failures, **result,
                   "samples": [{"wall": r.wall, "sim": r.sim, "write": r.write,
                                "steps": r.steps, "lat": r.latencies}
                               for p in phases for r in p.results],
                   "setup_times": setup.times if args.trace == 0 else []}, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
