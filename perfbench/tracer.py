"""Span recording around calls into platoonsec, installed from outside the
package by replacing module attributes and restoring them afterwards.

Every wrapped call records one span: name, start, end, parent span and the
benchmark operation it belongs to.  Spans are kept in compact arrays (a
long_string operation records about 200k of them) and written out once at
the end.  A span's self time is its duration minus the durations of its
direct children, so the self times of a subtree add up to its root's
duration exactly.
"""

import json
import time
from array import array

import numpy as np
import scipy.linalg

from platoonsec import controller, core, detector, harness, observer, rng, sensing

#: (span name, namespace object, attribute).  ``harness`` imports
#: ``fuse_sets``, ``desired_state_chain``, ``reference_step`` and
#: ``advance_deltas`` by name, so those are replaced in its namespace; the
#: other modules are called through their module attribute.
BOUNDARIES = (
    ("core.load_scenario", core, "load_scenario"),
    ("core.fuse_sets", harness, "fuse_sets"),
    ("rng.reposition", rng.RunRandom, "process"),
    ("rng.reposition", rng.RunRandom, "measurement"),
    ("rng.reposition", rng.RunRandom, "attack"),
    ("dynamics.desired_state_chain", harness, "desired_state_chain"),
    ("dynamics.reference_step", harness, "reference_step"),
    ("dynamics.advance_deltas", harness, "advance_deltas"),
    ("sensing.measure", sensing, "measure"),
    ("sensing.sample_noise", sensing, "sample_noise"),
    ("sensing.stack_measurements", sensing, "stack_measurements"),
    ("sensing.estimate_based_measurement", sensing, "estimate_based_measurement"),
    ("detector.detector_step", detector, "detector_step"),
    ("observer.measurement_update_v1", observer, "measurement_update_v1"),
    ("observer.rho_update", observer, "rho_update"),
    ("observer.measurement_update_v2", observer, "measurement_update_v2"),
    ("observer.tau_update", observer, "tau_update"),
    ("observer.lambda_update", observer, "lambda_update"),
    ("observer.nearest_trusted", observer, "nearest_trusted"),
    ("observer.design_threshold", observer, "design_threshold"),
    ("observer.static_threshold_interval", observer, "static_threshold_interval"),
    ("controller.control_all", harness, "_control_all"),
    ("controller.check_gains", controller, "check_gains"),
    ("controller.block_spectrum", controller, "block_spectrum"),
    ("controller.iss_certificate", controller, "iss_certificate"),
    ("controller.lyapunov_series", controller, "lyapunov_series"),
    ("controller.solve_discrete_lyapunov", scipy.linalg, "solve_discrete_lyapunov"),
    ("harness.run_simulation", harness, "run_simulation"),
    ("harness.phi_pair", harness, "_phi_pair"),
    ("harness.monte_carlo", harness, "monte_carlo"),
    ("harness.feasibility_report", harness, "feasibility_report"),
    ("harness.summarize_run", harness, "summarize_run"),
    ("harness.write_trace_csv", harness, "write_trace_csv"),
    ("harness.write_detection_csv", harness, "write_detection_csv"),
    ("harness.write_json", harness, "write_json"),
    ("harness.write_monte_carlo_dir", harness, "write_monte_carlo_dir"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in BOUNDARIES))
OP = "op"
SIMULATION = "harness.run_simulation"


class Tracer:
    """Records spans of the calls made between ``begin_op`` and ``end_op``."""

    def __init__(self):
        self.names = [OP, *SPAN_NAMES]
        self._ids = {name: k for k, name in enumerate(self.names)}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self._op_id = -1
        #: calls whose arguments or results the benchmark inspects after the
        #: operation, outside the timed region: (span name, args, result)
        self.captured = []
        self.detector_calls = 0
        self.detector_pass_through = 0
        self._wrappers = [(owner, attr, owner.__dict__[attr],
                           self._wrap(name, owner.__dict__[attr]))
                          for name, owner, attr in BOUNDARIES]

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def begin_op(self, op_id: int) -> int:
        """Install the wrappers and open the operation's root span; the
        correctness check between operations stays untraced."""
        self._install()
        self.captured.clear()
        self._op_id = op_id
        idx = self._open(self._ids[OP])
        self.start[idx] = time.perf_counter()
        return idx

    def end_op(self, idx: int) -> None:
        self._close(idx, self.start[idx], time.perf_counter())
        self._op_id = -1
        self._uninstall()

    def _wrap(self, name: str, fn):
        name_id = self._ids[name]
        open_, close, clock = self._open, self._close, time.perf_counter
        captured = self.captured
        capture = name in ("harness.run_simulation", "harness.summarize_run",
                           "harness.write_trace_csv", "harness.write_detection_csv",
                           "harness.write_json")

        if name == "detector.detector_step":
            def traced(*args, **kwargs):
                idx = open_(name_id)
                t0 = clock()
                try:
                    res = fn(*args, **kwargs)
                finally:
                    close(idx, t0, clock())
                self.detector_calls += 1
                if res.sets is args[1]:
                    self.detector_pass_through += 1
                return res
        elif capture:
            def traced(*args, **kwargs):
                idx = open_(name_id)
                t0 = clock()
                try:
                    res = fn(*args, **kwargs)
                finally:
                    close(idx, t0, clock())
                captured.append((name, args, res))
                return res
        else:
            def traced(*args, **kwargs):
                idx = open_(name_id)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx, t0, clock())
        return traced

    def _install(self) -> None:
        for owner, attr, _, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)

    def _uninstall(self) -> None:
        for owner, attr, original, _ in self._wrappers:
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict:
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        op = np.array(self.op, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return {"start": start, "end": end, "name": name, "parent": parent,
                "op": op, "dur": dur, "self": dur - child}

    def totals(self) -> dict:
        """Per span name: call count and summed self time over all spans."""
        a = self.arrays()
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        self_s = np.bincount(a["name"], weights=a["self"], minlength=k)
        return {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(self.names)}

    def simulation_closure(self) -> tuple:
        """(total run_simulation time, self time of the spans beneath it,
        run_simulation's own self time).  Spans nest on one thread, so a span
        lies beneath a run_simulation span exactly when it starts inside it."""
        a = self.arrays()
        is_sim = a["name"] == self._ids[SIMULATION]
        sim_start, sim_end = a["start"][is_sim], a["end"][is_sim]
        total = float(a["dur"][is_sim].sum())
        own = float(a["self"][is_sim].sum())
        if not len(sim_start):
            return 0.0, 0.0, 0.0
        k = np.searchsorted(sim_start, a["start"], side="right") - 1
        inside = (k >= 0) & ~is_sim
        inside[inside] = a["start"][inside] < sim_end[k[inside]]
        return total, float(a["self"][inside].sum()), own

    def write(self, path: str) -> None:
        a = self.arrays()
        np.savez(path, names=np.array(json.dumps(self.names)),
                 start=a["start"], end=a["end"], name=a["name"],
                 parent=a["parent"], op=a["op"])
