"""The four benchmark workloads: their scenario documents, one timed
operation each, and the correctness gate applied to every operation.

Operations call the library through module attributes (``harness.X``,
``core.X``) so that the traced run sees them; document generation uses names
bound at import, which stay untraced.
"""

import hashlib
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from platoonsec import core, harness
from platoonsec.controller import check_gains
from platoonsec.core import DetectionSets
from platoonsec.dynamics import desired_state_chain, plant_norm

#: the five-vehicle baseline scenario of the test suite (one interior
#: vehicle, random attack on sensor 3, adaptive threshold, 20 m spacing)
BASELINE = {
    "N": 5, "L": 2, "b": 1, "T": 0.01, "q": 300.0,
    "epsilon": 0.1, "mu": 0.1, "g_s": 50.0, "g_v": 50.0,
    "threshold_mode": {"mode": "adaptive"},
    "attack": {"set": [3], "kind": "random", "params": {"scale": 1.0}},
    "horizon": 500, "seed": 20260823,
    "delta_x": [[20.0, 0.0], [20.0, 0.0], [20.0, 0.0], [20.0, 0.0]],
    "x0": [200.0, 10.0],
    "x_init": [[200.0, 10.0], [100.0, 8.0], [50.0, 6.0], [20.0, 4.0], [0.0, 2.0]],
}

ENSEMBLE_RUNS = 10
SWEEP_PASS = 64
CERTIFY_HORIZON = 500
#: ``bound_violations`` tolerance, as in ``summarize_run`` and acceptance 1
BOUND_SLACK = 1e-9
LYAPUNOV_RESIDUAL_MAX = 1e-8
SPECTRUM_GAP_MAX = 1e-9


def derive_seed(seed: int, salt: str) -> int:
    """A 31-bit scenario seed for one workload, fixed by the benchmark seed."""
    digest = hashlib.sha256(f"{salt}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def string_doc(n: int, attacked: list, horizon: int) -> dict:
    """The long-string geometry: L=2, b=2, random attack, 20 m spacing, and
    estimates started at the true states so the initial error is within q."""
    x0 = [200.0 + 20.0 * (n - 1), 10.0]
    deltas = [[20.0, 0.0]] * (n - 1)
    chain = desired_state_chain(np.array(x0), np.array(deltas)).tolist()
    return dict(BASELINE, N=n, b=2, horizon=horizon, delta_x=deltas, x0=x0,
                x_init=chain, x_hat_init=chain,
                attack={"set": attacked, "kind": "random", "params": {"scale": 1.0}})


def sweep_doc(rng: np.random.Generator, index: int) -> dict:
    """One short random scenario, same distribution as acceptance criterion 2."""
    n = int(rng.integers(5, 10))
    L = int(rng.integers(1, min(3, (n - 1) // 2) + 1))
    b = int(rng.integers(1, L + 1))
    T = float(rng.uniform(0.005, 0.02))
    q = float(rng.uniform(100.0, 500.0))
    eps = float(rng.uniform(0.01, 0.3))
    mu = float(rng.uniform(0.01, 0.3))
    while True:
        g_v = float(rng.uniform(5.0, 0.45 / T))
        g_s = float(rng.uniform(5.0, 80.0))
        if check_gains(g_s, g_v, T, n).ok:
            break
    kind = ("random", "dos", "bias", "replay")[index % 4]
    params = {"start": int(rng.integers(0, 8))}
    if kind == "random":
        params["scale"] = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
    elif kind == "bias":
        beta_max = plant_norm(T) * q + eps + (L + 1) * mu
        mag = float(np.exp(rng.uniform(np.log(0.1 * 3 * mu), np.log(10.0 * beta_max))))
        ang = float(rng.uniform(0.0, 2 * np.pi))
        params["offset"] = [mag * math.cos(ang), mag * math.sin(ang)]
    elif kind == "replay":
        params["record_len"] = int(rng.integers(1, 10))
    attacked = sorted(int(v) for v in rng.choice(np.arange(1, n + 1), size=b, replace=False))
    pos = rng.uniform(0.0, 0.6 * q / math.sqrt(2.0), size=n)
    vel = rng.uniform(-10.0, 10.0, size=n)
    x_init = [[float(p), float(v)] for p, v in zip(pos, vel)]
    return {
        "N": n, "L": L, "b": b, "T": T, "q": q, "epsilon": eps, "mu": mu,
        "g_s": g_s, "g_v": g_v,
        "threshold_mode": {"mode": "adaptive" if index % 2 else "static"},
        "attack": {"set": attacked, "kind": kind, "params": params},
        "horizon": int(rng.integers(8, 21)),
        "seed": int(rng.integers(2 ** 31)),
        "delta_x": [[20.0, 0.0]] * (n - 1),
        "x0": x_init[0],
        "x_init": x_init,
    }


# --------------------------------------------------------------------------
# correctness gate
# --------------------------------------------------------------------------

def check_run(config, traces) -> list:
    """Bound soundness, fault-freeness and monotone sets on every step and
    for every vehicle.  Returns one message per violated guarantee."""
    if len(traces) != config.horizon + 1:
        return [f"{len(traces)} trace rows for horizon {config.horizon}"]
    problems = []
    err = np.linalg.norm(np.stack([tr.x_hat - tr.x for tr in traces]), axis=2)
    gap = float(np.max(err - np.array([tr.alpha for tr in traces])))
    if not gap <= BOUND_SLACK:
        problems.append(f"estimation error exceeds alpha by {gap:.3e}")
    true_attacked = frozenset(config.attack.attacked)
    clean = frozenset(range(1, config.N + 1)) - true_attacked
    prev = (DetectionSets.empty(),) * config.N
    for tr in traces:
        for k, (s, p) in enumerate(zip(tr.sets, prev)):
            if s is p:  # an unchanged object was already checked
                continue
            if not (s.attacked <= true_attacked and s.trusted <= clean):
                problems.append(f"t={tr.t} vehicle {k + 1}: sets not fault-free")
            if not (s.attacked >= p.attacked and s.trusted >= p.trusted):
                problems.append(f"t={tr.t} vehicle {k + 1}: sets shrank")
        prev = tr.sets
        if len(problems) > 10:
            break
    return problems


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

@dataclass
class OpResult:
    """Timings of one operation, and what its correctness check needs."""
    wall: float = 0.0          # scenario documents to last artifact written
    sim: float = 0.0           # inside run_simulation / monte_carlo
    steps: int = 0             # sum of N*H over simulated runs
    write: float = 0.0         # inside the artifact writers
    latencies: list = field(default_factory=list)  # per operation, seconds
    payload: object = None


class Workload:
    """One named workload.  ``op(rep)`` runs the ``rep``-th timed operation
    and ``check(rep, result)`` returns its failures, outside the timed part.
    ``operations`` is how many user-level operations one ``op`` holds."""

    name = ""
    operations = 1

    def __init__(self, seed: int, outdir: str):
        self.seed = derive_seed(seed, self.name)
        self.outdir = outdir
        self.digests = {}

    def setup_docs(self) -> list:
        raise NotImplementedError

    def op(self, rep: int) -> OpResult:
        raise NotImplementedError

    def check(self, rep: int, res: OpResult) -> list:
        raise NotImplementedError

    def path(self, name: str) -> str:
        return os.path.join(self.outdir, name)

    def _check_digest(self, rep: int, key: str, digest: str, reference: dict) -> list:
        """Operation 0 runs the reference seed, whose digest is pinned; later
        operations repeat one derived seed and must agree with each other."""
        if rep == 0:
            expected = reference.get(key)
        else:
            expected = self.digests.setdefault(key, digest)
        if digest != expected:
            return [f"{key} digest {digest[:12]} != expected {str(expected)[:12]}"]
        return []


class Ensemble(Workload):
    name = "ensemble"

    def __init__(self, seed, outdir, reference):
        super().__init__(seed, outdir)
        self.reference = reference
        self.verified = set()

    def setup_docs(self):
        return [BASELINE]

    def op(self, rep):
        base = BASELINE["seed"] if rep == 0 else self.seed
        t0 = time.perf_counter()
        cfg = core.load_scenario(BASELINE)
        t1 = time.perf_counter()
        summary = harness.monte_carlo(cfg, ENSEMBLE_RUNS, base)
        t2 = time.perf_counter()
        harness.write_monte_carlo_dir(self.outdir, cfg, summary)
        t3 = time.perf_counter()
        return OpResult(wall=t3 - t0, sim=t2 - t1, write=t3 - t2,
                        steps=ENSEMBLE_RUNS * cfg.N * cfg.horizon, latencies=[t3 - t0],
                        payload=(cfg, summary, base))

    def check(self, rep, res):
        cfg, summary, base = res.payload
        problems = self._check_digest(rep, "metrics.csv",
                                      file_digest([self.path("metrics.csv")]),
                                      self.reference)
        if base in self.verified:
            return problems  # same inputs and same digest as a checked operation
        # monte_carlo keeps no traces: replay each run and tie it to the summary
        phis = []
        for k in range(ENSEMBLE_RUNS):
            traces = harness.run_simulation(cfg, seed=base + k, run_index=k)
            problems += [f"run {k}: {p}" for p in check_run(cfg, traces)]
            if traces[-1].phi != summary.final_phi[k]:
                problems.append(f"run {k}: final phi differs from the ensemble summary")
            phis.append(np.array([tr.phi for tr in traces]))
        if not np.array_equal(sum(phis) / ENSEMBLE_RUNS, summary.phi):
            problems.append("ensemble phi differs from the replayed runs")
        self.verified.add(base)
        return problems


class LongString(Workload):
    name = "long_string"
    ARTIFACTS = ("trace.csv", "detection.csv")

    def __init__(self, seed, outdir, reference):
        super().__init__(seed, outdir)
        self.reference = reference
        self.doc = string_doc(101, [30, 70], 500)

    def setup_docs(self):
        return [self.doc]

    def op(self, rep):
        seed = self.doc["seed"] if rep == 0 else self.seed
        t0 = time.perf_counter()
        cfg = core.load_scenario(self.doc)
        t1 = time.perf_counter()
        traces = harness.run_simulation(cfg, seed=seed)
        t2 = time.perf_counter()
        harness.write_trace_csv(self.path("trace.csv"), traces, cfg.L)
        harness.write_detection_csv(self.path("detection.csv"), traces)
        summary = harness.summarize_run(cfg, traces)
        harness.write_json(self.path("summary.json"), summary)
        t3 = time.perf_counter()
        return OpResult(wall=t3 - t0, sim=t2 - t1, write=t3 - t2,
                        steps=cfg.N * cfg.horizon, latencies=[t3 - t0],
                        payload=(cfg, traces, summary))

    def check(self, rep, res):
        cfg, traces, summary = res.payload
        problems = check_run(cfg, traces)
        if summary["bound_violations"] != 0:
            problems.append(f"summary reports {summary['bound_violations']} bound violations")
        for name in self.ARTIFACTS:
            problems += self._check_digest(rep, name, file_digest([self.path(name)]),
                                           self.reference)
        return problems


class Sweep(Workload):
    """One ``op`` is a pass of SWEEP_PASS scenarios; each scenario (load plus
    run) is one operation, and the pass ends by writing their summaries."""

    name = "sweep"
    operations = SWEEP_PASS

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        self.rng = np.random.default_rng(self.seed)
        self.index = 0

    def _next_pass(self, rng, start):
        return [sweep_doc(rng, start + k) for k in range(SWEEP_PASS)]

    def setup_docs(self):
        return self._next_pass(np.random.default_rng(self.seed), 0)

    def op(self, rep):
        docs = self._next_pass(self.rng, self.index)
        self.index += SWEEP_PASS
        runs = []
        latencies = []
        sim = 0.0
        clock = time.perf_counter
        t0 = clock()
        for doc in docs:
            s0 = clock()
            cfg = core.load_scenario(doc)
            s1 = clock()
            traces = harness.run_simulation(cfg)
            s2 = clock()
            runs.append((cfg, traces))
            latencies.append(s2 - s0)
            sim += s2 - s1
        t1 = clock()
        summaries = [harness.summarize_run(cfg, traces) for cfg, traces in runs]
        harness.write_json(self.path("sweep.json"), {"scenarios": summaries})
        t2 = clock()
        steps = sum(cfg.N * cfg.horizon for cfg, _ in runs)
        return OpResult(wall=t2 - t0, sim=sim, write=t2 - t1, steps=steps,
                        latencies=latencies, payload=(runs, summaries))

    def check(self, rep, res):
        """One problem line per failing scenario."""
        runs, summaries = res.payload
        problems = []
        for k, ((cfg, traces), summary) in enumerate(zip(runs, summaries)):
            found = check_run(cfg, traces)
            if summary["bound_violations"] != 0:
                found.append(f"summary reports {summary['bound_violations']} bound violations")
            if found:
                problems.append(f"scenario {self.index - SWEEP_PASS + k}: " + "; ".join(found))
        return problems


class Certify(Workload):
    """check-feasibility on the long-string geometry at N=41, persisted as
    feasibility.json, followed by a run of the certified loop that writes
    the artifacts ``platoonsec run`` writes: trace.csv, detection.csv and
    summary.json."""

    name = "certify"

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        self.doc = string_doc(41, [12, 28], CERTIFY_HORIZON)

    def setup_docs(self):
        return [self.doc]

    def op(self, rep):
        seed = self.doc["seed"] if rep == 0 else self.seed
        clock = time.perf_counter
        t0 = clock()
        cfg = core.load_scenario(self.doc)
        report = harness.feasibility_report(cfg)
        w0 = clock()
        harness.write_json(self.path("feasibility.json"), report)
        t1 = clock()
        traces = harness.run_simulation(cfg, seed=seed)
        t2 = clock()
        harness.write_trace_csv(self.path("trace.csv"), traces, cfg.L)
        harness.write_detection_csv(self.path("detection.csv"), traces)
        summary = harness.summarize_run(cfg, traces)
        harness.write_json(self.path("summary.json"), summary)
        t3 = clock()
        return OpResult(wall=t3 - t0, sim=t2 - t1, write=(t1 - w0) + (t3 - t2),
                        steps=cfg.N * cfg.horizon, latencies=[t3 - t0],
                        payload=(cfg, report, traces, summary))

    def check(self, rep, res):
        cfg, report, traces, summary = res.payload
        problems = check_run(cfg, traces)
        loop = report["closed_loop"]
        if loop["schur"] is not True:
            problems.append("closed loop not Schur")
        if not loop.get("lyapunov_residual", math.inf) <= LYAPUNOV_RESIDUAL_MAX:
            problems.append(f"Lyapunov residual {loop.get('lyapunov_residual')}")
        if not loop["spectrum_gap"] <= SPECTRUM_GAP_MAX:
            problems.append(f"spectrum gap {loop['spectrum_gap']}")
        if not (report["gains"]["ok"] and report["threshold"]["feasible"]):
            problems.append("gains or threshold design infeasible")
        if summary["bound_violations"] != 0:
            problems.append(f"summary reports {summary['bound_violations']} bound violations")
        return problems


def make(name: str, seed: int, outdir: str, reference: dict) -> Workload:
    if name == "ensemble":
        return Ensemble(seed, outdir, reference["ensemble"])
    if name == "long_string":
        return LongString(seed, outdir, reference["long_string"])
    if name == "sweep":
        return Sweep(seed, outdir)
    return Certify(seed, outdir)

