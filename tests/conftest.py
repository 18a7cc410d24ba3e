"""Shared fixtures and helpers for the platoonsec test suite."""

import copy
import json

import numpy as np
import pytest

from platoonsec import core
from platoonsec.dynamics import desired_state_chain

# The five-vehicle baseline scenario used throughout the tests and docs:
# one interior vehicle (3) whose sensor is hit by a state-proportional
# random attack, adaptive saturation threshold, 20 m spacing.
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


def baseline_doc(**overrides):
    """A deep copy of the baseline scenario document with fields replaced."""
    doc = copy.deepcopy(BASELINE)
    doc.update(overrides)
    return doc


def strict_json(text: str):
    """``json.loads`` that refuses ``NaN`` and ``±Infinity``: every JSON
    artifact and every command's JSON output must be strict JSON."""
    def refuse(constant):
        raise ValueError(f"non-finite JSON value {constant}")
    return json.loads(text, parse_constant=refuse)


def string_overrides(n, attacked):
    """The long-string geometry over the baseline: L=2, b=2, random attack,
    20 m spacing, estimates started at the true states."""
    x0 = [200.0 + 20.0 * (n - 1), 10.0]
    deltas = [[20.0, 0.0]] * (n - 1)
    chain = desired_state_chain(np.array(x0), np.array(deltas)).tolist()
    return {"N": n, "b": 2, "delta_x": deltas, "x0": x0, "x_init": chain,
            "x_hat_init": chain,
            "attack": {"set": attacked, "kind": "random", "params": {"scale": 1.0}}}


@pytest.fixture
def baseline_config():
    return core.load_scenario(baseline_doc())
