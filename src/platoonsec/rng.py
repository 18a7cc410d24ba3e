"""Counter-based random streams for reproducible simulation runs.

Every draw site is addressed by the tuple ``(seed, run, t, vehicle, stream)``
so a run produces the same numbers no matter how many runs execute, in what
order, or on which thread.  Streams are backed by Philox, whose 256-bit
counter we key directly.

:class:`RunRandom` hands out one shared generator, repositioned once per
draw site, so two sites cannot be drawn from side by side.  A step's
sensing takes it whole: with an attack set it sits at the attack site
``(seed, run, t, 0, STREAM_ATTACK)``, and ``sensing.measure`` draws
the measurement noise first, then the random attack's normals;
``STREAM_MEASURE`` is drawn only in attack-free runs.  The tests compare
its draws with ``stream_rng`` in ``tests/oracles.py``.
"""

import numpy as np

STREAM_PROCESS = 0
STREAM_MEASURE = 1
STREAM_ATTACK = 2

_MASK = 0xFFFFFFFFFFFFFFFF


class RunRandom:
    """All random streams of one simulation run.

    Holds a single Philox instance keyed by ``(seed, run)`` and repositions
    its counter for each draw site, which avoids per-site generator
    construction in the hot loop.  The state it sets is a dict of plain
    Python ints built once here: the setter reads ints faster than numpy
    arrays, and an empty buffer (``buffer_pos`` 4, no cached ``uint32``)
    makes every site start fresh whatever was drawn before.  Every method
    returns the same generator, positioned at the site asked for last.
    """

    def __init__(self, seed: int, run: int = 0):
        self.seed = int(seed)
        self.run = int(run)
        key = [self.seed & _MASK, self.run & _MASK]
        self._bitgen = np.random.Philox(key=np.array(key, dtype=np.uint64))
        self._gen = np.random.Generator(self._bitgen)
        self._position = {"counter": [0, 0, 0, 0], "key": key}
        self._state = {"bit_generator": "Philox", "state": self._position,
                       "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def at(self, t: int, vehicle: int, stream: int) -> np.random.Generator:
        self._position["counter"] = [0, t & _MASK, vehicle & _MASK, stream & _MASK]
        self._bitgen.state = self._state
        return self._gen

    def process(self, t: int) -> np.random.Generator:
        return self.at(t, 0, STREAM_PROCESS)

    def measurement(self, t: int) -> np.random.Generator:
        return self.at(t, 0, STREAM_MEASURE)

    def attack(self, t: int) -> np.random.Generator:
        return self.at(t, 0, STREAM_ATTACK)
