"""Counter-based random streams for reproducible simulation runs.

Every draw site is addressed by the tuple ``(seed, run, t, vehicle, stream)``
so a run produces the same numbers no matter how many runs execute, in what
order, or on which thread.  Streams are backed by Philox, whose 256-bit
counter we key directly.

:class:`RunRandom` hands out one shared generator, repositioned per site,
so two sites cannot be drawn from side by side.  The simulation asks for
the measurement site and then the attack site of step ``t`` before it
measures; with an attack set, the measurement noise and the random
attack's normals are therefore both drawn at ``(seed, run, t, 0,
STREAM_ATTACK)``, and ``STREAM_MEASURE`` is drawn only in attack-free runs.
The tests compare its draws with ``stream_rng`` in ``tests/oracles.py``.
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
    construction in the hot loop.  Every method returns the same generator,
    positioned at the site asked for last.
    """

    def __init__(self, seed: int, run: int = 0):
        self.seed = int(seed)
        self.run = int(run)
        key = np.array([self.seed & _MASK, self.run & _MASK], dtype=np.uint64)
        self._bitgen = np.random.Philox(key=key)
        self._gen = np.random.Generator(self._bitgen)
        self._state = self._bitgen.state

    def at(self, t: int, vehicle: int, stream: int) -> np.random.Generator:
        st = self._state
        st["state"]["counter"][:] = (0, t & _MASK, vehicle & _MASK, stream & _MASK)
        st["buffer_pos"] = 4
        st["has_uint32"] = 0
        st["uinteger"] = 0
        self._bitgen.state = st
        return self._gen

    def process(self, t: int) -> np.random.Generator:
        return self.at(t, 0, STREAM_PROCESS)

    def measurement(self, t: int) -> np.random.Generator:
        return self.at(t, 0, STREAM_MEASURE)

    def attack(self, t: int) -> np.random.Generator:
        return self.at(t, 0, STREAM_ATTACK)
