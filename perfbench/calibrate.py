"""Speed calibration: a fixed kernel timed next to every operation.

The cores this benchmark runs on may be shared, and their effective speed
can drift by a third or more within a minute.  A time measured at one
moment says little about a time measured at another, but the ratio of an
operation's time to a fixed kernel's time, taken side by side, barely
moves.  So every reported time is scaled to the speed at which one pass of
this kernel takes ``REFERENCE_S``: ``reported = measured * REFERENCE_S /
kernel``.  The raw times are kept next to the scaled ones in the result
file.

The kernel mixes the four kinds of work the engine does: interpreted
Python, many small numpy calls, small BLAS products, and JSON encoding and
decoding.  Its inputs are fixed and do not depend on the workload seed.
"""

from __future__ import annotations

import json
import time

import numpy as np

REFERENCE_S = 0.0025


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._product = rng.normal(size=(2048, 16)), rng.normal(size=(16, 16))
        self._small = rng.normal(size=64)
        self._blob = json.dumps(rng.normal(size=2000).tolist())

    def run(self) -> float:
        """Seconds one pass of the kernel takes now."""
        a, b = self._product
        start = time.perf_counter()
        total = 0
        for i in range(3000):
            total += i * i
        for _ in range(200):
            self._small.sum()
            np.abs(self._small)
        for _ in range(4):
            np.linalg.norm(a @ b, axis=1)
        json.dumps(json.loads(self._blob))
        return time.perf_counter() - start

    def factor(self, samples: int = 5) -> float:
        """Scale factor to reference speed, from the median of a few passes."""
        passes = sorted(self.run() for _ in range(samples))
        return REFERENCE_S / passes[samples // 2]
