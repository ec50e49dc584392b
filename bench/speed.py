"""Machine-speed reference for the time metrics.

The machine these benchmarks share changes speed by 20-40% over tens of
seconds (other tenants on the same cores), which moves every raw time by
more than any useful bound. The runner therefore samples a fixed
reference workload all through the timed loop and reports each time
scaled by ``REF_S / (median of the nearest reference samples)``: the
time the program would take on a machine where the reference work takes
``REF_S``. The reference work is the benchmark's own LinClosure
(``oracle.py``) on inputs fixed here, so no change to hornkit can move
it; raw times are printed next to the scaled ones.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

import gen
import oracle as ora

#: nominal duration of one reference sample (its median on the 2-core
#: machine the bounds were set on)
REF_S = 0.008
#: reference samples taken around a measurement to scale it
NEAREST = 5


class Speed:
    def __init__(self):
        rng = random.Random(20140101)  # fixed: the reference never follows --seed
        self._horn = ora.Horn(200, gen.unit_horn(rng, 200, 600, (1, 2, 3)))
        self._queries = [rng.getrandbits(200) & rng.getrandbits(200) & rng.getrandbits(200)
                         for _ in range(40)]
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        for q in self._queries:
            self._horn.close(q)
        self.times.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def factor(self, t: float) -> float:
        """REF_S over the median of the NEAREST samples around time t."""
        i = bisect.bisect(self.times, t)
        lo = max(0, min(i - NEAREST // 2, len(self.times) - NEAREST))
        return REF_S / statistics.median(self.durations[lo:lo + NEAREST])
