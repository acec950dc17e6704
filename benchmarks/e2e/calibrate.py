"""In-run speed calibration.

The boxes this benchmark runs on change speed by 30-50% for minutes at
a time (measured: a fixed pure-Python loop took 0.16 s, then 0.11 s for
the rest of the session, and every workload moved with it), which no
regression bound of 25% or less survives.  So every run times a fixed
kernel — interpreter loop, object/string/JSON/regex churn, NumPy
gather and scatter-add: the kinds of work the program does — between
its ops, twice a second, and reports its timings in *calibrated
seconds*.  The kernel is the benchmark's own code, so a change to the
program cannot move it; a slower program still reads slower.

An op's time is its best of n timings, so it is scaled by the kernel
quantile the best of n draws sits at, 1 / (n + 1): the median for a
single timing, the fifth for the best of four passes, close to the
kernel's own best for a warm op timed forty times.  Scaling everything
by the kernel's best instead — the best of fifty 38 ms samples finds a
quiet moment in a spell where no 0.3 s op does — spread ``suite_s``
9% between runs whose matched figure spread 2% (``service_mix``).
"""

from __future__ import annotations

import json
import re
import time

import numpy as np

#: The kernel's time on the reference box (2-core Xeon 2.1 GHz VM) at its
#: faster speed; calibrated seconds equal wall seconds there.
NOMINAL_S = 0.038

#: Seconds between kernel samples taken while ops run (7% of the run).
INTERVAL_S = 0.5


class Calibrator:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._values = rng.standard_normal(500_000)
        self._index = rng.integers(0, 500_000, 500_000)
        self._pattern = re.compile(r"(\w+)\[(\d+)\]\s*=\s*(\w+);")
        self._text = "\n".join(f"buf{i}[{i % 17}] = val{i};" for i in range(2000))
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(250_000):
            total += i * i % 7
        objects = [(i, f"n{i}", (i, i + 1)) for i in range(5000)]
        table = {entry[1]: entry for entry in objects}
        json.loads(json.dumps(objects))
        total += sum(int(m.group(2)) for m in self._pattern.finditer(self._text))
        "".join(f"{key}:{entry[0]}\n" for key, entry in table.items())
        products = self._values[self._index] * self._values
        np.add.at(np.zeros(1000), self._index % 1000, products)
        self._last = time.perf_counter()
        self.samples.append(self._last - start)

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def burst(self, count: int = 5) -> None:
        """``count`` back-to-back samples."""
        for _ in range(count):
            self.sample()

    def scale(self, timings: int = 1) -> float:
        """Factor from wall seconds to calibrated seconds for the best of
        ``timings`` timings of an op."""
        ordered = sorted(self.samples)
        position = (len(ordered) - 1) / (timings + 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        kernel = ordered[low] + (ordered[high] - ordered[low]) * (position - low)
        return NOMINAL_S / kernel
