"""Host speed reference: timings scaled to a fixed speed of the host.

The benchmark runs on a share of a machine whose speed drifts with what
its neighbours run.  On a 2-vCPU host the speed flipped between a fast
and a slow state (about 1.7x apart for JSON decode) every second or so
in some minutes and stayed in one state for minutes in others, so raw
timings of two runs of the same code differed by more than any useful
regression bound.

A run therefore interleaves its load with short bursts of a fixed probe
with three parts: decode a JSON array of floats, an int64 matrix product,
and a pure-Python loop.  The probe runs no code of the program under
test, while no request is in flight: in the benchmark process between
segments of a quarter of a second of serving load, and in the sweep
process after each deploy-and-evaluate step.  In a fast spell the parts
speed up by different amounts (JSON decode and numpy by about half, the
Python loop by about a quarter), so each workload runs and is scaled by
the parts that track its own work (``PARTS``): the geometric mean of all
three for ``bulk``, whose time is mostly JSON decode and numpy, and the
Python loop for ``online`` and ``sweep``, whose time is mostly
interpreted Python.  A timing measured between two bursts is multiplied
by ``REFERENCE_S / t``, where ``t`` is the mean of the two bursts' probe
times: it reads as the time the same work takes when the probe takes
``REFERENCE_S``.  The raw timings and every burst are kept in the run
record.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import time

import numpy as np

#: The probe parts each workload's timings are scaled by.
PARTS = {
    "online": ("python",),
    "bulk": ("json", "numpy", "python"),
    "sweep": ("python",),
}
#: Probe time, in seconds, that scaled timings are expressed against:
#: about the probe's median on the 2-vCPU Xeon host this benchmark was
#: tuned on, in its usual (slower) state.
REFERENCE_S = {"online": 0.00036, "bulk": 0.00046, "sweep": 0.00036}
PROBES_PER_BURST = 5


class Speedometer:
    """Times bursts of the probe and turns pairs of them into factors."""

    def __init__(self, workload: str):
        rng = np.random.default_rng(0)
        self.parts = PARTS[workload]
        self.reference_s = REFERENCE_S[workload]
        self._body = json.dumps(rng.random(800).tolist())
        self._a = rng.integers(0, 1 << 20, size=(128, 64), dtype=np.int64)
        self._b = rng.integers(0, 1 << 20, size=(64, 64), dtype=np.int64)
        #: Probe time of each burst, seconds.
        self.bursts: list[float] = []

    def _json(self) -> None:
        json.loads(self._body)

    def _numpy(self) -> None:
        self._a @ self._b

    def _python(self) -> None:
        total = 0
        for i in range(4000):
            total += i * i

    def burst(self, count: int = PROBES_PER_BURST) -> float:
        """Probe time of one burst of ``count`` probes: the geometric mean
        over this workload's parts of each part's median time."""
        clock = time.perf_counter
        runs = [getattr(self, f"_{part}") for part in self.parts]
        times = [[] for _ in runs]
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                for run, kept in zip(runs, times):
                    start = clock()
                    run()
                    kept.append(clock() - start)
        finally:
            if enabled:
                gc.enable()
        value = math.prod(statistics.median(t) for t in times) ** (
            1.0 / len(times))
        self.bursts.append(value)
        return value

    def factor(self, before: float, after: float) -> float:
        """Scale for timings measured between bursts ``before`` and
        ``after``."""
        return self.reference_s / ((before + after) / 2.0)
