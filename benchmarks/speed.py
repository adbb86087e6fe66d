"""Machine-speed calibration for timings on a shared host.

On a host shared with other tenants the same Python code runs up to about
1.8x slower for seconds at a time (measured on the 2-core reference machine:
a fixed loop took 42-75 ms per 0.2 s sample, in runs of several seconds).
Medians inside one run cannot remove that, because a slow spell can last for
most of a run.

`SpeedProbe` runs a fixed piece of Python (dict stores and integer
arithmetic) in a background thread every `PERIOD_S` seconds and records that
thread's CPU time for it, which rises and falls with the host's speed but not
with waiting for the interpreter lock.  A measured interval is then reported
in reference seconds: its wall time times `NOMINAL_S` over the median probe
time sampled during it.  On the reference machine, interval medians over a
run moved by about 40% from run to run raw and by about 5% calibrated.

The probe shares the process with the program, so it costs the program about
one probe (roughly 0.25 ms) per period.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

PERIOD_S = 0.02
# slow spells last seconds, so a window this wide still follows them
MARGIN_S = 0.1
# median CPU time of one probe on the reference machine; reference seconds are scaled to it
NOMINAL_S = 2.5e-4


def _probe_work() -> None:
    table = {}
    acc = 0
    for i in range(2000):
        table[i & 255] = acc
        acc += i * i % 7


class SpeedProbe:
    def __init__(self):
        self._times: list[float] = []
        self._costs: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-probe", daemon=True)

    def _sample(self) -> None:
        while not self._stop.is_set():
            start = time.thread_time()
            _probe_work()
            cost = time.thread_time() - start
            self._times.append(time.perf_counter())
            self._costs.append(cost)
            self._stop.wait(PERIOD_S)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        """Median probe cost over [start, end] (widened by MARGIN_S) relative to NOMINAL_S."""
        lo = bisect.bisect_left(self._times, start - MARGIN_S)
        hi = bisect.bisect_right(self._times, end + MARGIN_S)
        if hi <= lo:
            # nothing sampled nearby: use the nearest samples on either side
            lo, hi = max(0, lo - 1), min(len(self._costs), hi + 1)
        return statistics.median(self._costs[lo:hi]) / NOMINAL_S

    def seconds(self, start: float, end: float) -> float:
        """Wall time of [start, end] in reference seconds."""
        return (end - start) / self.factor(start, end)
