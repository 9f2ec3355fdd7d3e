"""Host-speed calibration: a fixed interpreter loop timed during a run.

On a shared host the CPU a run gets is not equally fast all the time:
the same seed and code read up to 1.5x slower for minutes at a stretch,
with no stolen time to show for it, and a fixed pure-Python loop slowed
along with it (8 -> 12 ms per slice).  Every run therefore times
:data:`SLICE_LOOPS` iterations of a loop that touches nothing of the
program, in slices taken while the program has nothing in flight, and
reports each time metric scaled to a host on which one slice takes
:data:`NOMINAL_MS`:

    adjusted = raw * NOMINAL_MS / median(slice ms)

A change to the program moves the raw times and leaves the slices alone,
so it moves the adjusted figures by the same ratio; a host that runs
everything slower for a while moves both, and the adjustment cancels
most of it.

Each slice also records the CPU time the process's *other* threads used
meanwhile; if that exceeds :data:`MAX_OTHER_SHARE` of the slices' time,
something of the program was running beside the loop and made it look
slower (which would flatter the adjusted figures), so the run reports no
result.
"""

from __future__ import annotations

import statistics
import time
from array import array
from typing import List

#: iterations of one slice (about 7 ms on an idle 2-vCPU Xeon VM).  The
#: loop allocates ints, like the program does; a loop over cached small
#: ints that allocates nothing swung more with the host than the
#: program did (slices 7.3 to 12.2 ms against query_cold's 1.3x), and
#: over-corrected.
SLICE_LOOPS = 100_000
#: the slice time adjusted figures are scaled to
NOMINAL_MS = 7.0
#: sleep before a run of slices, so threads that just handed back a
#: result go idle first
SETTLE_S = 0.002
#: other threads may use at most this share of the slices' wall time
MAX_OTHER_SHARE = 0.1


def _loop(n: int) -> int:
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


class Calibrator:
    """Times calibration slices and turns them into a scale factor."""

    def __init__(self) -> None:
        self.slices_ms = array("d")
        self.other_cpu_s = 0.0

    def time_slices(self, n: int) -> List[float]:
        """Time ``n`` slices now, while the program has nothing in flight.

        Returns their times in ms.
        """
        time.sleep(SETTLE_S)
        out = []
        for _ in range(n):
            cpu, own = time.process_time(), time.thread_time()
            t = time.perf_counter()
            _loop(SLICE_LOOPS)
            out.append((time.perf_counter() - t) * 1000.0)
            self.other_cpu_s += max(0.0, (time.process_time() - cpu)
                                    - (time.thread_time() - own))
        self.slices_ms.extend(out)
        return out

    @property
    def slice_ms(self) -> float:
        """Median slice time of the run."""
        return statistics.median(self.slices_ms)

    @property
    def factor(self) -> float:
        """What raw times are multiplied by (qps divided by)."""
        return NOMINAL_MS / self.slice_ms

    @property
    def other_share(self) -> float:
        """CPU time other threads used during the slices, over their time."""
        return self.other_cpu_s * 1000.0 / sum(self.slices_ms)

    @property
    def valid(self) -> bool:
        return len(self.slices_ms) >= 10 and self.other_share <= MAX_OTHER_SHARE
