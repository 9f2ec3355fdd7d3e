"""Probes run in the pauses of the timed phase, off its clock.

A closed loop pauses (see ``loadgen.Pauser``) every :data:`PAUSE_EVERY_S`
seconds once nothing is in flight.  Each pause

1. times :data:`SLICES_PER_PAUSE` calibration slices (``calibrate.py``),
   so the slices sample the whole phase;
2. re-sends the latest answered request of each of the next
   :data:`HITS_PER_PAUSE` ops of a fixed cycle (:data:`HIT_MIX`); the
   timed phase already answered them and nothing invalidates them, so
   they are cache hits, and every workload gets ``cache_hit_p50_ms``;
3. attaches then detaches one probe owner's fresh private graph on
   :data:`~perfbench.workloads.PROBE_NETWORK`, a network no query uses,
   so its cache-epoch bumps leave the queried networks' cached answers
   alone; this gives ``attach_p50_ms``.

Spread over the whole phase, these samples see as much of the host's
time as the phase's own requests, rather than a few seconds after it.
An open loop keeps its schedule and does not pause; :meth:`Probes.finish`
then runs the pauses after it, :data:`GAP_S` apart, as it does for a
closed loop too short to reach :data:`MIN_PAUSES`.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, List

from perfbench.calibrate import Calibrator
from perfbench.loadgen import serial
from perfbench.workloads import PROBE_NETWORK, Inputs

PAUSE_EVERY_S = 0.5
SLICES_PER_PAUSE = 2
#: hits re-sent per pause, and their op mix per cycle.  Over half are
#: knk ops, so the median hit lands inside their cluster rather than
#: between two payload sizes.
HITS_PER_PAUSE = 8
HIT_MIX = {"knk": 16, "knk_multi": 5, "blinks": 2, "banks": 2, "rclique": 2,
           "truss": 2}
#: pauses a run makes at least, and their gap when run after the phase
MIN_PAUSES = 24
GAP_S = 0.2


def _dealt_hits() -> List[str]:
    """:data:`HIT_MIX` spread evenly over one cycle."""
    slots = sorted((i / n, op) for op, n in HIT_MIX.items() for i in range(n))
    return [op for _, op in slots]


class Probes:
    """The timed phase's pauser: calibration, cache hits, attaches."""

    def __init__(self, bench: Any, service: Any, timed: Any, cal: Calibrator) -> None:
        self.service = service
        self.timed = timed
        self.cal = cal
        self.hits = bench.recorder("hit_probe")
        self.attaches = bench.recorder("attach_probe")
        self.inputs: Inputs = bench.inputs
        self._ops = itertools.cycle(_dealt_hits())
        self._owners = itertools.cycle(self.inputs.probe_owners)
        self.pauses = 0
        self._next = time.perf_counter() + PAUSE_EVERY_S

    def due(self) -> bool:
        return time.perf_counter() >= self._next

    def pause(self) -> float:
        start = time.perf_counter()
        self.cal.time_slices(SLICES_PER_PAUSE)
        resend = [self.timed.latest[op]
                  for op in itertools.islice(self._ops, HITS_PER_PAUSE)
                  if op in self.timed.latest]
        serial(self.service.execute, resend, self.hits)
        owner = next(self._owners)
        serial(self.service.execute, [
            {"op": "attach", "network": PROBE_NETWORK, "owner": owner,
             "private": self.inputs.transient[owner]},
            {"op": "detach", "network": PROBE_NETWORK, "owner": owner},
        ], self.attaches)
        self.pauses += 1
        end = time.perf_counter()
        self._next = end + PAUSE_EVERY_S
        return end - start

    def finish(self) -> None:
        """Pause after the phase until :data:`MIN_PAUSES` were made."""
        while self.pauses < MIN_PAUSES:
            time.sleep(GAP_S)
            self.pause()

