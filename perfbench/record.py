"""Compact per-phase records of completed requests.

A :class:`Recorder` is the load generators' sink: it passes each sample
through the correctness gate, then keeps only a few numbers per request
in flat arrays (op, latency, lateness, cache flag, batch size, answer
digest), plus the latest answered request per op for the hit probe.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, List, Optional, Sequence

from perfbench.checks import Gate, answers
from perfbench.loadgen import Sample

OPS = ("attach", "banks", "batch", "blinks", "create_network", "detach", "knk",
       "knk_multi", "rclique", "truss")


class Recorder:
    """Everything the metrics need from one phase's samples."""

    def __init__(self, gate: Gate, phase: str, digests: bool = False) -> None:
        self.gate = gate
        self.phase = phase
        self.op = array("B")
        self.latency_ms = array("d")
        self.late_ms = array("d")
        self.cached = array("B")
        self.items = array("H")
        #: request index -> hash of the answers (traced/untraced check)
        self.digests: Optional[Dict[int, int]] = {} if digests else None
        #: op -> the request of its latest ok response (hit probe)
        self.latest: Dict[str, Dict[str, Any]] = {}
        self.attempted = 0
        self.failed = 0

    def __call__(self, sample: Sample) -> None:
        resp = sample.response
        self.gate.observe(sample, self.phase)
        op = sample.request["op"]
        ok = isinstance(resp, dict) and resp.get("status") == "ok" and all(
            r.get("status") == "ok" for r in resp.get("results", ()))
        self.attempted += 1
        self.failed += not ok
        self.op.append(OPS.index(op))
        self.latency_ms.append(sample.latency_ms)
        self.late_ms.append(sample.late_ms)
        self.cached.append(isinstance(resp, dict) and resp.get("cached") is True)
        self.items.append(len(sample.request.get("queries", ())))
        if self.digests is not None and isinstance(resp, dict):
            self.digests[sample.index] = hash(repr(answers(resp)))
        if ok:
            self.latest[op] = sample.request

    def __len__(self) -> int:
        return len(self.op)

    def latencies(self, ops: Sequence[str], cached: Optional[bool] = None) -> List[float]:
        """Latencies of the given ops (optionally only hits or misses)."""
        codes = {OPS.index(o) for o in ops}
        return [
            lat for code, lat, hit in zip(self.op, self.latency_ms, self.cached)
            if code in codes and (cached is None or bool(hit) == cached)
        ]

    def batch_item_latencies(self) -> List[float]:
        code = OPS.index("batch")
        return [lat / n for c, lat, n in zip(self.op, self.latency_ms, self.items)
                if c == code]

    def count(self, ops: Sequence[str]) -> int:
        codes = {OPS.index(o) for o in ops}
        return sum(1 for c in self.op if c in codes)
