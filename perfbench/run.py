"""Run one workload of the PPKWS benchmark and print its metrics.

    python3 perfbench/run.py --workload query_cold --seed 1 --seconds 25 --trace 0

Run from the repository root.  The workloads (see ``README.md`` here)
drive ``PPKWSService`` with default settings through ``execute``.

``--trace 0`` measures the end-to-end metrics: the program is set up
several times (``setup_s`` is the median), the last set-up serves the
timed phase, and the timed phase pauses every half second for the
probes of ``probes.py`` (calibration slices, cache hits, attaches).
Every time metric is reported scaled to the nominal host speed of
``calibrate.py``, and printed next to its raw value.  ``--trace 1``
measures the per-layer metrics: an untraced phase, then the same seed
again with the layer wrappers of ``layers.py`` installed; the ratio of
their query medians is the tracing overhead.  Both modes run the
correctness gate of ``checks.py`` and exit 1 if it fails.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are read from ``BENCHMARK.json``.  The full result (metadata,
sample counts, gate summary) goes to ``.perfbench/`` at the repository
root, with the span dump of a traced run next to it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from perfbench.loadgen import Pauser

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("query_cold", "hot_cache", "attach_churn")
#: calibration slices before the first set-up and after each
SETUP_SLICES = 5


def _revision() -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _declared() -> Dict[str, List[Tuple[str, str]]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: [(m["name"], m["unit"]) for m in spec[kind]]
        for kind in ("end_to_end", "per_layer")
    }


class Bench:
    """One workload: its inputs, its phases and the gate they feed."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        from perfbench import workloads
        from perfbench.checks import Gate

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.params = workloads.PARAMS[workload]
        self.inputs = workloads.build(workload, seed, seconds)
        self.gate = Gate(self.inputs)
        self.rng = random.Random(f"gate:{seed}")
        self.recorders: List[Any] = []

    def recorder(self, phase: str, digests: bool = False) -> Any:
        from perfbench.record import Recorder

        rec = Recorder(self.gate, phase, digests)
        self.recorders.append(rec)
        return rec

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self.recorders)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.recorders)

    # -- phases --------------------------------------------------------------
    def set_up(self) -> Tuple[Any, Any, float]:
        """Create the networks, attach the owners, warm the cache."""
        from repro import PPKWSService

        from perfbench.loadgen import serial
        from perfbench.workloads import setup_requests

        rec = self.recorder("setup")
        gc.collect()
        start = time.perf_counter()
        service = PPKWSService()
        serial(service.execute, setup_requests(self.inputs) + self.inputs.warmup, rec)
        return service, rec, time.perf_counter() - start

    def timed(self, service: Any, rec: Any, pauser: Optional[Pauser] = None) -> Any:
        """The timed phase; closed loops pause for ``pauser`` when due."""
        from repro.serving import ServiceExecutor

        from perfbench import loadgen

        gc.collect()
        if self.workload == "query_cold":
            return loadgen.closed_direct(service.execute, self.inputs.stream(),
                                         self.seconds, rec, pauser=pauser)
        executor = ServiceExecutor(service, workers=self.params["executor_workers"])
        try:
            if self.workload == "hot_cache":
                return loadgen.closed_pool(executor.submit, self.inputs.stream(),
                                           self.seconds, self.params["outstanding"], rec,
                                           pauser=pauser)
            return loadgen.open_loop(executor.submit, self.inputs.schedule, rec)
        finally:
            executor.shutdown(wait=True)

    def check(self, service: Any) -> int:
        """The sampled oracle checks; returns how many were made."""
        return self.gate.soundness(self.rng) + self.gate.portal_maps(service, self.rng)


def end_to_end(timed: Any, wall: float, others: Sequence[Any],
               setup_s: Sequence[float]) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The raw end-to-end metric values plus the percentiles behind them.

    ``others`` are the set-up and probe recorders: cache hits count from
    every phase; attaches count from every phase after set-up.
    """
    from perfbench.stats import percentile
    from perfbench.workloads import QUERY_OPS

    def lat(*ops: str) -> List[float]:
        return timed.latencies(ops)

    attaches = lat("attach") + [x for r in others if r.phase != "setup"
                                for x in r.latencies(("attach",))]
    hits = [x for r in (timed, *others) for x in r.latencies(QUERY_OPS, cached=True)]
    pct = {
        "query_p50_ms": percentile(lat(*QUERY_OPS), 0.5),
        "query_p95_ms": percentile(lat(*QUERY_OPS), 0.95),
        "blinks_p50_ms": percentile(lat("blinks"), 0.5),
        "banks_p50_ms": percentile(lat("banks"), 0.5),
        "rclique_p50_ms": percentile(lat("rclique"), 0.5),
        "truss_p50_ms": percentile(lat("truss"), 0.5),
        "knk_p50_ms": percentile(lat("knk", "knk_multi"), 0.5),
        "batch_item_p50_ms": percentile(timed.batch_item_latencies(), 0.5),
        "cache_hit_p50_ms": percentile(hits, 0.5),
        "attach_p50_ms": percentile(attaches, 0.5),
    }
    values = {name: p.value for name, p in pct.items()}
    values["setup_s"] = statistics.median(setup_s)
    values["query_qps"] = timed.count(QUERY_OPS) / wall
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values, pct


def adjusted(raw: Dict[str, float], factor: float) -> Dict[str, float]:
    """Raw values scaled to the nominal host speed (see ``calibrate.py``)."""
    out = {}
    for name, value in raw.items():
        if name.endswith("_ms") or name.endswith("_s"):
            value *= factor
        elif name.endswith("_qps"):
            value /= factor
        out[name] = value
    return out


def run_untraced(bench: Bench) -> Dict[str, Any]:
    from perfbench.calibrate import NOMINAL_MS, Calibrator
    from perfbench.loadgen import serial
    from perfbench.probes import Probes
    from perfbench.stats import p95_or_zero
    from perfbench.workloads import probe_setup_request

    # set-ups are scaled by the slices around each; the timed phase and
    # the probes by the slices of its pauses
    setup_cal, cal = Calibrator(), Calibrator()
    setup_times: List[float] = []
    setup_adjusted: List[float] = []
    setups: List[Any] = []
    service = None
    before = setup_cal.time_slices(SETUP_SLICES)
    for _ in range(bench.params["setup_reps"]):
        service = None  # free the previous set-up before building the next
        service, rec, seconds = bench.set_up()
        after = setup_cal.time_slices(SETUP_SLICES)
        setup_adjusted.append(seconds * NOMINAL_MS / statistics.median(before + after))
        before = after
        setup_times.append(seconds)
        setups.append(rec)
    serial(service.execute, [probe_setup_request(bench.inputs)], bench.recorder("probe_setup"))
    timed = bench.recorder("timed")
    probes = Probes(bench, service, timed, cal)
    run = bench.timed(service, timed, probes)
    probes.finish()
    others = setups + [probes.hits, probes.attaches]
    raw, pct = end_to_end(timed, run.wall, others, setup_times)
    checked = bench.check(service)
    values = adjusted(raw, cal.factor)
    values["setup_s"] = statistics.median(setup_adjusted)
    return {
        "values": values,
        "raw": raw,
        "pct": pct,
        "cal": cal,
        "setup_cal": setup_cal,
        "checked": checked,
        "detail": {
            "raw": raw,
            "calibration": {"slice_ms": cal.slice_ms, "factor": cal.factor,
                            "slices": len(cal.slices_ms),
                            "other_share": cal.other_share,
                            "pauses": probes.pauses, "paused_s": run.paused,
                            "slices_ms": list(cal.slices_ms),
                            "setup_slices_ms": list(setup_cal.slices_ms)},
            "percentiles": {k: {"value": p.value, "samples": p.samples,
                                "valid": p.valid} for k, p in pct.items()},
            "setup_runs_s": setup_times,
            "timed_requests": len(timed),
            "timed_wall_s": run.wall,
            "loadgen_late_p95_ms": p95_or_zero(list(timed.late_ms)),
        },
    }


def run_traced(bench: Bench) -> Dict[str, Any]:
    from perfbench.layers import LayerProbes, layer_metrics, predictions, self_time_table
    from perfbench.stats import p95_or_zero, quantile
    from perfbench.tracer import Tracer
    from perfbench.workloads import QUERY_OPS

    service, _, _ = bench.set_up()
    plain = bench.recorder("untraced", digests=True)
    bench.timed(service, plain)
    service = None

    tracer = Tracer()
    probes = LayerProbes(tracer)
    probes.install()
    try:
        setup_start = tracer.clock()
        service, _, _ = bench.set_up()
        setup_end = tracer.clock()
        before = service.answer_cache.stats()
        traced = bench.recorder("traced", digests=True)
        run = bench.timed(service, traced)
        after = service.answer_cache.stats()
    finally:
        probes.restore()
    checked = bench.check(service)
    compared = bench.gate.same_answers(plain.digests, traced.digests)

    timed_window = (run.start, run.end)
    attach_window = timed_window if traced.count(("attach",)) else (setup_start, setup_end)
    traced_q = traced.latencies(QUERY_OPS)
    metrics = layer_metrics(
        tracer, timed_window, (setup_start, setup_end), attach_window,
        workers=bench.params.get("executor_workers", 1),
        cache_delta={k: after[k] - before[k]
                     for k in ("hits", "misses", "evictions", "stale_hits")},
        late_p95_ms=p95_or_zero(list(plain.late_ms)),
        overhead_ratio=quantile(traced_q, 0.5) / quantile(plain.latencies(QUERY_OPS), 0.5),
    )
    return {
        "values": metrics,
        "checked": checked,
        "tracer": tracer,
        "table": self_time_table(tracer, timed_window),
        "detail": {
            "compared_answers": compared,
            "predictions": predictions(
                tracer, timed_window, attach_window,
                quantile(traced_q, 0.5), quantile(traced_q, 0.95), metrics),
        },
    }


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Every thread of the run on one CPU: the program's Python threads
    # take turns on the GIL anyway, and on a shared VM a hand-off to a
    # thread sleeping on the other, idle vCPU waits for that vCPU to be
    # woken, which made hot_cache's tail and throughput swing with the
    # host's load.  Threads started later inherit the affinity.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import numpy
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        print(f"perfbench: imported the program from {repro.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench.calibrate import NOMINAL_MS

    declared = _declared()
    bench = Bench(args.workload, args.seed, args.seconds)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "params": bench.params, "cores": os.cpu_count(),
        "pinned_cpu": cpu,
        "revision": _revision(), "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    res = run_traced(bench) if args.trace else run_untraced(bench)
    gate = bench.gate
    gate.close()
    kind = "per_layer" if args.trace else "end_to_end"
    missing = {name for name, _ in declared[kind]} - set(res["values"])
    if missing:
        print(f"perfbench: metrics not produced: {sorted(missing)}", file=sys.stderr)
        return 2

    if args.trace:
        print(f"{'span (timed phase)':36s} {'calls':>7s} {'self ms':>11s} {'share':>7s}")
        for name, calls, self_ms, share in res["table"]:
            print(f"{name:36s} {calls:7d} {self_ms:11.2f} {share:7.1%}")
        for name, share in res["detail"]["predictions"].items():
            print(f"prediction {name}: " + ("n/a" if share is None else f"{share:.3f}"))
        res["tracer"].dump(str(stem) + ".spans.jsonl")
        print(f"spans: {len(res['tracer'].spans)} -> {stem}.spans.jsonl")
    pct = res.get("pct", {})
    raw = res.get("raw", {})
    cal = res.get("cal")
    if cal is not None:
        print(f"calibration: median slice {cal.slice_ms:.3f} ms over "
              f"{len(cal.slices_ms)} slices; times x {cal.factor:.4f} "
              f"(nominal {NOMINAL_MS} ms); other threads {cal.other_share:.1%}")
    for name, unit in declared[kind]:
        shown = f"{res['values'][name]:.4f} {unit}"
        if name in raw:
            p = pct.get(name)
            measured = p.describe(unit) if p is not None else f"{raw[name]:.4f} {unit}"
            shown += f"  raw {measured}"
        print(f"{name:42s} {shown}")
    failed_share = bench.failed / bench.attempted
    print(f"{'failed_share':42s} {failed_share:.4f} ratio "
          f"({bench.failed} of {bench.attempted})")
    if not args.trace:
        print(f"{'loadgen.late_p95_ms':42s} "
              f"{res['detail']['loadgen_late_p95_ms']:.4f} ms")
    print(f"gate: {'ok' if gate.ok else 'FAILED'}; {gate.failures} failures, "
          f"{res['checked']} sampled answers/portals checked")
    for message in gate.messages:
        print(f"gate failure: {message}")
    print("meta " + json.dumps(meta))

    result = {
        "correct": gate.ok and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": res["values"][name], "unit": unit}
                    for name, unit in declared[kind]},
    }
    stem.with_suffix(".json").write_text(json.dumps(
        {"meta": meta, "result": result, "failed_share": failed_share,
         "detail": res["detail"], "gate_messages": gate.messages},
        indent=1, default=repr))
    invalid = [name for name, p in pct.items() if not p.valid]
    if invalid:
        print(f"perfbench: too few samples for {invalid}; no result", file=sys.stderr)
        return 3
    for c in (cal, res.get("setup_cal")):
        if c is not None and not c.valid:
            print(f"perfbench: {len(c.slices_ms)} calibration slices, other threads "
                  f"busy for {c.other_share:.1%} of them; no result", file=sys.stderr)
            return 3
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
