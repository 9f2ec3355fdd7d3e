"""The per-layer probes: which functions are wrapped, and what they yield.

:func:`install` patches the public calls of each layer at the attribute
its caller looks up (see :mod:`perfbench.tracer`); :func:`layer_metrics`
turns the recorded spans into the ``per_layer`` metrics of
``BENCHMARK.json``.  Layer names follow the modules they time:

==================  ====================================================
``service``         ``PPKWSService.execute`` (one span per request)
``serving.rwlock``  ``RWLock.acquire_read`` / ``acquire_write`` waits;
                    write hold from ``acquire_write`` return to
                    ``release_write``
``serving.executor`` ``ServiceExecutor.submit`` to the worker's
                    ``execute`` start
``serving.cache``   ``AnswerCache.lookup`` / ``store``
``core.engine``     ``SemanticsSpec.run``; PEval/ARefine/AComplete child
                    spans laid out from the returned ``breakdown``
``core.vectorized`` ``offset_sweep_batch``, ``VectorizedRuntime.probe_many``,
                    ``merge_rank``
``core.batch``      ``BatchSession.query``
``portals``         ``PPKWS.attach`` and the portal-map builders it calls
``graph``,          ``freeze`` (in ``create_network``), ``pagerank``,
``sketches``        ``build_pads``, ``build_kpads``
==================  ====================================================
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from perfbench.stats import median_or_zero, p95_or_zero, ratio
from perfbench.tracer import Span, Tracer

#: the semantics whose engine steps get their own metrics
SEMANTICS = ("banks", "blinks", "knk", "knk_multi", "rclique", "truss")
STEPS = ("peval", "arefine", "acomplete")
#: QueryCounters fields summed over engine runs
ENGINE_COUNTERS = (
    "partial_answers", "refinement_checks", "refinements_applied",
    "completion_lookups", "completion_cache_hits",
)


class LayerProbes:
    """Installs the wrappers for one traced phase and keeps their tallies."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: id(request dict) -> submit time, for the executor queue wait
        self._submitted: Dict[int, float] = {}

    # ------------------------------------------------------------------
    def install(self) -> None:
        import repro.core.framework as framework
        import repro.core.pp_blinks as pp_blinks
        import repro.core.vectorized as vectorized
        import repro.service as service
        from repro.core.batch import BatchSession
        from repro.core.engine import SemanticsSpec
        from repro.serving.cache import AnswerCache
        from repro.serving.executor import ServiceExecutor
        from repro.serving.rwlock import RWLock

        t = self.tracer
        t.patch(service.PPKWSService, "execute",
                self._execute(vars(service.PPKWSService)["execute"]))
        t.patch(ServiceExecutor, "submit", self._submit(vars(ServiceExecutor)["submit"]))
        t.patch_call(RWLock, "acquire_read", "serving.rwlock.read_wait")
        t.patch_call(RWLock, "acquire_write", "serving.rwlock.write_wait",
                     after=self._hold_begins)
        t.patch(RWLock, "release_write", self._release(vars(RWLock)["release_write"]))
        t.patch_call(AnswerCache, "lookup", "serving.cache.lookup")
        t.patch_call(AnswerCache, "store", "serving.cache.store")
        t.patch_call(SemanticsSpec, "run", "core.engine.run", after=self._engine_steps)
        t.patch_call(vectorized, "offset_sweep_batch", "core.vectorized.sweep")
        t.patch_call(vectorized.VectorizedRuntime, "probe_many", "core.vectorized.probe")
        t.patch_call(pp_blinks, "merge_rank", "core.vectorized.merge")
        t.patch(BatchSession, "query", self._batch_query(vars(BatchSession)["query"]))
        t.patch_call(framework.PPKWS, "attach", "portals.attach", after=self._attached)
        t.patch(framework, "all_pairs_portal_distances",
                self._apsp(vars(framework)["all_pairs_portal_distances"]))
        t.patch_call(framework, "refine_portal_distances", "portals.refine",
                     after=self._refined)
        t.patch_call(framework, "build_private_maps", "portals.private_maps")
        t.patch_call(service, "freeze", "graph.freeze")
        t.patch_call(framework, "pagerank", "graph.pagerank")
        t.patch_call(framework, "build_pads", "sketches.pads", after=self._pads)
        t.patch_call(framework, "build_kpads", "sketches.kpads")

    def restore(self) -> None:
        self.tracer.restore()

    # -- custom wrappers ---------------------------------------------------
    def _execute(self, original: Callable[..., Any]) -> Callable[..., Any]:
        t = self.tracer

        def execute(svc: Any, request: Any) -> Any:
            rid = t.new_request()
            t.set_request(rid)
            submitted = self._submitted.pop(id(request), None)
            op = request.get("op") if isinstance(request, dict) else None
            span = t.begin("service", op=op, executor=submitted is not None)
            try:
                response = original(svc, request)
                span.attrs["cached"] = response.get("cached") is True
                return response
            finally:
                t.finish(span)
                if submitted is not None:
                    t.record("serving.executor.queue_wait", submitted, span.start,
                             request=rid, interval=True)
                t.set_request(None)

        return execute

    def _submit(self, original: Callable[..., Any]) -> Callable[..., Any]:
        def submit(executor: Any, request: Any) -> Any:
            # Recorded before the call: a worker may start the request
            # before submit returns.
            self._submitted[id(request)] = self.tracer.clock()
            return original(executor, request)

        return submit

    def _hold_begins(self, span: Span, args: Tuple[Any, ...], result: Any) -> None:
        holds = self.tracer.thread_state().setdefault("holds", {})
        holds[id(args[0])] = (span.end, span.parent)

    def _release(self, original: Callable[..., Any]) -> Callable[..., Any]:
        t = self.tracer

        def release_write(lock: Any) -> Any:
            held = t.thread_state().get("holds", {}).pop(id(lock), None)
            result = original(lock)
            if held is not None:
                t.record("serving.rwlock.write_hold", held[0], t.clock(),
                         parent=held[1], request=t.current_request, interval=True)
            return result

        return release_write

    def _engine_steps(self, span: Span, args: Tuple[Any, ...], result: Any) -> None:
        """Lay the returned breakdown out as PEval/ARefine/AComplete spans.

        The steps ran back to back inside the run span; kernel spans
        already recorded under the run move under the step they fall in.
        """
        t = self.tracer
        sem = args[0].name
        span.attrs["semantics"] = sem
        counters = result.counters
        for name in ENGINE_COUNTERS:
            span.attrs[name] = getattr(counters, name)
        cursor = span.start
        steps: List[Span] = []
        for step in STEPS:
            seconds = getattr(result.breakdown, step)
            steps.append(t.record(f"core.engine.{step}", cursor, cursor + seconds,
                                  parent=span.sid, request=span.request,
                                  semantics=sem))
            cursor += seconds
        for child in list(t.kids.get(span.sid, ())):
            if child.name.startswith("core.engine."):
                continue
            mid = (child.start + child.end) / 2
            for step in steps:
                if step.start <= mid <= step.end:
                    t.reparent(child, step)
                    break

    def _batch_query(self, original: Callable[..., Any]) -> Callable[..., Any]:
        t = self.tracer

        def query(session: Any, *args: Any, **kwargs: Any) -> Any:
            hits, misses = session.cache.hits, session.cache.misses
            span = t.begin("core.batch.item")
            try:
                return original(session, *args, **kwargs)
            finally:
                t.finish(span)
                span.attrs["completion_hits"] = session.cache.hits - hits
                span.attrs["completion_misses"] = session.cache.misses - misses

        return query

    def _attached(self, span: Span, args: Tuple[Any, ...], result: Any) -> None:
        span.attrs["portals"] = len(result.portals)

    def _apsp(self, original: Callable[..., Any]) -> Callable[..., Any]:
        from repro.graph.labeled_graph import LabeledGraph

        t = self.tracer

        def all_pairs_portal_distances(graph: Any, portals: Any) -> Any:
            # attach passes the private LabeledGraph and the frozen public graph
            side = "private" if isinstance(graph, LabeledGraph) else "public"
            span = t.begin(f"portals.{side}_apsp")
            try:
                return original(graph, portals)
            finally:
                t.finish(span)

        return all_pairs_portal_distances

    def _refined(self, span: Span, args: Tuple[Any, ...], result: Any) -> None:
        portals = len(args[0].portals)
        span.attrs["refined_pairs"] = len(result[1])
        span.attrs["pairs"] = portals * (portals - 1)

    def _pads(self, span: Span, args: Tuple[Any, ...], result: Any) -> None:
        span.attrs["entries"] = result.total_entries


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def _ms(values: Iterable[float]) -> List[float]:
    return [v * 1000.0 for v in values]


def _within(spans: Sequence[Span], window: Tuple[float, float]) -> List[Span]:
    lo, hi = window
    return [s for s in spans if lo <= s.start <= hi]


def layer_metrics(
    tracer: Tracer,
    timed: Tuple[float, float],
    setup: Tuple[float, float],
    attach_window: Tuple[float, float],
    workers: int,
    cache_delta: Dict[str, int],
    late_p95_ms: float,
    overhead_ratio: float,
) -> Dict[str, float]:
    """Every ``per_layer`` metric of one traced phase.

    Request-path layers are read over the ``timed`` window, index build
    over ``setup``, and ``portals`` and the rwlock write side over
    ``attach_window`` (the timed phase when it sends attaches, else
    set-up).  Times are medians per
    call in ms, except the two waits that feed ``query_p95_ms`` (rwlock
    read wait, executor queue wait), which are p95s.
    """
    by_name: Dict[str, List[Span]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def spans(name: str, window: Tuple[float, float] = timed) -> List[Span]:
        return _within(by_name.get(name, []), window)

    def durations(name: str, window: Tuple[float, float] = timed) -> List[float]:
        return _ms(s.duration for s in spans(name, window))

    out: Dict[str, float] = {}
    service = spans("service")
    out["service.self_ms"] = median_or_zero(_ms(tracer.self_time(s) for s in service))
    out["serving.rwlock.read_wait_ms"] = p95_or_zero(durations("serving.rwlock.read_wait"))
    # the write side: attach requests only (a detach holds the lock ~1 ms),
    # over the same window as the portals layer
    attach_requests = {s.request for s in spans("service", attach_window)
                       if s.attrs.get("op") == "attach"}
    for side in ("write_wait", "write_hold"):
        out[f"serving.rwlock.{side}_ms"] = median_or_zero(_ms(
            s.duration for s in spans(f"serving.rwlock.{side}", attach_window)
            if s.request in attach_requests))
    out["serving.executor.queue_wait_ms"] = p95_or_zero(
        durations("serving.executor.queue_wait"))
    busy = sum(s.duration for s in service if s.attrs.get("executor"))
    out["serving.executor.busy_share"] = ratio(busy, workers * (timed[1] - timed[0]))
    out["serving.cache.lookup_ms"] = median_or_zero(durations("serving.cache.lookup"))
    out["serving.cache.store_ms"] = median_or_zero(durations("serving.cache.store"))
    lookups = cache_delta["hits"] + cache_delta["misses"]
    out["serving.cache.hit_ratio"] = ratio(cache_delta["hits"], lookups)
    out["serving.cache.evictions"] = float(cache_delta["evictions"])
    out["serving.cache.stale_ratio"] = ratio(cache_delta["stale_hits"], lookups)

    for step in STEPS:
        per_sem: Dict[str, List[float]] = {}
        for s in spans(f"core.engine.{step}"):
            per_sem.setdefault(s.attrs["semantics"], []).append(s.duration * 1000.0)
        for sem in SEMANTICS:
            out[f"core.engine.{sem}.{step}_ms"] = median_or_zero(per_sem.get(sem, []))
    runs = spans("core.engine.run")
    totals = {c: sum(s.attrs.get(c, 0) for s in runs) for c in ENGINE_COUNTERS}
    out["core.engine.refine_applied_ratio"] = ratio(
        totals["refinements_applied"], totals["refinement_checks"])
    out["core.engine.completion_hit_ratio"] = ratio(
        totals["completion_cache_hits"], totals["completion_lookups"])
    out["core.engine.partial_answers"] = ratio(totals["partial_answers"], len(runs))

    kernels = ("sweep", "probe", "merge")
    out["core.vectorized.calls"] = float(
        sum(len(spans(f"core.vectorized.{k}")) for k in kernels))
    for k in kernels:
        out[f"core.vectorized.{k}_ms"] = median_or_zero(durations(f"core.vectorized.{k}"))

    items = spans("core.batch.item")
    out["core.batch.item_ms"] = median_or_zero(_ms(s.duration for s in items))
    hits = sum(s.attrs.get("completion_hits", 0) for s in items)
    misses = sum(s.attrs.get("completion_misses", 0) for s in items)
    out["core.batch.completion_hit_ratio"] = ratio(hits, hits + misses)

    for name in ("public_apsp", "private_apsp", "refine", "private_maps"):
        out[f"portals.{name}_ms"] = median_or_zero(
            durations(f"portals.{name}", attach_window))
    attaches = spans("portals.attach", attach_window)
    out["portals.portals_per_attach"] = ratio(
        sum(s.attrs.get("portals", 0) for s in attaches), len(attaches))
    refines = spans("portals.refine", attach_window)
    out["portals.refined_pair_ratio"] = ratio(
        sum(s.attrs["refined_pairs"] for s in refines),
        sum(s.attrs["pairs"] for s in refines))

    out["graph.freeze_ms"] = median_or_zero(durations("graph.freeze", setup))
    out["graph.pagerank_ms"] = median_or_zero(durations("graph.pagerank", setup))
    out["sketches.pads_ms"] = median_or_zero(durations("sketches.pads", setup))
    out["sketches.kpads_ms"] = median_or_zero(durations("sketches.kpads", setup))
    pads = spans("sketches.pads", setup)
    out["sketches.pads_entries"] = ratio(
        sum(s.attrs["entries"] for s in pads), len(pads))

    out["loadgen.late_p95_ms"] = late_p95_ms
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def self_time_table(
    tracer: Tracer, window: Tuple[float, float]
) -> List[Tuple[str, int, float, float]]:
    """``(span name, calls, self ms, share of request time)`` rows.

    The share's base is the summed duration of the ``service`` spans in
    the window, i.e. all request time the service saw.
    """
    rows: Dict[str, List[float]] = {}
    base = 0.0
    for s in _within(tracer.spans, window):
        if s.interval:
            continue
        st = tracer.self_time(s)
        row = rows.setdefault(s.name, [0, 0.0])
        row[0] += 1
        row[1] += st
        if s.name == "service":
            base += s.duration
    return sorted(
        ((name, int(c), total * 1000.0, ratio(total, base))
         for name, (c, total) in rows.items()),
        key=lambda r: -r[2],
    )


def predictions(
    tracer: Tracer,
    timed: Tuple[float, float],
    attach_window: Tuple[float, float],
    query_p50_ms: float,
    query_p95_ms: float,
    metrics: Dict[str, float],
) -> Dict[str, Optional[float]]:
    """The shares the design predicts, each with its base stated.

    * ``portals_share_of_attach``: portal-builder span time over the
      summed ``service`` time of attach requests;
    * ``read_wait_share_of_p95_gap`` / ``queue_wait_share_of_p95_gap``:
      p95 rwlock read wait / p95 executor queue wait over
      ``query_p95_ms - query_p50_ms`` of the traced phase;
    * ``engine_steps_share_of_query``: engine step span time over the
      summed ``service`` time of query requests;
    * ``service_cache_share_of_hit``: ``service`` self plus cache-lookup
      time over the summed ``service`` time of cache hits.
    """
    spans = _within(tracer.spans, timed)
    attach_spans = _within(tracer.spans, attach_window)
    attach_total = sum(s.duration for s in attach_spans
                       if s.name == "service" and s.attrs.get("op") == "attach")
    portal_parts = sum(
        s.duration for s in attach_spans
        if s.name.startswith("portals.") and s.name != "portals.attach"
    )
    query_ops = set(SEMANTICS) | {"batch"}
    query_total = sum(
        s.duration for s in spans
        if s.name == "service" and s.attrs.get("op") in query_ops
    )
    steps = sum(s.duration for s in spans if s.name in {f"core.engine.{x}" for x in STEPS})
    hit_total = 0.0
    hit_covered = 0.0
    for s in spans:
        if s.name == "service" and s.attrs.get("cached"):
            hit_total += s.duration
            hit_covered += tracer.self_time(s) + sum(
                k.duration for k in tracer.kids.get(s.sid, ())
                if k.name == "serving.cache.lookup"
            )
    gap = query_p95_ms - query_p50_ms

    def share(num: float, den: float) -> Optional[float]:
        return num / den if den > 0 else None

    return {
        "portals_share_of_attach": share(portal_parts, attach_total),
        "read_wait_share_of_p95_gap": share(metrics["serving.rwlock.read_wait_ms"], gap),
        "queue_wait_share_of_p95_gap": share(
            metrics["serving.executor.queue_wait_ms"], gap),
        "engine_steps_share_of_query": share(steps, query_total),
        "service_cache_share_of_hit": share(hit_covered, hit_total),
    }
