"""Tests for the benchmark's own helpers (not the program's).

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import itertools
import statistics
import threading
from concurrent.futures import Future

import pytest

from perfbench import loadgen
from perfbench.calibrate import NOMINAL_MS, Calibrator
from perfbench.layers import LayerProbes
from perfbench.run import adjusted
from perfbench.stats import min_samples, percentile, quantile
from perfbench.tracer import Span, Tracer, covered, self_time


# -- percentiles -----------------------------------------------------------
def test_sample_guard_thresholds():
    assert min_samples(0.5) == 10
    assert min_samples(0.95) == 200
    assert min_samples(0.99) == 1000


def test_percentile_flags_too_few_samples():
    assert not percentile(range(199), 0.95).valid
    assert percentile(range(200), 0.95).valid
    assert not percentile(range(9), 0.5).valid
    p = percentile(range(10), 0.5)
    assert p.valid and p.samples == 10
    assert "INSUFFICIENT" in percentile([1.0], 0.5).describe("ms")
    assert "INSUFFICIENT" not in p.describe("ms")


def test_quantile_interpolates():
    assert quantile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    assert quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.95) == pytest.approx(4.8)


# -- self time -----------------------------------------------------------------
def _span(start, end, parent=None):
    return Span(0, "s", start, end, parent, None)


def test_self_time_subtracts_union_of_overlapping_children():
    parent = _span(0.0, 10.0)
    children = [_span(1.0, 4.0), _span(3.0, 6.0), _span(8.0, 12.0)]
    # covered: [1, 6] and [8, 10] -> 7 of 10
    assert covered(0.0, 10.0, [(c.start, c.end) for c in children]) == 7.0
    assert self_time(parent, children) == 3.0


def test_self_time_with_nested_and_identical_children():
    parent = _span(0.0, 4.0)
    children = [_span(1.0, 3.0), _span(1.0, 3.0), _span(1.5, 2.0)]
    assert self_time(parent, children) == 2.0
    assert self_time(parent, []) == 4.0


def test_tracer_parents_and_self_time():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])
    outer = tracer.begin("outer")
    now[0] = 1.0
    inner = tracer.begin("inner")
    now[0] = 3.0
    tracer.finish(inner)
    now[0] = 5.0
    tracer.finish(outer)
    assert inner.parent == outer.sid
    assert tracer.self_time(outer) == 3.0
    hold = tracer.record("hold", 0.0, 5.0, parent=outer.sid, interval=True)
    assert hold not in tracer.kids[outer.sid]
    assert tracer.self_time(outer) == 3.0


# -- open loop -----------------------------------------------------------------
class _BlockingSubmit:
    """A submit that blocks the generator for a per-request time."""

    def __init__(self, clock, costs):
        self.clock = clock
        self.costs = costs

    def __call__(self, request):
        self.clock[0] += self.costs[request["id"]]
        fut = Future()
        fut.set_result({"status": "ok"})
        return fut


def test_open_loop_latency_runs_from_due_time_and_reports_lateness():
    clock = [0.0]

    def sleep(dt):
        clock[0] += dt

    schedule = [(0.0, {"op": "knk", "id": 0}), (0.1, {"op": "knk", "id": 1}),
                (0.2, {"op": "knk", "id": 2})]
    got = []
    run = loadgen.open_loop(
        _BlockingSubmit(clock, {0: 0.5, 1: 0.01, 2: 0.01}), schedule, got.append,
        clock=lambda: clock[0], sleep=sleep,
    )
    by_id = {s.request["id"]: s for s in got}
    # request 1 was due at 0.1 but the generator only sent it at 0.5
    assert by_id[1].late_ms == pytest.approx(400.0)
    assert by_id[1].latency_ms == pytest.approx(410.0)
    assert by_id[2].late_ms == pytest.approx(310.0)
    assert by_id[2].latency_ms == pytest.approx(320.0)
    assert by_id[0].late_ms == 0.0
    assert by_id[0].latency_ms == pytest.approx(500.0)
    assert run.end == pytest.approx(0.52)


def test_open_loop_holds_detach_until_its_attach_completes():
    clock = [0.0]
    pending = []

    def submit(request):
        fut = Future()
        if request["op"] == "attach":
            pending.append(fut)
        else:
            fut.set_result({"status": "ok"})
        return fut

    def sleep(dt):
        clock[0] += dt
        if clock[0] >= 1.0 and pending:
            pending.pop().set_result({"status": "ok"})

    schedule = [(0.0, {"op": "attach", "owner": "a"}),
                (0.2, {"op": "detach", "owner": "a"}),
                (1.5, {"op": "knk"})]
    got = []
    loadgen.open_loop(submit, schedule, got.append,
                      clock=lambda: clock[0], sleep=sleep)
    detach = next(s for s in got if s.request["op"] == "detach")
    assert detach.sent >= 1.0


# -- calibration pauses ------------------------------------------------------------
class _Pauser:
    """Pauses of a fixed cost, due every ``every`` seconds of the fake clock."""

    def __init__(self, clock, cost, every, in_flight=lambda: 0):
        self.clock = clock
        self.cost = cost
        self.every = every
        self.in_flight = in_flight
        self.next = 0.0
        self.calls = 0

    def due(self):
        return self.clock[0] >= self.next

    def pause(self):
        assert self.in_flight() == 0
        self.calls += 1
        self.clock[0] += self.cost
        self.next = self.clock[0] + self.every
        return self.cost


def test_closed_direct_pauses_off_the_clock():
    clock = [0.0]

    def execute(request):
        clock[0] += 0.125
        return {"status": "ok"}

    pauser = _Pauser(clock, cost=0.0625, every=0.25)
    got = []
    run = loadgen.closed_direct(execute, itertools.repeat({"op": "knk"}), 1.0,
                                got.append, clock=lambda: clock[0], pauser=pauser)
    assert len(got) == 8
    assert pauser.calls >= 4
    assert run.paused == pauser.calls * 0.0625
    assert run.wall == 1.0
    assert all(s.latency_ms == 125.0 for s in got)


def test_closed_pool_drains_before_each_pause():
    clock = [0.0]
    submitted = [0]
    got = []

    def submit(request):
        submitted[0] += 1
        clock[0] += 0.125
        fut = Future()
        fut.set_result({"status": "ok"})
        return fut

    pauser = _Pauser(clock, cost=0.0625, every=0.25,
                     in_flight=lambda: submitted[0] - len(got))
    run = loadgen.closed_pool(submit, itertools.repeat({"op": "knk"}), 1.0, 2,
                              got.append, clock=lambda: clock[0], pauser=pauser)
    assert pauser.calls >= 2
    assert len(got) == submitted[0]
    assert run.wall == pytest.approx(clock[0] - pauser.calls * 0.0625)


def test_calibrator_scales_to_nominal_and_flags_busy_threads():
    cal = Calibrator()
    cal.time_slices(10)
    assert len(cal.slices_ms) == 10 and cal.valid
    assert cal.factor == pytest.approx(NOMINAL_MS / statistics.median(cal.slices_ms))
    assert adjusted({"a_ms": 2.0, "setup_s": 1.0, "query_qps": 10.0, "rss_mb": 5.0},
                    0.5) == {"a_ms": 1.0, "setup_s": 0.5, "query_qps": 20.0,
                             "rss_mb": 5.0}

    stop = threading.Event()

    def spin():
        while not stop.is_set():
            pass

    busy = threading.Thread(target=spin)
    busy.start()
    try:
        cal.time_slices(10)
    finally:
        stop.set()
        busy.join()
    assert cal.other_share > 0.1 and not cal.valid


# -- wrappers --------------------------------------------------------------------
def _patched_attributes():
    import repro.core.framework as framework
    import repro.core.pp_blinks as pp_blinks
    import repro.core.vectorized as vectorized
    import repro.service as service
    from repro.core.batch import BatchSession
    from repro.core.engine import SemanticsSpec
    from repro.serving.cache import AnswerCache
    from repro.serving.executor import ServiceExecutor
    from repro.serving.rwlock import RWLock

    return [
        (service.PPKWSService, "execute"), (ServiceExecutor, "submit"),
        (RWLock, "acquire_read"), (RWLock, "acquire_write"),
        (RWLock, "release_write"), (AnswerCache, "lookup"),
        (AnswerCache, "store"), (SemanticsSpec, "run"),
        (vectorized, "offset_sweep_batch"),
        (vectorized.VectorizedRuntime, "probe_many"), (pp_blinks, "merge_rank"),
        (BatchSession, "query"), (framework.PPKWS, "attach"),
        (framework, "all_pairs_portal_distances"),
        (framework, "refine_portal_distances"), (framework, "build_private_maps"),
        (service, "freeze"), (framework, "pagerank"), (framework, "build_pads"),
        (framework, "build_kpads"),
    ]


def test_wrappers_replace_then_restore_the_originals():
    targets = _patched_attributes()
    originals = [vars(owner)[attr] for owner, attr in targets]
    probes = LayerProbes(Tracer())
    probes.install()
    try:
        assert all(vars(owner)[attr] is not orig
                   for (owner, attr), orig in zip(targets, originals))
    finally:
        probes.restore()
    assert all(vars(owner)[attr] is orig
               for (owner, attr), orig in zip(targets, originals))
    assert not probes.tracer.installed


def test_patch_refuses_inherited_attributes():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    with pytest.raises(AttributeError):
        Tracer().patch(Child, "f", lambda self: 2)


def test_traced_requests_record_layer_spans():
    from repro import PPKWSService
    from repro.datasets.synthetic import ppdblp_like

    ds = ppdblp_like(num_communities=8, community_size=20, num_labels=40,
                     private_vertices=30, seed=5)
    owner = ds.owners()[0]
    private = ds.private(owner)
    labels = sorted({l for v in private.vertices() for l in private.labels(v)})
    tracer = Tracer()
    probes = LayerProbes(tracer)
    probes.install()
    try:
        svc = PPKWSService()
        svc.execute({"op": "create_network", "network": "n", "public": ds.public})
        svc.execute({"op": "attach", "network": "n", "owner": owner, "private": private})
        resp = svc.execute({"op": "blinks", "network": "n", "owner": owner,
                            "keywords": labels[:2], "tau": 3.0, "k": 5})
    finally:
        probes.restore()
    assert resp["status"] == "ok"
    names = {s.name for s in tracer.spans}
    assert {"service", "graph.freeze", "graph.pagerank", "sketches.pads",
            "portals.attach", "portals.public_apsp", "portals.private_apsp",
            "portals.refine", "serving.rwlock.read_wait",
            "serving.rwlock.write_hold", "serving.cache.lookup",
            "core.engine.run", "core.engine.peval"} <= names
    for s in tracer.spans:
        assert tracer.self_time(s) >= -1e-9
    requests = {s.request for s in tracer.spans if s.name == "service"}
    assert len(requests) == 3
