"""Vectorized batch engine vs the pure reference on a keyword workload.

The vectorized execution mode exists for one measurable reason: a batch
of keyword queries sharing keywords must run substantially faster than
the pure per-vertex pipelines, without changing a single answer.  This
benchmark runs the same fig6-style workload (overlapping keyword pairs,
so the batch sweep memo gets real reuse) through one ``BatchSession``
per mode, asserts bit-identical answers, and persists the timings to
``bench_results/batch_vectorized.json`` (+ text twin).

Measured per mode:

* the whole-workload wall time (min over interleaved rounds, fresh
  session each round so the sweep memo starts cold);
* the cold first query of a fresh session (``cold_query_ms``) — the
  memo cannot help there, so this isolates the kernel speedup from the
  batch-level reuse.
"""

from __future__ import annotations

import time

from benchmarks.conftest import SCALE, STRICT, emit
from repro.bench.reporting import write_json_report, write_report
from repro.core.batch import BatchSession
from repro.core.framework import PPKWS
from repro.core.vectorized import runtime_for
from repro.graph import LabeledGraph
from repro.graph.generators import assign_zipf_labels, barabasi_albert_graph

N_VERTICES = 1500 if SCALE == "small" else 6000
ROUNDS = 3
VOCAB = [f"kw{i}" for i in range(16)]
TAU = 8.0
K = 10
# Overlapping pairs: repeated (keyword, portal-offset) columns are what
# the batch sweep memo deduplicates across queries.
PAIRS = [
    ("kw0", "kw1"), ("kw1", "kw2"), ("kw0", "kw2"), ("kw0", "kw1"),
    ("kw2", "kw3"), ("kw1", "kw2"), ("kw3", "kw4"), ("kw0", "kw1"),
    ("kw4", "kw5"), ("kw2", "kw3"), ("kw1", "kw5"), ("kw0", "kw3"),
]
WORKLOAD = [
    {"keywords": list(p), "tau": TAU, "k": K, "require_public_private": True}
    for p in PAIRS
]


def _engine() -> PPKWS:
    pub = barabasi_albert_graph(N_VERTICES, m=8, seed=41, name="batchvec-pub")
    assign_zipf_labels(pub, VOCAB, labels_per_vertex=1.6, seed=41)
    priv = LabeledGraph("batchvec-priv")
    priv.add_edge(0, "m1")
    priv.add_edge("m1", "m2")
    priv.add_edge("m2", "m3")
    priv.add_edge("m3", 17)
    priv.add_labels("m1", {"kw0"})
    priv.add_labels("m2", {"kw1"})
    priv.add_labels("m3", {"kw2"})
    engine = PPKWS(pub, sketch_k=2)
    engine.attach("u", priv)
    return engine


def _one_round(engine: PPKWS, mode: str):
    session = BatchSession(engine, "u", execution_mode=mode)
    start = time.perf_counter()
    results = session.run_queries("blinks", WORKLOAD)
    return time.perf_counter() - start, results, session


def _cold_query_ms(engine: PPKWS, mode: str) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        session = BatchSession(engine, "u", execution_mode=mode)
        start = time.perf_counter()
        session.run_queries("blinks", WORKLOAD[:1])
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def test_batch_vectorized_speedup(benchmark):
    engine = _engine()
    _one_round(engine, "pure")  # warm-up (completion tables, probe tables)
    _one_round(engine, "vectorized")

    # Interleave rounds, alternating which mode goes first, so drift
    # (caches, frequency scaling, GC pauses) hits both sides evenly; the
    # min over rounds is the contention-free estimate.  Fresh sessions
    # each round: the sweep memo must earn its reuse within a workload.
    t_pure = t_vec = float("inf")
    pure_results = vec_results = None
    vec_session = None
    for r in range(ROUNDS):
        order = ("pure", "vectorized") if r % 2 == 0 else ("vectorized", "pure")
        for mode in order:
            elapsed, results, session = _one_round(engine, mode)
            if mode == "pure":
                t_pure, pure_results = min(t_pure, elapsed), results
            else:
                if elapsed < t_vec:
                    t_vec, vec_results, vec_session = elapsed, results, session

    # The whole point of the mode switch: identical answers.
    assert pure_results is not None and vec_results is not None
    for a, b in zip(pure_results, vec_results):
        assert [x.sort_key() for x in a.answers] == [
            x.sort_key() for x in b.answers
        ]

    cold_pure = _cold_query_ms(engine, "pure")
    cold_vec = _cold_query_ms(engine, "vectorized")
    speedup = t_pure / t_vec if t_vec else 1.0
    memo = vec_session.sweep_memo if vec_session is not None else None

    payload = {
        "scale": SCALE,
        "num_vertices": engine.public.num_vertices,
        "num_edges": engine.public.num_edges,
        "queries": len(WORKLOAD),
        "workload_s": {"pure": t_pure, "vectorized": t_vec},
        "cold_query_ms": {"pure": cold_pure, "vectorized": cold_vec},
        "speedup": speedup,
        "cold_speedup": cold_pure / cold_vec if cold_vec else 1.0,
        "sweep_memo": {
            "hits": memo.hits if memo is not None else 0,
            "misses": memo.misses if memo is not None else 0,
        },
        "vectorized_supported": runtime_for(engine) is not None,
    }
    write_json_report("batch_vectorized", payload)

    report = (
        f"Vectorized batch engine ({engine.public.num_vertices} vertices, "
        f"{engine.public.num_edges} edges, {len(WORKLOAD)} queries)\n"
        f"  workload    : pure {t_pure * 1e3:7.1f}ms  "
        f"vectorized {t_vec * 1e3:7.1f}ms ({speedup:.2f}x)\n"
        f"  cold query  : pure {cold_pure:7.1f}ms  "
        f"vectorized {cold_vec:7.1f}ms "
        f"({payload['cold_speedup']:.2f}x)\n"
        f"  sweep memo  : {payload['sweep_memo']['hits']} hits / "
        f"{payload['sweep_memo']['misses']} misses\n"
    )
    emit(report)
    write_report("batch_vectorized", report)

    benchmark.pedantic(
        lambda: _one_round(engine, "vectorized"), rounds=1, iterations=1
    )

    # Identical answers are asserted above (and pinned by
    # tests/test_vectorized_equivalence.py); here we hold the
    # performance contract of the redesign.  The gate applies whenever
    # the engine supports vectorized execution at all — including
    # single-core runners: the kernels batch work, they don't thread it.
    if STRICT and runtime_for(engine) is not None:
        assert speedup >= 3.0, report
        assert cold_vec < cold_pure, report
