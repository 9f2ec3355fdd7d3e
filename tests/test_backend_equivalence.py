"""Pipelines over the frozen public graph: soundness, sharding, reuse.

The public graph is always a :class:`~repro.graph.frozen.FrozenGraph`
(the index freezes it), while private graphs stay mutable
:class:`~repro.graph.LabeledGraph` s.  These tests check that every query
pipeline over that mixed pair returns answers that exact Dijkstra on the
materialized combined graph ``pub.union(priv)`` accepts, that sharded
runs are bit-identical to serial ones, and that one frozen index can
back many engines.
"""

from __future__ import annotations

import pytest

from repro.core.framework import PPKWS
from repro.graph import FrozenGraph, LabeledGraph
from repro.validation import validate_knk_answer, validate_rooted_answer
from tests.conftest import random_connected_graph


def _canon_rooted(answers):
    """Comparable form of a rooted answer list (order preserved)."""
    return [
        (
            a.root,
            sorted(
                (q, m.vertex, m.distance) for q, m in a.matches.items()
            ),
        )
        for a in answers
    ]


def _random_pair(seed):
    """A random public graph plus a private graph with two portals."""
    labels = ("t0", "t1", "t2")
    pub = random_connected_graph(60, 25, seed, labels=labels)
    priv = LabeledGraph("priv")
    # Two portals into the public graph plus a private-only tail.
    priv.add_edge(0, "m1")
    priv.add_edge("m1", "m2")
    priv.add_edge("m2", 13)
    priv.add_labels("m1", {"t0"})
    priv.add_labels("m2", {"t1"})
    return pub, priv


# ----------------------------------------------------------------------
# query-pipeline soundness on random public/private pairs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [2, 9])
def test_random_graph_pipeline_equivalence(seed):
    """Every pipeline's answers pass exact validation on ``pub ⊕ priv``."""
    pub, priv = _random_pair(seed)
    engine = PPKWS(pub, sketch_k=2)
    assert isinstance(engine.public, FrozenGraph)
    engine.attach("bob", priv)
    gc = pub.union(priv)

    for run, keywords in ((engine.blinks, ["t0", "t1"]),
                          (engine.rclique, ["t0", "t2"])):
        result = run("bob", keywords, tau=6.0, k=5)
        assert result.answers and not result.degraded
        for answer in result.answers:
            report = validate_rooted_answer(gc, answer, 6.0, pub, priv)
            assert report.valid, report.problems

    knk = engine.knk("bob", "m1", "t2", k=3).answer
    assert len(knk.matches) == 3
    report = validate_knk_answer(gc, knk)
    assert report.valid, report.problems

    multi = engine.knk_multi("bob", "m2", ["t0", "t2"], k=3, mode="and").answer
    report = validate_knk_answer(gc, multi, conjunctive_keywords=["t0", "t2"])
    assert report.valid, report.problems


# ----------------------------------------------------------------------
# sharded (scatter-gather) runs are bit-identical to serial runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [2, 9])
@pytest.mark.parametrize("shards", [2, 3])
def test_sharded_run_bit_identical(seed, shards):
    """The sharded AComplete step bodies must not change any answer.

    Runs knk and blinks through ``spec.run`` with a
    :class:`~repro.serving.shards.LocalShardPlan` (the same scatter /
    bound / cancellation logic the process pool drives, minus the IPC)
    and compares against the serial runs — wire payloads included, so
    ordering is pinned too.
    """
    from repro.core.engine import ensure_builtin_semantics, semantics_spec
    from repro.serving import LocalShardPlan

    ensure_builtin_semantics()
    pub, priv = _random_pair(seed)
    queries = [
        ("knk", {"source": "m1", "keyword": "t2", "k": 4}),
        ("blinks", {"keywords": ["t0", "t1"], "tau": 8.0, "k": 5}),
    ]  # wire-style requests; wire_params fills each spec's defaults
    engine = PPKWS(pub, sketch_k=2)
    engine.attach("bob", priv)
    att = engine.attachment("bob")
    for name, request in queries:
        spec = semantics_spec(name)
        params = spec.wire_params(dict(request))
        serial = spec.run(engine, att, dict(params))
        sharded = spec.run(
            engine, att, dict(params),
            shards=LocalShardPlan(engine, shards=shards, owner="bob"),
        )

        def payload(result):
            # strip the per-step wall times — the one legitimately
            # nondeterministic field
            out = spec.wire_payload(result)
            out.pop("breakdown", None)
            return out

        assert payload(sharded) == payload(serial), (
            f"{name} diverged on seed={seed} shards={shards}"
        )


def test_shared_frozen_index_reuse(small_public_private):
    """One frozen index can back many engines (the deployment story)."""
    pub, priv = small_public_private
    from repro.core.framework import PublicIndex

    index = PublicIndex.build(pub, k=2)
    assert isinstance(index.graph, FrozenGraph)
    e1 = PPKWS(pub, index=index)
    e2 = PPKWS(pub, index=index)
    assert e1.index is e2.index
    assert e1.public is index.graph
    e1.attach("bob", priv)
    e2.attach("bob", priv)
    a = e1.blinks("bob", ["db", "ai"], tau=4.0, k=5)
    b = e2.blinks("bob", ["db", "ai"], tau=4.0, k=5)
    assert _canon_rooted(a.answers) == _canon_rooted(b.answers)
