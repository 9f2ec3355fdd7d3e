"""Tests for public-index persistence (JSON-lines format)."""

from __future__ import annotations

import json

import pytest

from repro.core import PPKWS, PublicIndex, load_index, save_index
from repro.core.vectorized import plan_for
from repro.exceptions import IndexBuildError
from repro.graph import FrozenGraph, LabeledGraph
from tests.conftest import random_connected_graph


@pytest.fixture
def index_and_graph():
    g = random_connected_graph(30, 10, seed=77)
    return PublicIndex.build(g, k=2), g


class TestRoundTrip:
    def test_pads_identical(self, tmp_path, index_and_graph):
        index, g = index_and_graph
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        loaded = load_index(g, path)
        assert loaded.pads.entries == index.pads.entries
        assert loaded.pads.k == index.pads.k

    def test_kpads_identical(self, tmp_path, index_and_graph):
        index, g = index_and_graph
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        loaded = load_index(g, path)
        assert loaded.kpads.entries == index.kpads.entries
        assert loaded.kpads.witnesses == index.kpads.witnesses
        for t in index.kpads.candidates:
            for c, lst in index.kpads.candidates[t].items():
                assert loaded.kpads.candidates[t][c] == [
                    (d, v) for d, v in lst
                ]

    def test_pagerank_identical(self, tmp_path, index_and_graph):
        index, g = index_and_graph
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        loaded = load_index(g, path)
        for v, s in index.pagerank_scores.items():
            assert loaded.pagerank_scores[v] == pytest.approx(s)

    def test_engine_uses_loaded_index(self, tmp_path, small_public_private):
        pub, priv = small_public_private
        index = PublicIndex.build(pub, k=4)
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        loaded = load_index(pub, path)
        e1 = PPKWS(pub, index=index)
        e2 = PPKWS(pub, index=loaded)
        e1.attach("bob", priv)
        e2.attach("bob", priv.copy())
        r1 = e1.blinks("bob", ["db", "ai"], tau=5.0)
        r2 = e2.blinks("bob", ["db", "ai"], tau=5.0)
        assert [a.sort_key() for a in r1.answers] == [
            a.sort_key() for a in r2.answers
        ]

    def test_engine_from_loaded_index_is_frozen(self, tmp_path,
                                                small_public_private):
        """Loading over a mutable graph still yields a frozen engine."""
        pub, _ = small_public_private
        path = tmp_path / "idx.jsonl"
        save_index(PublicIndex.build(pub, k=2), path)
        loaded = load_index(pub, path)
        assert isinstance(loaded.graph, FrozenGraph)
        engine = PPKWS(pub, index=loaded)
        assert isinstance(engine.public, FrozenGraph)
        assert plan_for(engine, "vectorized") is not None

    def test_string_vertices(self, tmp_path, paper_public_graph):
        index = PublicIndex.build(paper_public_graph, k=2)
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        loaded = load_index(paper_public_graph, path)
        assert loaded.pads.entries == index.pads.entries


class TestErrors:
    def test_vertex_count_mismatch(self, tmp_path, index_and_graph):
        index, g = index_and_graph
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        other = LabeledGraph.from_edges([(1, 2)])
        with pytest.raises(IndexBuildError):
            load_index(other, path)

    def test_missing_header(self, tmp_path, index_and_graph):
        _, g = index_and_graph
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"record": "pagerank", "v": "i:1", "score": 1}) + "\n")
        with pytest.raises(IndexBuildError):
            load_index(g, path)

    def test_bad_version(self, tmp_path, index_and_graph):
        _, g = index_and_graph
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"record": "header", "version": 99}) + "\n")
        with pytest.raises(IndexBuildError):
            load_index(g, path)

    def test_unknown_record(self, tmp_path, index_and_graph):
        index, g = index_and_graph
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({
                "record": "header", "version": 1, "k": 2,
                "kpads_per_center": 4, "num_vertices": g.num_vertices,
            }) + "\n" + json.dumps({"record": "mystery"}) + "\n"
        )
        with pytest.raises(IndexBuildError):
            load_index(g, path)

    def test_unsupported_vertex_type(self, tmp_path):
        g = LabeledGraph.from_edges([((1, 2), (3, 4))])  # tuple vertices
        index = PublicIndex.build(g, k=1)
        with pytest.raises(IndexBuildError):
            save_index(index, tmp_path / "idx.jsonl")

    def test_malformed_vertex_token(self):
        from repro.core.persist import _decode_vertex

        with pytest.raises(IndexBuildError):
            _decode_vertex("x:1")
