"""Tests for PageRank: the CSR power iteration and its dict reference."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graph import LabeledGraph, pagerank, pagerank_pure
from tests.conftest import random_connected_graph


class TestPagerankBasics:
    def test_empty_graph(self):
        assert pagerank(LabeledGraph()) == {}

    def test_single_vertex(self):
        g = LabeledGraph()
        g.add_vertex(1)
        assert pagerank(g) == {1: pytest.approx(1.0)}

    def test_scores_sum_to_one(self, triangle_graph):
        scores = pagerank(triangle_graph)
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-6)

    def test_symmetric_graph_uniform_scores(self):
        # A 4-cycle is vertex-transitive: all scores equal.
        g = LabeledGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        scores = pagerank(g)
        values = list(scores.values())
        assert max(values) - min(values) < 1e-6

    def test_hub_scores_highest(self):
        # Star graph: center must dominate.
        g = LabeledGraph.from_edges([(0, i) for i in range(1, 8)])
        scores = pagerank(g)
        assert scores[0] == max(scores.values())

    def test_invalid_alpha(self, triangle_graph):
        with pytest.raises(GraphError):
            pagerank(triangle_graph, alpha=0.0)
        with pytest.raises(GraphError):
            pagerank(triangle_graph, alpha=1.0)

    def test_dangling_vertices_handled(self):
        g = LabeledGraph.from_edges([(0, 1)])
        g.add_vertex(2)  # isolated: dangling mass redistributes
        for run in (pagerank, pagerank_pure):
            scores = run(g)
            assert sum(scores.values()) == pytest.approx(1.0, abs=1e-6)
            assert scores[2] > 0


class TestBackendAgreement:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_pure_and_numpy_agree(self, seed):
        g = random_connected_graph(30, 12, seed)
        pure = pagerank_pure(g, max_iter=200, tol=1e-12)
        csr = pagerank(g, max_iter=200, tol=1e-12)
        for v in g.vertices():
            assert pure[v] == pytest.approx(csr[v], abs=1e-9)

    @pytest.mark.parametrize("seed", [3, 8])
    def test_fixed_point_residual(self, seed):
        """The scores solve ``r = alpha P r + (1 - alpha + alpha D) / n``.

        ``P`` is the uniform random walk over neighbors and ``D`` the
        mass sitting on dangling (isolated) vertices.
        """
        alpha = 0.85
        g = random_connected_graph(50, 20, seed)
        g.add_vertex("isolated")
        r = pagerank(g, alpha=alpha, max_iter=500, tol=1e-13)
        n = g.num_vertices
        dangling = sum(r[v] for v in g.vertices() if g.degree(v) == 0)
        residual = 0.0
        for v in g.vertices():
            inflow = sum(r[u] / g.degree(u) for u in g.neighbors(v))
            rhs = alpha * inflow + (1.0 - alpha + alpha * dangling) / n
            residual += abs(r[v] - rhs)
        assert residual < 1e-10
        assert sum(r.values()) == pytest.approx(1.0, abs=1e-12)
