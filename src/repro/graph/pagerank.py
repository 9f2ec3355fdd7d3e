"""PageRank over the frozen public graph.

PADS (paper Sec. V-A) ranks vertices by PageRank rather than by random
values: high-PageRank vertices lie on many shortest paths and make good
sketch centers.  The paper says "we employ any efficient algorithms to
obtain the PageRank": :func:`pagerank` freezes its input (a no-op for
the public graph, which is frozen already) and runs one power iteration
as array sweeps straight over the interned ``indptr``/``indices``
buffers — no per-edge Python loop at all.

:func:`pagerank_pure` is the dictionary power iteration kept as the
reference the tests compare against.  Both treat the undirected graph as
a random walk with uniform transition probability over neighbors,
damping ``alpha`` and uniform teleport, and visit edges in the same
order, so their results agree to within float rounding.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

import numpy as np

from repro.exceptions import GraphError
from repro.graph.frozen import freeze
from repro.graph.labeled_graph import Vertex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.protocol import GraphLike

__all__ = ["pagerank", "pagerank_pure"]


def pagerank(
    graph: "GraphLike",
    alpha: float = 0.85,
    max_iter: int = 100,
    tol: float = 1e-8,
) -> Dict[Vertex, float]:
    """PageRank scores ``pr: V -> [0, 1]``, summing to 1.

    ``alpha`` is the damping factor in (0, 1).  The iteration stops once
    the L1 change between two sweeps drops below ``tol`` or after
    ``max_iter`` sweeps.
    """
    if not 0.0 < alpha < 1.0:
        raise GraphError(f"alpha must be in (0, 1), got {alpha}")
    frozen = freeze(graph)
    n = frozen.num_vertices
    if n == 0:
        return {}
    indptr_a, indices_a, _ = frozen.csr()
    # ``indices`` *is* the destination array of the random-walk matrix;
    # the source array is one ``np.repeat`` over the ``indptr`` gaps.
    gaps = np.diff(np.frombuffer(indptr_a, dtype=np.int64))
    src = np.repeat(np.arange(n, dtype=np.int64), gaps)
    dst = (
        np.frombuffer(indices_a, dtype=np.int64)
        if len(indices_a)
        else np.zeros(0, dtype=np.int64)
    )
    deg = gaps.astype(np.float64)
    dangling = deg == 0
    safe_deg = np.where(dangling, 1.0, deg)

    rank = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        contrib = alpha * rank / safe_deg
        nxt = np.zeros(n)
        np.add.at(nxt, dst, contrib[src])
        dangling_mass = rank[dangling].sum()
        nxt += (1.0 - alpha) / n + alpha * dangling_mass / n
        delta = np.abs(nxt - rank).sum()
        rank = nxt
        if delta < tol:
            break
    vx = frozen.vertex_table
    return {vx[i]: float(rank[i]) for i in range(n)}


def pagerank_pure(
    graph: "GraphLike",
    alpha: float = 0.85,
    max_iter: int = 100,
    tol: float = 1e-8,
) -> Dict[Vertex, float]:
    """Dictionary-based power iteration (the reference implementation)."""
    n = graph.num_vertices
    rank = {v: 1.0 / n for v in graph.vertices()}
    base = (1.0 - alpha) / n
    for _ in range(max_iter):
        nxt = {v: 0.0 for v in rank}
        dangling_mass = 0.0
        for v, r in rank.items():
            deg = graph.degree(v)
            if deg == 0:
                dangling_mass += r
                continue
            share = alpha * r / deg
            for u in graph.neighbors(v):
                nxt[u] += share
        spread = base + alpha * dangling_mass / n
        delta = 0.0
        for v in nxt:
            nxt[v] += spread
            delta += abs(nxt[v] - rank[v])
        rank = nxt
        if delta < tol:
            break
    return rank
