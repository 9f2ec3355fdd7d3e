"""Core machinery shared by ADS and PADS (paper Sec. V-A).

Both indexes are *all-distance sketches*: each vertex ``v`` stores a small
map ``{center -> d(v, center)}``.  The two differ only in the priority
used to decide which vertices become centers — random values for ADS,
PageRank for PADS — so construction and estimation live here and the
concrete builders just supply a rank function.

Construction follows the paper's Algo 6: process candidate centers in
descending priority; from each, run a *pruned* Dijkstra that inserts the
center into the sketch of every visited vertex ``u`` unless ``u`` already
holds ``k`` centers at distance ``<= d`` (in which case the traversal does
not expand through ``u``).  The expected sketch size is ``O(k ln |V|)``.

The builder freezes its input into a
:class:`~repro.graph.frozen.FrozenGraph` (the public graph already is
one) and runs the whole of Algo 6 over interned integer ids with flat
CSR neighbor scans and bare ``(distance, id)`` heap entries; the
resulting sketches are translated back to vertex keys, so
:class:`DistanceSketch` and the persistence layer never see the ids.
The pruned traversal's output is independent of heap tie order (each
vertex's coverage test only depends on previously processed centers).
"""

from __future__ import annotations

import bisect
import heapq
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.exceptions import IndexBuildError
from repro.graph.frozen import freeze
from repro.graph.labeled_graph import Vertex
from repro.graph.traversal import INF

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.protocol import GraphLike

__all__ = ["DistanceSketch", "build_sketch_from_ranks"]


class DistanceSketch:
    """Per-vertex distance sketches plus the two-hop distance estimator.

    ``entries[v]`` maps each center ``w`` in v's sketch to ``d(v, w)``.
    Estimation (paper Eq. 2) takes the best common center:

        d_hat(u, v) = min over w of  entries[u][w] + entries[v][w]

    Sketch distances are along real paths, so ``d_hat`` is always an upper
    bound of the true distance, and exact when ``u`` (or ``v``) is itself a
    center of the other's sketch.
    """

    __slots__ = ("entries", "k", "kind")

    def __init__(
        self,
        entries: Dict[Vertex, Dict[Vertex, float]],
        k: int,
        kind: str = "sketch",
    ) -> None:
        self.entries = entries
        self.k = k
        self.kind = kind

    # ------------------------------------------------------------------
    def sketch(self, v: Vertex) -> Mapping[Vertex, float]:
        """The sketch of ``v`` (empty mapping for unknown vertices)."""
        return self.entries.get(v, {})

    def estimate(self, u: Vertex, v: Vertex) -> float:
        """Estimated distance ``d_hat(u, v)`` (Eq. 2); ``inf`` if no overlap."""
        if u == v:
            return 0.0 if u in self.entries else INF
        su = self.entries.get(u)
        sv = self.entries.get(v)
        if not su or not sv:
            return INF
        if len(su) > len(sv):
            su, sv = sv, su
        best = INF
        for w, d1 in su.items():
            d2 = sv.get(w)
            if d2 is not None and d1 + d2 < best:
                best = d1 + d2
        return best

    def estimate_to_sketch(self, v: Vertex, other: Mapping[Vertex, float]) -> float:
        """Distance estimate between ``v`` and an externally built sketch.

        KPADS keyword lookups use this: ``other`` is the merged keyword
        sketch (Eq. 3).
        """
        sv = self.entries.get(v)
        if not sv or not other:
            return INF
        if len(sv) > len(other):
            small, large = other, sv
        else:
            small, large = sv, other
        best = INF
        for w, d1 in small.items():
            d2 = large.get(w)
            if d2 is not None and d1 + d2 < best:
                best = d1 + d2
        return best

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices carrying a sketch."""
        return len(self.entries)

    @property
    def total_entries(self) -> int:
        """Total number of ``(center, distance)`` entries (the index size)."""
        return sum(len(s) for s in self.entries.values())

    def average_size(self) -> float:
        """Mean sketch size — theory says ``O(k ln |V|)``."""
        if not self.entries:
            return 0.0
        return self.total_entries / len(self.entries)

    def centers(self) -> Iterable[Vertex]:
        """All distinct centers used anywhere in the index."""
        seen = set()
        for s in self.entries.values():
            seen.update(s)
        return seen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DistanceSketch kind={self.kind} k={self.k} "
            f"|V|={self.num_vertices} entries={self.total_entries}>"
        )


def build_sketch_from_ranks(
    graph: "GraphLike",
    ranks: Mapping[Vertex, float],
    k: int,
    kind: str = "sketch",
    tie_break: Optional[Mapping[Vertex, int]] = None,
) -> DistanceSketch:
    """Build an all-distance sketch given per-vertex priorities (Algo 6).

    Parameters
    ----------
    ranks:
        Priority of each vertex (higher = more likely to be a center);
        PageRank for PADS, uniform random values for ADS.
    k:
        The bottom-k parameter: a center at distance ``d`` enters the
        sketch of ``u`` only while fewer than ``k`` existing centers sit
        within distance ``d`` of ``u``.
    tie_break:
        Optional deterministic total order used when priorities tie.
        Defaults to vertex iteration order (interning order on the
        frozen graph).

    The input is frozen first (a no-op for the public graph).  The
    transient ``tolist`` copies are amortized over the ``n`` pruned
    traversals of the build; plain-list indexing is markedly faster than
    ``array`` element access in the inner relaxation loop.
    """
    if k < 1:
        raise IndexBuildError(f"sketch parameter k must be >= 1, got {k}")
    frozen = freeze(graph)
    vx = frozen.vertex_table
    missing = [v for v in vx if v not in ranks]
    if missing:
        raise IndexBuildError(
            f"ranks missing for {len(missing)} vertices (e.g. {missing[0]!r})"
        )

    # ra: ignore[RA005] — sanctioned int-specialized path: Algo 6 runs
    # over the frozen graph's CSR arrays, and the sketches are keyed
    # back to vertices before they leave this function.
    indptr_a, indices_a, weights_a = frozen.csr()
    indptr = indptr_a.tolist()
    indices = indices_a.tolist()
    weights = weights_a.tolist()
    n = len(vx)
    rank_of = [ranks[v] for v in vx]
    if tie_break is None:
        order = sorted(range(n), key=lambda i: (-rank_of[i], i))
    else:
        order = sorted(
            range(n), key=lambda i: (-rank_of[i], tie_break.get(vx[i], 0))
        )

    entries_ids: List[Dict[int, float]] = [{} for _ in range(n)]
    # Per-vertex sorted list of distances already in the sketch; used for
    # the "< k entries with distance <= d" test via binary search.
    loaded: List[List[float]] = [[] for _ in range(n)]
    # Per-center settled set as a version-stamp array: stamp[u] == step
    # marks u settled for the current center without any hashing and
    # without an O(n) reset between centers.
    stamp = [0] * n
    heappop, heappush = heapq.heappop, heapq.heappush
    bisect_right, insort = bisect.bisect_right, bisect.insort

    for step, center in enumerate(order, 1):
        # Pruned Dijkstra from the candidate center.
        heap: List[Tuple[float, int]] = [(0.0, center)]
        while heap:
            d, u = heappop(heap)
            if stamp[u] == step:
                continue
            stamp[u] = step
            bucket = loaded[u]
            if bisect_right(bucket, d) >= k:
                # u already sees k higher-priority centers within d:
                # the center is useless for u and everything behind it.
                continue
            entries_ids[u][center] = d
            insort(bucket, d)
            for pos in range(indptr[u], indptr[u + 1]):
                nbr = indices[pos]
                if stamp[nbr] != step:
                    heappush(heap, (d + weights[pos], nbr))

    entries: Dict[Vertex, Dict[Vertex, float]] = {
        vx[i]: {vx[c]: d for c, d in sketch.items()}
        for i, sketch in enumerate(entries_ids)
    }
    return DistanceSketch(entries, k, kind)
