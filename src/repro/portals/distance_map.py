"""Portal distance maps and their combined-graph closure (Sec. V-C).

Portals are the only places where shortest paths can cross between the
public and private graphs, and there are few of them, so PPKWS
precomputes:

* ``d(p_i, p_j)``  — all-pairs portal distances on the public graph ``G``,
* ``d'(p_i, p_j)`` — all-pairs portal distances on the private graph
  ``G'``, read off the vertex-portal map (its one Dijkstra per portal
  already settles every other portal),

and then *refines* them into the combined-graph portal distances
``dc(p_i, p_j)``: a ``|P| x |P|`` matrix seeded with the pointwise
minimum of the two maps is closed under min-plus composition with the
Floyd–Warshall loop.  That is the fixpoint the paper's Algo 7 reaches by
relaxing triangles through other portals; the result equals the true
all-pairs shortest distances between portals on ``Gc`` (we test this
against Dijkstra on the materialized combined graph).

The refinement also records *which portal pairs actually improved* over
the private-graph distances — the bookkeeping behind the reduced-answer-
refinement optimization (Sec. VI-A, Lemma VI.1).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

import numpy as np
from numpy.typing import ArrayLike

from repro.graph.labeled_graph import Vertex
from repro.graph.protocol import GraphLike
from repro.graph.traversal import INF, dijkstra
from repro.portals.keyword_map import VertexPortalDistanceMap

__all__ = [
    "PortalDistanceMap",
    "all_pairs_portal_distances",
    "portal_order",
    "private_portal_distances",
    "refine_portal_distances",
]


def portal_order(portals: Iterable[Vertex]) -> List[Vertex]:
    """The row/column order of portal matrices (portals may be incomparable)."""
    return sorted(portals, key=repr)


class PortalDistanceMap:
    """Immutable symmetric map of shortest distances between portal nodes.

    Built once from a dense matrix whose rows and columns follow
    :func:`portal_order`: ``inf`` entries are unreachable pairs, ``(p, q)``
    and ``(q, p)`` both read the smaller of the two entries, and the
    diagonal is zero whatever the matrix holds.  :meth:`get` sits on the
    answer-refinement hot path, so the finite entries are also kept as a
    dict-of-dicts of Python floats and a lookup is a plain double dict
    lookup.  The map is tiny anyway: ``O(|P|^2)`` with ``|P| << |V|``.
    """

    __slots__ = ("portals", "matrix", "_adj")

    def __init__(self, portals: Iterable[Vertex], matrix: ArrayLike) -> None:
        self.portals: FrozenSet[Vertex] = frozenset(portals)
        order = portal_order(self.portals)
        dense = np.array(matrix, dtype=np.float64).reshape(len(order), len(order))
        dense = np.minimum(dense, dense.T)
        np.fill_diagonal(dense, 0.0)
        dense.setflags(write=False)
        #: the read-only dense form, rows and columns in :func:`portal_order`
        self.matrix = dense
        self._adj: Dict[Vertex, Dict[Vertex, float]] = {
            p: {q: d for q, d in zip(order, row) if d < INF and q is not p}
            for p, row in zip(order, dense.tolist())
        }

    def get(self, p: Vertex, q: Vertex) -> float:
        """Distance between two portals (``0`` on the diagonal)."""
        if p == q:
            return 0.0
        row = self._adj.get(p)
        if row is None:
            return INF
        return row.get(q, INF)

    def pairs(self) -> Iterable[Tuple[Vertex, Vertex, float]]:
        """Iterate each reachable unordered pair once as ``(p, q, distance)``."""
        seen: set = set()
        for p, row in self._adj.items():
            for q, d in row.items():
                if q not in seen:
                    yield p, q, d
            seen.add(p)

    def __len__(self) -> int:
        return sum(len(row) for row in self._adj.values()) // 2

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PortalDistanceMap |P|={len(self.portals)} pairs={len(self)}>"


def all_pairs_portal_distances(
    graph: "GraphLike", portals: Iterable[Vertex]
) -> PortalDistanceMap:
    """All-pairs shortest distances between ``portals`` within ``graph``.

    Runs one Dijkstra per portal, early-terminated once the other portals
    are settled.  Portals absent from ``graph`` simply stay unreachable —
    this happens for private-only analysis of portals of another owner.
    """
    order = portal_order(portals)
    present = {p for p in order if p in graph}
    rows = (dijkstra(graph, p, targets=set(present)) if p in present else {}
            for p in order)
    return PortalDistanceMap(order, [[row.get(q, INF) for q in order] for row in rows])


def private_portal_distances(
    vertex_portal: VertexPortalDistanceMap, portals: Iterable[Vertex]
) -> PortalDistanceMap:
    """``d'(p_i, p_j)`` read off a private graph's vertex-portal map: its
    per-portal Dijkstras already settled every portal, so none runs here."""
    order = portal_order(portals)
    rows = (vertex_portal.portal_distances(p) for p in order)
    return PortalDistanceMap(order, [[row.get(q, INF) for q in order] for row in rows])


def refine_portal_distances(
    public_map: PortalDistanceMap,
    private_map: PortalDistanceMap,
) -> Tuple[PortalDistanceMap, Set[Tuple[Vertex, Vertex]]]:
    """Combine portal maps into the combined-graph map ``dc`` (Algo 7).

    Returns ``(dc, refined_pairs)`` where ``refined_pairs`` contains the
    portal pairs (in *both* orientations, for direct iteration) whose
    combined distance became strictly smaller than the private-graph
    distance — exactly the pairs that can make answer refinement
    worthwhile (Lemma VI.1): a detour through an unrefined pair is a
    private-graph path and can never beat a private shortest distance.

    Both maps must cover the same portals.
    """
    # the union, not either operand: its iteration order is the one the
    # full Eq.-5 loop walks, which picks among equal-distance witnesses
    portals = public_map.portals | private_map.portals
    private = private_map.matrix
    dense = np.minimum(public_map.matrix, private)
    order = portal_order(portals)
    for k in range(len(order)):
        np.minimum(dense, dense[:, k, None] + dense[None, k, :], out=dense)

    refined: Set[Tuple[Vertex, Vertex]] = set()
    for i, j in zip(*np.nonzero(np.triu(dense < private, k=1))):
        p, q = order[i], order[j]
        refined.add((p, q))
        refined.add((q, p))
    return PortalDistanceMap(portals, dense), refined
