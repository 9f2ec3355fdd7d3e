"""Seeded inputs for the three workloads.

Everything here derives from ``--seed``: the networks, the private
graphs, and the request streams.  The program only ever sees the
generated graphs and request dicts.  Request *classes* are dealt from
fixed templates (shuffled per block), so every seed sends the same
number of requests of each op and seed-to-seed differences come from the
graphs and parameters, not from the mix.

Every request sets each of its parameters explicitly, so the answer
cache keys on exactly what :func:`cache_key` computes here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.datasets.synthetic import _carve_private_graph, ppdblp_like
from repro.graph.labeled_graph import LabeledGraph

ROOTED = ("blinks", "banks", "rclique")
QUERY_OPS = ("banks", "batch", "blinks", "knk", "knk_multi", "rclique", "truss")
#: the network the attach probe attaches to (see ``probes.py``): a copy
#: of the first network's public graph that no query uses
PROBE_NETWORK = "probe"
#: fields of a query request that are not query parameters
_ENVELOPE = ("op", "network", "owner", "queries")

#: query_cold: per 100 requests.  Under 50% are the cheap knk ops, so
#: the median query lands inside the 5-15 ms rooted/batch cluster rather
#: than in the gap between it and the knk cluster.
COLD_MIX = {"knk": 25, "knk_multi": 10, "blinks": 14, "banks": 14,
            "rclique": 14, "truss": 10, "batch": 13}
#: hot_cache: op class of pool rank r < head is HOT_TEMPLATE[r % 20];
#: ranks past the head alternate knk / knk_multi, so the misses the
#: tail causes are cheap and alike
HOT_TEMPLATE = ("knk", "blinks", "knk", "knk_multi", "knk", "batch", "knk",
                "banks", "knk", "knk_multi", "knk", "rclique", "knk", "truss",
                "knk", "knk_multi", "knk", "batch", "knk", "blinks")
#: attach_churn reads: per 100 requests.  So many are knk ops that the
#: median read lands inside the knk reads no attach stalled, rather than
#: at the edge of that cluster.
CHURN_MIX = {"knk": 80, "knk_multi": 4, "blinks": 4, "banks": 3,
             "rclique": 3, "truss": 3, "batch": 3}

#: workload parameters, recorded in every result
PARAMS: Dict[str, Dict[str, Any]] = {
    "query_cold": {
        "loop": "closed", "clients": 1, "networks": 1, "communities": 100,
        "community_size": 40, "owners": 4, "private_vertices": 80,
        "mix": COLD_MIX, "truss_k": 3, "setup_reps": 3, "probe_owners": 60,
    },
    "hot_cache": {
        "loop": "closed", "outstanding": 2, "executor_workers": 2,
        "networks": 3, "communities": 30, "community_size": 40, "owners": 2,
        "private_vertices": 80, "pool": 1600, "head": 400, "zipf_s": 0.8,
        "template": HOT_TEMPLATE, "truss_k": 4, "setup_reps": 3,
        "probe_owners": 40,
    },
    "attach_churn": {
        "loop": "open", "executor_workers": 2, "networks": 1,
        "communities": 40, "community_size": 40, "owners": 2,
        "private_vertices": 80, "read_rate_per_s": 20.0, "mix": CHURN_MIX,
        "attach_period_s": 2.0, "transient_vertices": [150, 400],
        "portal_fraction": 0.2, "truss_k": 3, "setup_reps": 3,
        "probe_owners": 12,
    },
}


@dataclass
class Network:
    name: str
    public: LabeledGraph
    #: owners attached during set-up (they stay attached)
    owners: Dict[str, LabeledGraph]


@dataclass
class Inputs:
    workload: str
    seed: int
    networks: List[Network]
    #: private graphs of owners attached and detached after set-up: by the
    #: attach_churn timed phase, or by the attach probe of the others
    transient: Dict[str, LabeledGraph] = field(default_factory=dict)
    #: the attach-probe owners (on PROBE_NETWORK), in probe order
    probe_owners: List[str] = field(default_factory=list)
    #: hot_cache: requests sent during set-up to warm the cache
    warmup: List[Dict[str, Any]] = field(default_factory=list)
    #: attach_churn: (due offset s, request) for the whole timed phase
    schedule: List[Tuple[float, Dict[str, Any]]] = field(default_factory=list)
    #: closed loops: a factory for the request stream
    stream_factory: Optional[Callable[[], Iterator[Dict[str, Any]]]] = None

    def stream(self) -> Iterator[Dict[str, Any]]:
        """A fresh copy of the closed-loop request stream (same every call)."""
        assert self.stream_factory is not None
        return self.stream_factory()

    def graphs(self, network: str, owner: str) -> Tuple[LabeledGraph, LabeledGraph]:
        """``(public, private)`` behind a request, for the oracles."""
        net = next(n for n in self.networks
                   if n.name == network or network == PROBE_NETWORK)
        private = net.owners.get(owner) or self.transient[owner]
        return net.public, private


def cache_key(request: Dict[str, Any]) -> Tuple[Any, ...]:
    """What the answer cache distinguishes a query request by."""
    params = tuple(sorted(
        (k, tuple(v) if isinstance(v, list) else v)
        for k, v in request.items() if k not in _ENVELOPE
    ))
    return (request["op"], request["network"], request["owner"], params)


# ----------------------------------------------------------------------
class _Maker:
    """Draws distinct query requests against one owner's graphs."""

    def __init__(self, network: str, owner: str, private: LabeledGraph,
                 rng: random.Random, seen: Set[Tuple[Any, ...]], truss_k: int) -> None:
        self.truss_k = truss_k
        self.network = network
        self.owner = owner
        self.rng = rng
        self.seen = seen
        self.labels = sorted({l for v in private.vertices() for l in private.labels(v)})
        self.sources = sorted(private.vertices(), key=repr)

    def _base(self, op: str) -> Dict[str, Any]:
        return {"op": op, "network": self.network, "owner": self.owner}

    def _draw(self, op: str) -> Dict[str, Any]:
        rng = self.rng
        req = self._base(op)
        if op in ROOTED:
            req.update(keywords=rng.sample(self.labels, 2), tau=3.0, k=5)
        elif op == "knk":
            req.update(source=rng.choice(self.sources),
                       keyword=rng.choice(self.labels), k=5)
        elif op == "knk_multi":
            req.update(source=rng.choice(self.sources),
                       keywords=rng.sample(self.labels, 2), k=5,
                       mode=rng.choice(("and", "or")))
        elif op == "truss":
            # one or two keywords: one alone runs out of distinct keys
            # within minutes (the peel is global, so the cost is alike)
            req.update(k=self.truss_k,
                       keywords=rng.sample(self.labels, rng.choice((1, 2))))
        elif op == "batch":
            items = [self.fresh("knk"), self.fresh("knk"),
                     self.fresh("knk_multi"), self.fresh("blinks")]
            for item in items:
                for f in ("network", "owner"):
                    del item[f]
            req["queries"] = items
        else:
            raise ValueError(op)
        return req

    def fresh(self, op: str) -> Dict[str, Any]:
        """A request whose cache key (or each batch item's key) is new."""
        if op == "batch":
            return self._draw(op)  # its items come from fresh()
        for _ in range(1000):
            req = self._draw(op)
            key = cache_key(req)
            if key not in self.seen:
                self.seen.add(key)
                return req
        raise RuntimeError(f"could not draw a distinct {op} request")


def _network(name: str, rng: random.Random, p: Dict[str, Any]) -> Network:
    ds = ppdblp_like(
        num_communities=p["communities"], community_size=p["community_size"],
        num_labels=400, num_private=p["owners"],
        private_vertices=p["private_vertices"], seed=rng.randrange(2**31),
    )
    return Network(name, ds.public, dict(ds.private_graphs))


def _vocab(net: Network) -> List[str]:
    return sorted({l for v in net.public.vertices() for l in net.public.labels(v)})


def _carve(net: Network, rng: random.Random, size: int, owner: str,
           portal_fraction: float = 0.2) -> LabeledGraph:
    """A private graph overlapping ``net``, as ``ppdblp_like`` makes them."""
    return _carve_private_graph(
        net.public, rng, size, portal_fraction=portal_fraction,
        owner_offset=owner, extra_label_pool=_vocab(net), labels_per_vertex=10.0,
    )


def _dealt(mix: Dict[str, int], rng: random.Random) -> Iterator[str]:
    """Op classes in blocks holding exactly ``mix``, shuffled per block."""
    block = [op for op, n in sorted(mix.items()) for _ in range(n)]
    while True:
        rng.shuffle(block)
        yield from block


def _makers(net: Network, rng: random.Random, seen: Set[Any],
            p: Dict[str, Any]) -> List[_Maker]:
    return [_Maker(net.name, owner, priv, rng, seen, p["truss_k"])
            for owner, priv in sorted(net.owners.items())]


def _zipf_cdf(n: int, s: float) -> List[float]:
    weights = [1.0 / (r + 1) ** s for r in range(n)]
    total = sum(weights)
    acc, cdf = 0.0, []
    for w in weights:
        acc += w / total
        cdf.append(acc)
    return cdf


def build(workload: str, seed: int, seconds: float) -> Inputs:
    """Generate the inputs of ``workload`` for ``seed``."""
    p = PARAMS[workload]
    rng = random.Random(f"{workload}:{seed}")
    nets = [_network(f"net{i}", rng, p) for i in range(p["networks"])]
    inputs = Inputs(workload, seed, nets)
    stream_seed = rng.randrange(2**31)

    if workload == "query_cold":
        def cold() -> Iterator[Dict[str, Any]]:
            r = random.Random(stream_seed)
            makers = _makers(nets[0], r, set(), p)
            for op in _dealt(COLD_MIX, r):
                yield r.choice(makers).fresh(op)
        inputs.stream_factory = cold

    elif workload == "hot_cache":
        seen: Set[Any] = set()
        makers = [m for net in nets for m in _makers(net, rng, seen, p)]
        pool = [rng.choice(makers).fresh(
                    HOT_TEMPLATE[r % len(HOT_TEMPLATE)] if r < p["head"]
                    else ("knk", "knk_multi")[r % 2])
                for r in range(p["pool"])]
        inputs.warmup = pool[:p["head"]]
        cdf = _zipf_cdf(len(pool), p["zipf_s"])

        def hot() -> Iterator[Dict[str, Any]]:
            import bisect

            r = random.Random(stream_seed)
            while True:
                yield pool[min(bisect.bisect_left(cdf, r.random()), len(pool) - 1)]
        inputs.stream_factory = hot

    elif workload == "attach_churn":
        net = nets[0]
        makers = _makers(net, rng, set(), p)
        reads = _dealt(CHURN_MIX, rng)
        n_reads = int(seconds * p["read_rate_per_s"])
        schedule = [(i / p["read_rate_per_s"], rng.choice(makers).fresh(next(reads)))
                    for i in range(n_reads)]
        period = p["attach_period_s"]
        n_attach = max(1, math.ceil((seconds - 0.5) / period))
        lo, hi = p["transient_vertices"]
        sizes = [round(lo + (hi - lo) * i / max(1, n_attach - 1)) for i in range(n_attach)]
        rng.shuffle(sizes)
        for j, size in enumerate(sizes):
            owner = f"churn{j}"
            private = _carve(net, rng, size, owner, p["portal_fraction"])
            inputs.transient[owner] = private
            due = 0.5 + j * period
            schedule.append((due, {"op": "attach", "network": net.name,
                                   "owner": owner, "private": private}))
            schedule.append((due + period / 2, {"op": "detach", "network": net.name,
                                                "owner": owner}))
        schedule.sort(key=lambda e: e[0])
        inputs.schedule = schedule
    else:
        raise KeyError(workload)
    # attach-probe owners: fresh private graphs sized like the workload's
    # own attaches (80 vertices; 150-400 in attach_churn), all carved from
    # the first network, whose public graph PROBE_NETWORK shares
    net = nets[0]
    for j in range(p["probe_owners"]):
        owner = f"probe{j}"
        if workload == "attach_churn":
            lo, hi = p["transient_vertices"]
            size = round(lo + (hi - lo) * j / max(1, p["probe_owners"] - 1))
            graph = _carve(net, rng, size, owner, p["portal_fraction"])
        else:
            graph = _carve(net, rng, p["private_vertices"], owner)
        inputs.transient[owner] = graph
        inputs.probe_owners.append(owner)
    return inputs


def setup_requests(inputs: Inputs) -> List[Dict[str, Any]]:
    """The set-up sequence: create every network, attach its owners."""
    out: List[Dict[str, Any]] = []
    for net in inputs.networks:
        out.append({"op": "create_network", "network": net.name, "public": net.public})
        for owner, priv in sorted(net.owners.items()):
            out.append({"op": "attach", "network": net.name, "owner": owner,
                        "private": priv})
    return out


def probe_setup_request(inputs: Inputs) -> Dict[str, Any]:
    """Creates PROBE_NETWORK; sent once, after the timed set-up."""
    return {"op": "create_network", "network": PROBE_NETWORK,
            "public": inputs.networks[0].public}


def items_of(request: Dict[str, Any]) -> Sequence[Dict[str, Any]]:
    """A batch's items as full requests (network/owner filled in)."""
    return [dict(item, network=request["network"], owner=request["owner"])
            for item in request["queries"]]
