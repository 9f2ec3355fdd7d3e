"""The correctness gate: every failure here fails the run.

* every response is v1, well-formed for its op, and ``status: "ok"``;
* every cache hit equals a payload a miss of the same key returned;
* a seeded sample of answers is sound against Dijkstra on the
  materialized ``Gc = combine(pub, priv)``: reported distances are at
  least the exact ones (within the query bound for rooted answers),
  matched vertices carry their keywords, and rooted answers pass
  ``is_public_private_answer``;
* sampled truss answers equal ``truss_search`` on ``pub.union(priv)``
  restricted to answers with a public and a private edge;
* sampled ``Attachment.portal_map`` entries equal Dijkstra on ``Gc``;
* a traced and an untraced phase with the same seed return identical
  answers (:func:`same_answers`).
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

from repro import combine, is_public_private_answer
from repro.graph.traversal import INF, dijkstra
from repro.semantics.answers import Match, RootedAnswer
from repro.semantics.truss import truss_search
from repro.semantics.wire import serialize_truss

from perfbench.loadgen import Sample
from perfbench.workloads import ROOTED, Inputs, cache_key, items_of

_EPS = 1e-9
#: response fields that are not part of the answer payload
_ENVELOPE = ("v", "cached", "warnings")
_STEPS = ("peval", "arefine", "acomplete")


def payload(response: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in response.items() if k not in _ENVELOPE}


def answers(response: Dict[str, Any]) -> Any:
    """The answer content of a response: payload minus step timings."""
    out = {k: v for k, v in payload(response).items() if k != "breakdown"}
    if "results" in out:
        out["results"] = [answers(r) for r in out["results"]]
    return out


class Gate:
    """Collects failures; :attr:`ok` is the run's ``correct`` flag."""

    MAX_MESSAGES = 20

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.failures = 0
        self.messages: List[str] = []
        self._gc: Dict[Tuple[str, str], Any] = {}
        self._dist: Dict[Tuple[str, str, Any], Dict[Any, float]] = {}
        self._misses: Dict[Any, List[Dict[str, Any]]] = {}
        self._requests: Dict[Any, Dict[str, Any]] = {}
        self._hits: List[Tuple[Any, Dict[str, Any], str]] = []

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def fail(self, message: str) -> None:
        self.failures += 1
        if len(self.messages) < self.MAX_MESSAGES:
            self.messages.append(message)

    # -- shape -----------------------------------------------------------
    def _shape(self, op: str, request: Dict[str, Any], resp: Any, where: str) -> bool:
        if not isinstance(resp, dict):
            self.fail(f"{where}: response is not a dict")
            return False
        if resp.get("status") != "ok":
            self.fail(f"{where}: {op} returned status {resp.get('status')!r}: "
                      f"{resp.get('code')} {resp.get('error')}")
            return False
        if op in ROOTED or op == "truss":
            fields = ("root", "weight", "matches") if op != "truss" else ("vertices", "edges")
            good = isinstance(resp.get("answers"), list) and all(
                isinstance(a, dict) and all(f in a for f in fields)
                for a in resp["answers"]
            ) and isinstance(resp.get("breakdown"), dict) and all(
                isinstance(resp["breakdown"].get(s), float) for s in _STEPS)
        elif op in ("knk", "knk_multi"):
            good = isinstance(resp.get("answer"), dict) and isinstance(
                resp["answer"].get("matches"), list)
        elif op == "batch":
            results = resp.get("results")
            good = isinstance(results, list) and len(results) == len(request["queries"])
            if good:
                for i, (item, r) in enumerate(zip(request["queries"], results)):
                    good &= self._shape(item["op"], item, r, f"{where}[{i}]")
                    good &= isinstance(r.get("cached"), bool)
        elif op == "attach":
            good = resp.get("owner") == request["owner"] and isinstance(
                resp.get("portals"), int) and resp["portals"] > 0
        elif op == "detach":
            good = resp.get("owner") == request["owner"]
        elif op == "create_network":
            good = resp.get("network") == request["network"]
        else:
            good = False
        if not good:
            self.fail(f"{where}: malformed {op} response")
        return good

    def observe(self, s: Sample, phase: str) -> None:
        """Shape checks; cache hits and misses are kept for :meth:`close`.

        Each distinct miss payload is kept per cache key (with one request
        of that key, for :meth:`soundness`), so the gate's memory grows
        with the number of distinct requests, not with throughput.
        """
        where = f"{phase}#{s.index} {s.op}"
        if not isinstance(s.response, dict) or s.response.get("v") != 1:
            self.fail(f"{where}: response is not protocol v1")
            return
        if not self._shape(s.op, s.request, s.response, where):
            return
        if s.op == "batch":
            pairs = list(zip(items_of(s.request), s.response["results"]))
        elif s.op in ROOTED or s.op in ("knk", "knk_multi", "truss"):
            pairs = [(s.request, s.response)]
        else:
            return
        for req, resp in pairs:
            key = cache_key(req)
            got = payload(resp)
            if resp.get("cached") is True:
                if got not in self._misses.get(key, ()):
                    # its miss may not be collected yet (concurrent workers)
                    self._hits.append((key, got, where))
            else:
                seen = self._misses.setdefault(key, [])
                if got not in seen:
                    seen.append(got)
                self._requests.setdefault(key, req)

    def close(self) -> None:
        """Every cache hit must equal a payload some miss of its key returned.

        Checked once all phases are in: with concurrent workers a hit
        can complete before the miss that stored it is collected.
        """
        for key, got, where in self._hits:
            if got not in self._misses.get(key, ()):
                self.fail(f"{where}: cache hit differs from every miss of {key}")
        self._hits.clear()

    # -- oracles -----------------------------------------------------------
    def _graphs(self, request: Dict[str, Any]) -> Tuple[Any, Any, Any]:
        key = (request["network"], request["owner"])
        pub, priv = self.inputs.graphs(*key)
        if key not in self._gc:
            self._gc[key] = combine(pub, priv)
        return pub, priv, self._gc[key]

    def _exact(self, request: Dict[str, Any], source: Any) -> Dict[Any, float]:
        key = (request["network"], request["owner"], source)
        if key not in self._dist:
            self._dist[key] = dijkstra(self._graphs(request)[2], source)
        return self._dist[key]

    def _rooted(self, req: Dict[str, Any], resp: Dict[str, Any], where: str) -> None:
        pub, priv, gc = self._graphs(req)
        for a in resp["answers"]:
            exact = self._exact(req, a["root"])
            matches = {q: Match(m["vertex"], m["distance"]) for q, m in a["matches"].items()}
            if set(matches) != set(req["keywords"]):
                self.fail(f"{where}: answer does not match every keyword")
            for q, m in matches.items():
                if not gc.has_label(m.vertex, q):
                    self.fail(f"{where}: {m.vertex!r} lacks keyword {q!r}")
                if m.distance > req["tau"] + _EPS:
                    self.fail(f"{where}: match distance {m.distance} exceeds tau")
                if m.distance < exact.get(m.vertex, INF) - _EPS:
                    self.fail(f"{where}: distance {m.distance} below exact "
                              f"{exact.get(m.vertex, INF)}")
            if not is_public_private_answer(RootedAnswer(a["root"], matches), pub, priv):
                self.fail(f"{where}: answer is not public-private")

    def _knk(self, req: Dict[str, Any], resp: Dict[str, Any], where: str) -> None:
        gc = self._graphs(req)[2]
        exact = self._exact(req, req["source"])
        wanted = [req["keyword"]] if req["op"] == "knk" else req["keywords"]
        need = any if req.get("mode") == "or" else all
        matches = resp["answer"]["matches"]
        if len(matches) > req["k"]:
            self.fail(f"{where}: more than k matches")
        dists = [m["distance"] for m in matches]
        if dists != sorted(dists):
            self.fail(f"{where}: matches not ranked by distance")
        for m in matches:
            if not need(gc.has_label(m["vertex"], q) for q in wanted):
                self.fail(f"{where}: {m['vertex']!r} lacks the keywords")
            if m["distance"] < exact.get(m["vertex"], INF) - _EPS:
                self.fail(f"{where}: distance {m['distance']} below exact")

    def _truss(self, req: Dict[str, Any], resp: Dict[str, Any], where: str) -> None:
        pub, priv, _ = self._graphs(req)
        expected = [
            serialize_truss(a)
            for a in truss_search(pub.union(priv), req["k"], req["keywords"])
            if any(priv.has_edge(u, v) for u, v in a.edges)
            and any(pub.has_edge(u, v) for u, v in a.edges)
        ]
        if resp["answers"] != expected:
            self.fail(f"{where}: truss answers differ from truss_search on pub+priv")

    def soundness(self, rng: random.Random, queries: int = 16, trusses: int = 2) -> int:
        """Check a seeded sample of answered requests; returns how many."""
        keys = sorted(self._requests, key=repr)
        truss = [k for k in keys if k[0] == "truss"]
        others = [k for k in keys if k[0] != "truss"]
        picks = rng.sample(others, min(queries, len(others))) + rng.sample(
            truss, min(trusses, len(truss)))
        for key in picks:
            req, resp = self._requests[key], self._misses[key][0]
            where = f"{req['op']} {key}"
            if req["op"] in ROOTED:
                self._rooted(req, resp, where)
            elif req["op"] == "truss":
                self._truss(req, resp, where)
            else:
                self._knk(req, resp, where)
        return len(picks)

    def portal_maps(self, service: Any, rng: random.Random, owners: int = 2,
                    portals: int = 4) -> int:
        """Sampled combined portal distances against Dijkstra on ``Gc``."""
        attached = [(net.name, owner) for net in self.inputs.networks
                    for owner in sorted(net.owners)]
        checked = 0
        for network, owner in rng.sample(attached, min(owners, len(attached))):
            # the engine's attachment is internal state; the gate reads it
            att = service._engine(network).attachment(owner)
            req = {"network": network, "owner": owner}
            all_portals = sorted(att.portals, key=repr)
            for p in rng.sample(all_portals, min(portals, len(all_portals))):
                exact = self._exact(req, p)
                for q in all_portals:
                    if att.portal_map.get(p, q) != exact.get(q, INF):
                        self.fail(f"portal map {network}/{owner}: d({p!r},{q!r}) = "
                                  f"{att.portal_map.get(p, q)}, Dijkstra on Gc "
                                  f"{exact.get(q, INF)}")
                checked += 1
        return checked

    def same_answers(self, untraced: Dict[int, int], traced: Dict[int, int]) -> int:
        """Requests both phases completed must have identical answers.

        Both arguments map a request's index in the (identical) seeded
        stream to a digest of its answers.
        """
        common = sorted(set(untraced) & set(traced))
        for i in common:
            if untraced[i] != traced[i]:
                self.fail(f"request #{i}: traced answer differs from untraced")
        return len(common)
