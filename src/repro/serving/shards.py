"""Process-based shard serving: shared-memory CSR shards behind a pool.

Threads cannot multiply CPU-bound keyword-search throughput under the
GIL — the serving benchmark's ``workers_only_speedup`` hovered around
1x no matter how many workers the :class:`~repro.serving.executor.
ServiceExecutor` ran.  This module is the escape hatch, following DKWS
(the same authors' distributed successor to PPKWS): evaluate per
partition in separate *processes*, merge with monotonic bounds, and
notify-push a tightening bound so shards stop early.

Architecture
------------

* **Shared-memory replicas.**  The public graph's flat CSR buffers are
  exported once into ``multiprocessing.shared_memory`` segments
  (:meth:`repro.graph.frozen.FrozenGraph.export_shared`) and every
  worker re-attaches zero-copy — k workers cost one copy of the
  adjacency payload, not k.  The (cheap, picklable) PADS/KPADS sketches
  ride along in the admin log, so workers never rebuild the index.
* **Edge-cut partition.**  Interned vertex ids are split into
  contiguous ranges balanced by CSR edge count; the crossing-edge count
  per boundary (the *frontier*, the moral equivalent of the paper's
  portal table) is reported in :meth:`ShardServingPool.health`.
* **Workers.**  Each shard is one ``spawn``-ed process running a full
  :class:`~repro.service.PPKWSService` replica (answer cache off — the
  parent's cache is authoritative).  Admin ops are *replayed* from an
  ordered log: the parent broadcasts every ``create`` / ``attach`` /
  ``detach`` / ``drop`` and keeps the log so a respawned worker can be
  rebuilt from scratch.
* **Two read paths.**  :meth:`ShardServingPool.route` ships a whole
  request to one worker (round-robin) — the default for cache-eligible
  queries, putting the entire evaluation outside the parent's GIL.
  :meth:`ShardServingPool.plan` returns a scatter-gather plan a
  ``sharded_run`` pipeline step uses to fan one query's AComplete out
  across *all* workers (request field ``"fanout": true``).
* **Notify-push bounds.**  ``scatter`` allocates a ticket in a shared
  ``Array('d')``; after each shard's result merges, the tightened bound
  is written there and still-running shards read it between work items,
  cancelling work whose cost floor exceeds it.  Bounds are monotone
  under min-merging, so pruning never changes the final top-k — the
  equivalence suite pins sharded answers bit-identical to serial ones.

Fault injection: the ``serving.shards.worker`` point fires in the
worker after every task/request receive.  A ``kill`` there exits the
process (the real crash); the parent maps the dead pipe to a
well-formed ``code: "internal"`` response, respawns the worker and
replays the admin log — chaos tests assert the pool self-heals.

Metrics: ``ppkws_shard_requests_total{kind}``,
``ppkws_shard_merge_seconds``, ``ppkws_shard_respawns_total``,
``ppkws_shard_cancelled_total`` (see the README catalogue / RA003).
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exceptions import FaultInjectedError, ReproError, WorkerKilledError
from repro.faults.points import SHARD_WORKER
from repro.graph.frozen import FrozenGraph
from repro.obs.registry import MetricsRegistry

__all__ = ["LocalShardPlan", "ShardPartition", "ShardServingPool"]

#: one scatter-gather in flight per slot of the shared bound array
_MAX_TICKETS = 64

_INF = float("inf")

#: task tuple accepted by ``scatter``: (shard index, payload, cost floor)
ShardTask = Tuple[int, Dict[str, Any], float]


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------
class ShardPartition:
    """Contiguous interned-id ranges balanced by CSR edge count.

    ``starts[i]`` is the first id of shard ``i``; :meth:`shard_of` is a
    dict lookup plus a bisect.  ``frontier`` counts the edges whose
    endpoints land in different shards — the cut size the partition
    pays, reported in pool health.
    """

    def __init__(self, frozen: FrozenGraph, shards: int) -> None:
        if shards < 1:
            raise ValueError("shards must be positive")
        # Balancing needs per-vertex edge counts and the frontier needs
        # raw neighbor ids — one O(E) pass over the flat buffers, vs.
        # E dict lookups through the protocol.
        indptr, indices, _ = frozen.csr()  # ra: ignore[RA005]
        n = frozen.num_vertices
        total = indptr[n] if n else 0
        self.num_shards = shards
        self._id_of = {v: i for i, v in enumerate(frozen.vertex_table)}
        # Greedy sweep: close a shard once it holds its fair share of
        # the remaining edge endpoints (leaving at least one id per
        # remaining shard).
        starts: List[int] = [0]
        acc = 0
        for i in range(n):
            if len(starts) >= shards:
                break
            acc += indptr[i + 1] - indptr[i]
            if acc * shards >= total * len(starts) and i + 1 <= n - (
                shards - len(starts)
            ):
                starts.append(i + 1)
        while len(starts) < shards:  # tiny graphs: pad with empty shards
            starts.append(n)
        self.starts: Tuple[int, ...] = tuple(starts)
        self.frontier = sum(
            1
            for i in range(n)
            for pos in range(indptr[i], indptr[i + 1])
            if i < indices[pos]
            and self._shard_of_id(i) != self._shard_of_id(indices[pos])
        )

    def _shard_of_id(self, i: int) -> int:
        return bisect.bisect_right(self.starts, i) - 1

    def shard_of(self, vertex: Any) -> int:
        """The shard owning ``vertex`` (shard 0 for private-only ids)."""
        i = self._id_of.get(vertex)
        return self._shard_of_id(i) if i is not None else 0

    def sizes(self) -> List[int]:
        """Vertices per shard."""
        n = len(self._id_of)
        ends = list(self.starts[1:]) + [n]
        return [e - s for s, e in zip(self.starts, ends)]


# ----------------------------------------------------------------------
# the in-process plan (tests)
# ----------------------------------------------------------------------
class LocalShardPlan:
    """Scatter-gather over the *local* engine: same plan surface, no IPC.

    Runs every shard task inline through the registered handler against
    the parent's own engine, preserving the scatter order, bound updates
    and cancellation logic — so the equivalence suite can pin the
    sharded step bodies bit-identical to the serial ones without paying
    for a process pool.
    """

    def __init__(self, engine: Any, shards: int = 2, owner: str = "") -> None:
        self.partition = ShardPartition(engine.public, shards)
        self._engine = engine
        self._owner = owner
        self.tasks_run = 0
        self.tasks_cancelled = 0

    @property
    def num_shards(self) -> int:
        return self.partition.num_shards

    def shard_of(self, vertex: Any) -> int:
        return self.partition.shard_of(vertex)

    def engine(self, network: str) -> Any:
        """Host hook for task handlers: the one local engine."""
        return self._engine

    def scatter(
        self,
        kind: str,
        tasks: List[ShardTask],
        initial_bound: float,
        on_result: Callable[[Any], float],
    ) -> None:
        from repro.core.engine import shard_task

        handler = shard_task(kind)
        bound = initial_bound

        def read_bound() -> float:
            return bound

        for _, payload, cost_floor in sorted(tasks, key=lambda t: t[0]):
            if cost_floor > bound:
                self.tasks_cancelled += 1
                continue
            self.tasks_run += 1
            result = handler(self, "local", self._owner, payload, read_bound)
            bound = min(bound, on_result(result))


# ----------------------------------------------------------------------
# the worker process
# ----------------------------------------------------------------------
class _WorkerHost:
    """What a shard task sees in the worker: engines plus the bound."""

    def __init__(self, service: Any) -> None:
        self.service = service

    def engine(self, network: str) -> Any:
        return self.service._engine(network)


def _apply_admin(host: _WorkerHost, pending: Dict[str, list], rec: tuple) -> None:
    """Apply one admin-log record to the worker's replica service.

    ``attach`` for a network this worker has not created yet is buffered
    and applied right after its ``create`` — enable-time replication can
    race a concurrent attach broadcast, and the log keeps both.
    """
    from repro.core.framework import PPKWS, PublicIndex

    op = rec[0]
    svc = host.service
    if op == "create":
        _, name, handle, (pads, kpads, scores), options = rec
        graph = FrozenGraph.from_shared(handle)
        engine = PPKWS(
            graph, options=options,
            index=PublicIndex(graph, pads, kpads, scores),
        )
        svc.adopt_network(name, engine)
        for owner, private in pending.pop(name, ()):
            svc.attach_user(name, owner, private)
    elif op == "attach":
        _, network, owner, private = rec
        if network in svc.networks():
            # Replay is idempotent: enable-time replication can race an
            # attach broadcast and the log legitimately holds both.
            if owner in svc._engine(network).owners():
                svc.detach_user(network, owner)
            svc.attach_user(network, owner, private)
        else:
            pending.setdefault(network, []).append((owner, private))
    elif op == "detach":
        _, network, owner = rec
        if network in svc.networks():
            svc.detach_user(network, owner)
    elif op == "drop":
        _, name = rec
        pending.pop(name, None)
        if name in svc.networks():
            graph = svc._engine(name).public
            svc.drop_network(name)
            # Unpin the shared pages now — a GC'd memoryview export
            # would otherwise make SharedMemory.__del__ noisy.
            graph.release_shared()
    else:  # pragma: no cover - protocol drift guard
        raise ReproError(f"unknown admin record {op!r}")


def _shard_worker_main(shard_id: int, conn: Any, bounds: Any) -> None:
    """Spawn entry point: serve one shard until ``stop`` or death."""
    from repro import faults
    from repro.core.engine import ensure_builtin_semantics, shard_task
    from repro.service import PPKWSService

    ensure_builtin_semantics()
    svc = PPKWSService(answer_cache_size=0)
    host = _WorkerHost(svc)
    pending: Dict[str, list] = {}
    conn.send(("ready", shard_id))
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):  # parent went away
            os._exit(0)
        op = msg[0]
        if op == "stop":
            for name in svc.networks():
                # unpin before interpreter exit
                svc._engine(name).public.release_shared()
            conn.send(("ok", None))
            return
        if op == "ping":
            conn.send(("ok", shard_id))
            continue
        if op == "faults":
            _, specs, seed = msg
            faults.activate(
                faults.FaultSchedule(specs, seed) if specs is not None else None
            )
            conn.send(("ok", None))
            continue
        if op == "admin":
            try:
                _apply_admin(host, pending, msg[1])
            except ReproError as exc:
                conn.send(("error", type(exc).__name__, str(exc)))
            else:
                conn.send(("ok", None))
            continue
        # task / execute: the injection point for shard-process chaos.
        try:
            faults.fire(SHARD_WORKER)
        except WorkerKilledError:
            os._exit(1)  # the real thing: no reply, no cleanup
        except FaultInjectedError as exc:
            conn.send(("error", type(exc).__name__, str(exc)))
            continue
        if op == "execute":
            conn.send(("ok", svc.execute(msg[1])))
        elif op == "task":
            _, kind, network, owner, payload, ticket = msg
            try:
                handler = shard_task(kind)
                result = handler(
                    host, network, owner, payload, lambda: bounds[ticket]
                )
            except ReproError as exc:
                conn.send(("error", type(exc).__name__, str(exc)))
            else:
                conn.send(("ok", result))
        else:  # pragma: no cover - protocol drift guard
            conn.send(("error", "ReproError", f"unknown message {op!r}"))


# ----------------------------------------------------------------------
# the pool
# ----------------------------------------------------------------------
class _Worker:
    """Parent-side handle: process + pipe + the lock serializing both."""

    __slots__ = ("shard_id", "process", "conn", "lock")

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.process: Any = None
        self.conn: Any = None
        #: held across every send+recv pair so replies cannot be stolen
        self.lock = threading.Lock()


class ShardServingPool:
    """k shard-worker processes plus the scatter-gather machinery.

    Construct via :meth:`repro.service.PPKWSService.enable_sharding`,
    which also replays existing networks into the pool and broadcasts
    subsequent admin ops.  ``registry`` (usually the service's) receives
    the shard metrics.  The pool owns the shared-memory segments it
    exports and unlinks them in :meth:`shutdown`.
    """

    def __init__(
        self,
        shards: int = 2,
        registry: Optional[MetricsRegistry] = None,
        spawn_timeout_s: float = 60.0,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be positive")
        import multiprocessing

        self._ctx = multiprocessing.get_context("spawn")
        self._registry = registry
        self._spawn_timeout_s = spawn_timeout_s
        #: scatter bound slots shared with every worker (inherited)
        self._bounds = self._ctx.Array("d", _MAX_TICKETS, lock=False)
        self._ticket_lock = threading.Lock()
        self._next_ticket = 0
        #: the replayable admin history (records as shipped to workers)
        self._log: List[tuple] = []
        self._log_lock = threading.Lock()
        #: network -> live shared-memory segments (owned by the pool)
        self._segments: Dict[str, list] = {}
        #: network -> parent-side partition (feeds plan()/health())
        self._partitions: Dict[str, ShardPartition] = {}
        #: the last fault schedule shipped (re-armed on respawn)
        self._fault_state: Tuple[Optional[tuple], Optional[int]] = (None, None)
        self._respawns = 0
        self._rr = 0
        self._rr_lock = threading.Lock()
        self._shutdown = False
        self._workers = [_Worker(i) for i in range(shards)]
        try:
            for w in self._workers:
                self._start_worker(w)
        except BaseException:
            self.shutdown()
            raise

    # -- lifecycle ------------------------------------------------------
    def _start_worker(self, w: _Worker) -> None:
        """(Re)spawn ``w`` and replay the admin log into it."""
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_shard_worker_main,
            args=(w.shard_id, child_conn, self._bounds),
            name=f"ppkws-shard-{w.shard_id}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        if not parent_conn.poll(self._spawn_timeout_s):
            proc.terminate()
            raise ReproError(
                f"shard worker {w.shard_id} failed to start within "
                f"{self._spawn_timeout_s}s"
            )
        parent_conn.recv()  # ("ready", shard_id)
        w.process, w.conn = proc, parent_conn
        for rec in list(self._log):
            parent_conn.send(("admin", rec))
            parent_conn.recv()
        specs, seed = self._fault_state
        if specs is not None:
            parent_conn.send(("faults", specs, seed))
            parent_conn.recv()

    def _respawn_locked(self, w: _Worker) -> None:
        """Replace a dead worker (caller holds ``w.lock``)."""
        try:
            if w.process is not None:
                w.process.join(timeout=5.0)
        except (OSError, ValueError):  # pragma: no cover
            pass
        if w.conn is not None:
            w.conn.close()
        self._respawns += 1
        if self._registry is not None:
            self._registry.inc("ppkws_shard_respawns_total")
        self._start_worker(w)

    def _call(self, w: _Worker, msg: tuple) -> tuple:
        """One send+recv round trip; respawns on a dead pipe and raises."""
        with w.lock:
            try:
                w.conn.send(msg)
                status: tuple = w.conn.recv()
                return status
            except (EOFError, OSError, BrokenPipeError):
                self._respawn_locked(w)
                raise FaultInjectedError(
                    SHARD_WORKER.name,
                    f"shard worker {w.shard_id} died mid-request "
                    "(respawned from the admin log)",
                ) from None

    def shutdown(self) -> None:
        """Stop workers, close pipes, unlink every shared segment."""
        if self._shutdown:
            return
        self._shutdown = True
        for w in self._workers:
            with w.lock:
                if w.conn is None:
                    continue
                try:
                    w.conn.send(("stop",))
                    if w.conn.poll(5.0):
                        w.conn.recv()
                except (EOFError, OSError, BrokenPipeError):
                    pass
                w.conn.close()
                if w.process is not None:
                    w.process.join(timeout=5.0)
                    if w.process.is_alive():  # pragma: no cover
                        w.process.terminate()
        for segments in self._segments.values():
            for seg in segments:
                try:
                    seg.close()
                    seg.unlink()
                except (FileNotFoundError, OSError):  # pragma: no cover
                    pass
        self._segments.clear()

    def __enter__(self) -> "ShardServingPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()

    # -- admin replication ----------------------------------------------
    def _broadcast(self, rec: tuple) -> None:
        """Append ``rec`` to the log and apply it on every worker.

        A worker that rejects or dies on the record is rebuilt from the
        (already updated) log — replication converges on the log, so a
        transient worker failure cannot fork the replicas.
        """
        with self._log_lock:
            self._log.append(rec)
            for w in self._workers:
                with w.lock:
                    try:
                        w.conn.send(("admin", rec))
                        status = w.conn.recv()
                    except (EOFError, OSError, BrokenPipeError):
                        self._respawn_locked(w)
                        continue
                    if status[0] != "ok":
                        self._respawn_locked(w)

    def _compact_log(self, network: str) -> None:
        """Drop a network's records once a ``drop`` supersedes them."""
        self._log = [
            rec for rec in self._log
            if not (len(rec) > 1 and rec[1] == network)
        ]

    def admin_create(self, name: str, engine: Any) -> None:
        """Replicate ``name``: export the graph, ship handle + index."""
        handle, segments = engine.public.export_shared()
        self._segments[name] = segments
        self._partitions[name] = ShardPartition(engine.public, len(self._workers))
        index = engine.index
        self._broadcast((
            "create", name, handle,
            (index.pads, index.kpads, index.pagerank_scores),
            engine.options,
        ))

    def admin_attach(self, network: str, owner: str, private: Any) -> None:
        self._broadcast(("attach", network, owner, private))

    def admin_detach(self, network: str, owner: str) -> None:
        self._broadcast(("detach", network, owner))

    def admin_drop(self, name: str) -> None:
        with self._log_lock:
            self._compact_log(name)
        self._broadcast(("drop", name))
        self._partitions.pop(name, None)
        for seg in self._segments.pop(name, ()):  # workers re-attach no more
            try:
                seg.close()
                seg.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass

    # -- fault shipping --------------------------------------------------
    def inject_faults(self, schedule: Any) -> None:
        """Arm ``schedule`` (or ``None``) in every worker process.

        Ships ``(specs, seed)`` — a :class:`~repro.faults.FaultSchedule`
        holds a lock and cannot travel whole — and remembers them so a
        respawned worker comes back with the same faults armed (a chaos
        run keeps chaosing through kills).
        """
        state = (
            (tuple(schedule.specs), schedule.seed)
            if schedule is not None
            else (None, None)
        )
        self._fault_state = state
        for w in self._workers:
            try:
                self._call(w, ("faults",) + state)
            except FaultInjectedError:
                pass  # the respawn re-armed them from _fault_state

    # -- the two read paths ----------------------------------------------
    def route(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Execute a whole request in one worker (round-robin).

        A dead worker yields a well-formed retryable ``internal`` error
        (the executor's quarantine contract) — never an exception — and
        the worker is respawned behind the caller's back.
        """
        with self._rr_lock:
            w = self._workers[self._rr % len(self._workers)]
            self._rr += 1
        if self._registry is not None:
            self._registry.inc(
                "ppkws_shard_requests_total", labels={"kind": "execute"}
            )
        try:
            status = self._call(w, ("execute", request))
        except FaultInjectedError as exc:
            return {
                "v": 1,
                "status": "error",
                "error": f"{type(exc).__name__}: {exc}",
                "code": "internal",
                "retryable": True,
            }
        if status[0] == "ok":
            response: Dict[str, Any] = status[1]
            return response
        return {
            "v": 1,
            "status": "error",
            "error": f"{status[1]}: {status[2]}",
            "code": "internal",
            "retryable": False,
        }

    def replicated(self, name: str) -> bool:
        """Whether ``name`` has been shipped to the workers."""
        return name in self._partitions

    def plan(self, network: str, owner: str) -> "_PoolShardPlan":
        """A scatter-gather plan for one query on ``network``."""
        partition = self._partitions.get(network)
        if partition is None:
            raise ReproError(f"network {network!r} is not replicated")
        return _PoolShardPlan(self, partition, network, owner)

    def _take_ticket(self, initial_bound: float) -> int:
        with self._ticket_lock:
            ticket = self._next_ticket % _MAX_TICKETS
            self._next_ticket += 1
        self._bounds[ticket] = initial_bound
        return ticket

    def scatter(
        self,
        network: str,
        owner: str,
        kind: str,
        tasks: List[ShardTask],
        initial_bound: float,
        on_result: Callable[[Any], float],
    ) -> None:
        """Fan tasks out, merge in shard order, push tightened bounds.

        Sends to every involved worker first (locks taken in ascending
        shard order — deadlock-free against concurrent routes), then
        receives in the same order; after each merge the new bound is
        written to the shared slot so still-running shards prune against
        it.  A worker death surfaces as
        :class:`~repro.exceptions.FaultInjectedError` (wire code
        ``internal``) after the respawn.
        """
        if not tasks:
            return
        ticket = self._take_ticket(initial_bound)
        started = time.perf_counter()
        dispatched: List[Tuple[_Worker, Dict[str, Any]]] = []
        cancelled = 0
        acquired: List[_Worker] = []
        try:
            for shard, payload, cost_floor in sorted(tasks, key=lambda t: t[0]):
                if cost_floor > self._bounds[ticket]:
                    cancelled += 1
                    continue
                w = self._workers[shard % len(self._workers)]
                w.lock.acquire()
                acquired.append(w)
                try:
                    w.conn.send(
                        ("task", kind, network, owner, payload, ticket)
                    )
                except (EOFError, OSError, BrokenPipeError):
                    self._respawn_locked(w)
                    raise FaultInjectedError(
                        SHARD_WORKER.name,
                        f"shard worker {w.shard_id} died mid-scatter "
                        "(respawned from the admin log)",
                    ) from None
                dispatched.append((w, payload))
            for w, _payload in dispatched:
                try:
                    status = w.conn.recv()
                except (EOFError, OSError, BrokenPipeError):
                    self._respawn_locked(w)
                    raise FaultInjectedError(
                        SHARD_WORKER.name,
                        f"shard worker {w.shard_id} died mid-task "
                        "(respawned from the admin log)",
                    ) from None
                if status[0] != "ok":
                    raise FaultInjectedError(SHARD_WORKER.name, status[2])
                self._bounds[ticket] = min(
                    self._bounds[ticket], on_result(status[1])
                )
        finally:
            for w in acquired:
                w.lock.release()
            if self._registry is not None:
                self._registry.inc(
                    "ppkws_shard_requests_total",
                    amount=float(len(dispatched)),
                    labels={"kind": kind},
                )
                if cancelled:
                    self._registry.inc(
                        "ppkws_shard_cancelled_total", amount=float(cancelled)
                    )
                self._registry.observe(
                    "ppkws_shard_merge_seconds",
                    time.perf_counter() - started,
                )

    # -- introspection ---------------------------------------------------
    def health(self) -> Dict[str, Any]:
        """A JSON-friendly pool snapshot for the ``health`` op."""
        alive = sum(
            1
            for w in self._workers
            if w.process is not None and w.process.is_alive()
        )
        return {
            "mode": "process",
            "shards": len(self._workers),
            "alive": alive,
            "respawns": self._respawns,
            "shutdown": self._shutdown,
            "networks": {
                name: {
                    "shard_sizes": part.sizes(),
                    "frontier_edges": part.frontier,
                }
                for name, part in sorted(self._partitions.items())
            },
        }


class _PoolShardPlan:
    """The per-query view a ``sharded_run`` step drives (pool-backed)."""

    __slots__ = ("_pool", "partition", "_network", "_owner")

    def __init__(
        self,
        pool: ShardServingPool,
        partition: ShardPartition,
        network: str,
        owner: str,
    ) -> None:
        self._pool = pool
        self.partition = partition
        self._network = network
        self._owner = owner

    @property
    def num_shards(self) -> int:
        return self.partition.num_shards

    def shard_of(self, vertex: Any) -> int:
        return self.partition.shard_of(vertex)

    def scatter(
        self,
        kind: str,
        tasks: List[ShardTask],
        initial_bound: float,
        on_result: Callable[[Any], float],
    ) -> None:
        self._pool.scatter(
            self._network, self._owner, kind, tasks, initial_bound, on_result
        )
