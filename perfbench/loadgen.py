"""Load generators: closed loops and an open loop with due-time latency.

A closed loop sends a client's next request only after its previous one
completed; an open loop sends on a fixed schedule whatever the system is
doing.  Open-loop latency runs from the time a request was *due* to its
completion, so a stall also charges the requests queued behind it, and
the generator's own lateness (sent minus due) is reported separately.

Every request is sent as a shallow copy, so two in-flight sends of one
pooled request are distinct objects.  Each completed :class:`Sample` is
handed to a ``sink`` as soon as it is collected and not kept here: the
sink keeps what it needs in compact form, so the benchmark's own memory
does not grow with the program's throughput.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Protocol, Sequence, Tuple

Clock = Callable[[], float]


@dataclass
class Sample:
    """One completed request."""

    index: int
    request: Dict[str, Any]
    response: Dict[str, Any]
    #: when the request was due (open loop) or sent (closed loop)
    due: float
    sent: float
    done: float

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1000.0

    @property
    def op(self) -> str:
        return self.request["op"]


Sink = Callable[[Sample], None]


@dataclass
class Run:
    """The wall-clock window of one timed phase."""

    start: float
    end: float
    #: seconds inside the window spent in pauses (see :class:`Pauser`)
    paused: float = 0.0

    @property
    def wall(self) -> float:
        """Seconds the phase spent on requests: the window minus pauses."""
        return self.end - self.start - self.paused


class Pauser(Protocol):
    """What a closed loop pauses for, off its clock (``probes.Probes``)."""

    def due(self) -> bool: ...

    def pause(self) -> float: ...


def serial(execute: Callable[[Dict[str, Any]], Dict[str, Any]],
           requests: Sequence[Dict[str, Any]], sink: Sink,
           clock: Clock = time.perf_counter) -> None:
    """Send ``requests`` one after another (set-up, probes)."""
    for i, req in enumerate(requests):
        sent = clock()
        resp = execute(dict(req))
        sink(Sample(i, req, resp, sent, sent, clock()))


def closed_direct(execute: Callable[[Dict[str, Any]], Dict[str, Any]],
                  stream: Iterator[Dict[str, Any]], seconds: float, sink: Sink,
                  clock: Clock = time.perf_counter,
                  pauser: Optional[Pauser] = None) -> Run:
    """One client calling ``execute`` for ``seconds`` of request time.

    Between two requests, whenever ``pauser`` is due, it runs; the time
    it takes is not counted towards ``seconds`` nor the run's wall.
    """
    start = clock()
    paused = 0.0
    i = 0
    while clock() - start - paused < seconds:
        if pauser is not None and pauser.due():
            paused += pauser.pause()
            continue
        req = next(stream)
        sent = clock()
        resp = execute(dict(req))
        sink(Sample(i, req, resp, sent, sent, clock()))
        i += 1
    return Run(start, clock(), paused)


def closed_pool(submit: Callable[[Dict[str, Any]], Any],
                stream: Iterator[Dict[str, Any]], seconds: float,
                outstanding: int, sink: Sink,
                clock: Clock = time.perf_counter,
                pauser: Optional[Pauser] = None) -> Run:
    """Keep ``outstanding`` requests in flight through an executor.

    When ``pauser`` is due, no more requests are sent until the ones in
    flight have completed; then it runs, off the clock as in
    :func:`closed_direct`, and sending resumes.
    """
    done_q: "queue.Queue[Tuple[Any, float]]" = queue.Queue()
    flight: Dict[Any, Tuple[int, Dict[str, Any], float]] = {}
    start = clock()
    paused = 0.0
    i = 0
    while True:
        draining = pauser is not None and pauser.due()
        while (not draining and len(flight) < outstanding
               and clock() - start - paused < seconds):
            req = next(stream)
            sent = clock()
            fut = submit(dict(req))
            flight[fut] = (i, req, sent)
            # stamped in the worker as the future resolves
            fut.add_done_callback(lambda f: done_q.put((f, clock())))
            i += 1
        if not flight:
            if draining and clock() - start - paused < seconds:
                paused += pauser.pause()
                continue
            break
        fut, done = done_q.get(timeout=120)
        idx, req, sent = flight.pop(fut)
        sink(Sample(idx, req, fut.result(), sent, sent, done))
    return Run(start, clock(), paused)


def open_loop(submit: Callable[[Dict[str, Any]], Any],
              schedule: Sequence[Tuple[float, Dict[str, Any]]], sink: Sink,
              clock: Clock = time.perf_counter,
              sleep: Callable[[float], None] = time.sleep) -> Run:
    """Send each ``(offset, request)`` at ``start + offset``.

    A ``detach`` is held back until the ``attach`` of its owner has
    completed (and then sent at once): both need the write lock, and the
    lock does not order waiting writers, so an early detach could
    overtake its attach.  Held-back detaches count as due when sent.
    """
    lock = threading.Lock()
    done_at: Dict[int, float] = {}
    futures: List[Tuple[int, Dict[str, Any], float, float, Any]] = []
    attach_futs: Dict[str, Any] = {}
    held: List[Tuple[int, Dict[str, Any]]] = []

    def send(idx: int, req: Dict[str, Any], due: float) -> None:
        sent = clock()
        fut = submit(dict(req))

        def stamp(_: Any, idx: int = idx) -> None:
            t = clock()
            with lock:
                done_at[idx] = t

        futures.append((idx, req, due, sent, fut))
        fut.add_done_callback(stamp)
        if req["op"] == "attach":
            attach_futs[req["owner"]] = fut

    def release_ready(force: bool) -> None:
        for entry in list(held):
            idx, req = entry
            fut = attach_futs[req["owner"]]
            if force:
                fut.result(timeout=120)
            if fut.done():
                held.remove(entry)
                send(idx, req, clock())

    start = clock()
    for idx, (offset, req) in enumerate(schedule):
        due = start + offset
        while True:
            release_ready(force=False)
            wait = due - clock()
            if wait <= 0:
                break
            sleep(min(wait, 0.01) if held else wait)
        if req["op"] == "detach":
            held.append((idx, req))
            continue
        send(idx, req, due)
    release_ready(force=True)
    end = start
    for idx, req, due, sent, fut in sorted(futures, key=lambda f: f[0]):
        resp = fut.result(timeout=120)
        with lock:
            done = done_at.get(idx)
        if done is None:  # callback not run yet; the future is resolved
            done = clock()
        end = max(end, done)
        sink(Sample(idx, req, resp, due, sent, done))
    return Run(start, end)

