"""In-memory span tracer that wraps the program's functions from outside.

The program is not instrumented; instead :class:`Tracer` replaces a
function at the attribute where its *caller* looks it up (a module
global such as ``repro.core.framework.pagerank`` or a class attribute
such as ``RWLock.acquire_read``) with a wrapper that records a span, and
:meth:`Tracer.restore` puts every original back.  Spans carry a name,
start, end, the span that was open on the same thread when it began (its
parent) and the id of the request being served.  They stay in memory and
are written out once, by :meth:`Tracer.dump`, when the run ends.

A layer's *self time* is its span's duration minus the part of that
interval covered by its child spans (:func:`self_time`); children may
overlap one another, so coverage is the union of their intervals.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Span", "Tracer", "self_time", "covered"]


@dataclass
class Span:
    """One timed interval.

    ``interval`` marks a measurement that is not a call (a lock hold, a
    queue wait): it is dumped and aggregated like any span, but it is
    never a parent's child, so it does not reduce anyone's self time.
    """

    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]
    interval: bool = False
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if e > start and s < end
    )
    total = 0.0
    cur_s: Optional[float] = None
    cur_e = 0.0
    for s, e in clipped:
        if cur_s is None or s > cur_e:
            if cur_s is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_s is not None:
        total += cur_e - cur_s
    return total


def self_time(span: Span, children: Iterable[Span]) -> float:
    """``span``'s duration minus the part its children cover."""
    return span.duration - covered(
        span.start, span.end, ((c.start, c.end) for c in children)
    )


class Tracer:
    """Span store plus the attribute patches that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._requests = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        #: parent sid -> its finished (non-interval) child spans
        self.kids: Dict[int, List[Span]] = {}
        #: (owner, attribute, original) for every installed patch
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- per-thread context --------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current_request(self) -> Optional[int]:
        return getattr(self._local, "request", None)

    def new_request(self) -> int:
        return next(self._requests)

    def set_request(self, request: Optional[int]) -> None:
        self._local.request = request

    def thread_state(self) -> Dict[str, Any]:
        """Free-form per-thread scratch for probes (e.g. open lock holds)."""
        return self._local.__dict__

    # -- recording -----------------------------------------------------
    def begin(self, name: str, **attrs: Any) -> Span:
        stack = self._stack()
        span = Span(
            sid=next(self._ids),
            name=name,
            start=self.clock(),
            end=float("nan"),
            parent=stack[-1] if stack else None,
            request=self.current_request,
            attrs=attrs,
        )
        stack.append(span.sid)
        return span

    def finish(self, span: Span) -> Span:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] == span.sid:
            stack.pop()
        self._store(span)
        return span

    def _store(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)
            if span.parent is not None and not span.interval:
                self.kids.setdefault(span.parent, []).append(span)

    def reparent(self, span: Span, parent: Span) -> None:
        """Move ``span`` under ``parent`` (both already stored)."""
        with self._lock:
            if span.parent is not None:
                self.kids[span.parent].remove(span)
            span.parent = parent.sid
            self.kids.setdefault(parent.sid, []).append(span)

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        request: Optional[int] = None,
        interval: bool = False,
        **attrs: Any,
    ) -> Span:
        """Store a span whose interval was measured elsewhere."""
        span = Span(next(self._ids), name, start, end, parent, request,
                    interval, attrs)
        self._store(span)
        return span

    # -- patching --------------------------------------------------------
    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        after: Optional[Callable[[Span, Tuple[Any, ...], Any], None]] = None,
    ) -> Callable[..., Any]:
        """A wrapper timing every call of ``fn`` as span ``name``.

        ``after(span, args, result)`` runs once the span is closed, so a
        hook may read counts off the result or add child spans.
        """
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(span)
            if after is not None:
                after(span, args, result)
            return result

        return wrapper

    def patch(self, owner: Any, attr: str, replacement: Callable[..., Any]) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`.

        Only attributes defined on ``owner`` itself may be patched, so
        restoring never leaves a shadowing copy on a subclass.
        """
        if attr not in vars(owner):
            raise AttributeError(f"{owner!r} does not define {attr!r} itself")
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def patch_call(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Optional[Callable[[Span, Tuple[Any, ...], Any], None]] = None,
    ) -> None:
        """Patch ``owner.attr`` with a timing wrapper (see :meth:`wrap`)."""
        self.patch(owner, attr, self.wrap(vars(owner)[attr], name, after))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # -- output ------------------------------------------------------------
    def self_time(self, span: Span) -> float:
        return self_time(span, self.kids.get(span.sid, ()))

    def dump(self, path: str) -> None:
        """Write every span, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(s), default=repr) + "\n")
