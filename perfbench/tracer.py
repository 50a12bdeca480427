"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the layer functions of ``crossnest`` from outside, at
every name a caller actually looks up.  The package binds names at import
(``from .patterns import contains`` in ``bijection``), and the fused
``count_avoiders`` of the pure kernel calls its own module globals, so one
function is often patched under several owners.  Each call through a
wrapped name becomes a span; generator functions become one span whose
busy time is the sum of their resumptions, so a consumer's own work between
two ``next`` calls is never charged to the generator.

A span's self time is its busy time minus the busy time of the spans
nested inside it.  Spans and counters stay in memory; ``summary`` returns
them for the caller to write out.  ``restore`` (or leaving the ``with``
block) puts back every patched name.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Iterator, Optional

# A span log entry: name, start, end, parent span id (-1 for a root).
SpanRecord = tuple[str, float, float, int]
# The span log keeps this many spans; counters and self times cover all.
SPAN_LOG_LIMIT = 50_000


class _Frame:
    __slots__ = ("name", "sid", "parent", "parent_name", "start", "t0", "busy", "child")

    def __init__(self, name: str, sid: int, parent: Optional["_Frame"], now: float):
        self.name = name
        self.sid = sid
        self.parent = parent.sid if parent is not None else -1
        self.parent_name = parent.name if parent is not None else None
        self.start = now
        self.t0 = now
        self.busy = 0.0
        self.child = 0.0


class Tracer:
    """Span and counter store plus the patches that feed it."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.spans: list[SpanRecord] = []
        self.spans_dropped = 0
        self._stack: list[_Frame] = []
        self._next_sid = 0
        self._patched: list[tuple[object, str, object]] = []
        self._clock = time.perf_counter

    # ── span bookkeeping ─────────────────────────────────────

    def _open(self, name: str) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        frame = _Frame(name, self._next_sid, parent, self._clock())
        self._next_sid += 1
        return frame

    def _enter(self, frame: _Frame) -> None:
        self._stack.append(frame)
        frame.t0 = self._clock()

    def _leave(self, frame: _Frame) -> None:
        elapsed = self._clock() - frame.t0
        frame.busy += elapsed
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span stack out of order: {popped.name} != {frame.name}")
        if self._stack:
            self._stack[-1].child += elapsed

    def _close(self, frame: _Frame) -> None:
        self.calls[frame.name] += 1
        self.self_s[frame.name] += frame.busy - frame.child
        if len(self.spans) < SPAN_LOG_LIMIT:
            self.spans.append((frame.name, frame.start, self._clock(), frame.parent))
        else:
            self.spans_dropped += 1

    # ── wrappers ─────────────────────────────────────────────

    def wrap_call(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[["Tracer", _Frame, object], None]] = None,
    ) -> Callable:
        """Span around each call; ``after`` sees the frame and the result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(name)
            tracer._enter(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(frame)
                tracer._close(frame)
            if after is not None:
                after(tracer, frame, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """One span per generator, busy only while it is being resumed.

        Counts ``<name>.yielded`` and ``<name>.feasible`` (generators that
        yielded at least once).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs) -> Iterator:
            frame = tracer._open(name)
            inner = fn(*args, **kwargs)
            produced = 0
            try:
                while True:
                    tracer._enter(frame)
                    try:
                        item = next(inner)
                    except StopIteration:
                        break
                    finally:
                        tracer._leave(frame)
                    produced += 1
                    yield item
            finally:
                inner.close()
                tracer.counters[name + ".yielded"] += produced
                tracer.counters[name + ".feasible"] += produced > 0
                tracer._close(frame)

        return traced

    def wrap_count(self, counter: str, fn: Callable) -> Callable:
        """Count calls without opening a span (for very cheap functions)."""
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # ── patching ─────────────────────────────────────────────

    def patch(self, owner: object, attr: str, wrapper: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``wrapper(original)`` until restore."""
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def restore(self) -> None:
        """Put back every patched name, most recent first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def summary(self) -> dict:
        """Aggregates and the span log, ready for ``json.dump``."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "spans": self.spans,
            "spans_total": self._next_sid,
            "spans_dropped": self.spans_dropped,
        }
