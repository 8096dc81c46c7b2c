"""Hierarchical spans over a monotonic clock (the tracing half of ``repro.obs``).

A :class:`Span` is one timed region of the pipeline — a stage, a
sub-stage, or a single unit of work such as testing one attribute's
candidates.  Spans nest: each thread keeps its own stack, so a span
opened inside another becomes its child, and work dispatched to worker
threads attaches to the run's root span when the worker has no open
span of its own.  The whole subsystem is stdlib-only.

Span *names* are a stable public contract (see ``docs/observability.md``);
variable detail (which attribute, how many candidates) travels in the
span's ``attrs`` dict, never in the name.

Usage::

    tracer = Tracer()
    with tracer.span("stats.tests", engine="permutation") as span:
        ...                     # work
        span.set(candidates=n)  # attach results discovered along the way
    tracer.duration_of("stats.tests")
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import zlib
from typing import Callable, Iterator


#: Attribute types that serialize losslessly into trace-event args.
_SCALAR = (str, int, float, bool, type(None))


def clean_attrs(attrs: dict) -> dict:
    """``attrs`` with every non-scalar value replaced by its ``repr``."""
    return {
        key: (value if isinstance(value, _SCALAR) else repr(value))
        for key, value in attrs.items()
    }


class Span:
    """One timed region: name, attributes, parentage, and a clock interval.

    ``start``/``end`` are raw monotonic-clock readings (seconds); only
    differences between them are meaningful.  ``end`` is None while the
    span is open.
    """

    __slots__ = (
        "name", "attrs", "span_id", "parent_id", "thread_id",
        "start", "end", "error", "_clock",
    )

    def __init__(
        self,
        name: str,
        attrs: dict,
        span_id: int,
        parent_id: int | None,
        thread_id: int,
        clock: Callable[[], float],
    ):
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self.thread_id = thread_id
        self._clock = clock
        self.start = clock()
        self.end: float | None = None
        self.error: str | None = None

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Seconds from start to close (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def elapsed(self) -> float:
        """Seconds since start, live: reads the clock while the span is open."""
        if self.end is not None:
            return self.end - self.start
        return self._clock() - self.start

    def set(self, **attrs) -> "Span":
        """Merge attributes into the span (chainable)."""
        self.attrs.update(attrs)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration * 1e3:.2f}ms" if self.closed else "open"
        return f"Span({self.name!r}, {state})"


class _SpanContext:
    """Context manager wrapping one span: closes on exit, records errors."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        error = None if exc is None else f"{type(exc).__name__}: {exc}"
        self._tracer.finish(self._span, error=error)
        return False  # never swallow


class Tracer:
    """Thread-safe span collector with per-thread nesting.

    Parameters
    ----------
    clock:
        Monotonic time source, injectable for deterministic tests.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Fallback parent for spans opened on threads with an empty stack
        # (pool workers): the oldest still-open span of the run.
        self._open_roots: list[Span] = []

    # -- span lifecycle ------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str, **attrs) -> Span:
        """Open a span manually; prefer :meth:`span` where possible."""
        stack = self._stack()
        with self._lock:
            parent = stack[-1] if stack else (
                self._open_roots[0] if self._open_roots else None
            )
            span = Span(
                name,
                dict(attrs),
                next(self._ids),
                parent.span_id if parent is not None else None,
                threading.get_ident(),
                self._clock,
            )
            self._spans.append(span)
            if parent is None:
                self._open_roots.append(span)
        stack.append(span)
        return span

    def finish(self, span: Span, error: str | None = None) -> None:
        """Close a span.  Idempotent; unwinds any unclosed children."""
        if span.closed:
            return
        span.end = self._clock()
        if error is not None:
            span.error = error
        stack = self._stack()
        if span in stack:
            # Unwind to (and including) this span so an exception that
            # skipped inner `finish` calls cannot corrupt the stack.
            while stack:
                top = stack.pop()
                if top is span:
                    break
                if not top.closed:
                    top.end = span.end
        with self._lock:
            if span in self._open_roots:
                self._open_roots.remove(span)

    def span(self, name: str, **attrs) -> _SpanContext:
        """Context manager: open on entry, close on exit (also on raise)."""
        return _SpanContext(self, self.start(name, **attrs))

    def current(self) -> Span | None:
        """The innermost open span of the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- introspection -------------------------------------------------------

    def spans(self) -> list[Span]:
        """Snapshot of every span recorded so far (open ones included)."""
        with self._lock:
            return list(self._spans)

    def find(self, name: str) -> list[Span]:
        return [s for s in self.spans() if s.name == name]

    def duration_of(self, name: str) -> float:
        """Total closed-span seconds under ``name`` (0.0 when absent)."""
        return sum(s.duration for s in self.find(name))

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans() if s.parent_id == span.span_id]

    def roots(self) -> list[Span]:
        return [s for s in self.spans() if s.parent_id is None]

    def walk(self) -> Iterator[tuple[Span, int]]:
        """Depth-first (span, depth) traversal in start order."""
        spans = self.spans()
        by_parent: dict[int | None, list[Span]] = {}
        for span in spans:
            by_parent.setdefault(span.parent_id, []).append(span)
        for siblings in by_parent.values():
            siblings.sort(key=lambda s: s.start)

        def visit(span: Span, depth: int) -> Iterator[tuple[Span, int]]:
            yield span, depth
            for child in by_parent.get(span.span_id, []):
                yield from visit(child, depth + 1)

        for root in by_parent.get(None, []):
            yield from visit(root, 0)

    # -- cross-process adoption ----------------------------------------------

    def export(self) -> list[dict]:
        """Serialize every span for adoption by another tracer.

        Times are rebased so the earliest start is 0.0 — monotonic-clock
        readings are process-local, so only the *shape* of the subtree and
        the relative offsets travel across the boundary.  Open spans
        export with ``end: None``.
        """
        spans = self.spans()
        if not spans:
            return []
        base = min(span.start for span in spans)
        return [
            {
                "name": span.name,
                "attrs": dict(span.attrs),
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "start": span.start - base,
                "end": None if span.end is None else span.end - base,
                "error": span.error,
            }
            for span in spans
        ]

    def adopt(
        self,
        exported: list[dict],
        *,
        parent: Span | None = None,
        anchor: float | None = None,
        wrapper_name: str = "adopted",
        wrapper_attrs: dict | None = None,
    ) -> Span:
        """Graft an :meth:`export`-ed subtree into this tracer.

        A wrapper span named ``wrapper_name`` is created under ``parent``
        (or as a root) spanning the subtree's extent; exported spans keep
        their relative layout beneath it, re-identified with this tracer's
        ids.  ``anchor`` places the wrapper's start on this tracer's clock
        (default: now minus the subtree's extent, i.e. "it just finished").
        Used to fold worker-process traces into the main trace.
        """
        extent = 0.0
        for record in exported:
            end = record["end"]
            if end is not None:
                extent = max(extent, end)
        if anchor is None:
            anchor = self._clock() - extent
        with self._lock:
            wrapper = Span(
                wrapper_name,
                dict(wrapper_attrs or {}),
                next(self._ids),
                parent.span_id if parent is not None else None,
                threading.get_ident(),
                self._clock,
            )
            wrapper.start = anchor
            wrapper.end = anchor + extent
            self._spans.append(wrapper)
            id_map: dict[int, int] = {}
            for record in exported:
                span = Span(
                    record["name"],
                    dict(record["attrs"]),
                    next(self._ids),
                    None,
                    wrapper.thread_id,
                    self._clock,
                )
                id_map[record["span_id"]] = span.span_id
                old_parent = record["parent_id"]
                span.parent_id = id_map.get(
                    old_parent if old_parent is not None else -1,
                    wrapper.span_id,
                )
                span.start = anchor + record["start"]
                end = record["end"]
                span.end = anchor + (extent if end is None else end)
                span.error = record["error"]
                self._spans.append(span)
        return wrapper

    # -- compact retention ---------------------------------------------------

    def freeze(self) -> bytes:
        """Every span as one zlib-compressed JSON record (see :meth:`thaw`).

        For keeping a finished trace around: a :class:`Span` costs a few
        hundred bytes, a span in the frozen record a few dozen.  Clock
        readings and ids are kept exactly; non-scalar attribute values
        are kept as their ``repr``, which is what every exporter shows.
        """
        rows = [
            [s.name, clean_attrs(s.attrs), s.span_id, s.parent_id,
             s.thread_id, s.start, s.end, s.error]
            for s in self.spans()
        ]
        return zlib.compress(json.dumps(rows, separators=(",", ":")).encode())

    @classmethod
    def thaw(cls, record: bytes) -> "Tracer":
        """Rebuild the tracer a :meth:`freeze` record was made from."""
        tracer = cls()
        for (name, attrs, span_id, parent_id, thread_id,
             start, end, error) in json.loads(zlib.decompress(record)):
            span = Span(name, attrs, span_id, parent_id, thread_id, tracer._clock)
            span.start, span.end, span.error = start, end, error
            tracer._spans.append(span)
        return tracer

    def reset(self) -> None:
        """Drop every recorded span (the per-thread stacks clear lazily)."""
        with self._lock:
            self._spans.clear()
            self._open_roots.clear()
        self._local = threading.local()

    def self_times(self) -> dict[str, float]:
        """Per-name *self* seconds: own duration minus direct children's.

        The basis of hotspot ranking — a stage whose time is fully
        explained by its children contributes nothing itself.
        """
        spans = self.spans()
        child_total: dict[int, float] = {}
        for span in spans:
            if span.parent_id is not None:
                child_total[span.parent_id] = (
                    child_total.get(span.parent_id, 0.0) + span.duration
                )
        totals: dict[str, float] = {}
        for span in spans:
            if not span.closed:
                continue
            own = span.duration - child_total.get(span.span_id, 0.0)
            totals[span.name] = totals.get(span.name, 0.0) + max(0.0, own)
        return totals
