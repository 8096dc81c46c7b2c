"""repro.obs — zero-dependency tracing and metrics for the pipeline.

The standing instrumentation surface: hierarchical :class:`Span` trees
over a monotonic clock, a :class:`MetricsRegistry` of counters / gauges /
histograms, and exporters for Chrome trace-event JSON, Prometheus text,
and human-readable summaries.  Everything is stdlib-only and safe to
leave enabled — recording a span is two clock reads and a list append.

The pipeline instruments itself against the *ambient* tracer and
registry accessed through the module-level helpers below::

    from repro import obs

    with obs.span("stats.tests", engine="permutation") as sp:
        ...
    obs.counter("stats.candidates_tested").inc(n)

Tools that need an isolated capture (the ``repro profile`` command,
benchmarks, tests) swap in fresh instances for the duration::

    with obs.capture() as (tracer, metrics):
        run_pipeline()
    export.write_chrome_trace(tracer, "out.json", metrics)

Span names and the documented metric names are a stable public contract;
see ``docs/observability.md`` for the taxonomy.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

from repro.obs.export import (
    chrome_trace_events,
    format_hotspots,
    format_span_tree,
    metrics_summary_line,
    summarize_spans,
    to_chrome_trace,
    to_prometheus_text,
    write_chrome_trace,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    labeled_name,
)
from repro.obs.spans import Span, Tracer

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "capture",
    "chrome_trace_events",
    "counter",
    "current_metrics",
    "current_tracer",
    "format_hotspots",
    "format_span_tree",
    "gauge",
    "histogram",
    "labeled_name",
    "metrics_summary_line",
    "reset",
    "span",
    "summarize_spans",
    "to_chrome_trace",
    "to_prometheus_text",
    "use",
    "write_chrome_trace",
]

#: The ambient (tracer, registry) pair of the running context; the
#: process-wide default catches work done outside any :func:`use` block.
_ambient: ContextVar[tuple[Tracer, MetricsRegistry]] = ContextVar(
    "repro_obs_ambient", default=(Tracer(), MetricsRegistry())
)


def current_tracer() -> Tracer:
    """The ambient tracer the pipeline records spans into."""
    return _ambient.get()[0]


def current_metrics() -> MetricsRegistry:
    """The ambient metrics registry."""
    return _ambient.get()[1]


def span(name: str, **attrs):
    """Open a span on the ambient tracer (context manager)."""
    return _ambient.get()[0].span(name, **attrs)


def counter(name: str, labels: dict | None = None) -> Counter:
    return _ambient.get()[1].counter(name, labels)


def gauge(name: str, labels: dict | None = None) -> Gauge:
    return _ambient.get()[1].gauge(name, labels)


def histogram(
    name: str,
    labels: dict | None = None,
    buckets: tuple[float, ...] | None = None,
) -> Histogram:
    return _ambient.get()[1].histogram(name, labels, buckets=buckets)


def reset() -> None:
    """Clear the ambient tracer and registry (start of an isolated run)."""
    tracer, metrics = _ambient.get()
    tracer.reset()
    metrics.reset()


@contextmanager
def use(tracer: Tracer, metrics: MetricsRegistry) -> Iterator[None]:
    """Install ``tracer``/``metrics`` as the ambient pair for the block.

    The pair is scoped to the calling context, not the process, so
    concurrent runs on other threads stay apart.  A thread started inside
    the block begins with the process default; run its work under
    ``contextvars.copy_context().run`` to record into this pair.
    """
    token = _ambient.set((tracer, metrics))
    try:
        yield
    finally:
        _ambient.reset(token)


@contextmanager
def capture() -> Iterator[tuple[Tracer, MetricsRegistry]]:
    """Fresh tracer + registry installed for the block, returned for export."""
    tracer = Tracer()
    metrics = MetricsRegistry()
    with use(tracer, metrics):
        yield tracer, metrics
