"""Exporters: Chrome trace-event JSON, Prometheus text, and tree summaries.

Three consumers of one run's observability data:

* :func:`to_chrome_trace` / :func:`write_chrome_trace` — the Trace Event
  Format's ``"X"`` (complete) events, loadable in ``chrome://tracing``
  or https://ui.perfetto.dev;
* :func:`to_prometheus_text` — the Prometheus text exposition of a
  :class:`~repro.obs.metrics.MetricsRegistry` snapshot;
* :func:`format_span_tree` / :func:`format_hotspots` — the human-readable
  summary the ``repro profile`` command prints.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span, Tracer, clean_attrs


def chrome_trace_events(tracer: Tracer, include_open: bool = False) -> list[dict]:
    """One ``"X"`` (complete) event per span, in start order.

    Timestamps are microseconds on the tracer's monotonic clock, rebased
    to the earliest span so traces start near zero.  Open spans are
    excluded by default; with ``include_open`` they are emitted with
    their elapsed-so-far duration and an ``"open": true`` arg, so a
    still-running job's trace stays a connected tree.
    """
    spans = [s for s in tracer.spans() if s.closed or include_open]
    if not spans:
        return []
    base = min(s.start for s in spans)
    pid = os.getpid()
    events = []
    for span in sorted(spans, key=lambda s: s.start):
        args = clean_attrs(span.attrs)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.error is not None:
            args["error"] = span.error
        if not span.closed:
            args["open"] = True
        events.append(
            {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": (span.start - base) * 1e6,
                "dur": span.elapsed * 1e6,
                "pid": pid,
                "tid": span.thread_id,
                "args": args,
            }
        )
    return events


def to_chrome_trace(
    tracer: Tracer,
    metrics: MetricsRegistry | None = None,
    include_open: bool = False,
) -> dict:
    """The full trace document (object form, so metadata can ride along)."""
    doc = {
        "traceEvents": chrome_trace_events(tracer, include_open=include_open),
        "displayTimeUnit": "ms",
    }
    if metrics is not None:
        doc["otherData"] = {"metrics": metrics.snapshot()}
    return doc


def write_chrome_trace(
    tracer: Tracer, path: str | Path, metrics: MetricsRegistry | None = None
) -> None:
    Path(path).write_text(
        json.dumps(to_chrome_trace(tracer, metrics), indent=1), encoding="utf-8"
    )


def summarize_spans(tracer: Tracer, top: int = 20) -> list[dict]:
    """Compact per-name aggregation of a trace, heaviest names first.

    The flight recorder keeps this instead of whole span trees: for each
    span name, the occurrence count, total seconds (elapsed-so-far for
    spans still open), how many are open, and how many recorded errors.
    """
    by_name: dict[str, dict] = {}
    for span in tracer.spans():
        entry = by_name.setdefault(
            span.name, {"name": span.name, "count": 0, "seconds": 0.0,
                        "open": 0, "errors": 0}
        )
        entry["count"] += 1
        entry["seconds"] += span.elapsed
        if not span.closed:
            entry["open"] += 1
        if span.error is not None:
            entry["errors"] += 1
    ranked = sorted(by_name.values(), key=lambda e: -e["seconds"])[:top]
    for entry in ranked:
        entry["seconds"] = round(entry["seconds"], 6)
    return ranked


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

_NAME_MANGLE = re.compile(r"[^a-zA-Z0-9_]")


def prometheus_name(name: str) -> str:
    """Dotted metric name -> legal Prometheus name, ``repro_``-prefixed."""
    return "repro_" + _NAME_MANGLE.sub("_", name)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def prometheus_labels(labels: dict, extra: dict | None = None) -> str:
    """Render ``{k="v",...}`` (empty string for no labels)."""
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{key}="{_escape_label_value(str(value))}"'
        for key, value in sorted(merged.items())
    )
    return "{" + body + "}"


def to_prometheus_text(metrics: MetricsRegistry) -> str:
    """The text exposition format (one ``# TYPE`` line per family).

    Counters get the ``_total`` suffix, histograms are emitted in the
    real Prometheus histogram exposition — cumulative ``_bucket`` series
    with ``le`` upper bounds (``+Inf`` included) plus ``_sum``/``_count``
    — and every series carries its instrument's label set.
    """
    from repro.obs.metrics import Counter, Gauge

    lines: list[str] = []
    typed: set[str] = set()

    def type_line(mangled: str, kind: str) -> None:
        if mangled not in typed:
            typed.add(mangled)
            lines.append(f"# TYPE {mangled} {kind}")

    for instrument in metrics.instruments():
        mangled = prometheus_name(instrument.name)
        label_text = prometheus_labels(instrument.labels)
        if isinstance(instrument, Counter):
            type_line(mangled, "counter")
            lines.append(f"{mangled}_total{label_text} {instrument.value:g}")
        elif isinstance(instrument, Gauge):
            type_line(mangled, "gauge")
            lines.append(f"{mangled} {instrument.value:g}" if not label_text
                         else f"{mangled}{label_text} {instrument.value:g}")
        else:
            type_line(mangled, "histogram")
            for bound, cumulative in instrument.cumulative_buckets():
                bucket_labels = prometheus_labels(
                    instrument.labels, {"le": f"{bound:g}"}
                )
                lines.append(f"{mangled}_bucket{bucket_labels} {cumulative}")
            inf_labels = prometheus_labels(instrument.labels, {"le": "+Inf"})
            lines.append(f"{mangled}_bucket{inf_labels} {instrument.count}")
            lines.append(f"{mangled}_sum{label_text} {instrument.total:g}")
            lines.append(f"{mangled}_count{label_text} {instrument.count}")
    return "\n".join(lines) + "\n" if lines else ""


# ---------------------------------------------------------------------------
# Human-readable summaries
# ---------------------------------------------------------------------------

#: Below this share of the root's duration a subtree is elided from the
#: printed tree (every span still reaches the trace file).
_TREE_MIN_SHARE = 0.001

#: Sibling spans with the same name collapse into one aggregate line when
#: there are more than this many of them.
_COLLAPSE_AT = 5


def format_span_tree(tracer: Tracer, max_depth: int = 6) -> str:
    """Indented tree of span durations, attrs, and share of the run.

    Large sibling families of the same name (per-attribute tests,
    per-group evaluations) collapse to ``name ×N`` aggregate lines.
    """
    spans = [s for s in tracer.spans() if s.closed]
    if not spans:
        return "(no spans recorded)"
    by_parent: dict[int | None, list[Span]] = {}
    for span in spans:
        by_parent.setdefault(span.parent_id, []).append(span)
    for siblings in by_parent.values():
        siblings.sort(key=lambda s: s.start)
    roots = by_parent.get(None, [])
    total = sum(s.duration for s in roots) or 1e-12

    lines: list[str] = []

    def describe(span: Span) -> str:
        share = span.duration / total
        text = f"{span.name:<40} {span.duration * 1e3:9.1f}ms  {share:6.1%}"
        attrs = clean_attrs(span.attrs)
        if span.error is not None:
            attrs["error"] = span.error
        if attrs:
            rendered = ", ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            text += f"  [{rendered}]"
        return text

    def visit(span: Span, depth: int) -> None:
        if depth > max_depth or span.duration / total < _TREE_MIN_SHARE:
            return
        indent = "  " * depth
        lines.append(indent + describe(span))
        children = by_parent.get(span.span_id, [])
        by_name: dict[str, list[Span]] = {}
        for child in children:
            by_name.setdefault(child.name, []).append(child)
        for name, group in by_name.items():
            if len(group) > _COLLAPSE_AT:
                seconds = sum(c.duration for c in group)
                share = seconds / total
                lines.append(
                    "  " * (depth + 1)
                    + f"{name} ×{len(group):<35} {seconds * 1e3:9.1f}ms  {share:6.1%}"
                )
            else:
                for child in group:
                    visit(child, depth + 1)

    for root in roots:
        visit(root, 0)
    return "\n".join(lines)


def format_hotspots(tracer: Tracer, top_k: int = 10) -> str:
    """Top-k span names by *self* time (duration minus direct children)."""
    totals = tracer.self_times()
    if not totals:
        return "(no spans recorded)"
    grand = sum(totals.values()) or 1e-12
    ranked = sorted(totals.items(), key=lambda item: -item[1])[:top_k]
    lines = [f"top {len(ranked)} hotspots (self time):"]
    for rank, (name, seconds) in enumerate(ranked, start=1):
        lines.append(
            f"  {rank:2d}. {name:<40} {seconds * 1e3:9.1f}ms  {seconds / grand:6.1%}"
        )
    return "\n".join(lines)


def metrics_summary_line(metrics: MetricsRegistry) -> str:
    """One-line digest of the most load-bearing counters (CLI output)."""
    snapshot = metrics.snapshot()["counters"]
    parts = []
    for name, label in (
        ("stats.candidates_tested", "candidates tested"),
        ("stats.insights_significant", "significant"),
        ("generation.hypothesis_queries", "hypothesis queries"),
        ("generation.queries_final", "queries in Q"),
        ("tap.exact.nodes", "B&B nodes"),
        ("tap.heuristic.insertions", "insertions"),
        ("notebook.cells", "cells"),
    ):
        value = snapshot.get(name)
        if value:
            parts.append(f"{value:g} {label}")
    return "metrics: " + (", ".join(parts) if parts else "(none recorded)")
