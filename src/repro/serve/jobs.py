"""Jobs and the job store: every request ends in a terminal state.

A ``POST /generate`` becomes a :class:`Job`.  The invariant the chaos
suite holds the server to: **every job reaches exactly one terminal
state** —

* ``completed`` — the run finished on its configured rungs;
* ``degraded``  — the run finished but a degradation ladder fired
  (deadline pressure, injected faults, solver fallbacks) or a shed-level
  fallback produced a partial answer;
* ``shed``      — never ran: admission rejected it, its deadline budget
  drained while queued, or the dataset's circuit was open;
* ``failed``    — ran and could not produce a notebook even after
  retries; carries an error message and the run report when one exists
  (failed-*with-report*, never a bare traceback).

``queued`` and ``running`` are the only transient states, and a
:class:`threading.Event` flips exactly when a job turns terminal, so
waiters never poll a hung request.

Progress comes from two feeds: the pipeline's ``progress`` callback
strings, and the per-stage entries of the
:class:`~repro.runtime.report.RunReport` (themselves distilled from the
obs spans of the run) once the run finishes.

Every job also owns its observability: a private
:class:`~repro.obs.spans.Tracer` rooted at a ``serve.request`` span and
a private :class:`~repro.obs.metrics.MetricsRegistry`.  The submit path,
the executor, and the Session run all record into the job's pair, so
``GET /jobs/<id>/trace`` returns one connected span tree per request —
and nothing leaks between jobs, because the pair dies with the job.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict, deque
from typing import Callable

from repro.errors import ServeError
from repro.obs.export import to_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer

__all__ = ["Job", "JobStore", "TERMINAL_STATES"]

STATUS_QUEUED = "queued"
STATUS_RUNNING = "running"
STATUS_COMPLETED = "completed"
STATUS_DEGRADED = "degraded"
STATUS_SHED = "shed"
STATUS_FAILED = "failed"

TERMINAL_STATES = frozenset(
    {STATUS_COMPLETED, STATUS_DEGRADED, STATUS_SHED, STATUS_FAILED}
)

#: Progress lines retained per job (a ring buffer; early lines drop first).
_MAX_PROGRESS = 64


class Job:
    """One generation request's full lifecycle, thread-safe."""

    def __init__(
        self,
        job_id: str,
        dataset: str,
        *,
        deadline_seconds: float,
        params: dict | None = None,
        cost: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.id = job_id
        self.dataset = dataset
        self.deadline_seconds = deadline_seconds
        self.params = dict(params or {})
        self.cost = cost
        self._clock = clock
        self._lock = threading.Lock()
        self._done = threading.Event()
        self.status = STATUS_QUEUED
        self.submitted_at = clock()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.attempts = 0
        #: The dataset-version token of the table snapshot the run used
        #: (stamped at submit, refreshed when the executor takes its lease).
        self.dataset_version: str | None = None
        self.error: str | None = None
        self.shed_reason: str | None = None
        self.report: dict | None = None
        self.notebook: dict | None = None
        self.degradations: list[str] = []
        self._progress: deque[str] = deque(maxlen=_MAX_PROGRESS)
        # Request-scoped observability: the root span opens on the
        # submitting thread, so submit-path spans nest under it there,
        # while executor threads (empty stack) fall back to it as the
        # oldest open root — one connected tree across both.
        # The live tracer, replaced by its frozen record (bytes) in
        # :meth:`freeze_trace` once the job is done.  One attribute, so a
        # concurrent reader always gets one or the other.
        self._trace: Tracer | bytes = Tracer()
        self.metrics = MetricsRegistry()
        self._root_span = self.tracer.start(
            "serve.request", job=job_id, dataset=dataset,
            deadline_seconds=deadline_seconds,
        )

    # -- lifecycle -----------------------------------------------------------

    @property
    def tracer(self) -> Tracer:
        """The job's span collector.

        Live until :meth:`freeze_trace`; after that, each read rebuilds an
        equal tracer from the frozen record.
        """
        trace = self._trace
        return trace if isinstance(trace, Tracer) else Tracer.thaw(trace)

    def freeze_trace(self) -> None:
        """Swap a terminal job's span objects for one compressed record.

        A retained job then holds tens of kilobytes of trace instead of
        one :class:`~repro.obs.spans.Span` object per span (thousands on a
        large dataset).  ``trace_doc`` and ``tracer`` read the same data
        as before.  A no-op on a running or already frozen job, and while
        any span is still open (the submitting thread may not have closed
        ``serve.submit`` yet when a fast job finishes).
        """
        trace = self._trace
        if (self.terminal and isinstance(trace, Tracer)
                and all(span.closed for span in trace.spans())):
            self._trace = trace.freeze()

    @property
    def terminal(self) -> bool:
        return self._done.is_set()

    def remaining_budget(self) -> float:
        """Seconds left of the request's deadline budget (may be negative)."""
        return self.deadline_seconds - (self._clock() - self.submitted_at)

    def mark_running(self) -> None:
        with self._lock:
            self.status = STATUS_RUNNING
            self.started_at = self._clock()

    def add_progress(self, message: str) -> None:
        self._progress.append(str(message))

    def finish(
        self,
        status: str,
        *,
        error: str | None = None,
        shed_reason: str | None = None,
        report: dict | None = None,
        notebook: dict | None = None,
        degradations: list[str] | None = None,
    ) -> None:
        """Transition to a terminal state exactly once (later calls no-op)."""
        if status not in TERMINAL_STATES:
            raise ServeError(f"{status!r} is not a terminal job state")
        with self._lock:
            if self._done.is_set():
                return
            self.status = status
            self.error = error
            self.shed_reason = shed_reason
            if report is not None:
                self.report = report
            if notebook is not None:
                self.notebook = notebook
            if degradations:
                self.degradations = list(degradations)
            self.finished_at = self._clock()
            self._root_span.set(status=status)
            if shed_reason:
                self._root_span.set(shed_reason=shed_reason)
            self.tracer.finish(self._root_span, error=error)
            self._done.set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until terminal; True when the job finished within timeout."""
        return self._done.wait(timeout)

    # -- views ---------------------------------------------------------------

    @property
    def queue_seconds(self) -> float:
        end = self.started_at if self.started_at is not None else (
            self.finished_at if self.finished_at is not None else self._clock()
        )
        return max(0.0, end - self.submitted_at)

    @property
    def total_seconds(self) -> float:
        end = self.finished_at if self.finished_at is not None else self._clock()
        return max(0.0, end - self.submitted_at)

    def to_dict(self) -> dict:
        """The polling view (``GET /jobs/<id>``); never the notebook body."""
        with self._lock:
            return {
                "id": self.id,
                "dataset": self.dataset,
                "dataset_version": self.dataset_version,
                "status": self.status,
                "terminal": self._done.is_set(),
                "deadline_seconds": self.deadline_seconds,
                "queue_seconds": round(self.queue_seconds, 6),
                "total_seconds": round(self.total_seconds, 6),
                "attempts": self.attempts,
                "error": self.error,
                "shed_reason": self.shed_reason,
                "degradations": list(self.degradations),
                "progress": list(self._progress),
                "report": self.report,
                "has_notebook": self.notebook is not None,
            }

    def trace_doc(self) -> dict:
        """The job's span tree as a Chrome-trace document.

        Open spans are included live (``args.open = true``) so a
        still-running job's trace is already one connected tree —
        the debugging-a-slow-request path.
        """
        return to_chrome_trace(self.tracer, self.metrics, include_open=True)


class JobStore:
    """Thread-safe job registry with bounded terminal-job retention."""

    def __init__(self, max_finished: int = 256,
                 clock: Callable[[], float] = time.monotonic):
        self._max_finished = max_finished
        self._clock = clock
        self._lock = threading.Lock()
        self._jobs: OrderedDict[str, Job] = OrderedDict()
        self._ids = itertools.count(1)

    def create(
        self,
        dataset: str,
        *,
        deadline_seconds: float,
        params: dict | None = None,
        cost: float = 1.0,
    ) -> Job:
        with self._lock:
            job_id = f"job-{next(self._ids):06d}"
            job = Job(
                job_id, dataset, deadline_seconds=deadline_seconds,
                params=params, cost=cost, clock=self._clock,
            )
            self._jobs[job_id] = job
            self._prune_locked()
            return job

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def _prune_locked(self) -> None:
        finished = [j for j in self._jobs.values() if j.terminal]
        overflow = len(finished) - self._max_finished
        for job in finished[:max(0, overflow)]:
            self._jobs.pop(job.id, None)

    def jobs(self) -> list[Job]:
        with self._lock:
            return list(self._jobs.values())
