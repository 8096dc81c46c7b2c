"""Job executors: deadline budgets, retries, breaker bookkeeping.

The executor is where the robustness pieces meet on every job:

1. **Deadline budget** — the request's budget starts at submission.  Time
   spent queued is subtracted; what's left becomes the run's
   ``deadline_seconds`` and flows into the existing runtime degradation
   ladders (perm-cut → parametric, setcover → pairwise → top-k, previews
   → sql-only), so an overloaded server produces *degraded notebooks*,
   not timeouts.  A budget fully drained in the queue sheds the job
   before any work starts.
2. **Retries** — transient failures (injected crashes, pool worker
   deaths) are retried through the shared
   :func:`~repro.runtime.retry.retry_call` primitive, deadline-capped so
   retrying never outlives the request.
3. **Circuit breaker** — consecutive failures trip the dataset's breaker
   (jobs then shed with ``circuit-open`` until a half-open probe
   succeeds); any success closes it.
4. **Fault points** — ``serve.job`` kills an attempt mid-job;
   ``serve.evict`` evicts the dataset entry *while the job runs* (the
   lease keeps the session alive — the eviction race the chaos suite
   proves harmless).  Stage-level fault specs (``stats:kill`` …) pass
   through into the run's ladders unchanged.

Whatever happens, :meth:`JobExecutor._execute` leaves the job in exactly
one terminal state and returns its cost to the admission budget — the
invariant the chaos suite asserts.
"""

from __future__ import annotations

import logging
import threading

from repro.errors import (
    DeadlineExceeded,
    ReproError,
    UnknownDatasetError,
)
from repro.notebook import to_ipynb_dict
from repro.obs.metrics import MetricsRegistry
from repro.parallel.pool import WorkerCrashed
from repro.runtime.faults import FaultInjector, InjectedFault
from repro.runtime.retry import retry_call
from repro.serve.admission import AdmissionController
from repro.serve.config import ServeConfig
from repro.serve.flight import FlightRecorder
from repro.serve.jobs import (
    STATUS_COMPLETED,
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_SHED,
    Job,
)
from repro.serve.registry import DatasetRegistry

logger = logging.getLogger(__name__)

__all__ = ["JobExecutor", "TRANSIENT_ERRORS"]

#: Failures worth a fresh attempt: injected crashes, pool worker deaths,
#: and memory pressure (the retry may land after a competing job freed
#: its working set).  Everything else fails the job immediately.
TRANSIENT_ERRORS = (InjectedFault, WorkerCrashed, MemoryError)

#: A job whose remaining budget is below this never starts a run.
MIN_RUN_BUDGET_SECONDS = 0.05

REASON_DEADLINE = "deadline-exhausted-in-queue"
REASON_CIRCUIT = "circuit-open"
REASON_SHUTDOWN = "server-shutdown"


class JobExecutor:
    """Threads that drain the admission queue into terminal job states."""

    def __init__(
        self,
        config: ServeConfig,
        registry: DatasetRegistry,
        admission: AdmissionController,
        *,
        metrics: MetricsRegistry | None = None,
        faults: FaultInjector | None = None,
        flight: FlightRecorder | None = None,
    ):
        self._config = config
        self._registry = registry
        self._admission = admission
        self._metrics = metrics or MetricsRegistry()
        self._faults = faults or FaultInjector.none()
        self._flight = flight
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        for index in range(self._config.executors):
            thread = threading.Thread(
                target=self._loop, name=f"repro-serve-exec-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: float = 5.0) -> None:
        """Stop executors, then shed whatever is still queued."""
        self._stop.set()
        self._admission.close()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads.clear()
        while True:
            job = self._admission.take(timeout=0)
            if job is None:
                break
            job.finish(STATUS_SHED, shed_reason=REASON_SHUTDOWN)
            self._admission.release(job)
            self._observe(job)

    def _loop(self) -> None:
        while not self._stop.is_set():
            job = self._admission.take(timeout=0.2)
            if job is None:
                continue
            self._execute(job)

    # -- one job -------------------------------------------------------------

    def _execute(self, job: Job) -> None:
        """Run one job to a terminal state, whatever happens."""
        try:
            # The executor thread has no open span in the job's tracer,
            # so serve.execute parents to the job's serve.request root.
            with job.tracer.span("serve.execute", job=job.id):
                self._run_job(job)
        except BaseException as exc:  # noqa: BLE001 - executor must survive
            logger.exception("job %s: unexpected executor error", job.id)
            job.finish(STATUS_FAILED, error=f"internal executor error: {exc}")
        finally:
            if not job.terminal:  # belt and braces: never leave a job hung
                job.finish(STATUS_FAILED, error="executor returned without a verdict")
            self._admission.release(job)
            self._observe(job)
            job.freeze_trace()

    def _run_job(self, job: Job) -> None:
        remaining = job.remaining_budget()
        if remaining <= MIN_RUN_BUDGET_SECONDS:
            job.finish(STATUS_SHED, shed_reason=REASON_DEADLINE)
            return

        try:
            entry = self._registry.get(job.dataset)
        except UnknownDatasetError as exc:
            job.finish(STATUS_FAILED, error=str(exc))
            return

        if not entry.breaker.allow():
            job.finish(STATUS_SHED, shed_reason=REASON_CIRCUIT)
            return

        try:
            session = entry.acquire()
        except UnknownDatasetError as exc:
            job.finish(STATUS_FAILED, error=str(exc))
            return
        try:
            # Stamp the version of the snapshot this run will actually use
            # (an append landing after this point swaps the session's table
            # but cannot touch the run's snapshot — generate() reads it
            # once under the session's state lock).
            job.dataset_version = session.version

            # The eviction-race fault point: yank the dataset out of the
            # registry *now*, while this job's lease keeps it alive.
            if self._faults.poll("serve.evict"):
                logger.warning("fault injection: evicting dataset %s mid-job",
                               job.dataset)
                self._registry.evict(job.dataset)

            job.mark_running()
            job.add_progress(
                f"started after {job.queue_seconds:.3f}s queued; "
                f"{job.remaining_budget():.3f}s of budget left"
            )

            def attempt():
                job.attempts += 1
                budget = job.remaining_budget()
                if budget <= MIN_RUN_BUDGET_SECONDS:
                    raise DeadlineExceeded(
                        f"job {job.id}: deadline budget exhausted before attempt",
                        stage="serve",
                    )
                with job.tracer.span("serve.attempt", number=job.attempts):
                    self._faults.fire("serve.job")
                    return session.generate(
                        budget=job.params.get("budget"),
                        deadline_seconds=budget,
                        faults=self._faults,
                        progress=job.add_progress,
                        tracer=job.tracer,
                        metrics=job.metrics,
                    )

            def on_retry(index: int, delay: float, exc: BaseException) -> None:
                self._metrics.counter("serve.job_retries").inc()
                job.add_progress(
                    f"attempt {index + 1} failed ({exc}); retrying in {delay:.3f}s"
                )

            try:
                run = retry_call(
                    attempt,
                    policy=self._config.retry_policy(),
                    retry_on=TRANSIENT_ERRORS,
                    on_retry=on_retry,
                )
                notebook = session.render(
                    run,
                    include_previews=bool(job.params.get("include_previews", True)),
                    faults=self._faults,
                    tracer=job.tracer,
                    metrics=job.metrics,
                )
            except (ReproError, MemoryError) as exc:
                entry.breaker.record_failure()
                job.finish(
                    STATUS_FAILED,
                    error=f"{type(exc).__name__}: {exc} "
                          f"(after {job.attempts} attempt(s))",
                )
                return

            entry.breaker.record_success()
            entry.runs += 1
            report = run.report.as_dict() if run.report is not None else None
            degraded = run.report is not None and run.report.degraded
            job.finish(
                STATUS_DEGRADED if degraded else STATUS_COMPLETED,
                report=report,
                notebook=to_ipynb_dict(notebook),
                degradations=run.report.degradations if run.report else [],
            )
        finally:
            # Fold the job's private registry into the resident session's,
            # so cross-request amortization evidence (cache.aggregate_hits
            # and friends) keeps accumulating on the dataset entry while
            # the job-scoped registry stays isolated.
            session.metrics.merge(job.metrics.export())
            entry.release()

    # -- accounting ----------------------------------------------------------

    def _observe(self, job: Job) -> None:
        self._metrics.counter(f"serve.jobs_{job.status}").inc()
        self._metrics.counter(
            "serve.jobs", {"dataset": job.dataset, "outcome": job.status}
        ).inc()
        for name, value in (
            ("serve.job_latency_seconds", job.total_seconds),
            ("serve.queue_wait_seconds", job.queue_seconds),
        ):
            self._metrics.histogram(name).observe(value)
            self._metrics.histogram(name, {"dataset": job.dataset}).observe(value)
        if self._flight is not None:
            self._flight.record(job)
