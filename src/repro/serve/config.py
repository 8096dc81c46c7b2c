"""Configuration of the multi-tenant serving layer.

:class:`ServeConfig` is the single knob surface of :mod:`repro.serve`:
where the server listens, how deep the admission queue may grow, how much
estimated cost may be in flight, the default per-request deadline budget,
the job retry policy, and the per-dataset circuit-breaker thresholds.
The CLI surfaces it as ``repro serve`` flags (see ``docs/serving.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ReproError
from repro.runtime.retry import RetryPolicy

__all__ = ["ServeConfig"]


@dataclass(frozen=True, slots=True)
class ServeConfig:
    """Settings of the serving layer.

    Attributes
    ----------
    host / port:
        Listen address; port 0 binds an ephemeral port (tests use this).
    max_queue_depth:
        Bound on the admission queue.  A ``POST /generate`` arriving with
        this many jobs already queued is shed with HTTP 429.
    max_inflight_cost:
        Budget on the *estimated cost* of queued plus running jobs, in
        cost units (a dataset's unit cost scales with its row count).  A
        request whose dataset would push the total past the budget is
        shed even when the queue has room — one giant dataset cannot
        starve the tenancy.
    default_deadline_seconds / max_deadline_seconds:
        Per-request deadline budget when the request names none, and the
        cap on what a request may ask for.  The budget starts at
        *submission*: time spent queued is subtracted before the run
        starts, and the remainder is wired into the runtime degradation
        ladders, so an overloaded server degrades results instead of
        timing requests out.
    executors:
        Job-executor threads.  Jobs on different datasets run at the
        same time, one per executor; jobs on one dataset still serialize
        on its session (see :class:`repro.api.Session`).  How much two
        runs overlap depends on the cores free and on how much of a run
        is NumPy or SQLite work that releases the interpreter lock.
    job_attempts / retry_base_delay:
        Retry policy for transient job failures (injected crashes, pool
        worker deaths): total attempts and the base backoff, fed to the
        shared :class:`~repro.runtime.retry.RetryPolicy`.
    breaker_failures / breaker_reset_seconds:
        Per-dataset circuit breaker: consecutive job failures before the
        breaker opens, and the cool-down before a half-open probe.
    max_finished_jobs:
        Terminal jobs retained for polling before the oldest are pruned.
    flight_capacity:
        Terminal-job records kept in the always-on flight recorder ring
        (``GET /debug/flight``; dumped to disk on crash/SIGTERM).
    """

    host: str = "127.0.0.1"
    port: int = 8765
    max_queue_depth: int = 16
    max_inflight_cost: float = 64.0
    default_deadline_seconds: float = 30.0
    max_deadline_seconds: float = 300.0
    executors: int = 1
    job_attempts: int = 2
    retry_base_delay: float = 0.02
    breaker_failures: int = 3
    breaker_reset_seconds: float = 30.0
    max_finished_jobs: int = 256
    flight_capacity: int = 128

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ReproError(
                f"max_queue_depth must be at least 1, got {self.max_queue_depth}"
            )
        if self.max_inflight_cost <= 0:
            raise ReproError("max_inflight_cost must be positive")
        if self.default_deadline_seconds <= 0 or self.max_deadline_seconds <= 0:
            raise ReproError("deadline budgets must be positive")
        if self.default_deadline_seconds > self.max_deadline_seconds:
            raise ReproError(
                "default_deadline_seconds cannot exceed max_deadline_seconds"
            )
        if self.executors < 1:
            raise ReproError(f"executors must be at least 1, got {self.executors}")
        if self.job_attempts < 1:
            raise ReproError(f"job_attempts must be at least 1, got {self.job_attempts}")
        if self.retry_base_delay < 0:
            raise ReproError("retry_base_delay cannot be negative")
        if self.breaker_failures < 1:
            raise ReproError("breaker_failures must be at least 1")
        if self.breaker_reset_seconds <= 0:
            raise ReproError("breaker_reset_seconds must be positive")
        if self.max_finished_jobs < 1:
            raise ReproError("max_finished_jobs must be at least 1")
        if self.flight_capacity < 1:
            raise ReproError("flight_capacity must be at least 1")

    def retry_policy(self) -> RetryPolicy:
        """The job-attempt retry policy this config describes."""
        return RetryPolicy(
            max_attempts=self.job_attempts,
            base_delay=self.retry_base_delay,
            max_delay=max(self.retry_base_delay * 8, self.retry_base_delay),
            jitter=0.5,
        )

    def replace(self, **changes) -> "ServeConfig":
        return replace(self, **changes)
