"""Job lifecycle and the bounded job store."""

from __future__ import annotations

import pytest

from repro.errors import ServeError
from repro.serve.jobs import (
    STATUS_COMPLETED,
    STATUS_FAILED,
    STATUS_QUEUED,
    STATUS_RUNNING,
    STATUS_SHED,
    TERMINAL_STATES,
    Job,
    JobStore,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make_job(clock=None, deadline=10.0) -> Job:
    return Job("job-000001", "covid", deadline_seconds=deadline,
               clock=clock or FakeClock())


def test_lifecycle_and_timings():
    clock = FakeClock()
    job = make_job(clock)
    assert job.status == STATUS_QUEUED
    assert not job.terminal

    clock.now = 2.0
    job.mark_running()
    assert job.status == STATUS_RUNNING
    assert job.queue_seconds == pytest.approx(2.0)

    clock.now = 5.0
    job.finish(STATUS_COMPLETED)
    assert job.terminal
    assert job.total_seconds == pytest.approx(5.0)
    assert job.queue_seconds == pytest.approx(2.0)
    assert job.wait(timeout=0)


def test_remaining_budget_counts_down_and_goes_negative():
    clock = FakeClock()
    job = make_job(clock, deadline=3.0)
    assert job.remaining_budget() == pytest.approx(3.0)
    clock.now = 2.0
    assert job.remaining_budget() == pytest.approx(1.0)
    clock.now = 5.0
    assert job.remaining_budget() < 0


def test_finish_is_idempotent_first_verdict_wins():
    job = make_job()
    job.finish(STATUS_FAILED, error="boom")
    job.finish(STATUS_COMPLETED, notebook={"cells": []})
    assert job.status == STATUS_FAILED
    assert job.error == "boom"
    assert job.notebook is None


def test_finish_rejects_non_terminal_states():
    job = make_job()
    with pytest.raises(ServeError, match="not a terminal"):
        job.finish(STATUS_RUNNING)
    assert STATUS_RUNNING not in TERMINAL_STATES


def test_to_dict_is_the_polling_view():
    job = make_job()
    job.add_progress("hello")
    job.finish(STATUS_SHED, shed_reason="queue-full")
    view = job.to_dict()
    assert view["status"] == STATUS_SHED
    assert view["terminal"] is True
    assert view["shed_reason"] == "queue-full"
    assert view["progress"] == ["hello"]
    assert view["has_notebook"] is False
    assert "notebook" not in view  # the body never rides along on polls


def test_store_ids_are_sequential_and_gettable():
    store = JobStore()
    a = store.create("covid", deadline_seconds=5.0)
    b = store.create("covid", deadline_seconds=5.0)
    assert (a.id, b.id) == ("job-000001", "job-000002")
    assert store.get(a.id) is a
    assert store.get("job-999999") is None


def test_store_prunes_only_terminal_jobs():
    store = JobStore(max_finished=2)
    jobs = [store.create("covid", deadline_seconds=5.0) for _ in range(4)]
    for job in jobs[:3]:
        job.finish(STATUS_COMPLETED)
    # Creating one more prunes the oldest *finished* job only.
    store.create("covid", deadline_seconds=5.0)
    assert store.get(jobs[0].id) is None
    assert store.get(jobs[1].id) is jobs[1]
    assert store.get(jobs[3].id) is jobs[3]  # still queued: never pruned


def test_frozen_trace_serves_the_same_document():
    job = make_job()
    live = job.tracer
    with live.span("serve.execute", job=job.id):
        with live.span("stage.stats", shape=(2, 3)) as span:
            span.set(candidates=7)
    job.freeze_trace()  # still running: stays live
    assert job.tracer is live

    job.finish(STATUS_COMPLETED)
    before = job.trace_doc()
    job.freeze_trace()
    assert job.tracer is not live  # rebuilt from the frozen record
    assert job.trace_doc() == before
    assert [s.name for s in job.tracer.spans()] == [
        "serve.request", "serve.execute", "stage.stats",
    ]
    job.freeze_trace()  # idempotent
    assert job.trace_doc() == before
