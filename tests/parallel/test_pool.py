"""Mechanics of the work-stealing, crash-isolated shard pool."""

from __future__ import annotations

import contextvars
import os
import pickle
import signal
import threading
import time

import pytest

from repro import obs
from repro.errors import DeadlineExceeded, ReproError
from repro.parallel import ParallelConfig, ShardPool, WorkerFleet, use_fleet
from repro.runtime.deadline import Deadline


@pytest.fixture(autouse=True)
def isolated_obs():
    with obs.capture() as (tracer, metrics):
        yield tracer, metrics


def _counters():
    return obs.current_metrics().snapshot()["counters"]


# Task functions must live at module level (they cross the process
# boundary under spawn).

def _double(ctx, payload):
    return payload * 2


def _sleepy(ctx, payload):
    value, seconds = payload
    time.sleep(seconds)
    return value


def _crash_once(ctx, payload):
    value, marker = payload
    if marker and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(13)
    return value * 3


def _crash_in_subprocess(ctx, payload):
    value, parent_pid = payload
    if os.getpid() != parent_pid:
        os._exit(7)
    return value + 100


def _raise_value_error(ctx, payload):
    raise ValueError("boom")


def _raise_deadline(ctx, payload):
    raise DeadlineExceeded("synthetic expiry", stage="shards")


def _raise_memory(ctx, payload):
    raise MemoryError("pretend OOM")


def _state_plus(ctx, payload):
    return ctx.state + payload


def _labeled_counting(ctx, payload):
    flavor = "even" if payload % 2 == 0 else "odd"
    obs.counter("pooltest.tasks", {"flavor": flavor}).inc()
    return payload


def _bad_init(payload):
    raise RuntimeError("init exploded")


def _blob(ctx, size):
    return b"x" * size


def _late_blob_or_fail(ctx, payload):
    seconds, size = payload
    if size is None:
        raise ValueError("stage ends here")
    time.sleep(seconds)
    return b"x" * size


def _state_size(ctx, payload):
    return len(ctx.state) + payload


def test_results_come_back_in_payload_order():
    pool = ShardPool(ParallelConfig(workers=4), task_fn=_double)
    assert pool.run(list(range(10))) == [i * 2 for i in range(10)]


def test_single_worker_runs_in_process_without_pool_counters():
    pool = ShardPool(ParallelConfig(workers=1), task_fn=_double)
    assert pool.run([1, 2, 3]) == [2, 4, 6]
    counters = _counters()
    assert "parallel.tasks_stolen" not in counters
    assert "parallel.tasks_inprocess" not in counters


def test_init_payload_becomes_state():
    pool = ShardPool(ParallelConfig(workers=2), task_fn=_state_plus, init_payload=10)
    assert pool.run([1, 2, 3, 4]) == [11, 12, 13, 14]


def test_idle_worker_steals_from_the_busy_one():
    # Worker 0's first shard sleeps; worker 1 drains its own deque and
    # must steal the rest of worker 0's block to finish the run.
    payloads = [(0, 0.5)] + [(i, 0.0) for i in range(1, 8)]
    pool = ShardPool(ParallelConfig(workers=2), task_fn=_sleepy)
    assert pool.run(payloads) == list(range(8))
    assert _counters().get("parallel.tasks_stolen", 0) >= 1


def test_crashed_worker_is_replaced_and_its_shard_requeued(tmp_path):
    marker = str(tmp_path / "crashed-once")
    payloads = [(i, marker if i == 1 else "") for i in range(6)]
    pool = ShardPool(
        ParallelConfig(workers=2, max_worker_restarts=2), task_fn=_crash_once
    )
    assert pool.run(payloads) == [i * 3 for i in range(6)]
    assert _counters().get("parallel.worker_restarts", 0) >= 1


def _start_stage(fleet, worker_id, epoch, payloads):
    """Set ``worker_id`` up for a ``_blob`` stage and send it one block."""
    init_blob = pickle.dumps((_blob, None, None))
    fleet.send(worker_id, ("setup", epoch, init_blob, None, "t", None))
    fleet.send(worker_id, ("block", epoch, 0, list(enumerate(payloads))))


def test_worker_killed_mid_write_cannot_wedge_the_survivor():
    """A worker SIGKILLed while writing a result leaves the others working.

    Worker 0 ships a result far larger than a pipe buffer that nobody
    reads, so it is blocked mid-write when it is killed.  Over a result
    channel shared between workers, the dead writer would keep its write
    lock (or leave a torn message) and the survivor's results would never
    reach the parent.
    """
    with WorkerFleet() as fleet:
        doomed, survivor = fleet.ensure(2)
        epoch = fleet.next_epoch()
        _start_stage(fleet, doomed, epoch, [8 << 20])
        time.sleep(0.5)  # let it set up, compute, and fill its pipe
        process = fleet._workers[doomed].process
        os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=5.0)
        _start_stage(fleet, survivor, epoch, [16])

        results = None
        give_up = time.monotonic() + 15.0
        while results is None and time.monotonic() < give_up:
            message = fleet.recv(timeout=0.1)
            if message is not None and message[0] == "results":
                results = message
        assert results is not None, "the survivor's result never arrived"
        assert results[1] == survivor
        (task_id, ok, value, _, _), = results[4]
        assert ok and value == b"x" * 16
        assert not fleet.alive(doomed)


class _RacingContext:
    """A start-method context whose workers start only after another
    thread has tried to spawn a worker of ``other`` (bounded wait)."""

    def __init__(self, ctx, other: WorkerFleet):
        self._ctx = ctx
        self._other = other

    def __getattr__(self, name):
        return getattr(self._ctx, name)

    def Process(self, *args, **kwargs):
        process = self._ctx.Process(*args, **kwargs)
        start = process.start

        def start_after_a_racing_fork():
            racer = threading.Thread(target=self._other.spawn, daemon=True)
            racer.start()
            racer.join(timeout=0.5)
            start()

        process.start = start_after_a_racing_fork
        return process


def test_a_concurrent_spawn_cannot_inherit_a_result_pipe():
    """Another fleet forking mid-spawn must not keep a result pipe open.

    The racing fork lands between creating the new worker's result pipe
    and the parent closing its write end, unless spawns are serialized.
    A worker forked there would hold that write end for its whole life,
    and the new worker's death would never read as end-of-file.
    """
    with WorkerFleet() as other:
        base = other._ctx
        with WorkerFleet(_RacingContext(base, other)) as fleet:
            worker_id = fleet.spawn()
            deadline = time.monotonic() + 10.0
            while len(other._workers) < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(other._workers) == 1
            worker = fleet._workers[worker_id]
            os.kill(worker.process.pid, signal.SIGKILL)
            worker.process.join(timeout=5.0)
            assert worker.results.poll(5.0), "the dead worker's pipe never closed"
            with pytest.raises(EOFError):
                worker.results.recv_bytes()


def test_stale_result_cannot_block_the_next_stage_on_a_warm_fleet():
    """A stage that ends with a block in flight leaves the next one working.

    The first stage fails on one worker while the other is still computing
    a result far larger than a pipe buffer; nobody will read that result.
    The next stage on the same fleet then ships a setup blob far larger
    than a pipe buffer to that worker (as the heap data plane does with a
    whole table).  A worker that wrote its stale result synchronously
    would never read the setup, and the parent's blocking send would wait
    on it forever.  The scenario runs in a thread under a wall-clock bound.
    """
    outcome: list = []

    def scenario() -> None:
        with WorkerFleet() as fleet, use_fleet(fleet):
            first = ShardPool(ParallelConfig(workers=2),
                              task_fn=_late_blob_or_fail)
            with pytest.raises(ReproError, match="stage ends here"):
                first.run([(1.0, 4 << 20), (0.0, None)])
            second = ShardPool(ParallelConfig(workers=2), task_fn=_state_size,
                               init_payload=b"y" * (4 << 20))
            outcome.append(second.run([1, 2, 3, 4]))

    runner = threading.Thread(
        target=contextvars.copy_context().run, args=(scenario,), daemon=True
    )
    runner.start()
    runner.join(timeout=30.0)
    assert not runner.is_alive(), "the second stage never completed"
    assert outcome == [[(4 << 20) + i for i in (1, 2, 3, 4)]]


def test_restart_budget_exhausted_degrades_to_in_process():
    # Every subprocess attempt dies; once the restart budget is spent the
    # remaining shards must complete in the parent process.
    payloads = [(i, os.getpid()) for i in range(5)]
    pool = ShardPool(
        ParallelConfig(workers=2, max_worker_restarts=1),
        task_fn=_crash_in_subprocess,
    )
    assert pool.run(payloads) == [i + 100 for i in range(5)]
    assert _counters().get("parallel.tasks_inprocess", 0) >= 1


def test_worker_exception_reraises_as_repro_error():
    pool = ShardPool(ParallelConfig(workers=2), task_fn=_raise_value_error)
    with pytest.raises(ReproError, match="ValueError.*boom"):
        pool.run([1, 2, 3, 4])


def test_worker_deadline_keeps_its_type():
    pool = ShardPool(ParallelConfig(workers=2), task_fn=_raise_deadline)
    with pytest.raises(DeadlineExceeded):
        pool.run([1, 2, 3, 4])


def test_worker_memory_error_keeps_its_type():
    pool = ShardPool(ParallelConfig(workers=2), task_fn=_raise_memory)
    with pytest.raises(MemoryError):
        pool.run([1, 2, 3, 4])


def test_worker_init_failure_surfaces():
    pool = ShardPool(
        ParallelConfig(workers=2), task_fn=_double, worker_init=_bad_init
    )
    with pytest.raises(ReproError, match="RuntimeError.*init exploded"):
        pool.run([1, 2, 3, 4])


def test_near_deadline_skips_the_pool_entirely():
    # Remaining deadline is below the margin from the start: the pool must
    # finish in-process (where real expiry raises for the runtime ladder).
    pool = ShardPool(
        ParallelConfig(workers=2, deadline_margin=3600.0),
        task_fn=_double,
        deadline=Deadline(30.0),
    )
    assert pool.run([1, 2, 3]) == [2, 4, 6]
    assert _counters().get("parallel.tasks_inprocess", 0) == 3
    assert "parallel.tasks_stolen" not in _counters()


def test_skip_leaves_resumed_slots_for_the_caller():
    pool = ShardPool(ParallelConfig(workers=2), task_fn=_double)
    results = pool.run([1, 2, 3, 4], skip={0, 2})
    assert results[0] is None and results[2] is None
    assert results[1] == 4 and results[3] == 8


def test_on_result_fires_per_completed_shard():
    seen: dict[int, int] = {}
    pool = ShardPool(ParallelConfig(workers=2), task_fn=_double)
    pool.run([5, 6, 7], on_result=lambda i, v: seen.__setitem__(i, v))
    assert seen == {0: 10, 1: 12, 2: 14}


def test_worker_spans_are_adopted_into_the_main_trace(isolated_obs):
    tracer, _ = isolated_obs
    pool = ShardPool(ParallelConfig(workers=2), task_fn=_double, label="adopt")
    pool.run([1, 2, 3, 4])
    names = [span.name for span in tracer.spans()]
    assert "parallel.adopt" in names
    assert "parallel.task" in names


def test_crashed_task_spans_adopted_exactly_once(isolated_obs, monkeypatch):
    """A killed worker's in-flight task re-runs — and its span subtree is
    adopted exactly once (the crashed attempt's spans die with the
    process; the retry's ship with its result): neither lost nor doubled.
    """
    tracer, _ = isolated_obs
    monkeypatch.setenv("REPRO_FAULTS", "parallel.worker:kill:x1")
    pool = ShardPool(
        ParallelConfig(workers=2, max_worker_restarts=2),
        task_fn=_double, label="faulty",
    )
    payloads = list(range(8))
    assert pool.run(payloads) == [i * 2 for i in payloads]
    assert _counters().get("parallel.worker_restarts", 0) >= 1

    wrappers = [s for s in tracer.spans() if s.name == "parallel.task"]
    by_task: dict[int, int] = {}
    for span in wrappers:
        by_task[span.attrs["task"]] = by_task.get(span.attrs["task"], 0) + 1
    # Every task shipped exactly one subtree — including the one whose
    # first attempt died with its worker.
    assert by_task == {task_id: 1 for task_id in range(len(payloads))}


def test_worker_labeled_metrics_merge_across_the_process_boundary(
    isolated_obs,
):
    _, metrics = isolated_obs
    pool = ShardPool(ParallelConfig(workers=2), task_fn=_labeled_counting)
    assert pool.run([1, 2, 3, 4]) == [1, 2, 3, 4]
    snapshot = metrics.snapshot()["counters"]
    assert snapshot.get("pooltest.tasks{flavor=even}", 0) == 2
    assert snapshot.get("pooltest.tasks{flavor=odd}", 0) == 2
