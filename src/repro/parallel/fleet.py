"""Long-lived worker fleets: spawn once per session, serve many stages.

Before PR 8 every ``ShardPool.run`` forked a fresh set of workers and
shipped the whole init payload (usually the dataset) into each of them —
twice per run (stats, then support), per request in the serving layer.
A :class:`WorkerFleet` decouples worker lifetime from stage lifetime:

* **one spawn, many stages** — :class:`~repro.parallel.pool.ShardPool`
  picks up the ambient fleet (:func:`use_fleet` / :func:`current_fleet`,
  installed by ``api.Session`` for the duration of a run) and only
  creates a private, ephemeral fleet when none is ambient;
* **epoch protocol** — each scheduler run claims a fresh epoch.  Setup
  and block messages carry it; a shared cancellation watermark
  (``Value``) cancels everything at or below an epoch without poisoning
  the next stage, and stale results are dropped by epoch in the parent;
* **block IPC** — tasks travel in small blocks
  (:attr:`~repro.parallel.config.ParallelConfig.ipc_block_size`) instead
  of one queue round-trip per task;
* **warm stage states** — workers cache built stage states keyed by the
  init blob's digest, so a repeat of the same stage (the next request
  against a warm serving session, a replacement worker rejoining)
  reuses attached segments, backend connections, and aggregate caches
  instead of rebuilding them;
* **exact byte accounting** — every message is pickled *by this module*
  and crosses the queues as raw bytes, so ``parallel.ipc_bytes`` counts
  precisely what the data plane pays.  This is the counter the
  data-plane benchmark asserts its ≥10x shrink against.

The fleet is deliberately generic: it knows nothing about tables or
handles.  Zero-copy comes from what the *payloads* are — a
:class:`~repro.relational.store.TableHandle` instead of a pickled table.
"""

from __future__ import annotations

import hashlib
import logging
import multiprocessing as mp
import os
import pickle
import queue as queue_mod
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro import obs
from repro.errors import DeadlineExceeded
from repro.runtime.deadline import Deadline

logger = logging.getLogger(__name__)

__all__ = ["WorkerContext", "WorkerFleet", "current_fleet", "use_fleet"]


#: Exit code of a worker killed by the ``parallel.worker`` fault point,
#: distinguishable from real crashes in logs.
_INJECTED_EXIT = 17

#: How many distinct stage states a worker keeps warm.  A session's run
#: alternates between two stages (stats, support); serving adds one
#: distinct pair per warm dataset this worker sees.  Evicted states are
#: closed.
_STATE_CACHE_SIZE = 4


def _maybe_injected_worker_kill(guard_dir: str | None,
                                result_queue=None) -> None:
    """Honor ``REPRO_FAULTS=parallel.worker:kill[:xN]`` inside a worker.

    The guard directory is the cross-process fault budget: each planned
    kill claims one marker file with ``O_CREAT|O_EXCL`` before dying, so
    N planned kills crash exactly N task attempts across the whole fleet
    — replacement workers and requeued shards included — regardless of
    which worker dequeues them.

    The result queue is drained before dying: its feeder thread writes
    under a lock shared with every other worker, and ``os._exit`` while
    that lock is held would poison it fleet-wide.  A planned kill models
    a crash *between* tasks, so flushing first keeps the simulated
    failure inside the scheduler's recovery contract.
    """

    def _exit() -> None:
        if result_queue is not None:
            result_queue.close()
            result_queue.join_thread()
        os._exit(_INJECTED_EXIT)
    plan = os.environ.get("REPRO_FAULTS", "")
    if "parallel.worker" not in plan or guard_dir is None:
        return
    from repro.runtime.faults import parse_fault_plan

    for spec in parse_fault_plan(plan).specs:
        if spec.stage != "parallel.worker" or spec.action != "kill":
            continue
        if spec.times is None:
            _exit()
        for shot in range(spec.times):
            try:
                fd = os.open(os.path.join(guard_dir, f"kill-{shot}"),
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            _exit()


@dataclass(slots=True)
class WorkerContext:
    """What a shard function sees as its first argument.

    ``state`` is whatever ``worker_init`` built once for this worker and
    stage (for the evaluation stage: its own backend — SQLite connections
    never cross process boundaries).  ``checkpoint`` is the cooperative
    cancellation hook: it raises :class:`DeadlineExceeded` past the
    stage's deadline or when the parent cancelled the epoch, and is cheap
    enough to call as often as the permutation kernel calls its slice
    checkpoint.  In the in-process fallback path, ``state`` comes from
    the same ``worker_init`` and ``checkpoint`` wraps the *real* run
    deadline.
    """

    state: Any
    checkpoint: Callable[[], None] | None


def _pool_context() -> mp.context.BaseContext:
    """Fork where available (cheap, shares the dataset pages); else spawn."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def _make_worker_checkpoint(cancel_value, epoch: int,
                            deadline: Deadline | None, label: str):
    def checkpoint() -> None:
        if cancel_value.value >= epoch:
            raise DeadlineExceeded(
                f"{label}: cancelled by the pool scheduler", stage=label
            )
        if deadline is not None:
            deadline.check(label)

    return checkpoint


def _close_state(state: Any) -> None:
    close = getattr(state, "close", None)
    if callable(close):
        close()


class _Stage:
    """A worker's view of the stage it was last set up for."""

    __slots__ = ("epoch", "task_fn", "context", "fault_guard")

    def __init__(self, epoch, task_fn, context, fault_guard):
        self.epoch = epoch
        self.task_fn = task_fn
        self.context = context
        self.fault_guard = fault_guard


def _fleet_worker_main(worker_id: int, task_queue, result_queue,
                       cancel_value) -> None:
    """Worker loop: serve stage setups and task blocks until ``None``.

    Messages arrive and leave as pre-pickled bytes (the parent counts
    them).  A setup message carries the stage's init blob; its digest
    keys a small cache of built states, so the same stage arriving again
    — the next run of a warm serving session, a replacement worker
    rejoining — reuses the existing state (attached segments, backend
    connections, warm aggregate caches) instead of re-running the init.
    Setup is acknowledged with a ``ready`` message carrying the init's
    spans and metrics (a shared-memory attach happens *here*, so its
    ``parallel.shm_attach`` count ships with the ack; a cache hit attaches
    nothing).  Each task in a block runs under a fresh tracer/metrics
    capture so the parent can adopt one ``parallel.task`` subtree per
    task; a block stops at its first failure.
    """
    stage: _Stage | None = None
    # blob digest -> (task_fn, state); insertion-ordered, refreshed on
    # hit, so eviction drops the least recently *set up* stage — never
    # the one the live stage points at.
    states: dict[bytes, tuple[Any, Any]] = {}

    def ship(message: tuple) -> None:
        result_queue.put(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))

    try:
        while True:
            raw = task_queue.get()
            if raw is None:
                break
            message = pickle.loads(raw)
            if message[0] == "drop_states":
                # The session's dataset changed (rows appended): every warm
                # stage state is keyed by an init blob naming the *old*
                # table, so none can ever be hit again — close them now
                # instead of waiting for cache-size eviction.
                for _, state in states.values():
                    _close_state(state)
                states.clear()
                stage = None
                continue
            if message[0] == "setup":
                (_, epoch, init_blob, deadline_remaining,
                 label, fault_guard) = message
                stage = None
                deadline = (Deadline(max(1e-3, deadline_remaining))
                            if deadline_remaining is not None else None)
                checkpoint = _make_worker_checkpoint(
                    cancel_value, epoch, deadline, label
                )
                digest = hashlib.blake2s(init_blob).digest()
                with obs.capture() as (tracer, metrics):
                    try:
                        if digest in states:
                            states[digest] = states.pop(digest)  # recency
                            task_fn, state = states[digest]
                            # Per-stage reset hook: a reused state keeps
                            # its expensive parts (attached segments,
                            # connections, the table's aggregate cache)
                            # and rebuilds the per-stage ones, matching
                            # what a fresh worker_init over warm memory
                            # would produce.
                            reset = getattr(state, "refresh", None)
                            if callable(reset):
                                reset()
                        else:
                            task_fn, worker_init, init_payload = pickle.loads(
                                init_blob
                            )
                            state = (worker_init(init_payload)
                                     if worker_init is not None
                                     else init_payload)
                            states[digest] = (task_fn, state)
                            while len(states) > _STATE_CACHE_SIZE:
                                _, stale = states.pop(next(iter(states)))
                                _close_state(stale)
                        ok, detail = True, None
                    except BaseException as exc:  # noqa: BLE001 - shipped back
                        ok, detail = False, (type(exc).__name__, str(exc))
                if ok:
                    stage = _Stage(
                        epoch, task_fn, WorkerContext(state, checkpoint),
                        fault_guard,
                    )
                ship(("ready", worker_id, epoch, ok, detail,
                      tracer.export(), metrics.export()))
            else:  # ("block", epoch, block_index, entries)
                _, epoch, block_index, entries = message
                if (stage is None or stage.epoch != epoch
                        or cancel_value.value >= epoch):
                    continue  # stale dispatch from a cancelled stage
                outputs = []
                for task_id, payload in entries:
                    _maybe_injected_worker_kill(stage.fault_guard, result_queue)
                    with obs.capture() as (tracer, metrics):
                        try:
                            value = stage.task_fn(stage.context, payload)
                            ok = True
                        except BaseException as exc:  # noqa: BLE001 - shipped
                            value = (type(exc).__name__, str(exc))
                            ok = False
                    outputs.append(
                        (task_id, ok, value, tracer.export(), metrics.export())
                    )
                    if not ok:
                        break
                ship(("results", worker_id, epoch, block_index, outputs))
    finally:
        for _, state in states.values():
            _close_state(state)


class WorkerFleet:
    """A set of subprocess workers that outlives any single stage.

    The fleet owns the processes, their queues, and the shared
    cancellation watermark; :class:`~repro.parallel.pool._Scheduler`
    borrows workers per stage via :meth:`ensure` and talks to them
    through :meth:`send`/:meth:`recv`, which count every byte into
    ``parallel.ipc_bytes``.  Close with :meth:`close` (idempotent) or use
    it as a context manager.
    """

    def __init__(self, context: mp.context.BaseContext | None = None):
        self._ctx = context or _pool_context()
        self._results = self._ctx.Queue()
        self._cancel = self._ctx.Value("l", 0)
        self._workers: dict[int, tuple] = {}  # id -> (process, task_queue)
        self._next_worker_id = 0
        self._epoch = 0
        self.closed = False

    # -- epochs and cancellation --------------------------------------------

    def next_epoch(self) -> int:
        self._epoch += 1
        return self._epoch

    def cancel(self, epoch: int) -> None:
        """Cancel every stage at or below ``epoch`` (monotonic watermark)."""
        with self._cancel.get_lock():
            if self._cancel.value < epoch:
                self._cancel.value = epoch

    # -- worker lifecycle ----------------------------------------------------

    def spawn(self) -> int:
        """Start one worker; returns its fleet-wide id."""
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        task_queue = self._ctx.SimpleQueue()
        process = self._ctx.Process(
            target=_fleet_worker_main,
            args=(worker_id, task_queue, self._results, self._cancel),
            daemon=True,
            name=f"repro-fleet-{worker_id}",
        )
        process.start()
        self._workers[worker_id] = (process, task_queue)
        obs.counter("parallel.worker_spawns").inc()
        return worker_id

    def ensure(self, count: int) -> list[int]:
        """At least ``count`` live workers; returns ``count`` of their ids.

        This is the amortization point: a fleet that already served a
        stage hands back its warm workers instead of forking new ones.
        """
        for worker_id in [wid for wid, (process, _) in self._workers.items()
                          if not process.is_alive()]:
            self.discard(worker_id)
        while len(self._workers) < count:
            self.spawn()
        return sorted(self._workers)[:count]

    def alive(self, worker_id: int) -> bool:
        entry = self._workers.get(worker_id)
        return entry is not None and entry[0].is_alive()

    def discard(self, worker_id: int):
        """Forget a (dead) worker; returns its exit code for diagnostics."""
        process, _ = self._workers.pop(worker_id)
        return process.exitcode

    def refresh(self) -> None:
        """Tell every live worker to drop its warm stage states.

        Called after the owning session's table version advances: the
        cached states reference the superseded table (and, under the shm
        plane, hold attached views of its segment), and their digest keys
        can never match again.  The broadcast is fire-and-forget — each
        worker's task queue is serial, so the drop lands before any
        subsequent stage setup.
        """
        if self.closed:
            return
        for worker_id, (process, _) in list(self._workers.items()):
            if process.is_alive():
                self.send(worker_id, ("drop_states",))
        obs.counter("parallel.fleet_refreshes").inc()

    # -- the byte-counted wire ----------------------------------------------

    def send(self, worker_id: int, message: tuple) -> None:
        raw = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        obs.counter("parallel.ipc_bytes").inc(len(raw))
        self._workers[worker_id][1].put(raw)

    def recv(self, timeout: float):
        """Next worker message, or ``None`` on timeout."""
        try:
            raw = self._results.get(timeout=timeout)
        except queue_mod.Empty:
            return None
        obs.counter("parallel.ipc_bytes").inc(len(raw))
        return pickle.loads(raw)

    # -- teardown ------------------------------------------------------------

    def close(self) -> None:
        """Stop every worker.  Idempotent."""
        if self.closed:
            return
        self.closed = True
        for _, task_queue in self._workers.values():
            try:
                task_queue.put(None)
            except (OSError, ValueError):  # pragma: no cover - dying worker
                pass
        for process, _ in self._workers.values():
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=1.0)
        self._workers.clear()

    def __enter__(self) -> "WorkerFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: The ambient fleet, installed by ``api.Session`` around each run.  Like
#: the ambient tracer/metrics (:func:`repro.obs.use`) it is scoped to the
#: running context, so concurrent runs of different sessions each see
#: their own session's fleet.
_ambient_fleet: ContextVar[WorkerFleet | None] = ContextVar(
    "repro_ambient_fleet", default=None
)


def current_fleet() -> WorkerFleet | None:
    """The ambient fleet, if one is installed and still open."""
    fleet = _ambient_fleet.get()
    if fleet is not None and not fleet.closed:
        return fleet
    return None


@contextmanager
def use_fleet(fleet: WorkerFleet) -> Iterator[None]:
    """Make ``fleet`` ambient so every pool in scope amortizes onto it."""
    token = _ambient_fleet.set(fleet)
    try:
        yield
    finally:
        _ambient_fleet.reset(token)
