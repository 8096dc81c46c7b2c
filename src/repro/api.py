"""The stable high-level API: ``repro.Session`` and ``repro.generate_notebook``.

This module is the supported integration surface.  Everything else in the
package is importable, but only this facade (plus the config objects it
consumes) carries a compatibility promise across versions.

One call::

    import repro

    run = repro.generate_notebook("mydata.csv", out="mydata.ipynb")

Several runs over one dataset — the :class:`Session` owns the loaded
:class:`~repro.relational.table.Table`, its cross-stage aggregate cache,
one execution backend, and the observability stack, so repeated runs reuse
all of them::

    config = repro.ReproConfig(budget=8).with_parallel(workers=4)
    with repro.Session("mydata.csv", config=config) as session:
        run = session.generate()
        session.write_notebook(run, "mydata.ipynb")
        print(run.report.summary_lines())

Every run goes through the resilient controller
(:func:`repro.runtime.resilient_generate`): deadlines degrade stages
instead of failing, checkpoints make runs resumable, and the attached
:class:`~repro.runtime.report.RunReport` records what happened.
"""

from __future__ import annotations

import logging
import threading
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro import obs
from repro.config import ReproConfig
from repro.errors import ReproError
from repro.generation.pipeline import NotebookRun
from repro.notebook.cells import Notebook
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer
from repro.relational import Table, read_csv

logger = logging.getLogger(__name__)

__all__ = ["Session", "generate_notebook"]

class Session:
    """One dataset, many runs: the owner of every long-lived resource.

    Parameters
    ----------
    source:
        A :class:`~repro.relational.table.Table`, or a CSV path
        (``str`` / :class:`~pathlib.Path`) loaded strictly.  May be
        ``None`` only to resume a checkpoint that already contains the
        generation stage (pass ``resume=`` to :meth:`generate`).
    config:
        A :class:`~repro.config.ReproConfig`; defaults honour the
        ``REPRO_*`` environment the way the CLI does.
    table_name:
        Name used in generated SQL and notebook titles; defaults to the
        CSV stem (or ``"dataset"`` for in-memory tables).

    The session owns the table (and therefore its
    :class:`~repro.relational.aggcache.AggregateCache`), one lazily
    created execution backend reused across runs, and a private
    tracer/metrics pair — concurrent runs in one process don't trample
    each other's traces.  Use it as a context manager, or call
    :meth:`close` to release the backend.

    Thread safety
    -------------
    A session may be *shared* across threads (the serving layer keeps one
    warm session per registered dataset), but its runs are serialized:
    :meth:`generate` and :meth:`render` hold the session's lock, so
    concurrent calls block rather than corrupt the shared backend or
    aggregate cache.  Runs on *different* sessions proceed at once: each
    installs its tracer/metrics pair and worker fleet for its own context
    only (:func:`repro.obs.use`, :func:`repro.parallel.use_fleet`).
    Callers that would rather shed than wait can test :attr:`busy` first
    (advisory — admission control belongs in front of the session, as
    :mod:`repro.serve` does with its bounded queue).
    """

    def __init__(
        self,
        source: Table | str | Path | None,
        *,
        config: ReproConfig | None = None,
        table_name: str | None = None,
    ):
        self.config = config or ReproConfig()
        if source is None:
            self.table = None
            self.table_name = table_name or "dataset"
        elif isinstance(source, Table):
            self.table = source
            self.table_name = table_name or "dataset"
        elif isinstance(source, (str, Path)):
            path = Path(source)
            self.table = read_csv(path, strict=True)
            self.table_name = table_name or path.stem
        else:
            raise ReproError(
                f"source must be a Table or a CSV path, got {type(source).__name__}"
            )
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self._backend = None
        self._closed = False
        self._lock = threading.RLock()
        self._shared_store = None
        self._fleet = None
        # Mutation bookkeeping.  ``_state_lock`` guards the (table, backend,
        # versioner, moments, memo) tuple so :meth:`append` can swap the
        # dataset *while a run is in flight*: the run keeps working on the
        # snapshot it took at start, and the superseded backend / shared
        # segment land on ``_retired`` (closed at the next run boundary or
        # in :meth:`close`) instead of being torn down under it.
        self._state_lock = threading.Lock()
        self._retired: list = []
        self._versioner = None
        self._moments = None
        self._memo = None
        self._fleet_stale = False
        if self.table is not None:
            self.table = self._materialize(self.table)

    @classmethod
    def from_csv(
        cls,
        path: str | Path,
        *,
        config: ReproConfig | None = None,
        table_name: str | None = None,
    ) -> "Session":
        """Open a session over a CSV file (strict load).

        The canonical constructor for file-backed sessions;
        ``Session(path)`` remains as a thin shim that delegates here.
        """
        return cls(Path(path), config=config, table_name=table_name)

    def _materialize(self, table: Table) -> Table:
        """Move the resident table onto the configured data plane.

        Under the shared-memory plane the table's arrays are copied into
        one ``repro_*`` segment *once*; every stage of every run — and,
        in the serving layer, every concurrent job's pool — then passes
        the compact handle instead of re-pickling the data.  The segment
        is owned by this session and unlinked in :meth:`close`.
        """
        from repro.parallel.config import resolve_store_kind
        from repro.relational.store import share_table, shm_resident_bytes

        if table.storage != "heap":
            return table
        if resolve_store_kind(self.config.parallel) != "shm":
            return table
        try:
            shared = share_table(table)
        except ReproError:  # pragma: no cover - shm probe raced the share
            return table
        self._shared_store = shared._store
        self.metrics.gauge("data_plane.shm_resident_bytes").set(
            shm_resident_bytes()
        )
        return shared

    def _run_fleet(self):
        """The session's worker fleet (spawned lazily, reused per run).

        Workers are spawned once per session and amortized across the
        stats and support stages of every run; ``None`` when the config
        never uses a subprocess pool.
        """
        if not self.config.parallel.active:
            return None
        if self._fleet is None or self._fleet.closed:
            from repro.parallel import WorkerFleet

            self._fleet = WorkerFleet()
        return self._fleet

    # -- owned resources -----------------------------------------------------

    @property
    def backend(self):
        """The session's execution backend (created on first use)."""
        with self._state_lock:
            return self._backend_locked()

    def _backend_locked(self):
        if self._closed:
            raise ReproError("session is closed")
        if self.table is None:
            raise ReproError("a table-less session has no execution backend")
        if self._backend is None:
            from repro.backend import create_backend

            self._backend = create_backend(self.config.backend, self.table)
        return self._backend

    @property
    def aggregate_cache(self):
        """The table's cross-stage aggregate cache."""
        return self.table.aggregate_cache()

    @property
    def busy(self) -> bool:
        """True while another thread is inside :meth:`generate`/:meth:`render`.

        Advisory only: by the time the caller acts the state may have
        changed.  Use it to *shed* work early; correctness never depends
        on it (the locks do the enforcement).
        """
        if self._lock.acquire(blocking=False):
            self._lock.release()
            return False
        return True

    @property
    def storage(self) -> str:
        """Where the resident table lives: ``"heap"`` or ``"shm"``."""
        return "heap" if self.table is None else self.table.storage

    # -- versioned mutation ---------------------------------------------------

    @property
    def version(self) -> str | None:
        """Content-version token of the resident table (None when table-less).

        The token is ``"<rows>-<digest>"`` over the table's decoded
        contents: two tables with identical rows share it regardless of how
        they were loaded, and :meth:`append` advances it in O(delta).
        Pass it to :meth:`generate` as ``since=`` to run incrementally, or
        to the serving layer's ``if_version`` guard for optimistic
        concurrency.
        """
        with self._state_lock:
            return self._version_locked()

    def _version_locked(self) -> str | None:
        if self.table is None:
            return None
        if self._versioner is None:
            from repro.relational.table import TableVersioner

            self._versioner = TableVersioner(self.table)
        return self._versioner.token

    def append(
        self, rows: "Mapping[str, Sequence[object]] | Sequence[Sequence[object]]"
    ) -> str:
        """Append a row block to the resident table; returns the new version.

        ``rows`` is a mapping of column name -> values, or a sequence of
        row tuples in schema order (:meth:`Table.append_block`).  The call
        is cheap and does not wait for a run in flight: the grown table is
        swapped in under the state lock, the run keeps its snapshot, and
        resources bound to the superseded version are retired and released
        at the next run boundary.

        What carries over — in O(delta), bit-identically to a cold rebuild
        over the concatenated data:

        * the version token (streaming hash fold);
        * the per-attribute :class:`~repro.relational.moments.MomentStore`;
        * every patchable :class:`AggregateCache` entry — only the groups
          the block touched are recomputed (partition-granular
          invalidation; ``cache.groups_carried`` counts the rest);
        * the last run's stats memo, so the next
          ``generate(since=...)`` re-tests only the touched pair families.
        """
        from repro.backend import incremental_backend_names
        from repro.relational.moments import MomentStore

        with self._state_lock:
            if self._closed:
                raise ReproError("session is closed")
            if self.table is None:
                raise ReproError("a table-less session cannot append rows")
            old = self.table
            old_version = self._version_locked()
            grown = old.append_block(rows)
            delta_start = old.n_rows
            self._versioner.advance(grown, delta_start)
            version = self._versioner.token
            if self._moments is None:
                # First append: one cold grouping pass per attribute over
                # the old rows; every later append advances in O(delta).
                self._moments = MomentStore.build(old, old_version)
            self._moments = self._moments.advance(grown, delta_start, version)
            patchable = incremental_backend_names()
            migration = grown.aggregate_cache().adopt(
                old.aggregate_cache(), grown, delta_start, patchable
            )
            if self.config.backend in patchable:
                self._moments.seed_cache(
                    grown.aggregate_cache(), self.config.backend
                )
            if self._backend is not None:
                self._retired.append(self._backend)
                self._backend = None
            if self._shared_store is not None:
                self._retired.append(self._shared_store)
                self._shared_store = None
            self.table = self._materialize(grown)
            self._fleet_stale = True
            self.metrics.counter("session.appends").inc()
            self.metrics.counter("session.rows_appended").inc(
                grown.n_rows - delta_start
            )
            logger.info(
                "appended %d row(s): version %s -> %s (%d cache entr%s "
                "migrated, %d dropped)",
                grown.n_rows - delta_start, old_version, version,
                migration["migrated"],
                "y" if migration["migrated"] == 1 else "ies",
                migration["dropped"],
            )
            return version

    def restore_memo(self, memo) -> None:
        """Adopt a persisted stats memo (:class:`repro.stats.delta.StatsMemo`).

        The CLI's ``--since-checkpoint`` path uses this to seed a fresh
        process with the previous run's memo; ``generate(since=memo.version)``
        then runs the statistical stage incrementally.  The caller is
        responsible for having verified that the memo's version is a row
        prefix of the resident table (``content_token(table, memo.n_rows)``);
        an unverifiable memo simply downgrades that run to a full pass.
        """
        with self._state_lock:
            self._memo = memo

    def _drain_retired(self) -> None:
        """Release resources superseded by :meth:`append`.

        Called at run boundaries (under the session lock, so nothing is in
        flight on them) and from :meth:`close`.
        """
        with self._state_lock:
            retired, self._retired = self._retired, []
        for resource in retired:
            closer = getattr(resource, "close", None) or getattr(
                resource, "release", None
            )
            if closer is not None:
                closer()

    def close(self) -> None:
        """Release the backend, the worker fleet, and the shared segment.
        Idempotent.

        Waits for a run in flight on another thread: the lock guarantees
        nothing is torn down under an active run.
        """
        with self._lock:
            self._drain_retired()
            if self._backend is not None:
                self._backend.close()
                self._backend = None
            if self._fleet is not None:
                self._fleet.close()
                self._fleet = None
            if self._shared_store is not None:
                self._shared_store.release()
                self._shared_store = None
            self._closed = True

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- runs ----------------------------------------------------------------

    def generate(
        self,
        *,
        budget: float | None = None,
        epsilon_distance: float | None = None,
        deadline_seconds: float | None = None,
        checkpoint_path: Path | None = None,
        resume=None,
        faults=None,
        policy=None,
        progress: Callable[[str], None] | None = None,
        tracer=None,
        metrics=None,
        since: str | None = None,
    ) -> NotebookRun:
        """Run the full pipeline under the resilient controller.

        Keyword arguments override the corresponding
        :class:`~repro.config.ReproConfig` fields for this run only.
        ``tracer``/``metrics`` redirect this run's observability into
        caller-owned instances (the serving layer passes a job's pair so
        every request owns its spans); the session's own pair is used
        otherwise.

        ``since`` is a version token from an earlier :meth:`generate` /
        :meth:`append` on this session: when the session still holds the
        stats memo of a run at that version, the statistical stage
        re-tests only the pair families touched by the rows appended
        since — and the notebook is byte-identical to a full cold run.
        When it cannot (different version, configuration changed, offline
        sampling), the run falls back to a full pass with a warning.
        """
        from contextlib import nullcontext

        from repro.parallel import use_fleet
        from repro.runtime import resilient_generate

        cfg = self.config
        with self._lock, obs.use(
            tracer or self.tracer, metrics or self.metrics
        ):
            if self._closed:
                raise ReproError("session is closed")
            self._drain_retired()
            fleet = self._run_fleet()
            with self._state_lock:
                table = self.table
                run_backend = self._backend_locked() if table is not None else None
                version = self._version_locked()
                memo = self._memo
                fleet_stale, self._fleet_stale = self._fleet_stale, False
            if fleet_stale and fleet is not None:
                fleet.refresh()
            incremental = None
            if since is not None:
                if memo is not None and memo.version == since:
                    from repro.stats.delta import IncrementalRequest

                    incremental = IncrementalRequest(memo)
                else:
                    logger.warning(
                        "no stats memo for version %s (have: %s); running the "
                        "statistical stage in full",
                        since, memo.version if memo is not None else "none",
                    )
            ambient = use_fleet(fleet) if fleet is not None else nullcontext()
            with ambient:
                run = resilient_generate(
                    table,
                    cfg.generation,
                    budget=cfg.budget if budget is None else budget,
                    epsilon_distance=(
                        cfg.epsilon_distance if epsilon_distance is None
                        else epsilon_distance
                    ),
                    solver=cfg.solver,
                    exact_timeout=cfg.exact_timeout,
                    max_exact_queries=cfg.max_exact_queries,
                    deadline_seconds=(
                        cfg.deadline_seconds if deadline_seconds is None
                        else deadline_seconds
                    ),
                    policy=policy,
                    faults=faults,
                    checkpoint_path=checkpoint_path,
                    resume=resume,
                    progress=progress,
                    backend=run_backend,
                    incremental=incremental,
                    version=version,
                )
            if run.stats_memo is not None:
                with self._state_lock:
                    self._memo = run.stats_memo
            return run

    def render(
        self,
        run: NotebookRun,
        *,
        title: str | None = None,
        include_previews: bool = True,
        faults=None,
        tracer=None,
        metrics=None,
    ) -> Notebook:
        """Render a run as a notebook (with the render degradation ladder)."""
        from repro.runtime import resilient_render

        with self._lock, obs.use(
            tracer or self.tracer, metrics or self.metrics
        ):
            return resilient_render(
                run,
                self.table,
                table_name=self.table_name,
                title=title or f"Comparison notebook — {self.table_name}",
                include_previews=include_previews,
                faults=faults,
            )

    def write_notebook(
        self,
        run: NotebookRun,
        path: str | Path,
        *,
        title: str | None = None,
        include_previews: bool = True,
    ) -> Path:
        """Render ``run`` and write it as ``.ipynb``; returns the path."""
        from repro.notebook import write_ipynb

        path = Path(path)
        notebook = self.render(run, title=title, include_previews=include_previews)
        write_ipynb(notebook, path)
        return path


def generate_notebook(
    source: Table | str | Path,
    *,
    config: ReproConfig | None = None,
    out: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
) -> NotebookRun:
    """One-call pipeline: load, generate, optionally write the notebook.

    Equivalent to a single-run :class:`Session`; pass ``out`` to also
    write the rendered ``.ipynb``.  Returns the
    :class:`~repro.generation.pipeline.NotebookRun` (inspect
    ``run.selected``, ``run.report``, ``run.to_notebook()``).
    """
    with Session(source, config=config) as session:
        run = session.generate(progress=progress)
        if out is not None:
            session.write_notebook(run, out)
        return run
