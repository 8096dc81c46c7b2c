"""Column stores: where a table's arrays physically live.

The default store is the process heap — exactly what :class:`~repro.relational.table.Table`
has always done.  This module adds a second, *shared-memory* store so the
parallel layer can stop pickling the dataset into every worker:

* :func:`share_table` copies a table's arrays once into a single
  ``multiprocessing.shared_memory`` segment and returns a new table whose
  columns are zero-copy views of that segment;
* :class:`TableHandle` is the compact, picklable description of the
  segment layout (name, offsets, dictionaries, fingerprint) — a few
  hundred bytes that stand in for megabytes of column data;
* :func:`attach_table` resolves a handle back into a table.  In the
  creating process it returns the original table; in a worker it maps the
  segment (cached per segment, so a restarted stage re-attaches instead
  of re-pickling) and builds fresh column views over it.

Lifecycle: the creating process owns the segment through a refcounted
:class:`SharedMemoryStore` — ``release()`` on the last reference closes
and unlinks it.  Attached (worker-side) stores never unlink.  Crash
safety is belt and braces: segments are registered with the stdlib
resource tracker at creation (so a hard-crashed owner still gets cleaned
up), an :mod:`atexit` hook unlinks anything still live at interpreter
exit, and the attach path *un*registers from the resource tracker —
Python ≤ 3.12 registers on attach too, and without the suppression every
exiting worker would unlink a segment it does not own (the double-unlink
bug this module's tests audit for).

Nothing here is imported by :mod:`repro.relational.table` — the table
only carries an opaque ``_store`` slot — so the heap path pays nothing.
"""

from __future__ import annotations

import atexit
import logging
import os
import secrets
import threading
from dataclasses import dataclass
from hashlib import blake2s
from pathlib import Path
from typing import Any

import numpy as np

from repro import obs
from repro.errors import ReproError
from repro.relational.columns import CategoricalColumn, MeasureColumn
from repro.relational.schema import Schema, categorical, measure
from repro.relational.table import Table

logger = logging.getLogger(__name__)

__all__ = [
    "SEGMENT_PREFIX",
    "ColumnStore",
    "SharedMemoryStore",
    "TableHandle",
    "attach_table",
    "export_table",
    "leaked_segments",
    "resolve_table",
    "share_table",
    "shm_available",
    "shm_resident_bytes",
]

#: Every segment this package creates is named ``repro_<token>`` so leak
#: audits (tests, CI) can scan ``/dev/shm`` for strays without touching
#: other tenants' segments.
SEGMENT_PREFIX = "repro_"

#: Column payloads are laid out back to back at cache-line alignment.
_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


# ---------------------------------------------------------------------------
# Handles
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ColumnSpec:
    """Layout of one column inside a shared segment.

    The array dtype is implied by ``kind``: ``int32`` codes for
    categoricals (the dictionary itself travels in the spec — label
    tuples are tiny next to the code array), ``float64`` for measures.
    """

    name: str
    kind: str  # "categorical" | "measure"
    offset: int
    categories: tuple[str, ...] | None


@dataclass(frozen=True, slots=True)
class TableHandle:
    """Compact, picklable stand-in for a shared table.

    This is what crosses process boundaries instead of the column data:
    segment name, total size, row count, per-column layout, and a layout
    fingerprint that :func:`attach_table` re-derives to reject corrupted
    or mismatched handles before trusting any offset.
    """

    segment: str
    nbytes: int
    n_rows: int
    fingerprint: str
    columns: tuple[ColumnSpec, ...]


def _layout_fingerprint(
    columns: tuple[ColumnSpec, ...], n_rows: int, nbytes: int
) -> str:
    digest = blake2s(digest_size=8)
    digest.update(f"{n_rows}:{nbytes}".encode())
    for spec in columns:
        n_categories = len(spec.categories) if spec.categories is not None else -1
        digest.update(
            f"|{spec.name}:{spec.kind}:{spec.offset}:{n_categories}".encode()
        )
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Stores
# ---------------------------------------------------------------------------


class ColumnStore:
    """Where a table's arrays live.  The base class is the heap store.

    A heap table carries no store object at all (``Table._store is
    None``); this class exists as the abstraction root and the vocabulary
    for ``Table.storage`` (``"heap"`` / ``"shm"``).
    """

    kind = "heap"
    handle: TableHandle | None = None

    def retain(self) -> "ColumnStore":
        return self

    def release(self) -> None:  # pragma: no cover - trivial
        pass


class SharedMemoryStore(ColumnStore):
    """A refcounted shared-memory segment backing one table's columns.

    The *owner* store (built by :func:`share_table`) unlinks the segment
    when its last reference is released.  Attached stores (built by
    :func:`attach_table` in workers) only ever view the mapping — the
    mapping itself belongs to the per-process attach cache and outlives
    any single stage.
    """

    kind = "shm"

    def __init__(self, shm, handle: TableHandle, *, owner: bool):
        self._shm = shm
        self.handle = handle
        self.owner = owner
        self.creator_pid = os.getpid()
        self.table: Table | None = None
        self._refs = 1
        self._lock = threading.Lock()
        self._closed = False

    @property
    def nbytes(self) -> int:
        return self.handle.nbytes

    @property
    def closed(self) -> bool:
        return self._closed

    def retain(self) -> "SharedMemoryStore":
        with self._lock:
            if self._closed:
                raise ReproError(
                    f"shared segment {self.handle.segment} is already released"
                )
            self._refs += 1
        return self

    def release(self) -> None:
        """Drop one reference; the owner unlinks on the last drop."""
        with self._lock:
            if self._closed:
                return
            self._refs -= 1
            if self._refs > 0:
                return
            self._closed = True
        if not self.owner or self.creator_pid != os.getpid():
            # Attached view (or a fork-inherited owner record): the
            # mapping dies with the process; never unlink what we do
            # not own.
            return
        _close_quietly(self._shm)
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass
        _LIVE.pop(self.handle.segment, None)


def _close_quietly(shm) -> None:
    """Close a mapping, tolerating outstanding numpy views.

    ``SharedMemory.close`` raises ``BufferError`` while array views are
    still exported; the views keep the mmap alive and it unmaps when they
    are garbage collected, so unlinking first is always safe.
    """
    try:
        shm.close()
    except BufferError:
        pass


def _untrack(shm) -> None:
    """Suppress the resource tracker's attach-side registration.

    CPython ≤ 3.12 registers every ``SharedMemory`` attach with the
    resource tracker; when the attaching process exits, the tracker then
    unlinks a segment it never owned.  Unregistering right after attach
    keeps ownership where it belongs — with the creator.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - platform-specific tracker quirks
        pass


# -- process-wide registries -------------------------------------------------

#: Owner stores created by this process (segment name -> store).  Drives
#: the resident-bytes gauge, the creator-local attach shortcut, and the
#: atexit sweep.
_LIVE: dict[str, SharedMemoryStore] = {}

#: Worker-side attach cache: segment name -> mapping.  A restarted stage
#: (or the next run against a resident dataset) re-resolves its handle
#: from here without re-mapping, and certainly without re-pickling.
_ATTACHED: dict[str, Any] = {}
_ATTACH_CACHE_LIMIT = 16

_availability_probe: bool | None = None

#: Guards the check-then-act sequences on the registries above (the
#: attach cache's lookup/insert/evict, the one-time probe); ``_LIVE`` is
#: only ever touched by single dict operations.
_REGISTRY_LOCK = threading.Lock()


def _reset_registry_lock() -> None:
    # A worker forked while another thread of the parent held the lock
    # would otherwise inherit it held, and hang on its first attach.
    global _REGISTRY_LOCK
    _REGISTRY_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_reset_registry_lock)


def shm_available() -> bool:
    """Whether POSIX shared memory actually works here (probed once)."""
    global _availability_probe
    with _REGISTRY_LOCK:
        if _availability_probe is not None:
            return _availability_probe
        try:
            from multiprocessing import shared_memory

            probe = shared_memory.SharedMemory(
                name=SEGMENT_PREFIX + "probe_" + secrets.token_hex(4),
                create=True,
                size=16,
            )
            probe.close()
            probe.unlink()
            _availability_probe = True
        except Exception:
            _availability_probe = False
        return _availability_probe


def shm_resident_bytes() -> int:
    """Bytes of shared memory this process currently owns."""
    return sum(
        store.nbytes for store in list(_LIVE.values()) if not store.closed
    )


def leaked_segments() -> list[str]:
    """``repro_*`` segments present on the system right now.

    Used by the test-suite teardown audit and the CI leak-check step; on
    platforms without ``/dev/shm`` the audit is vacuous.
    """
    root = Path("/dev/shm")
    if not root.is_dir():
        return []
    try:
        return sorted(
            entry.name
            for entry in root.iterdir()
            if entry.name.startswith(SEGMENT_PREFIX)
        )
    except OSError:  # pragma: no cover - racing teardown
        return []


def _unlink_survivors() -> None:
    """Last-resort cleanup: unlink anything this process still owns."""
    for store in list(_LIVE.values()):
        if store.owner and store.creator_pid == os.getpid() and not store.closed:
            store._closed = True
            _close_quietly(store._shm)
            try:
                store._shm.unlink()
            except FileNotFoundError:
                pass
    _LIVE.clear()


atexit.register(_unlink_survivors)


# ---------------------------------------------------------------------------
# share / attach
# ---------------------------------------------------------------------------


def _column_payload(table: Table, name: str, is_categorical: bool):
    if is_categorical:
        column = table.categorical_column(name)
        return np.ascontiguousarray(column.codes), column.categories
    column = table.measure_column(name)
    return np.ascontiguousarray(column.data), None


def _create_segment(nbytes: int):
    from multiprocessing import shared_memory

    for _ in range(8):
        name = SEGMENT_PREFIX + secrets.token_hex(8)
        try:
            return shared_memory.SharedMemory(name=name, create=True, size=nbytes)
        except FileExistsError:  # pragma: no cover - 64-bit token collision
            continue
    raise ReproError("could not allocate a unique shared-memory segment name")


def share_table(table: Table) -> Table:
    """Copy ``table``'s arrays into one shared segment; return the view table.

    The result is value-identical to the input (same schema, same column
    contents, bit for bit) but its arrays are zero-copy views of a
    ``repro_*`` shared-memory segment, and ``table.handle()`` yields the
    compact :class:`TableHandle` workers attach to.  The caller's
    original table is untouched.  Raises :class:`ReproError` when shared
    memory is unavailable.
    """
    if not shm_available():
        raise ReproError("shared memory is not available on this platform")
    specs: list[ColumnSpec] = []
    payloads: list[np.ndarray] = []
    offset = 0
    for attr in table.schema:
        array, categories = _column_payload(table, attr.name, attr.is_categorical)
        kind = "categorical" if attr.is_categorical else "measure"
        specs.append(ColumnSpec(attr.name, kind, offset, categories))
        payloads.append(array)
        offset = _aligned(offset + array.nbytes)
    nbytes = max(1, offset)
    shm = _create_segment(nbytes)
    columns: dict[str, CategoricalColumn | MeasureColumn] = {}
    for spec, source in zip(specs, payloads):
        view = np.ndarray(
            source.shape, dtype=source.dtype, buffer=shm.buf, offset=spec.offset
        )
        view[:] = source
        columns[spec.name] = (
            CategoricalColumn(view, spec.categories)
            if spec.kind == "categorical"
            else MeasureColumn(view)
        )
    handle = TableHandle(
        segment=shm.name,
        nbytes=nbytes,
        n_rows=table.n_rows,
        fingerprint=_layout_fingerprint(tuple(specs), table.n_rows, nbytes),
        columns=tuple(specs),
    )
    shared = Table(table.schema, columns)
    store = SharedMemoryStore(shm, handle, owner=True)
    store.table = shared
    shared._store = store
    _LIVE[handle.segment] = store
    logger.debug(
        "shared table into %s (%d rows, %d bytes)", shm.name, table.n_rows, nbytes
    )
    return shared


def _open_segment(handle: TableHandle):
    from multiprocessing import shared_memory

    try:
        try:
            shm = shared_memory.SharedMemory(name=handle.segment, track=False)
        except TypeError:  # Python < 3.13: no track= keyword
            shm = shared_memory.SharedMemory(name=handle.segment)
            _untrack(shm)
    except FileNotFoundError:
        raise ReproError(
            f"shared segment {handle.segment} is gone (owner released it?)"
        ) from None
    if shm.size < handle.nbytes:
        _close_quietly(shm)
        raise ReproError(
            f"shared segment {handle.segment} is {shm.size} bytes; "
            f"handle expects {handle.nbytes}"
        )
    return shm


def _table_from_segment(handle: TableHandle, shm) -> Table:
    attrs = []
    columns: dict[str, CategoricalColumn | MeasureColumn] = {}
    for spec in handle.columns:
        if spec.kind == "categorical":
            array = np.ndarray(
                (handle.n_rows,), dtype=np.int32, buffer=shm.buf, offset=spec.offset
            )
            columns[spec.name] = CategoricalColumn(array, spec.categories)
            attrs.append(categorical(spec.name))
        else:
            array = np.ndarray(
                (handle.n_rows,), dtype=np.float64, buffer=shm.buf, offset=spec.offset
            )
            columns[spec.name] = MeasureColumn(array)
            attrs.append(measure(spec.name))
    table = Table(Schema(attrs), columns)
    table._store = SharedMemoryStore(shm, handle, owner=False)
    return table


def attach_table(handle: TableHandle) -> Table:
    """Resolve a :class:`TableHandle` into a table, zero-copy.

    In the creating process this is the original shared table.  Anywhere
    else the segment is mapped once (then served from the per-process
    attach cache) and *fresh* column views are built per resolution, so
    each stage starts with its own aggregate cache — worker state never
    bleeds across runs.  Every resolution bumps ``parallel.shm_attach``.
    """
    expected = _layout_fingerprint(handle.columns, handle.n_rows, handle.nbytes)
    if expected != handle.fingerprint:
        raise ReproError(
            f"table handle for {handle.segment} failed its layout fingerprint"
        )
    obs.counter("parallel.shm_attach").inc()
    store = _LIVE.get(handle.segment)
    if store is not None and not store.closed:
        if store.creator_pid == os.getpid() and store.table is not None:
            return store.table
        # Fork-inherited owner record: the parent's mapping is valid in
        # this child; build fresh views over it.
        return _table_from_segment(handle, store._shm)
    with _REGISTRY_LOCK:
        shm = _ATTACHED.get(handle.segment)
        if shm is None:
            shm = _open_segment(handle)
            _ATTACHED[handle.segment] = shm
            while len(_ATTACHED) > _ATTACH_CACHE_LIMIT:
                oldest = next(iter(_ATTACHED))
                _close_quietly(_ATTACHED.pop(oldest))
    return _table_from_segment(handle, shm)


def resolve_table(source: "Table | TableHandle") -> Table:
    """Handle-or-table polymorphism for worker init payloads."""
    if isinstance(source, TableHandle):
        return attach_table(source)
    return source


def export_table(
    table: Table, plane: str
) -> tuple["Table | TableHandle", SharedMemoryStore | None]:
    """What to ship to workers for ``table`` under ``plane``.

    Returns ``(payload, owned_store)``: on the heap plane the table
    itself (pickled by the pool — the plane the benchmarks measure
    against); on the shm plane its handle, sharing the table first if it
    is not already shared.  ``owned_store`` is non-``None`` exactly when
    this call created a segment — the caller must ``release()`` it once
    the workers are done.
    """
    if plane != "shm" or not shm_available():
        return table, None
    handle = table.handle()
    if handle is not None:
        return handle, None
    shared = share_table(table)
    return shared.handle(), shared._store
