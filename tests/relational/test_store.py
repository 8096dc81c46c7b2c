"""Column stores: the shared-memory data plane's lifecycle contract.

Everything here runs in one process; the cross-process behaviour (worker
attach, crash cleanup, restart re-attach) is covered by the parallel and
fleet suites.  These tests pin the local invariants the rest of the data
plane builds on: value-identical sharing, compact picklable handles,
fingerprint verification, refcounted unlink-on-last-release, and the
heap degradation rules.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro import obs
from repro.errors import ReproError
from repro.parallel.config import ParallelConfig, resolve_store_kind
from repro.relational import table_from_arrays
from repro.relational.store import (
    SEGMENT_PREFIX,
    TableHandle,
    attach_table,
    export_table,
    leaked_segments,
    resolve_table,
    share_table,
    shm_available,
    shm_resident_bytes,
)

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="shared memory unavailable on this platform"
)


@pytest.fixture(autouse=True)
def no_leaks():
    before = set(leaked_segments())
    yield
    leaked = sorted(set(leaked_segments()) - before)
    assert not leaked, f"test leaked shared-memory segments: {leaked}"


@pytest.fixture()
def table():
    return table_from_arrays(
        {"city": ["paris", "lyon", "paris", "nice"] * 8,
         "year": ["20", "20", "21", "21"] * 8},
        {"sales": [float(i % 5) for i in range(32)],
         "units": [float(i) for i in range(32)]},
    )


class TestShare:
    def test_shared_table_is_value_identical(self, table):
        shared = share_table(table)
        try:
            assert shared.storage == "shm"
            assert table.storage == "heap"
            assert shared.schema == table.schema
            assert shared.to_dict() == table.to_dict()
            np.testing.assert_array_equal(
                shared.measure_column("sales").data,
                table.measure_column("sales").data,
            )
        finally:
            shared._store.release()

    def test_segment_is_named_and_unlinked_on_release(self, table):
        shared = share_table(table)
        segment = shared.handle().segment
        assert segment.startswith(SEGMENT_PREFIX)
        assert segment in leaked_segments()
        shared._store.release()
        assert segment not in leaked_segments()

    def test_resident_bytes_gauge_tracks_ownership(self, table):
        base = shm_resident_bytes()
        shared = share_table(table)
        assert shm_resident_bytes() >= base + 32 * 8  # at least the measures
        shared._store.release()
        assert shm_resident_bytes() == base

    def test_refcount_defers_unlink_to_last_release(self, table):
        shared = share_table(table)
        store = shared._store
        store.retain()
        store.release()
        assert not store.closed  # one reference still out
        store.release()
        assert store.closed
        with pytest.raises(ReproError, match="already released"):
            store.retain()

    def test_release_is_idempotent(self, table):
        store = share_table(table)._store
        store.release()
        store.release()  # no error, no double unlink


class TestHandle:
    def test_handle_is_compact_and_picklable(self, table):
        shared = share_table(table)
        try:
            handle = shared.handle()
            wire = pickle.dumps(handle, protocol=pickle.HIGHEST_PROTOCOL)
            table_wire = pickle.dumps(table, protocol=pickle.HIGHEST_PROTOCOL)
            assert len(wire) < len(table_wire) / 2
            assert pickle.loads(wire) == handle
        finally:
            shared._store.release()

    def test_heap_table_has_no_handle(self, table):
        assert table.handle() is None
        assert table.storage == "heap"

    def test_pickled_shm_table_degrades_to_heap(self, table):
        shared = share_table(table)
        try:
            copy = pickle.loads(pickle.dumps(shared))
            assert copy.storage == "heap"
            assert copy.to_dict() == table.to_dict()
        finally:
            shared._store.release()

    def test_derived_tables_are_heap(self, table):
        shared = share_table(table)
        try:
            sub = shared.filter(np.arange(shared.n_rows) < 8)
            assert sub.storage == "heap"
        finally:
            shared._store.release()


class TestAttach:
    def test_creator_attach_returns_the_original(self, table):
        shared = share_table(table)
        try:
            with obs.capture() as (_, metrics):
                assert attach_table(shared.handle()) is shared
                assert metrics.counter("parallel.shm_attach").value == 1
        finally:
            shared._store.release()

    def test_tampered_fingerprint_is_rejected(self, table):
        shared = share_table(table)
        try:
            bad = dataclasses.replace(shared.handle(), fingerprint="0" * 16)
            with pytest.raises(ReproError, match="fingerprint"):
                attach_table(bad)
        finally:
            shared._store.release()

    def test_attach_of_released_segment_raises(self, table):
        shared = share_table(table)
        handle = shared.handle()
        shared._store.release()
        with pytest.raises(ReproError, match="gone"):
            attach_table(handle)

    def test_resolve_table_is_polymorphic(self, table):
        shared = share_table(table)
        try:
            assert resolve_table(table) is table
            assert resolve_table(shared.handle()) is shared
        finally:
            shared._store.release()


class TestExport:
    def test_heap_plane_ships_the_table_itself(self, table):
        payload, owned = export_table(table, "heap")
        assert payload is table
        assert owned is None

    def test_shm_plane_shares_once_and_reuses_existing_segments(self, table):
        payload, owned = export_table(table, "shm")
        try:
            assert isinstance(payload, TableHandle)
            assert owned is not None  # this call created the segment
            again, second = export_table(owned.table, "shm")
            assert again is payload  # already shared: same handle...
            assert second is None  # ...and no new ownership
        finally:
            owned.release()


class TestStoreKindResolution:
    def test_explicit_kinds(self):
        assert resolve_store_kind(ParallelConfig(workers=2, store="heap")) == "heap"
        assert resolve_store_kind(ParallelConfig(workers=2, store="shm")) == "shm"

    def test_auto_follows_the_pool(self):
        # Pinned: the default store comes from $REPRO_SHM.
        assert resolve_store_kind(ParallelConfig(workers=2, store="auto")) == "shm"
        assert resolve_store_kind(ParallelConfig(workers=1, store="auto")) == "heap"
