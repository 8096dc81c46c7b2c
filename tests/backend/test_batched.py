"""Batched multi-aggregate compilation: exact parity with the per-set path.

The UNION-ALL grouping-set statement (sqlite) and the fused shared-scan
build (columnar) must return aggregates element-for-element identical to
per-set ``materialize_aggregate`` calls — including NULL group values,
all-NULL measure groups, and category dictionary order — while collapsing
the sqlite statement count from one per set to one per chunk.
"""

import threading

import numpy as np
import pytest

from repro.backend import (
    AggregateRequest,
    ColumnarBackend,
    SqliteBackend,
    materialize_batch,
)
from repro.backend.sqlite import _MAX_BATCH_BRANCHES
from repro.relational import table_from_arrays
from repro.stats import derive_rng
from tests.oracles import per_set_aggregates

BACKENDS = {"columnar": ColumnarBackend, "sqlite": SqliteBackend}


def plain_table():
    rng = derive_rng(31, "batched-plain")
    n = 200
    return table_from_arrays(
        {
            "a": rng.choice(["a0", "a1", "a2"], n),
            "b": rng.choice(["b0", "b1", "b2", "b3"], n),
            "c": rng.choice(["c0", "c1"], n),
        },
        {"m": rng.normal(5, 2, n), "k": rng.normal(-1, 0.5, n)},
    )


def null_table():
    """NULL group values (None categoricals) and an all-NULL measure group."""
    rng = derive_rng(32, "batched-nulls")
    n = 120
    a = [None if i % 7 == 0 else f"a{i % 3}" for i in range(n)]
    b = [f"b{i % 2}" if i % 5 else None for i in range(n)]
    m = rng.normal(0, 1, n)
    # Every row of group a == "a1" has a NULL measure: SUM/MIN/MAX over the
    # group come back NULL from SQLite and must demux to 0.0 / NaN.
    m = np.where(np.array([v == "a1" for v in a]), np.nan, m)
    return table_from_arrays({"a": a, "b": b}, {"m": m})


def assert_aggregates_equal(got, ref):
    assert got.attributes == ref.attributes
    assert got.categories == ref.categories
    assert len(got.keys) == len(ref.keys)
    # Group-row order is an implementation detail; compare as sorted key sets.
    got_order = np.lexsort(tuple(got.keys)) if got.keys else slice(None)
    ref_order = np.lexsort(tuple(ref.keys)) if ref.keys else slice(None)
    for got_axis, ref_axis in zip(got.keys, ref.keys):
        np.testing.assert_array_equal(got_axis[got_order], ref_axis[ref_order])
    assert set(got.summaries) == set(ref.summaries)
    for name, got_summary in got.summaries.items():
        ref_summary = ref.summaries[name]
        for field in ("count", "total", "total_sq", "minimum", "maximum"):
            np.testing.assert_array_equal(
                getattr(got_summary, field)[got_order],
                getattr(ref_summary, field)[ref_order],
                err_msg=f"{name}.{field}",
            )


REQUESTS = [
    AggregateRequest.of(("a", "b")),
    AggregateRequest.of(("b", "c")),
    AggregateRequest.of(("a", "c"), measures=("m",)),
    AggregateRequest.of(("a",)),
]


class TestBatchParity:
    @pytest.mark.parametrize("backend_name", sorted(BACKENDS))
    def test_batched_equals_per_set(self, backend_name):
        # Separate tables so the shared per-table cache cannot leak results
        # between the batched build and the per-set oracle.
        batched = BACKENDS[backend_name](plain_table())
        oracle = BACKENDS[backend_name](plain_table())
        results = batched.materialize_aggregates(REQUESTS)
        assert len(results) == len(REQUESTS)
        for request, got in zip(REQUESTS, results):
            ref = oracle.materialize_aggregate(request.attributes, request.measures)
            assert_aggregates_equal(got, ref)
        # The same through the capability-routed entry point and its oracle.
        routed = materialize_batch(BACKENDS[backend_name](plain_table()), REQUESTS)
        with per_set_aggregates():
            per_set = materialize_batch(
                BACKENDS[backend_name](plain_table()), REQUESTS
            )
        for got, ref in zip(routed, per_set):
            assert_aggregates_equal(got, ref)

    @pytest.mark.parametrize("backend_name", sorted(BACKENDS))
    def test_null_groups_and_all_null_measures(self, backend_name):
        requests = [
            AggregateRequest.of(("a", "b")),
            AggregateRequest.of(("a",)),
            AggregateRequest.of(("b",)),
        ]
        batched = BACKENDS[backend_name](null_table())
        oracle = BACKENDS[backend_name](null_table())
        for request, got in zip(requests, batched.materialize_aggregates(requests)):
            ref = oracle.materialize_aggregate(request.attributes, request.measures)
            assert_aggregates_equal(got, ref)
        # The NULL group really is present (code -1): padding NULLs in the
        # compound statement must not swallow it.
        aggregate = batched.materialize_aggregate(("a",))
        assert -1 in aggregate.keys[0]
        # The all-NULL-measure group carries count 0 and NaN extrema.
        null_measure_group = aggregate.categories["a"].index("a1")
        at = int(np.flatnonzero(aggregate.keys[0] == null_measure_group)[0])
        summary = aggregate.summaries["m"]
        assert summary.count[at] == 0.0
        assert summary.total[at] == 0.0
        assert np.isnan(summary.minimum[at]) and np.isnan(summary.maximum[at])

    def test_cross_backend_category_order(self):
        """Both compilers preserve the base table's dictionary order."""
        results = {
            name: cls(plain_table()).materialize_aggregates(REQUESTS)
            for name, cls in BACKENDS.items()
        }
        for got, ref in zip(results["sqlite"], results["columnar"]):
            assert got.categories == ref.categories


class TestStatementCollapse:
    def test_one_statement_per_batch(self):
        backend = SqliteBackend(plain_table())
        before = backend.statements_executed
        backend.materialize_aggregates(REQUESTS)
        assert backend.statements_executed == before + 1

    def test_per_set_path_costs_one_statement_each(self):
        backend = SqliteBackend(plain_table())
        before = backend.statements_executed
        for request in REQUESTS:
            backend.materialize_aggregate(request.attributes, request.measures)
        assert backend.statements_executed == before + len(REQUESTS)

    def test_chunking_beyond_compound_limit(self):
        """More sets than _MAX_BATCH_BRANCHES split into ceil(n/64) statements."""
        rng = derive_rng(33, "batched-wide")
        n = 60
        table = table_from_arrays(
            {f"a{i}": rng.choice(["x", "y"], n) for i in range(13)},
            {"m": rng.normal(0, 1, n)},
        )
        names = sorted(table.schema.categorical_names)
        requests = [
            AggregateRequest.of((u, v))
            for i, u in enumerate(names)
            for v in names[i + 1 :]
        ]
        assert len(requests) > _MAX_BATCH_BRANCHES
        backend = SqliteBackend(table)
        before = backend.statements_executed
        results = backend.materialize_aggregates(requests)
        assert len(results) == len(requests)
        expected = -(-len(requests) // _MAX_BATCH_BRANCHES)
        assert backend.statements_executed == before + expected

    def test_cache_hits_never_reach_the_engine(self):
        backend = SqliteBackend(plain_table())
        backend.materialize_aggregate(("a", "b"))
        before = backend.statements_executed
        results = backend.materialize_aggregates(
            [AggregateRequest.of(("a", "b")), AggregateRequest.of(("b", "c"))]
        )
        # Only the residual ("b", "c") set is compiled; the hit is served.
        assert backend.statements_executed == before + 1
        assert len(results) == 2

    def test_duplicate_requests_build_once(self):
        backend = SqliteBackend(plain_table())
        before = backend.statements_executed
        results = backend.materialize_aggregates(
            [AggregateRequest.of(("a", "b")), AggregateRequest.of(("b", "a"))]
        )
        assert backend.statements_executed == before + 1
        assert_aggregates_equal(results[0], results[1])

    def test_single_arm_chunk_is_a_plain_statement(self):
        backend = SqliteBackend(plain_table())
        results = backend.materialize_aggregates([AggregateRequest.of(("a", "b"))])
        ref = SqliteBackend(plain_table()).materialize_aggregate(("a", "b"))
        assert_aggregates_equal(results[0], ref)


class TestBatchCache:
    def test_concurrent_batches_single_flight(self):
        backend = SqliteBackend(plain_table())
        barrier = threading.Barrier(2)
        outputs: dict[int, list] = {}

        def worker(slot: int):
            barrier.wait()
            outputs[slot] = backend.materialize_aggregates(REQUESTS)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for got, ref in zip(outputs[0], outputs[1]):
            assert_aggregates_equal(got, ref)
        # Each distinct set was compiled at most once across both threads.
        assert backend.statements_executed <= len(REQUESTS)


class TestFallback:
    def test_materialize_batch_falls_back_per_set(self):
        class PerSetOnly:
            """Minimal backend without the batched_aggregates capability."""

            def __init__(self):
                self.capabilities = object()  # no batched_aggregates attribute
                self.calls = []
                self._backend = ColumnarBackend(plain_table())

            def materialize_aggregate(self, attributes, measures=None):
                self.calls.append((tuple(attributes), measures))
                return self._backend.materialize_aggregate(attributes, measures)

        stub = PerSetOnly()
        results = materialize_batch(stub, REQUESTS)
        assert len(results) == len(REQUESTS)
        assert stub.calls == [(r.attributes, r.measures) for r in REQUESTS]

    def test_per_set_oracle_costs_one_statement_each(self):
        backend = SqliteBackend(plain_table())
        before = backend.statements_executed
        with per_set_aggregates():
            materialize_batch(backend, REQUESTS)
        assert backend.statements_executed == before + len(REQUESTS)
        assert SqliteBackend.capabilities.batched_aggregates  # restored

    def test_empty_batch_is_free(self):
        backend = SqliteBackend(plain_table())
        before = backend.statements_executed
        assert materialize_batch(backend, []) == []
        assert backend.statements_executed == before


class TestAggregateRequest:
    def test_request_canonicalizes_attribute_order(self):
        assert AggregateRequest.of(("b", "a")).attributes == ("a", "b")
        assert AggregateRequest.of(("a",), measures=["m"]).measures == ("m",)
