"""The execution-backend contract: what the pipeline needs from an engine.

The paper phrases every hypothesis and comparison query as SQL sent to a
DBMS and reports "number of queries sent to the DBMS" as a first-class
metric (Table 3, Section 5.2).  This module carves that execution surface
out of the pipeline into an explicit, swappable contract so engines can be
exchanged without touching query generation, TAP resolution, or rendering:

* **scan / filter** — project a subset of columns, select rows matching an
  equality predicate;
* **distinct categorical values** — the active domain of an attribute;
* **group-by aggregation** — materialize the additive per-group summaries
  (count / sum / sum-of-squares / min / max) every comparison aggregate
  derives from;
* **comparison-pair evaluation** — Definition 3.1's joined two-series
  result for one comparison query.

Implementations (see :mod:`repro.backend.columnar` and
:mod:`repro.backend.sqlite`) return the *same* in-memory result types
(:class:`~repro.relational.cube.MaterializedAggregate`,
:class:`~repro.queries.evaluate.ComparisonResult`), so everything above
the backend is numerically backend-agnostic.

``statements_executed`` is the real counterpart of the paper's DBMS-query
metric: the number of SQL statements actually sent to an external engine.
It stays 0 for the in-process columnar backend and counts every pushed-down
statement for the SQLite backend.

Backends that declare ``capabilities.batched_aggregates`` additionally
compile a whole *batch* of grouping requests (:class:`AggregateRequest`)
into minimal engine work through :meth:`ExecutionBackend
.materialize_aggregates` — the COMPARE-style multi-query optimization:
one shared scan answers many group-by sets instead of one statement per
set.  :func:`materialize_batch` routes through the capability and falls
back transparently to the per-set path, so callers never need to branch.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence, runtime_checkable

from repro.errors import ReproError
from repro.queries.comparison import ComparisonQuery
from repro.queries.evaluate import ComparisonResult
from repro.relational.cube import MaterializedAggregate
from repro.relational.table import Table

#: Names of the built-in backends, in registration order.
BACKEND_NAMES: tuple[str, ...] = ("columnar", "sqlite")

#: Environment variable holding the default backend name (CI matrix hook).
BACKEND_ENV_VAR = "REPRO_BACKEND"


class BackendError(ReproError):
    """An execution backend was misconfigured or failed mid-statement."""


def default_backend_name() -> str:
    """The process-wide default backend: ``$REPRO_BACKEND`` or columnar.

    An invalid environment value raises immediately rather than silently
    running on the wrong engine (the CI matrix relies on this).
    """
    name = os.environ.get(BACKEND_ENV_VAR, "").strip().lower()
    if not name:
        return BACKEND_NAMES[0]
    if name not in BACKEND_NAMES:
        raise BackendError(
            f"{BACKEND_ENV_VAR}={name!r} names no known backend; known: {BACKEND_NAMES}"
        )
    return name


@dataclass(frozen=True, slots=True)
class BackendCapabilities:
    """Capability flags a caller may branch on (never required for parity).

    Attributes
    ----------
    sql_pushdown:
        Aggregations run as real SQL statements in an engine outside the
        Python value layer; ``statements_executed`` is meaningful.
    zero_copy_scan:
        ``scan``/``filter_equals`` return views over in-memory arrays with
        no serialization boundary.
    additive_summaries:
        Materialized aggregates carry additive summaries that roll up to
        coarser group-bys without touching base data (Algorithm 2's
        prerequisite).  Both built-in backends provide this.
    concurrent_evaluate:
        ``materialize_aggregate``/``evaluate_comparison`` may be called
        from multiple threads concurrently.
    batched_aggregates:
        :meth:`ExecutionBackend.materialize_aggregates` compiles a batch
        of grouping requests into fewer engine passes than one-per-set
        (multi-query optimization).  Callers should route batches through
        :func:`materialize_batch`, which falls back per-set when the flag
        is off.
    incremental_aggregates:
        Materialized aggregates built by this backend can be *patched* in
        place of a rebuild when the base table grows by an appended row
        block (:meth:`~repro.relational.cube.MaterializedAggregate.patched`
        yields bit-identical results to a cold build).  Backends without
        the flag fall back transparently: their cached aggregates are
        dropped on append and rebuilt from the grown table.
    """

    sql_pushdown: bool
    zero_copy_scan: bool
    additive_summaries: bool = True
    concurrent_evaluate: bool = True
    batched_aggregates: bool = False
    incremental_aggregates: bool = False


@dataclass(frozen=True, slots=True)
class AggregateRequest:
    """One group-by set of a batched aggregation plan.

    Attributes
    ----------
    attributes:
        Grouping attributes in canonical (sorted) order — the same
        canonicalization :meth:`ExecutionBackend.materialize_aggregate`
        applies, so a batched build and a per-set build share cache keys.
    measures:
        Measures to materialize, or ``None`` for every measure of the
        schema (the cross-stage cache's superset-serving key).
    """

    attributes: tuple[str, ...]
    measures: tuple[str, ...] | None = None

    @classmethod
    def of(
        cls, attributes: Iterable[str], measures: Sequence[str] | None = None
    ) -> "AggregateRequest":
        return cls(
            tuple(sorted(attributes)),
            None if measures is None else tuple(measures),
        )


@runtime_checkable
class ExecutionBackend(Protocol):
    """The engine surface the pipeline runs against.

    Implementations are constructed over one base relation and answer all
    queries for that relation.  They must be usable as context managers and
    idempotently closeable.
    """

    name: str
    capabilities: BackendCapabilities
    #: SQL statements actually sent to an external engine (0 if in-process).
    statements_executed: int

    @property
    def table(self) -> Table:  # pragma: no cover - protocol
        """The base relation (always available in-process: the statistical
        tests are row-level and run inside Python regardless of backend)."""
        ...

    @property
    def storage(self) -> str:  # pragma: no cover - protocol
        """Data plane of the base relation's columns: ``heap`` or ``shm``."""
        ...

    @property
    def n_rows(self) -> int:  # pragma: no cover - protocol
        ...

    def distinct_values(self, attribute: str) -> tuple[str, ...]:  # pragma: no cover
        """Sorted non-null labels of a categorical attribute."""
        ...

    def scan(self, attributes: Sequence[str] | None = None) -> Table:  # pragma: no cover
        """Projection scan (all columns when ``attributes`` is None)."""
        ...

    def filter_equals(self, attribute: str, value: str) -> Table:  # pragma: no cover
        """Rows where categorical ``attribute`` equals ``value``."""
        ...

    def materialize_aggregate(
        self, attributes: Iterable[str], measures: Sequence[str] | None = None
    ) -> MaterializedAggregate:  # pragma: no cover
        """``GROUP BY attributes`` with additive summaries per measure."""
        ...

    def materialize_aggregates(
        self, requests: Sequence[AggregateRequest]
    ) -> list[MaterializedAggregate]:  # pragma: no cover
        """Batched group-bys, compiled into minimal backend work.

        Only meaningful when ``capabilities.batched_aggregates`` is set;
        results are returned in request order and are element-for-element
        identical to per-set :meth:`materialize_aggregate` calls (exact
        parity obligation).  Use :func:`materialize_batch` for the
        capability-checked entry point.
        """
        ...

    def evaluate_comparison(self, query: ComparisonQuery) -> ComparisonResult:  # pragma: no cover
        """One comparison query, evaluated directly against base data."""
        ...

    def close(self) -> None:  # pragma: no cover
        ...


def materialize_batch(
    backend: ExecutionBackend, requests: Sequence[AggregateRequest]
) -> list[MaterializedAggregate]:
    """Batched aggregation with transparent per-set fallback.

    Routes the whole batch through the backend's multi-query compiler when
    it declares the capability; otherwise issues the classic one statement
    (or pass) per group-by set.  Either way the results come back in
    request order and hit the same cross-stage cache keys.
    """
    if not requests:
        return []
    if getattr(backend.capabilities, "batched_aggregates", False):
        return backend.materialize_aggregates(requests)
    return [
        backend.materialize_aggregate(request.attributes, request.measures)
        for request in requests
    ]


def source_table(source: "Table | ExecutionBackend") -> Table:
    """The base :class:`Table` of a table-or-backend argument."""
    if isinstance(source, Table):
        return source
    return source.table
