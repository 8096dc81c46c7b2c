"""Reference execution paths that exist only to prove parity.

The production pipeline has one path per capability: the batched
mask-GEMM permutation kernel, and batched multi-query aggregation on the
backends that declare it.  The paths they replaced stay here, as test-side
oracles, so every parity suite can still compare the two:

* :func:`legacy_kernel` — every planned permutation test runs through its
  insight type's own per-test gather (:meth:`InsightType.test`) instead of
  the shared mask-GEMM;
* :func:`per_set_aggregates` — the columnar and SQLite backends stop
  declaring ``batched_aggregates``, so
  :func:`~repro.backend.base.materialize_batch` issues one statement (or
  pass) per group-by set.

Both are context managers that patch module state in the *current*
process.  Pool workers forked earlier do not see the patch, so compare a
multi-worker production run against an in-process oracle run.

This module imports nothing from pytest: the benchmark scripts under
``benchmarks/`` use it too.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from typing import Iterator

import repro.insights.significance as significance
from repro.backend.columnar import ColumnarBackend
from repro.backend.sqlite import SqliteBackend

__all__ = ["legacy_kernel", "per_set_aggregates", "run_per_test"]


def run_per_test(batch, tests, checkpoint=None, progress=None):
    """The legacy executor: one fancy-indexed gather per planned test.

    A drop-in for :func:`repro.stats.kernel.run_batched_tests` with the
    same signature and ``(index, result)`` output.
    """
    out = []
    for planned in tests:
        if checkpoint is not None:
            checkpoint()
        x = planned.pooled[: batch.n_x]
        y = planned.pooled[batch.n_x :]
        out.append((planned.index, planned.itype.test(batch, x, y)))
        if progress is not None:
            progress(1)
    return out


@contextmanager
def legacy_kernel() -> Iterator[None]:
    """Run the significance stage on the per-test gather kernel."""
    production = significance.run_batched_tests
    significance.run_batched_tests = run_per_test
    try:
        yield
    finally:
        significance.run_batched_tests = production


@contextmanager
def per_set_aggregates() -> Iterator[None]:
    """Make the built-in backends answer aggregate batches one set at a time."""
    classes = (ColumnarBackend, SqliteBackend)
    saved = [cls.capabilities for cls in classes]
    for cls, capabilities in zip(classes, saved):
        cls.capabilities = dataclasses.replace(
            capabilities, batched_aggregates=False
        )
    try:
        yield
    finally:
        for cls, capabilities in zip(classes, saved):
            cls.capabilities = capabilities
