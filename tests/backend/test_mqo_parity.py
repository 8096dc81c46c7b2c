"""MQO parity: batching changes statement counts, never results.

The batched multi-aggregate compiler must be invisible in every output:
against the per-set oracle (``tests/oracles.per_set_aggregates``) the
pipeline produces byte-identical serialized notebooks, interestingness
scores within 1e-9, and equal ``aggregation_queries_sent``, under either
execution backend, the production or the legacy stats kernel, and worker
counts 1 and 2.
"""

import dataclasses
from contextlib import nullcontext

import pytest

from repro import ReproConfig, Session, obs
from repro.backend import BACKEND_NAMES
from repro.generation import GenerationConfig
from repro.insights.significance import SignificanceConfig
from repro.notebook import to_ipynb_json
from repro.parallel import ParallelConfig
from repro.relational import table_from_arrays
from repro.runtime import resilient_generate
from repro.stats import derive_rng
from tests.oracles import legacy_kernel, per_set_aggregates


@pytest.fixture(autouse=True)
def isolated_obs():
    with obs.capture():
        yield


def synthetic_table():
    rng = derive_rng(99, "backend-parity")
    n = 300
    b = rng.choice(["b0", "b1", "b2"], n)
    c = rng.choice(["c0", "c1"], n)
    return table_from_arrays(
        {
            "a": rng.choice(["a0", "a1", "a2", "a3"], n),
            "b": b,
            "c": c,
        },
        {"m": rng.normal(20, 3, n) + (b == "b0") * 15.0},
    )


def run_once(config: GenerationConfig):
    table = synthetic_table()
    with Session(table, config=ReproConfig(generation=config)) as session:
        run = session.generate(budget=6)
    notebook = run.to_notebook(table=table, table_name="dataset")
    return run, to_ipynb_json(notebook).encode("utf-8")


def assert_mqo_invisible(config: GenerationConfig):
    """A production run of ``config`` ≡ an in-process per-set oracle run.

    A pool run is compared against the in-process oracle run; the pool's
    own worker-count invariance is tests/parallel/test_invariance.
    """
    run_on, payload_on = run_once(config)
    with per_set_aggregates():
        run_off, payload_off = run_once(
            dataclasses.replace(config, parallel=ParallelConfig(workers=1))
        )
    assert run_on.outcome.queries, "parity test needs a non-empty run"
    assert [g.query for g in run_on.outcome.queries] == [
        g.query for g in run_off.outcome.queries
    ]
    for got, ref in zip(run_on.outcome.queries, run_off.outcome.queries):
        assert abs(got.interest - ref.interest) <= 1e-9
        assert got.tuples_aggregated == ref.tuples_aggregated
        assert got.n_groups == ref.n_groups
    # queries_sent counts logical group-by sets: invariant under batching.
    assert (
        run_on.outcome.counters["aggregation_queries_sent"]
        == run_off.outcome.counters["aggregation_queries_sent"]
    )
    assert payload_on == payload_off


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("kernel", ["batched", "legacy"])
def test_mqo_parity_backends_and_kernels(backend, kernel):
    config = GenerationConfig(
        significance=SignificanceConfig(n_permutations=200),
        backend=backend,
        parallel=ParallelConfig(workers=1),
    )
    with legacy_kernel() if kernel == "legacy" else nullcontext():
        assert_mqo_invisible(config)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("workers", [1, 2])
def test_mqo_parity_across_worker_counts(backend, workers):
    assert_mqo_invisible(
        GenerationConfig(
            significance=SignificanceConfig(n_permutations=200),
            backend=backend,
            parallel=ParallelConfig(workers=workers),
        )
    )


@pytest.mark.parametrize("evaluator", ["pairwise", "setcover"])
def test_mqo_parity_per_evaluator(evaluator):
    assert_mqo_invisible(
        GenerationConfig(
            significance=SignificanceConfig(n_permutations=200),
            backend="sqlite",
            evaluator=evaluator,
        )
    )


def test_run_report_records_the_plan():
    table = synthetic_table()
    config = GenerationConfig(
        significance=SignificanceConfig(n_permutations=200),
        backend="sqlite",
    )
    run = resilient_generate(table, config, budget=5, solver="heuristic")
    assert run.report is not None
    assert run.report.mqo_plan is not None
    assert run.report.mqo_plan["sets"] >= run.report.mqo_plan["batches"] >= 1
    assert any("mqo=" in line for line in run.report.summary_lines())
