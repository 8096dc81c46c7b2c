"""The traced run: the pipeline's layer calls, each wrapped in a span.

:func:`run_stages` makes the calls ``repro generate`` makes — stats stage,
support stage, TAP solver, notebook build — directly, so each layer's time
is measured from outside the program.  The notebook it writes must equal
the untimed run's byte for byte; the workloads check that.

Run as a script it is the traced counterpart of one cold ``repro
generate`` process::

    PYTHONPATH=src python3 perfbench/traced.py data.csv --out nb.ipynb \\
        --report spans.json [--solver exact]

It times ``import repro``, ``read_csv`` and ``create_backend`` before the
stages and writes its spans and counters to ``--report`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from benchlib import SpanLog  # noqa: E402

BUDGET = 10.0


def run_stages(log: SpanLog, parent: int, op: int, *, table, backend, config,
               solver: str, table_name: str, out: Path,
               incremental=None, version: str | None = None) -> dict:
    """Stats → support → TAP → build → write, one span per layer call.

    Returns the layer counters (public outputs only) and the stats result,
    whose ``memo`` feeds the next incremental run.
    """
    from repro import obs
    from repro.generation.generator import run_stats_stage, run_support_stage
    from repro.generation.pipeline import DEFAULT_EPSILON_PER_QUERY
    from repro.notebook import build_notebook, write_ipynb
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.spans import Tracer

    generation = config.generation
    epsilon = DEFAULT_EPSILON_PER_QUERY * max(1.0, BUDGET - 1.0)
    metrics = MetricsRegistry()
    statements_before = backend.statements_executed
    nodes = 0
    with obs.use(Tracer(), metrics):
        with log.span("stats.stage", parent, op):
            stats = run_stats_stage(table, generation, backend=backend,
                                    incremental=incremental, version=version)
        with log.span("generation.stage", parent, op):
            outcome = run_support_stage(table, stats, generation, backend=backend)
        queries = outcome.queries
        with log.span("tap.solve", parent, op):
            if solver == "exact":
                solution, nodes = _solve_exact(queries, generation, epsilon,
                                               config.exact_timeout)
            else:
                solution = _solve_heuristic(queries, generation, epsilon)
        selected = [queries[i] for i in solution.indices]
        with log.span("notebook.render", parent, op):
            notebook = build_notebook(
                selected, table=table, table_name=table_name,
                title=f"Comparison notebook — {table_name}",
                include_previews=True,
            )
        with log.span("notebook.write", parent, op):
            write_ipynb(notebook, out)
    counters = metrics.snapshot()["counters"]
    c = outcome.counters
    return {
        "stats": stats,
        "counters": {
            "candidates": c.get("insights_tested", 0),
            "partitions_skipped": c.get("stats_partitions_skipped", 0),
            "partitions_retested": c.get("stats_partitions_retested", 0),
            "permutation_batches": counters.get("stats.permutation_batches_created", 0.0),
            "hypothesis_queries": c.get("hypothesis_queries_evaluated", 0),
            "queries_supported": c.get("queries_supported", 0),
            "statements": backend.statements_executed - statements_before,
            "aggregate_hits": counters.get("cache.aggregate_hits", 0.0),
            "aggregate_misses": counters.get("cache.aggregate_misses", 0.0),
            "exact_nodes": nodes,
        },
    }


def _solve_heuristic(queries, generation, epsilon):
    from repro.queries.distance import query_distance
    from repro.tap.heuristic import HeuristicConfig, solve_heuristic_lazy

    weights = generation.distance_weights
    return solve_heuristic_lazy(
        [g.interest for g in queries], [1.0] * len(queries),
        lambda i, j: query_distance(queries[i].query, queries[j].query, weights),
        HeuristicConfig(BUDGET, epsilon),
    )


def _solve_exact(queries, generation, epsilon, timeout):
    import numpy as np

    from repro.queries.distance import query_distance
    from repro.tap.exact import ExactConfig, solve_exact
    from repro.tap.instance import TAPInstance

    weights = generation.distance_weights
    n = len(queries)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i, j] = matrix[j, i] = query_distance(
                queries[i].query, queries[j].query, weights)
    instance = TAPInstance(list(queries), [g.interest for g in queries],
                           [1.0] * n, matrix)
    outcome = solve_exact(instance, ExactConfig(
        BUDGET, epsilon, timeout_seconds=timeout, raise_on_timeout=True))
    return outcome.solution, outcome.nodes_explored


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("csv", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--report", type=Path, required=True)
    parser.add_argument("--solver", choices=("heuristic", "exact"),
                        default="heuristic")
    args = parser.parse_args(argv)

    log = SpanLog()
    with log.span("import.repro", None, 0):
        import repro  # noqa: F401
    from repro.backend import create_backend
    from repro.config import ReproConfig
    from repro.relational import read_csv

    with log.span("relational.read_csv", None, 0):
        table = read_csv(args.csv, strict=True)
    config = ReproConfig(budget=BUDGET).replace(solver=args.solver)
    with log.span("backend.create", None, 0):
        backend = create_backend(config.backend, table)
    result = run_stages(log, None, 0, table=table, backend=backend,
                        config=config, solver=args.solver,
                        table_name=args.csv.stem, out=args.out)
    backend.close()
    args.report.write_text(json.dumps(
        {"spans": log.as_list(), "counters": result["counters"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
