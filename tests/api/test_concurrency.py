"""Concurrent runs on different sessions: no shared trace, metrics or lock.

Each run installs its observability pair and worker fleet for its own
context only, so two sessions generate at the same time and neither sees
the other's spans or counters — while their notebooks stay byte-identical
to serial runs.
"""

from __future__ import annotations

import sys
import threading
import warnings
from collections import Counter

import pytest

from repro import ReproConfig, Session, obs
from repro.datasets import covid_table, enedis_table
from repro.deprecation import reset as reset_deprecations
from repro.deprecation import warn_once
from repro.generation import GenerationConfig, generate_comparison_queries
from repro.notebook.ipynb import to_ipynb_json
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer
from repro.parallel import ParallelConfig

JOIN_TIMEOUT = 120


#: Fresh tables per run: a table carries its aggregate cache, and a warm
#: cache would change which spans a run records.
TABLES = {"covid": lambda: covid_table(1200), "enedis": lambda: enedis_table(0.1)}


@pytest.fixture(scope="module")
def config():
    return ReproConfig(budget=4.0).with_significance(n_permutations=200)


def _one_run(name, config, barrier=None):
    """generate + render on a fresh session, all under one root span."""
    tracer, metrics = Tracer(), MetricsRegistry()
    with Session(TABLES[name](), config=config, table_name=name) as session:
        if barrier is not None:
            barrier.wait(timeout=JOIN_TIMEOUT)
        with tracer.span("test.job", dataset=name):
            run = session.generate(tracer=tracer, metrics=metrics)
            notebook = session.render(run, tracer=tracer, metrics=metrics)
    return {
        "notebook": to_ipynb_json(notebook).encode("utf-8"),
        "tracer": tracer,
        "metrics": metrics,
    }


def _assert_connected(tracer: Tracer) -> None:
    spans = tracer.spans()
    ids = {span.span_id for span in spans}
    roots = [span for span in spans if span.parent_id is None]
    assert len(roots) == 1
    assert all(span.parent_id in ids for span in spans if span is not roots[0])
    assert all(span.closed for span in spans)


def test_runs_on_two_sessions_overlap_and_stay_isolated(config):
    serial = {name: _one_run(name, config) for name in TABLES}

    barrier = threading.Barrier(len(TABLES))
    results: dict[str, dict] = {}
    errors: list[BaseException] = []

    def worker(name):
        try:
            results[name] = _one_run(name, config, barrier)
        except BaseException as exc:  # noqa: BLE001 - recorded for assert
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(name,)) for name in TABLES]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []

    for name in TABLES:
        got, ref = results[name], serial[name]
        assert got["notebook"] == ref["notebook"]
        tracer = got["tracer"]
        _assert_connected(tracer)
        # No foreign span: the same spans, by name and count, as alone.
        names = Counter(span.name for span in tracer.spans())
        assert names == Counter(span.name for span in ref["tracer"].spans())
        columns = {attr.name for attr in TABLES[name]().schema}
        for span in tracer.spans():
            if "attribute" in span.attrs:
                assert span.attrs["attribute"] in columns
        counters = got["metrics"].snapshot()["counters"]
        for key in ("stats.candidates_tested", "stats.permutation_batches_created"):
            assert counters.get(key) == ref["metrics"].snapshot()["counters"].get(key)

    covid, enedis = results["covid"]["metrics"], results["enedis"]["metrics"]
    assert not {id(i) for i in covid.instruments()} & {id(i) for i in enedis.instruments()}

    # Without a process-wide run lock the two stats stages run at once.
    (a,) = results["covid"]["tracer"].find("stage.stats")
    (b,) = results["enedis"]["tracer"].find("stage.stats")
    assert a.start < b.end and b.start < a.end


def test_thread_pool_tasks_record_into_the_run_context():
    """Pool threads see the submitting run's ambient pair, not the default."""

    def default_count() -> int:
        # A fresh thread starts from the process-default ambient pair.
        found: list[int] = []
        probe = threading.Thread(
            target=lambda: found.append(
                len(obs.current_tracer().find("stats.test_attribute"))
            )
        )
        probe.start()
        probe.join(timeout=JOIN_TIMEOUT)
        return found[0]

    before = default_count()
    config = GenerationConfig(
        parallel=ParallelConfig(workers=2, backend="threads", chunk_size=4)
    )
    with obs.capture() as (tracer, _):
        with obs.span("test.run") as root:
            generate_comparison_queries(covid_table(600), config)
    main = threading.get_ident()
    tasks = tracer.find("stats.test_attribute")
    pooled = [span for span in tasks if span.thread_id != main]
    assert pooled, "no stats.test_attribute span ran on a pool thread"
    by_id = {span.span_id: span for span in tracer.spans()}
    for span in pooled:
        ancestor = span
        while ancestor.parent_id is not None:
            ancestor = by_id[ancestor.parent_id]
        assert ancestor is root
    assert default_count() == before


def test_warn_once_warns_once_across_threads():
    key = "test.concurrent-warn-once"
    reset_deprecations()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            barrier = threading.Barrier(8)

            def worker():
                barrier.wait(timeout=JOIN_TIMEOUT)
                for _ in range(200):
                    warn_once(key, "once")

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=JOIN_TIMEOUT)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        reset_deprecations()
    assert [str(w.message) for w in caught] == ["once"]
