"""Request-scoped tracing and labeled metrics, end to end over HTTP.

The contract under test: every served job owns exactly one connected
span tree — HTTP submit path, admission, executor, the Session run's
pipeline stages, and the shard-pool worker subtrees shipped back across
the process boundary — retrievable as Chrome-trace JSON while the
server's ``/metrics`` exposition carries per-dataset labeled Prometheus
histograms with real bucket counts.  And nothing leaks between jobs:
each job's tracer/registry pair is born and dies with the job.
"""

from __future__ import annotations

import re

import pytest

from repro.config import ReproConfig
from repro.serve import ReproServer, ServeConfig

from tests.serve.conftest import http_request


@pytest.fixture()
def parallel_server(serve_csv):
    """A server whose runs fan out to a 2-worker shard pool."""
    config = (
        ReproConfig(budget=3.0)
        .with_significance(n_permutations=30)
        .with_parallel(workers=2)
    )
    server = ReproServer(ServeConfig(port=0), repro_config=config)
    server.start()
    server.registry.register("covid", serve_csv)
    yield server
    server.shutdown()


def _submit_and_wait(server, dataset="covid"):
    code, out = http_request(f"{server.url}/generate", "POST",
                             {"dataset": dataset})
    assert code == 202, out
    code, job = http_request(f"{server.url}/jobs/{out['job']}?wait=60")
    assert code == 200
    assert job["terminal"], job
    return out["job"], job


def _span_index(trace: dict) -> tuple[dict[int, dict], dict[str, int]]:
    """(span_id -> event, name -> count) for a Chrome-trace document."""
    by_id, by_name = {}, {}
    for event in trace["traceEvents"]:
        if event.get("ph") != "X":
            continue
        by_id[event["args"]["span_id"]] = event
        by_name[event["name"]] = by_name.get(event["name"], 0) + 1
    return by_id, by_name


class TestEndToEndTrace:
    def test_job_trace_is_one_connected_tree_across_all_layers(
        self, parallel_server
    ):
        job_id, job = _submit_and_wait(parallel_server)
        assert job["status"] == "completed"

        code, trace = http_request(
            f"{parallel_server.url}/jobs/{job_id}/trace"
        )
        assert code == 200
        by_id, by_name = _span_index(trace)

        # Exactly one root, and it is the request span.
        roots = [e for e in by_id.values()
                 if "parent_id" not in e["args"]]
        assert len(roots) == 1
        assert roots[0]["name"] == "serve.request"
        assert roots[0]["args"]["job"] == job_id

        # Every non-root span's parent exists in the same document:
        # one connected tree, nothing orphaned by the IPC hop.
        for event in by_id.values():
            parent = event["args"].get("parent_id")
            if parent is not None:
                assert parent in by_id, event["name"]

        # The tree covers every layer: submit path, executor, the run,
        # all four pipeline stages, and the worker subtrees.
        for name in ("serve.submit", "serve.admission", "serve.execute",
                     "serve.attempt", "run", "stage.stats",
                     "stage.generation", "stage.tap", "stage.render"):
            assert by_name.get(name, 0) >= 1, f"missing span {name!r}"
        assert by_name.get("parallel.task", 0) >= 1, (
            "no worker subtree was adopted across the process boundary"
        )

    def test_trace_of_an_unknown_suffix_is_404(self, parallel_server):
        job_id, _ = _submit_and_wait(parallel_server)
        code, _ = http_request(
            f"{parallel_server.url}/jobs/{job_id}/nonsense"
        )
        assert code == 404

    def test_metrics_expose_labeled_histograms_with_real_buckets(
        self, parallel_server
    ):
        _submit_and_wait(parallel_server)
        code, text = http_request(f"{parallel_server.url}/metrics")
        assert code == 200

        # The per-dataset latency histogram: cumulative le buckets, +Inf,
        # _sum and _count, all carrying the dataset label.
        assert re.search(
            r'repro_serve_job_latency_seconds_bucket\{dataset="covid",le="\+Inf"\} [1-9]',
            text,
        ), text
        assert re.search(
            r'repro_serve_job_latency_seconds_count\{dataset="covid"\} [1-9]',
            text,
        )
        assert re.search(
            r'repro_serve_queue_wait_seconds_bucket\{dataset="covid",le="0\.001"\} \d+',
            text,
        )
        # Outcome-labeled job counter rendered as a Prometheus series.
        assert re.search(
            r'repro_serve_jobs_total\{dataset="covid",outcome="completed"\} [1-9]',
            text,
        )
        assert "# TYPE repro_serve_job_latency_seconds histogram" in text

    def test_metrics_expose_operational_gauges(self, parallel_server):
        _submit_and_wait(parallel_server)
        code, text = http_request(f"{parallel_server.url}/metrics")
        assert code == 200
        assert re.search(r"repro_serve_queue_depth 0", text)
        assert re.search(r"repro_serve_datasets_resident 1", text)
        assert re.search(r"repro_serve_inflight_utilization 0", text)
        assert re.search(
            r'repro_serve_breaker_state\{dataset="covid"\} 0', text
        )


class TestPerJobIsolation:
    def test_sequential_jobs_get_fresh_registries(self, make_server):
        """The leak regression: job 2's registry must not contain job 1's.

        Both jobs run the same request shape, so if the executor reused
        one registry the second job's counters would be roughly double
        the first's.  Fresh-per-job means statistically identical.
        """
        server = make_server(ServeConfig(port=0))
        id1, _ = _submit_and_wait(server)
        id2, _ = _submit_and_wait(server)
        job1 = server.jobs.get(id1)
        job2 = server.jobs.get(id2)
        assert job1.metrics is not job2.metrics
        assert job1.tracer is not job2.tracer

        c1 = job1.metrics.snapshot()["counters"]
        c2 = job2.metrics.snapshot()["counters"]
        key = "stats.candidates_tested"
        assert c1.get(key, 0) > 0
        assert c2.get(key) == c1.get(key)  # not accumulating across jobs

        # Each tracer holds its own request exactly once.
        for job in (job1, job2):
            roots = [s for s in job.tracer.spans()
                     if s.name == "serve.request"]
            assert len(roots) == 1
            assert roots[0].attrs["job"] == job.id

    def test_job_metrics_fold_into_the_resident_session(self, make_server):
        """Isolation must not break cross-request cache amortization."""
        server = make_server(ServeConfig(port=0))
        _submit_and_wait(server)
        _submit_and_wait(server)
        code, body = http_request(f"{server.url}/datasets")
        assert code == 200
        (entry,) = body["datasets"]
        assert entry["cache"]["aggregate_hits"] > 0


class TestConcurrentTenants:
    def test_two_executors_keep_each_jobs_trace_to_its_dataset(
        self, make_server, tmp_path
    ):
        """Jobs on two datasets run at once; neither trace holds a span of
        the other's run."""
        from repro.datasets import covid_table, enedis_table
        from repro.relational import write_csv

        server = make_server(ServeConfig(port=0, executors=2), register=None)
        tables = {"covid": covid_table(400), "enedis": enedis_table(0.05)}
        for name, table in tables.items():
            write_csv(table, tmp_path / f"{name}.csv")
            server.registry.register(name, tmp_path / f"{name}.csv")
        submitted = {}
        for name in tables:
            code, out = http_request(f"{server.url}/generate", "POST",
                                     {"dataset": name})
            assert code == 202, out
            submitted[name] = out["job"]
        for name, job_id in submitted.items():
            code, job = http_request(f"{server.url}/jobs/{job_id}?wait=60")
            assert job["status"] == "completed", job
            code, trace = http_request(f"{server.url}/jobs/{job_id}/trace")
            assert code == 200
            by_id, by_name = _span_index(trace)
            roots = [e for e in by_id.values() if "parent_id" not in e["args"]]
            assert [r["args"]["job"] for r in roots] == [job_id]
            for event in by_id.values():
                parent = event["args"].get("parent_id")
                assert parent is None or parent in by_id, event["name"]
            assert by_name["run"] == 1 and by_name["stage.stats"] == 1
            columns = {attr.name for attr in tables[name].schema}
            for event in by_id.values():
                args = event["args"]
                if "dataset" in args:
                    assert args["dataset"] == name, event["name"]
                if "attribute" in args:
                    assert args["attribute"] in columns, event["name"]
