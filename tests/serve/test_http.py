"""The HTTP surface, end to end over real sockets on an ephemeral port."""

from __future__ import annotations

import http.client
import statistics
import time

import pytest

from repro.serve import ServeConfig
from repro.serve.jobs import TERMINAL_STATES

from tests.serve.conftest import http_request


@pytest.fixture()
def server(make_server):
    return make_server(ServeConfig(port=0, default_deadline_seconds=30.0))


def submit_and_wait(server, dataset="covid", body=None, wait=25):
    payload = {"dataset": dataset, **(body or {})}
    code, out = http_request(f"{server.url}/generate", "POST", payload)
    assert code == 202, out
    job_id = out["job"]
    code, job = http_request(f"{server.url}/jobs/{job_id}?wait={wait}")
    assert code == 200
    return job_id, job


def test_healthz(server):
    code, body = http_request(f"{server.url}/healthz")
    assert code == 200
    assert body["ok"] is True


def test_generate_round_trip_produces_a_notebook(server):
    job_id, job = submit_and_wait(server)
    assert job["terminal"] is True
    assert job["status"] == "completed"
    assert job["has_notebook"] is True
    assert job["report"]["stages"]  # the run report rode along
    assert job["progress"]  # pipeline progress strings surfaced

    code, notebook = http_request(f"{server.url}/jobs/{job_id}/result")
    assert code == 200
    assert notebook["nbformat"] == 4
    assert any(c["cell_type"] == "code" for c in notebook["cells"])


def test_warm_session_hits_the_aggregate_cache_across_requests(server):
    submit_and_wait(server)
    submit_and_wait(server)
    code, body = http_request(f"{server.url}/datasets")
    assert code == 200
    (entry,) = body["datasets"]
    assert entry["runs"] == 2
    assert entry["cache"]["aggregate_hits"] > 0


def test_register_list_evict_cycle(server, serve_csv):
    code, body = http_request(f"{server.url}/datasets", "POST",
                              {"name": "second", "path": str(serve_csv)})
    assert code == 201
    assert body["name"] == "second"

    code, body = http_request(f"{server.url}/datasets", "POST",
                              {"name": "second", "path": str(serve_csv)})
    assert code == 409

    code, body = http_request(f"{server.url}/datasets", "POST",
                              {"name": "ghostly", "path": "/no/such/file.csv"})
    assert code == 400

    code, body = http_request(f"{server.url}/datasets/second", "DELETE")
    assert code == 200
    code, body = http_request(f"{server.url}/datasets/second", "DELETE")
    assert code == 404


def test_unknown_dataset_is_404(server):
    code, body = http_request(f"{server.url}/generate", "POST",
                              {"dataset": "ghost"})
    assert code == 404


def test_bad_requests_are_400(server):
    code, _ = http_request(f"{server.url}/generate", "POST", {})
    assert code == 400  # no dataset name
    code, _ = http_request(f"{server.url}/generate", "POST",
                           {"dataset": "covid", "deadline_seconds": "soon"})
    assert code == 400
    code, _ = http_request(f"{server.url}/generate", "POST",
                           {"dataset": "covid", "deadline_seconds": -1})
    assert code == 400


def test_unknown_routes_and_jobs_are_404(server):
    assert http_request(f"{server.url}/nope")[0] == 404
    assert http_request(f"{server.url}/jobs/job-999999")[0] == 404
    assert http_request(f"{server.url}/nope", "POST", {})[0] == 404


def test_metrics_exposition(server):
    submit_and_wait(server)
    code, text = http_request(f"{server.url}/metrics")
    assert code == 200
    assert "repro_serve_requests" in text
    assert "repro_serve_job_latency_seconds" in text


def test_deadline_is_capped_to_the_configured_maximum(make_server):
    server = make_server(ServeConfig(port=0, max_deadline_seconds=40.0))
    code, body = http_request(f"{server.url}/generate", "POST",
                              {"dataset": "covid", "deadline_seconds": 9999})
    assert code == 202
    assert body["deadline_seconds"] == 40.0
    code, job = http_request(f"{server.url}/jobs/{body['job']}?wait=25")
    assert job["status"] in TERMINAL_STATES


def test_result_of_a_shed_job_is_410(make_server, serve_csv):
    # No executor contention needed: shed at admission via injected fault.
    from repro.runtime.faults import parse_fault_plan

    server = make_server(ServeConfig(port=0),
                         faults=parse_fault_plan("serve.admission:kill"))
    code, body = http_request(f"{server.url}/generate", "POST",
                              {"dataset": "covid"})
    assert code == 429
    code, job = http_request(f"{server.url}/jobs/{body['job']}/result")
    assert code == 410


def test_keep_alive_responses_are_not_held_back(server):
    """Headers and body leave in two writes; with Nagle's algorithm on, the
    body waits ~40 ms for the client's delayed ACK on every response."""
    conn = http.client.HTTPConnection(*server.address, timeout=10)
    try:
        seconds = []
        for _ in range(10):
            start = time.perf_counter()
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            seconds.append(time.perf_counter() - start)
            assert response.status == 200
    finally:
        conn.close()
    assert statistics.median(seconds) < 0.020, seconds
