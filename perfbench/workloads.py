"""The four workloads of the notebook benchmark.

Each workload runs one kind of user operation (an *op*) in a closed loop
for the measured window and checks every notebook the program produces.
``trace=False`` gives the end-to-end numbers; ``trace=True`` spends the
first half of the window on untimed ops and the second half on traced ops
(spans around each layer call, made from this package), so the tracing
overhead is measured in the same run.  See README.md for why each
workload exists.
"""

from __future__ import annotations

import csv
import http.client
import json
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

from benchlib import (
    HERE,
    SpanLog,
    clock,
    median,
    own_peak_rss_mb,
    proc_peak_rss_mb,
    program_env,
    run_child,
    self_time_table,
)

#: One op may not take longer than this; a hung child counts as failed.
OP_TIMEOUT = 120.0
#: How many times each run repeats its set-up; setup_s is their median.
SETUPS = 3
#: Rows per appended block on ``enedis_append``.
BLOCK_ROWS = 20
#: Row count of the covid-like table on ``serve_two_tenants``.
COVID_ROWS = 1200


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    work: Path
    extra_env: dict = field(default_factory=dict)


@dataclass
class Result:
    """What one workload run measured and checked."""

    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    wall: float = 0.0
    spans: SpanLog = field(default_factory=SpanLog)
    traced_walls: list[float] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)

    def record(self, seconds: float, error: str | None) -> None:
        self.attempted += 1
        if error is None:
            self.latencies.append(seconds)
        else:
            self.failures.append(error)

    @property
    def failed(self) -> int:
        return len(self.failures)


# -- inputs -------------------------------------------------------------------


def seeded_csv(table, path: Path, seed: int) -> Path:
    """Write ``table`` as CSV with every categorical label renamed for ``seed``.

    The tables are the generators' default draws — the instances the
    workloads were sized on — and the seed prefixes every categorical label
    (order-preserving, so every test, query and solver step is the same).
    Each seed thus feeds the program different bytes and gets a different
    notebook back, while the work an op does stays fixed.  Seeding the
    generators instead measures a lottery over the draws: across seeds 1–12
    the vaccine table took 25 to more than 100k exact-TAP nodes (some draws
    timed out after 60 s and selected nothing), and ENEDIS draws at 3000 rows
    kept 358 to 1015 significant insights, which moved the append op 2x.
    """
    from repro.relational import write_csv

    path.parent.mkdir(parents=True, exist_ok=True)
    write_csv(table, path)
    categorical = set(table.schema.categorical_names)
    with path.open(newline="") as f:
        rows = list(csv.reader(f))
    header = rows[0]
    renamed = [header] + [
        [f"s{seed}_{v}" if name in categorical else v for name, v in zip(header, row)]
        for row in rows[1:]
    ]
    with path.open("w", newline="") as f:
        csv.writer(f).writerows(renamed)
    return path


def enedis_csv(work: Path, seed: int, scale: float) -> Path:
    from repro.datasets import enedis_table

    return seeded_csv(enedis_table(scale), work / "enedis.csv", seed)


def vaccine_csv(work: Path, seed: int) -> Path:
    from repro.datasets import vaccine_table

    return seeded_csv(vaccine_table(0.5), work / "vaccine.csv", seed)


def covid_csv(work: Path, seed: int) -> Path:
    from repro.datasets import covid_table

    return seeded_csv(covid_table(COVID_ROWS), work / "covid.csv", seed)


def reference_notebook(path: Path, solver: str = "heuristic",
                       table_name: str | None = None) -> bytes:
    """The notebook of an in-process ``repro.Session`` run on ``path``."""
    from repro import ReproConfig, Session
    from repro.notebook.ipynb import to_ipynb_json

    config = ReproConfig().replace(solver=solver)
    with Session.from_csv(path, config=config, table_name=table_name) as session:
        notebook = session.render(session.generate())
    return to_ipynb_json(notebook).encode("utf-8")


# -- cold CLI workloads (enedis_cold, vaccine_exact) ------------------------------


def cli_op(ctx: Context, csv_path: Path, solver: str, reference: bytes,
           result: Result) -> None:
    """One cold ``repro generate`` process; its notebook must match."""
    out = ctx.work / "op.ipynb"
    out.unlink(missing_ok=True)
    child = run_child(
        [sys.executable, "-m", "repro", "generate", str(csv_path),
         "--solver", solver, "--out", str(out)],
        env=program_env(ctx.extra_env), cwd=ctx.work, timeout=OP_TIMEOUT,
    )
    error = None
    loaded = child.first_line_time("[repro] loaded ")
    if child.returncode != 0:
        error = f"exit {child.returncode}: {child.lines[-1][1] if child.lines else ''}"
    elif not out.exists():
        error = "notebook missing"
    elif out.read_bytes() != reference:
        error = "notebook differs from the reference"
    elif loaded is None:
        error = "no '[repro] loaded' line"
    else:
        result.setup.append(loaded - child.start)
    result.record(child.seconds, error)
    result.peak_rss_mb = max(result.peak_rss_mb, child.peak_rss_mb)


def traced_cli_op(ctx: Context, csv_path: Path, solver: str, reference: bytes,
                  result: Result) -> dict:
    """The traced runner in a fresh process; returns its counters."""
    out = ctx.work / "traced.ipynb"
    report = ctx.work / "traced.json"
    out.unlink(missing_ok=True)
    op = len(result.traced_walls)
    result.attempted += 1
    child = run_child(
        [sys.executable, str(HERE / "traced.py"), str(csv_path), "--solver", solver,
         "--out", str(out), "--report", str(report)],
        env=program_env(ctx.extra_env), cwd=ctx.work, timeout=OP_TIMEOUT,
    )
    if child.returncode != 0 or not out.exists():
        result.failures.append(f"traced runner exit {child.returncode}")
        return {}
    if out.read_bytes() != reference:
        result.failures.append("traced notebook differs from the reference")
    doc = json.loads(report.read_text())
    root = result.spans.add("op", child.start, child.end, None, op)
    result.spans.extend(doc["spans"], root, op)
    result.traced_walls.append(child.seconds)
    return doc["counters"]


def cli_workload(ctx: Context, csv_path: Path, solver: str) -> Result:
    result = Result()
    reference = reference_notebook(csv_path, solver)
    untimed_until = clock() + (ctx.seconds / 2 if ctx.trace else ctx.seconds)
    start = clock()
    while clock() < untimed_until:
        cli_op(ctx, csv_path, solver, reference, result)
    result.wall = clock() - start
    if ctx.trace:
        counters: list[dict] = []
        until = start + ctx.seconds
        while clock() < until or not counters:
            counters.append(traced_cli_op(ctx, csv_path, solver, reference, result))
        result.layers = cli_layers(result.spans, [c for c in counters if c])
    return result


# -- per-layer metrics --------------------------------------------------------


LAYER_SPANS = {
    "import.repro_s": "import.repro",
    "relational.read_csv_s": "relational.read_csv",
    "backend.create_s": "backend.create",
    "api.append_s": "api.append",
    "stats.stage_s": "stats.stage",
    "generation.stage_s": "generation.stage",
    "tap.solve_s": "tap.solve",
    "notebook.render_s": "notebook.render",
}


def _span_means(spans: SpanLog) -> dict[str, float]:
    ops = {s.op for s in spans.spans if s.name == "op"}
    totals: dict[str, float] = {}
    for s in spans.spans:
        totals[s.name] = totals.get(s.name, 0.0) + s.seconds
    n = max(1, len(ops))
    return {metric: totals.get(name, 0.0) / n for metric, name in LAYER_SPANS.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counter_layers(counters: list[dict]) -> dict[str, float]:
    """Per-op means of the work counters, and the ratios built from them."""
    n = max(1, len(counters))

    def mean(key: str) -> float:
        return sum(c.get(key, 0) for c in counters) / n

    return {
        "stats.candidates": mean("candidates"),
        "stats.permutation_batches": mean("permutation_batches"),
        "stats.tests_per_batch": _ratio(mean("candidates"), mean("permutation_batches")),
        "stats.skip_ratio": _ratio(
            mean("partitions_skipped"),
            mean("partitions_skipped") + mean("partitions_retested")),
        "generation.support_ratio": _ratio(mean("queries_supported"),
                                           mean("hypothesis_queries")),
        "backend.statements": mean("statements"),
        "cache.aggregate_hit_ratio": _ratio(
            mean("aggregate_hits"), mean("aggregate_hits") + mean("aggregate_misses")),
        "tap.exact_nodes": mean("exact_nodes"),
    }


def unattributed_pct(spans: SpanLog) -> float:
    shares = {name: share for name, _, share in self_time_table(spans.spans)}
    return shares.get("unattributed", 0.0)


def cli_layers(spans: SpanLog, counters: list[dict]) -> dict[str, float]:
    return {**_span_means(spans), **counter_layers(counters)}


def finish_layers(result: Result) -> None:
    """Add the trace-wide metrics to the layer metrics."""
    layers = dict(result.layers)
    untimed = median(result.latencies)
    layers["trace.overhead_pct"] = (
        100.0 * (median(result.traced_walls) / untimed - 1.0) if untimed else 0.0)
    layers["trace.unattributed_pct"] = unattributed_pct(result.spans)
    result.layers = layers


def import_seconds(ctx: Context) -> float:
    """Median wall of a fresh ``python -c "import repro"``."""
    walls = []
    for _ in range(SETUPS):
        child = run_child([sys.executable, "-c", "import repro"],
                          env=program_env(ctx.extra_env), cwd=ctx.work,
                          timeout=OP_TIMEOUT)
        walls.append(child.seconds)
    return median(walls)


def load_seconds(paths: list[Path]) -> tuple[float, float]:
    """Median in-process ``read_csv`` and ``create_backend`` seconds, summed
    over ``paths``."""
    from repro.backend import create_backend
    from repro.config import ReproConfig
    from repro.relational import read_csv

    reads, creates = [], []
    for _ in range(SETUPS):
        read = create = 0.0
        for path in paths:
            t0 = clock()
            table = read_csv(path, strict=True)
            t1 = clock()
            backend = create_backend(ReproConfig().backend, table)
            create += clock() - t1
            read += t1 - t0
            backend.close()
        reads.append(read)
        creates.append(create)
    return median(reads), median(creates)


# -- enedis_append --------------------------------------------------------------


class Blocks:
    """Seeded 20-row append blocks over a base CSV.

    Each block repeats one existing row's categorical values, so it touches
    one partition per attribute, and draws fresh measures from each
    measure column's mean and spread.
    """

    def __init__(self, path: Path, seed: int, measures: list[str]):
        import numpy as np

        with path.open(newline="") as f:
            rows = list(csv.reader(f))
        self.header, self.rows = rows[0], rows[1:]
        self.measures = [self.header.index(m) for m in measures]
        columns = np.array([[float(r[i]) for i in self.measures] for r in self.rows])
        self.mean, self.std = columns.mean(axis=0), columns.std(axis=0)
        self.rng = np.random.default_rng([seed, 7])
        self.appended: list[list[str]] = []

    def next(self) -> list[tuple]:
        template = self.rows[int(self.rng.integers(len(self.rows)))]
        draws = self.rng.normal(self.mean, self.std, size=(BLOCK_ROWS, len(self.measures)))
        block = []
        for draw in draws:
            row: list = list(template)
            for k, i in enumerate(self.measures):
                row[i] = float(draw[k])
            block.append(tuple(row))
        self.appended.extend([[repr(v) if isinstance(v, float) else v for v in r]
                              for r in block])
        return block

    def write_grown(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as f:
            csv.writer(f).writerows([self.header, *self.rows, *self.appended])
        return path


def append_workload(ctx: Context) -> Result:
    from repro import ReproConfig, Session
    from repro.datasets import enedis_spec
    from repro.notebook.ipynb import to_ipynb_json

    result = Result()
    path = enedis_csv(ctx.work, ctx.seed, 0.5)
    blocks = Blocks(path, ctx.seed, [m.name for m in enedis_spec().measures])

    session = None
    for _ in range(SETUPS):
        if session is not None:
            session.close()
        t0 = clock()
        session = Session.from_csv(path, config=ReproConfig())
        run = session.generate()
        to_ipynb_json(session.render(run))
        result.setup.append(clock() - t0)
    # ``since`` is the version the last generate ran at: the stats memo of
    # that run is what the next incremental generate reuses.
    since = session.version

    def op() -> tuple[float, bytes, object]:
        nonlocal since
        t0 = clock()
        session.append(blocks.next())
        run = session.generate(since=since)
        body = to_ipynb_json(session.render(run)).encode("utf-8")
        seconds = clock() - t0
        since = session.version
        return seconds, body, run

    # One op before the window: the first append builds the moment store.
    _, notebook, run = op()
    result.attempted += 1
    untimed_until = clock() + (ctx.seconds / 2 if ctx.trace else ctx.seconds)
    start = clock()
    while clock() < untimed_until:
        seconds, notebook, run = op()
        degraded = run.report is not None and run.report.degraded
        result.record(seconds, "run degraded" if degraded else None)
    result.wall = clock() - start

    if ctx.trace:
        from repro.stats.delta import IncrementalRequest

        from traced import run_stages

        memo = run.stats_memo
        counters = []
        out = ctx.work / "traced.ipynb"
        until = start + ctx.seconds
        while clock() < until or not counters:
            n = len(result.traced_walls)
            result.attempted += 1
            root = result.spans.open("op", None, n)
            with result.spans.span("api.append", root, n):
                session.append(blocks.next())
            with result.spans.span("backend.create", root, n):
                backend = session.backend
            stages = run_stages(
                result.spans, root, n, table=session.table, backend=backend,
                config=session.config, solver="heuristic",
                table_name=session.table_name, out=out,
                incremental=IncrementalRequest(memo), version=session.version)
            result.spans.close(root)
            result.traced_walls.append(result.spans.spans[root].seconds)
            memo = stages["stats"].memo
            counters.append(stages["counters"])
        notebook = out.read_bytes()
        read_s, _ = load_seconds([path])
        result.layers = {
            **_span_means(result.spans), **counter_layers(counters),
            "import.repro_s": import_seconds(ctx),
            "relational.read_csv_s": read_s,
        }
    session.close()
    result.peak_rss_mb = own_peak_rss_mb()

    # The last incremental notebook must equal a cold run on the grown table.
    grown = blocks.write_grown(ctx.work / "grown" / "enedis.csv")
    if reference_notebook(grown) != notebook:
        result.failures.append("last incremental notebook differs from a cold run")
    return result


# -- serve_two_tenants ------------------------------------------------------------


class Server:
    """A ``repro serve`` child; stdout is drained by a thread."""

    def __init__(self, ctx: Context, datasets: dict[str, Path]):
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0",
                "--executors", "2", "--flight-dump", str(ctx.work / "flight.json")]
        for name, path in datasets.items():
            argv += ["--dataset", f"{name}={path}"]
        self.start = clock()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=program_env(ctx.extra_env), cwd=ctx.work, text=True)
        self.ready = threading.Event()
        self.ready_at = 0.0
        self.url = ""
        self.output: list[str] = []
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.output.append(line.rstrip("\n"))
            if line.startswith("serving on "):
                self.ready_at = clock()
                self.url = line.split()[2]
                self.ready.set()
        self.ready.set()

    def wait_ready(self, timeout: float = 60.0) -> float:
        if not self.ready.wait(timeout) or not self.url:
            self.stop()
            raise RuntimeError("server did not start: " + " | ".join(self.output[-5:]))
        return self.ready_at - self.start

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.url.split("//", 1)[1].rstrip("/").rsplit(":", 1)
        return host, int(port)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=15)
        self.proc.stdout.close()


class Client:
    """One closed-loop tenant: submit, long-poll, fetch, compare."""

    def __init__(self, address: tuple[str, int], dataset: str, reference: bytes):
        self.address, self.dataset, self.reference = address, dataset, reference
        self.conn = http.client.HTTPConnection(*address, timeout=OP_TIMEOUT)

    def call(self, method: str, path: str, body: dict | None = None) -> tuple[int, bytes]:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        try:
            self.conn.request(method, path, body=payload, headers=headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = http.client.HTTPConnection(*self.address, timeout=OP_TIMEOUT)
            raise

    def op(self, spans: SpanLog | None = None, op: int = 0):
        """Returns (seconds, error or None, job JSON)."""
        def step(name, method, path, body=None):
            if spans is None:
                return self.call(method, path, body)
            with spans.span(name, root, op):
                return self.call(method, path, body)

        root = spans.open("op", None, op) if spans is not None else None
        t0 = clock()
        job: dict = {}
        try:
            status, body = step("http.post", "POST", "/generate", {"dataset": self.dataset})
            if status != 202:
                return clock() - t0, f"POST /generate {status}", job
            job_id = json.loads(body)["job"]
            status, body = step("http.wait", "GET", f"/jobs/{job_id}?wait=60")
            job = json.loads(body) if status == 200 else {}
            if status != 200 or job.get("status") != "completed":
                return clock() - t0, f"job {job.get('status', status)}", job
            status, body = step("http.result", "GET", f"/jobs/{job_id}/result")
            if status != 200:
                return clock() - t0, f"GET result {status}", job
            error = None if body == self.reference else "notebook differs from the reference"
            return clock() - t0, error, job
        except (OSError, http.client.HTTPException, ValueError) as exc:
            return clock() - t0, f"{type(exc).__name__}: {exc}", job
        finally:
            if root is not None:
                spans.close(root)

    def trace(self, job_id: str) -> dict:
        status, body = self.call("GET", f"/jobs/{job_id}/trace")
        return json.loads(body) if status == 200 else {}

    def close(self) -> None:
        self.conn.close()


def _job_layers(job: dict, trace: dict, latency: float) -> dict[str, float]:
    """The serve-side split of one traced job, read from outside."""
    dur: dict[str, float] = {}
    for event in trace.get("traceEvents", []):
        if event.get("ph") == "X":
            dur[event["name"]] = dur.get(event["name"], 0.0) + event["dur"] / 1e6
    counters = trace.get("otherData", {}).get("metrics", {}).get("counters", {})
    return {
        "serve.queue_wait_s": job.get("queue_seconds", 0.0),
        "serve.blocked_s": dur.get("serve.attempt", 0.0) - dur.get("run", 0.0),
        "serve.run_s": dur.get("run", 0.0),
        "serve.http_s": latency - job.get("total_seconds", 0.0),
        "stats.stage_s": dur.get("stage.stats", 0.0),
        "generation.stage_s": dur.get("stage.generation", 0.0),
        "tap.solve_s": dur.get("stage.tap", 0.0),
        "notebook.render_s": dur.get("stage.render", 0.0),
        "counters": {
            "candidates": counters.get("stats.candidates_tested", 0.0),
            "permutation_batches": counters.get("stats.permutation_batches_created", 0.0),
            "hypothesis_queries": counters.get("generation.hypothesis_queries", 0.0),
            "queries_supported": counters.get("generation.queries_supported", 0.0),
            "statements": counters.get("backend.statements_executed", 0.0),
            "aggregate_hits": counters.get("cache.aggregate_hits", 0.0),
            "aggregate_misses": counters.get("cache.aggregate_misses", 0.0),
            "exact_nodes": counters.get("tap.exact.nodes", 0.0),
        },
    }


def serve_workload(ctx: Context) -> Result:
    result = Result()
    datasets = {
        "covid": covid_csv(ctx.work / "serve", ctx.seed),
        "enedis": enedis_csv(ctx.work / "serve", ctx.seed, 0.2),
    }
    # The server answers with compact JSON of the same notebook.
    references = {
        name: json.dumps(json.loads(reference_notebook(path, table_name=name))).encode()
        for name, path in datasets.items()
    }

    server = None
    for _ in range(SETUPS):
        if server is not None:
            server.stop()
        server = Server(ctx, datasets)
        result.setup.append(server.wait_ready())
    try:
        clients = [Client(server.address, name, references[name]) for name in datasets]
        # One job per tenant before the window fills each warm session's caches.
        for client in clients:
            _, error, _ = client.op()
            result.attempted += 1
            if error is not None:
                result.failures.append(f"warm-up {client.dataset}: {error}")
        traced: list[dict] = []
        lock = threading.Lock()
        start = clock()
        untimed_until = start + (ctx.seconds / 2 if ctx.trace else ctx.seconds)
        until = start + ctx.seconds

        def loop(client: Client) -> None:
            while clock() < untimed_until:
                seconds, error, _ = client.op()
                with lock:
                    result.record(seconds, error)
            traced_once = False
            while ctx.trace and (clock() < until or not traced_once):
                traced_once = True
                with lock:
                    n = len(result.traced_walls)
                    result.traced_walls.append(0.0)
                    result.attempted += 1
                seconds, error, job = client.op(result.spans, n)
                with lock:
                    result.traced_walls[n] = seconds
                    if error is not None:
                        result.failures.append(f"traced: {error}")
                        continue
                layers = _job_layers(job, client.trace(job["id"]), seconds)
                with lock:
                    traced.append(layers)

        def guarded(client: Client) -> None:
            # A thread's exception is otherwise lost: report it as a failure.
            try:
                loop(client)
            except Exception as exc:  # noqa: BLE001 - the run must report, not hang
                with lock:
                    result.failures.append(f"client {client.dataset}: {exc!r}")

        threads = [threading.Thread(target=guarded, args=(c,)) for c in clients]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        result.wall = clock() - start
        result.peak_rss_mb = proc_peak_rss_mb(server.proc.pid)
        for client in clients:
            client.close()
    finally:
        server.stop()
    if ctx.trace:
        n = max(1, len(traced))
        names = [k for k in (traced[0] if traced else {}) if k != "counters"]
        means = {k: sum(t[k] for t in traced) / n for k in names}
        read_s, create_s = load_seconds(list(datasets.values()))
        result.layers = {
            **means,
            **counter_layers([t["counters"] for t in traced]),
            "import.repro_s": import_seconds(ctx),
            "relational.read_csv_s": read_s,
            "backend.create_s": create_s,
        }
    return result


WORKLOADS = {
    "enedis_cold": lambda ctx: cli_workload(ctx, enedis_csv(ctx.work, ctx.seed, 0.5), "heuristic"),
    "vaccine_exact": lambda ctx: cli_workload(ctx, vaccine_csv(ctx.work, ctx.seed), "exact"),
    "enedis_append": append_workload,
    "serve_two_tenants": serve_workload,
}
