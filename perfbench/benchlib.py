"""Shared pieces of the notebook benchmark: statistics, spans, processes, env.

Nothing here imports ``repro``: the traced runner must be able to open its
``import.repro`` span before the package is loaded.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Tail percentiles below this are not reported as a tail (see :func:`tail`).
MIN_TAIL_PERCENTILE = 90.0

clock = time.monotonic
"""The one clock of the benchmark.  CLOCK_MONOTONIC is system-wide on Linux,
so spans recorded in a child process line up with the parent's."""


# -- statistics ---------------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(samples, beyond: int = 10) -> tuple[float, float, int]:
    """``(percentile, value, samples_beyond)`` of the tail of ``samples``.

    The tail is the highest percentile with at least ``beyond`` samples
    above it: the value of rank ``n - beyond`` in sorted order, at
    percentile ``100 * (n - beyond) / n``.  When that percentile is below
    :data:`MIN_TAIL_PERCENTILE` (fewer than ``10 * beyond`` samples) it is
    no tail at all, and the maximum is reported instead, at percentile 100
    with no samples beyond it.  A run therefore reports one kind of
    statistic regardless of small changes in its sample count.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return 100.0, 0.0, 0
    if n > beyond:
        pct = 100.0 * (n - beyond) / n
        if pct >= MIN_TAIL_PERCENTILE:
            return pct, xs[n - beyond - 1], beyond
    return 100.0, xs[-1], 0


# -- spans --------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op}


@dataclass
class SpanLog:
    """Spans kept in memory as they close; written out when the run ends.

    Parents are explicit indices, so client threads can record into one
    log without sharing a stack.
    """

    spans: list[Span] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def add(self, name: str, start: float, end: float, parent: int | None,
            op: int) -> int:
        with self._lock:
            self.spans.append(Span(name, start, end, parent, op))
            return len(self.spans) - 1

    def open(self, name: str, parent: int | None, op: int) -> int:
        """Reserve a span whose end is set by :meth:`close` (for parents)."""
        now = clock()
        return self.add(name, now, now, parent, op)

    def close(self, index: int) -> None:
        self.spans[index].end = clock()

    @contextmanager
    def span(self, name: str, parent: int | None, op: int):
        index = self.open(name, parent, op)
        try:
            yield index
        finally:
            self.close(index)

    def extend(self, spans: list[dict], parent: int | None, op: int) -> None:
        """Adopt spans written by a child process (``Span.as_dict`` form)."""
        base = len(self.spans)
        for s in spans:
            p = parent if s["parent"] is None else base + s["parent"]
            self.add(s["name"], s["start"], s["end"], p, op)

    def as_list(self) -> list[dict]:
        return [s.as_dict() for s in self.spans]


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            parent = spans[s.parent]
            lo, hi = max(s.start, parent.start), min(s.end, parent.end)
            if hi > lo:
                children.setdefault(s.parent, []).append((lo, hi))
    return [s.seconds - _covered(children.get(i, [])) for i, s in enumerate(spans)]


def self_time_table(spans: list[Span]) -> list[tuple[str, float, float]]:
    """Per span name: (name, self seconds per op, share of op wall in %).

    The ``op`` roots contribute their self time as ``unattributed``.
    Shares are of the summed root wall, so rows add up to 100%.
    """
    own = self_times(spans)
    ops = {s.op for s in spans if s.name == "op" and s.parent is None}
    wall = sum(s.seconds for s in spans if s.name == "op" and s.parent is None)
    by_name: dict[str, float] = {}
    for s, t in zip(spans, own):
        if s.op not in ops:
            continue
        name = "unattributed" if (s.name == "op" and s.parent is None) else s.name
        by_name[name] = by_name.get(name, 0.0) + t
    n = max(1, len(ops))
    rows = [(name, t / n, 100.0 * t / wall if wall else 0.0)
            for name, t in by_name.items()]
    return sorted(rows, key=lambda r: -r[1])


# -- processes ----------------------------------------------------------------


def program_env(extra: dict | None = None) -> dict:
    """The environment the program runs under: no ``REPRO_*`` knobs.

    CI matrices set backend, kernel, workers, shared memory and MQO
    through ``REPRO_*``; the benchmark measures the default configuration.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    env.update(extra or {})
    return env


def pin_own_env() -> None:
    """Apply :func:`program_env` to this process before ``repro`` loads."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass
class ChildRun:
    """One finished child process: exit code, timings, output, peak RSS."""

    returncode: int
    start: float
    end: float
    lines: list[tuple[float, str]]
    peak_rss_mb: float

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def first_line_time(self, prefix: str) -> float | None:
        for t, line in self.lines:
            if line.startswith(prefix):
                return t
        return None


def run_child(argv: list[str], *, env: dict, cwd: Path, timeout: float) -> ChildRun:
    """Run ``argv`` to completion, stamping each stdout line on arrival.

    Peak RSS comes from the child's own rusage (``wait4``), so it is the
    program's footprint, not the benchmark's.
    """
    start = clock()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
        cwd=cwd, text=True,
    )
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    lines: list[tuple[float, str]] = []
    try:
        for line in proc.stdout:
            lines.append((clock(), line.rstrip("\n")))
        _, status, usage = os.wait4(proc.pid, 0)
        end = clock()
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    return ChildRun(proc.returncode, start, end, lines, usage.ru_maxrss / 1024.0)


def own_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak RSS (VmHWM) of a live process; 0.0 where /proc is unavailable."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# -- environment record -------------------------------------------------------


def _blas_vendor() -> str:
    try:
        import numpy as np

        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        return f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        return "unknown"


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """sha256 over ``src/**/*.py``: identifies the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_vendor(),
        "git_commit": _git_commit(),
        "source_digest": source_digest(),
    }


def dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)
