"""Quick tests of the benchmark itself (small inputs, a few seconds).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from benchlib import ROOT, Span, SpanLog, pin_own_env, self_time_table, self_times, tail  # noqa: E402

pin_own_env()

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Context, Result  # noqa: E402


@pytest.fixture
def small_csv(tmp_path) -> Path:
    from repro.datasets import covid_table
    from repro.relational import write_csv

    path = tmp_path / "covid.csv"
    write_csv(covid_table(200, 5), path)
    return path


def _ctx(tmp_path, **kw) -> Context:
    return Context(seed=5, seconds=0.01, trace=False, work=tmp_path, **kw)


# -- helpers on fixed inputs ----------------------------------------------------


def test_tail_is_highest_percentile_with_ten_beyond():
    samples = list(range(1, 201))  # 1..200
    pct, value, beyond = tail(samples)
    assert (pct, value, beyond) == (95.0, 190, 10)
    assert sum(s > value for s in samples) == 10


def test_tail_at_exactly_p90():
    pct, value, beyond = tail(list(range(100, 0, -1)))
    assert (pct, value, beyond) == (90.0, 90, 10)


def test_tail_falls_back_to_max_below_p90():
    assert tail([3.0, 1.0, 2.0]) == (100.0, 3.0, 0)
    assert tail(list(range(99))) == (100.0, 98, 0)
    assert tail([]) == (100.0, 0.0, 0)


def test_self_times_subtract_covered_child_time():
    spans = [
        Span("op", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),      # overlaps a: union 1..6 = 5
        Span("a.inner", 1.5, 2.5, 1, 0),
        Span("late", 9.0, 12.0, 0, 0),  # clipped to the parent: 9..10
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_self_time_table_accounts_for_the_whole_op_wall():
    log = SpanLog()
    for op in range(2):
        root = log.add("op", 10.0 * op, 10.0 * op + 10.0, None, op)
        log.add("stats.stage", 10.0 * op + 1, 10.0 * op + 7, root, op)
        log.add("notebook.render", 10.0 * op + 7, 10.0 * op + 9, root, op)
    rows = {name: (secs, share) for name, secs, share in self_time_table(log.spans)}
    assert rows["stats.stage"] == pytest.approx((6.0, 60.0))
    assert rows["notebook.render"] == pytest.approx((2.0, 20.0))
    assert rows["unattributed"] == pytest.approx((2.0, 20.0))
    assert sum(share for _, share in rows.values()) == pytest.approx(100.0)
    assert workloads.unattributed_pct(log) == pytest.approx(20.0)


def test_child_spans_are_adopted_under_the_op():
    log = SpanLog()
    root = log.add("op", 0.0, 5.0, None, 0)
    log.extend([{"name": "a", "start": 1.0, "end": 3.0, "parent": None, "op": 0},
                {"name": "b", "start": 1.5, "end": 2.0, "parent": 0, "op": 0}], root, 0)
    assert [s.parent for s in log.spans] == [None, 0, 1]


# -- metrics and failures, on a real program run ------------------------------


def _declared(section: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def test_every_end_to_end_metric_is_emitted_with_its_unit(tmp_path, small_csv):
    result = Result()
    reference = workloads.reference_notebook(small_csv)
    workloads.cli_op(_ctx(tmp_path), small_csv, "heuristic", reference, result)
    result.wall = sum(result.latencies)
    assert result.failures == [] and result.attempted == 1
    metrics, _ = run.end_to_end(result)
    declared = _declared("end_to_end")
    assert set(metrics) == set(declared)
    assert {m: u for m, (u, _) in run.END_TO_END.items()} == declared
    assert all(v > 0 for v in metrics.values())


def test_every_per_layer_metric_is_emitted_with_its_unit(tmp_path, small_csv):
    result = Result()
    reference = workloads.reference_notebook(small_csv)
    counters = workloads.traced_cli_op(_ctx(tmp_path), small_csv, "heuristic",
                                       reference, result)
    assert result.failures == []
    result.latencies = list(result.traced_walls)
    result.layers = workloads.cli_layers(result.spans, [counters])
    workloads.finish_layers(result)
    declared = _declared("per_layer")
    assert {m: u for m, (u, _) in run.PER_LAYER.items()} == declared
    assert set(result.layers) <= set(declared)
    for name in ("import.repro_s", "stats.stage_s", "stats.candidates",
                 "generation.stage_s", "notebook.render_s"):
        assert result.layers[name] > 0, name


def test_error_rate_counts_a_killed_stage(tmp_path, small_csv):
    result = Result()
    reference = workloads.reference_notebook(small_csv)
    ctx = _ctx(tmp_path, extra_env={"REPRO_FAULTS": "generation:kill:xall"})
    workloads.cli_op(ctx, small_csv, "heuristic", reference, result)
    assert result.attempted == 1 and result.failed == 1
    assert result.failures[0].startswith("exit 1")
    _, lines = run.end_to_end(result)
    assert lines[1].startswith("error_rate 1.0000 (1 of 1 ops failed)")


def test_error_rate_counts_a_mismatched_notebook(tmp_path, small_csv):
    result = Result()
    workloads.cli_op(_ctx(tmp_path), small_csv, "heuristic", b"{}", result)
    assert result.failures == ["notebook differs from the reference"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enedis_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
