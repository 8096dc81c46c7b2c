"""End-to-end benchmark of comparison-notebook generation.

Runs one workload for a measured window, checks every notebook the program
produced, prints a readable report and, as its last line, one JSON object::

    python3 perfbench/run.py --workload enedis_cold --seed 1 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics from untimed ops; ``--trace 1``
reports the per-layer metrics from a traced run and prints each layer's
self time.  ``--workload all`` runs every workload in turn.  The exit code
is 0 only when every op succeeded and every notebook matched.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from benchlib import ROOT, SRC, dump, environment, median, pin_own_env, self_time_table, tail  # noqa: E402

# name -> (unit, better); the order is the report's order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_p50_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "import.repro_s": ("s", "lower"),
    "relational.read_csv_s": ("s", "lower"),
    "backend.create_s": ("s", "lower"),
    "stats.stage_s": ("s", "lower"),
    "stats.candidates": ("count", "lower"),
    "stats.permutation_batches": ("count", "lower"),
    "stats.tests_per_batch": ("ratio", "higher"),
    "stats.skip_ratio": ("ratio", "higher"),
    "api.append_s": ("s", "lower"),
    "generation.stage_s": ("s", "lower"),
    "generation.support_ratio": ("ratio", "higher"),
    "backend.statements": ("count", "lower"),
    "cache.aggregate_hit_ratio": ("ratio", "higher"),
    "tap.solve_s": ("s", "lower"),
    "tap.exact_nodes": ("count", "lower"),
    "notebook.render_s": ("s", "lower"),
    "serve.queue_wait_s": ("s", "lower"),
    "serve.blocked_s": ("s", "lower"),
    "serve.run_s": ("s", "lower"),
    "serve.http_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.unattributed_pct": ("%", "lower"),
}

WORK = ROOT / ".perfbench_work"


def end_to_end(result) -> tuple[dict, list[str]]:
    """The JSON metrics, and the report lines for the tail and error rate.

    The tail and the error rate are printed but are no JSON metrics: a
    40 s window holds fewer than 100 ops, so the tail is the slowest op,
    too noisy to bound, and the error rate is 0 on a correct program.
    """
    n, attempted = len(result.latencies), max(1, result.attempted)
    pct, value, beyond = tail(result.latencies)
    metrics = {
        "setup_s": median(result.setup),
        "op_p50_s": median(result.latencies),
        "ops_per_s": n / result.wall if result.wall else 0.0,
        "peak_rss_mb": result.peak_rss_mb,
    }
    what = "" if beyond else ": the slowest op, too few samples for p90 with ten beyond"
    lines = [
        f"op_tail_s {value:.6f} s at p{pct:.1f}, {beyond} of {n} samples beyond it{what}",
        f"error_rate {result.failed / attempted:.4f} "
        f"({result.failed} of {result.attempted} ops failed)",
    ]
    return metrics, lines


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; print its report; return the result line's object."""
    from workloads import WORKLOADS, Context, finish_layers

    work = WORK / f"{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ctx = Context(seed=seed, seconds=seconds, trace=trace, work=work)
        result = WORKLOADS[name](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"== {name}  seed={seed}  window={seconds:g}s  trace={int(trace)}")
    if trace:
        finish_layers(result)
        metrics = {m: result.layers.get(m, 0.0) for m in PER_LAYER}
        units = PER_LAYER
        spans = WORK / "spans" / f"{name}-seed{seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        spans.write_text(dump(result.spans.as_list()))
        print(f"   spans written to {spans.relative_to(ROOT)}")
        print(f"   per-layer self time ({len(result.traced_walls)} traced ops, "
              f"seconds per op, share of op wall):")
        for span, secs, share in self_time_table(result.spans.spans):
            print(f"   {span:<24} {secs:10.4f} s {share:7.2f} %")
    else:
        metrics, lines = end_to_end(result)
        units = END_TO_END
        for line in lines:
            print(f"   {line}")
    for metric, value in metrics.items():
        print(f"   {metric:<28} {value:14.6f} {units[metric][0]}")
    for failure in result.failures[:10]:
        print(f"   FAILED: {failure}")
    return {
        "correct": not result.failures and result.attempted > 0,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "metrics": {m: {"value": v, "unit": units[m][0]} for m, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    pin_own_env()
    print("env " + dump(environment(args.seed)))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for line in lines:
        print(dump(line))
    return 0 if all(line["correct"] for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
