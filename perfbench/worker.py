"""One benchmark process: set up, run a workload's closed loop, check, report.

`run.py` starts this file once per measurement, from the root of a checkout
with `src` on PYTHONPATH, and reads the JSON object on its last stdout line.
One client, one thread: each job starts when the previous one returns.

Untraced (`--trace 0`): whole batches run until the loop has taken about
`--seconds` and at least MIN_BATCHES batches have run; one yardstick pass is
timed after each job, and the end-to-end times are scaled by them.  Traced
(`--trace 1`): the first batch runs untraced and traced in turn until
`--seconds` have passed; every traced pass must give the same counts, and the
spans of the first traced pass are written to the output directory.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import resource
import statistics
import time
from pathlib import Path
from typing import Iterator

from jobs import Outcome, failure, run_job, simulate_argv
from tracer import COUNT_NAMES, TARGETS, Tracer, self_times
from workloads import WORKLOADS, Job, batches
import yardstick

from tmtensor import cli

# 8 batches of 15 jobs put at least ten samples beyond the 90th percentile.
MIN_BATCHES = 8
# The machine's speed can change within a second, so a job is scaled by the
# yardstick passes timed within a few jobs of it.
GAUGE_NEIGHBOURS = 2

Ran = list[tuple[Job, Outcome]]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def check(ran: Ran) -> list[str | None]:
    """Failure reason per job; `evolve` traces are compared with `simulate` here,
    after the timed loop."""
    references: dict[tuple[str, ...], Outcome] = {}
    reasons = []
    for job, outcome in ran:
        reference = None
        argv = simulate_argv(job)
        if argv is not None:
            if argv not in references:
                references[argv] = run_job(cli.main, argv)
            reference = references[argv]
        reasons.append(failure(job, outcome, reference))
    return reasons


def stdout_sha256(ran: Ran) -> str:
    digest = hashlib.sha256()
    for job, outcome in ran:
        digest.update(f"$ {' '.join(job.argv)}\nexit {outcome.code}\n".encode())
        digest.update(outcome.stdout.encode())
    return digest.hexdigest()


def run_batch(batch: list[Job], ran: Ran, tracer: Tracer | None = None,
              gauge: list[float] | None = None) -> float:
    """Run the jobs in order; with ``gauge``, append the time of one yardstick pass after each job."""
    start = time.perf_counter()
    for index, job in enumerate(batch):
        if tracer is not None:
            tracer.job = index
        ran.append((job, run_job(cli.main, job.argv)))
        if gauge is not None:
            gauge.append(yardstick.one_pass())
    return time.perf_counter() - start


def summary(ran: Ran, first_batch: int) -> dict:
    """The result's check fields."""
    failed = [(job, reason) for (job, _), reason in zip(ran, check(ran)) if reason]
    return {
        "correct": not failed,
        "attempted": len(ran),
        "failed": len(failed),
        "failures": [f"{' '.join(job.argv)}: {reason}" for job, reason in failed[:5]],
        "stdout_sha256": stdout_sha256(ran[:first_batch]),
    }


def scaled(wall: list[float], gauge: list[float]) -> list[float]:
    """Each job's seconds scaled by the median of the yardstick passes timed after
    it and after the GAUGE_NEIGHBOURS jobs on either side of it."""
    return [
        seconds * yardstick.scale(gauge[max(0, i - GAUGE_NEIGHBOURS):i + GAUGE_NEIGHBOURS + 1])
        for i, seconds in enumerate(wall)
    ]


def timed_run(first: list[Job], rest: Iterator[list[Job]], seconds: float) -> dict:
    """Whole batches until about ``seconds`` have passed; job times are `scaled`."""
    ran: Ran = []
    gauge: list[float] = []
    batch_seconds: list[float] = []
    for batch in itertools.chain([first], rest):
        batch_seconds.append(run_batch(batch, ran, gauge=gauge))
        # Stop at a batch boundary, so a run holds whole batches of the same mix.
        if len(batch_seconds) >= MIN_BATCHES and sum(batch_seconds) >= seconds - statistics.mean(batch_seconds) / 2:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = summary(ran, len(first))
    wall = [outcome.seconds for _, outcome in ran]
    latencies = scaled(wall, gauge)
    result["metrics"] = {
        "jobs_per_s": metric((result["attempted"] - result["failed"]) / sum(latencies), "1/s"),
        "job_s.p50": metric(statistics.median(latencies), "s"),
        "job_s.p90": metric(p90(latencies), "s"),
        "peak_rss_mib": metric(peak_rss_mib, "MiB"),
    }
    result.update(
        failed_ratio=result["failed"] / result["attempted"],
        samples=len(latencies),
        batch_seconds=batch_seconds,
        job_seconds=latencies,
        job_wall_seconds=wall,
        yardstick_seconds=gauge,
    )
    return result


def traced_run(first: list[Job], seconds: float, spans_path: Path) -> dict:
    ran: Ran = []
    tracer = Tracer()
    untraced, traced, passes, counts, spans = [], [], [], [], []
    while not traced or sum(untraced) + sum(traced) < seconds:
        untraced.append(run_batch(first, ran))
        tracer.reset()
        tracer.install()
        try:
            traced.append(run_batch(first, ran, tracer))
        finally:
            tracer.uninstall()
        spans = spans or tracer.spans
        passes.append(self_times(tracer.spans))
        counts.append(dict(tracer.counts))
    write_spans(spans, spans_path)

    result = summary(ran, len(first))
    repeated = [(c, {name: v[0] for name, v in p.items()}) for c, p in zip(counts, passes)]
    if any(r != repeated[0] for r in repeated):
        result["correct"] = False
        result["failures"].append("per-layer counts differ between traced passes")

    metrics = {}
    for target in TARGETS:
        calls = passes[0].get(target.name, (0, 0.0, 0.0))[0]
        metrics[f"{target.name}.calls"] = metric(calls, "count")
        for column, suffix in ((1, "total_s"), (2, "self_s")):
            values = [p.get(target.name, (0, 0.0, 0.0))[column] for p in passes]
            metrics[f"{target.name}.{suffix}"] = metric(statistics.median(values), "s")
    for name in COUNT_NAMES:
        metrics[name] = metric(counts[0].get(name, 0), "count")
    scanned = counts[0].get("products.type1.scanned", 0)
    out_nnz = counts[0].get("products.type1.out_nnz", 0)
    metrics["products.type1.yield"] = metric(out_nnz / scanned if scanned else 0.0, "1")
    # Each traced pass is paired with the untraced pass just before it.
    ratios = [t / u for t, u in zip(traced, untraced)]
    metrics["trace.overhead_ratio"] = metric(statistics.median(ratios), "1")
    accounted = [sum(v[2] for v in p.values()) / wall for p, wall in zip(passes, traced)]
    metrics["trace.accounted_ratio"] = metric(statistics.median(accounted), "1")
    result["metrics"] = metrics
    result.update(passes=len(passes), spans=str(spans_path))
    return result


def write_spans(spans, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        out.write("id\tparent\tname\tstart\tend\tjob\n")
        for span_id, parent, name, start, end, job in spans:
            out.write(f"{span_id}\t{'' if parent is None else parent}\t{name}\t{start!r}\t{end!r}\t{job}\n")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this process was started")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()

    stream = batches(args.workload, args.seed)
    first = next(stream)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    if args.setup_only:
        result = {"gauge": [yardstick.one_pass() for _ in range(yardstick.SETUP_PASSES)]}
    elif args.trace:
        spans_path = Path(args.out_dir) / f"spans-{args.workload}-seed{args.seed}.tsv"
        result = traced_run(first, args.seconds, spans_path)
    else:
        result = timed_run(first, stream, args.seconds)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
