"""The tmtensor benchmark: seeded batches of in-process CLI jobs.

Run from the root of a checkout:

    python3 perfbench/run.py                      # all workloads, seed 0
    python3 perfbench/run.py --workload evolve-wide --seed 3 --trace 0

Each workload runs in a fresh child process (`worker.py`), so its peak RSS
is its own.  With `--trace 0` the end-to-end metrics are printed by name and
unit; `setup_s` is the median over SETUP_PROBES set-up-only children.  Every
end-to-end time is scaled by the yardstick (`yardstick.py`) timed beside it.
With `--trace 1` a separate run wraps the package's public
functions and prints the per-layer metrics instead.  The last stdout line is
one JSON object with `correct`, `attempted`, `failed` and `metrics`; the full
results, and the spans of a traced run, go to `.bench_out/`.  The exit code is
1 when any job's output check fails, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yardstick
from workloads import WORKLOADS

WORKER = Path(__file__).with_name("worker.py")
OUT_DIR = Path(".bench_out")
SETUP_PROBES = 9
# Wall-clock budget of one workload, set-up probes included.
BUDGET_S = 170


def run_seconds() -> int:
    """The run length BENCHMARK.json gives every run: the default --seconds."""
    return json.loads(Path(__file__).parents[1].joinpath("BENCHMARK.json").read_text())["run_seconds"]


class BenchError(Exception):
    pass


def spawn(options: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    command = [sys.executable, str(WORKER), *options, "--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, env=env,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(options)}") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + BUDGET_S
    options = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--out-dir", str(OUT_DIR)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            before = [yardstick.one_pass() for _ in range(yardstick.SETUP_PASSES)]
            probe = spawn(options + ["--setup-only"], deadline)
            setups.append(probe["setup_s"] * yardstick.scale(before + probe["gauge"]))
    result = spawn(options, deadline)
    if not trace:
        result["metrics"] = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                             **result["metrics"]}
        result["setup_samples"] = setups
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(result, indent=1))
    return result


def report(result: dict) -> None:
    name = result["workload"]
    print(f"{name}: seed {result['seed']}, {result['attempted']} jobs, {result['failed']} failed")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:40s} {entry['value']:<14.6g} {entry['unit']}")
    if "failed_ratio" in result:
        print(f"  {'failed_ratio':40s} {result['failed_ratio']:<14.6g} 1")
        print(f"  job_s samples {result['samples']} in {len(result['batch_seconds'])} batches")
    print(f"  stdout_sha256 (first batch) {result['stdout_sha256']}")
    for line in result["failures"]:
        print(f"  FAILED {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not Path("src/tmtensor").is_dir():
        print("error: run from the root of a tmtensor checkout (src/tmtensor not found)",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [measure(name, args.seed, args.seconds, args.trace) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        report(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
