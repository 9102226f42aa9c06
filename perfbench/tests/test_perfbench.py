"""Tests of the benchmark itself: `python3 -m pytest perfbench/tests` from the repo root."""

from __future__ import annotations

import sys
from itertools import count
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import yardstick  # noqa: E402
from jobs import Outcome, failure, run_job  # noqa: E402
from workloads import WORKLOADS, Job, batch, machine_path  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_job_lists_repeat_per_seed_and_differ_between_seeds(workload):
    assert batch(workload, 3, 0) == batch(workload, 3, 0)
    assert batch(workload, 3, 0) != batch(workload, 4, 0)
    assert batch(workload, 3, 0) != batch(workload, 3, 1)
    # Every batch has the same mix of job kinds.
    assert kinds(batch(workload, 3, 0)) == kinds(batch(workload, 4, 2))


def kinds(jobs: list[Job]) -> list[tuple[str, ...]]:
    """The jobs' arguments without the seeded values (evolve and verify alike)."""
    seeded = {"--tape", "--seed", "--steps"}
    return sorted(
        tuple(a for i, a in enumerate(job.argv[1:]) if job.argv[i] not in seeded)
        for job in jobs
    )


def test_self_time_of_nested_calls():
    ticks = count()
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    inner = tracer.wrap("inner", lambda: leaf_traced() + leaf_traced())
    leaf_traced = tracer.wrap("leaf", leaf)
    outer = tracer.wrap("outer", lambda: inner() + leaf_traced())
    assert outer() == 3
    # Clock reads, in order: outer 0, inner 1, leaf 2-3, leaf 4-5, inner 6, leaf 7-8, outer 9.
    assert tracing.self_times(tracer.spans) == {
        "outer": (1, 9.0, 9.0 - 5.0 - 1.0),
        "inner": (1, 5.0, 5.0 - 2.0),
        "leaf": (3, 3.0, 3.0),
    }
    parents = {span[2]: span[1] for span in tracer.spans}
    assert parents["outer"] is None and parents["inner"] == 0


def test_self_times_from_synthetic_spans():
    spans = [
        (0, None, "root", 0.0, 10.0, 7),
        (1, 0, "a", 1.0, 4.0, 7),
        (2, 1, "b", 2.0, 3.0, 7),
        (3, 0, "b", 5.0, 6.5, 7),
    ]
    times = tracing.self_times(spans)
    assert times["root"] == (1, 10.0, 10.0 - 3.0 - 1.5)
    assert times["a"] == (1, 3.0, 2.0)
    assert times["b"] == (2, 2.5, 2.5)
    assert sum(own for _, _, own in times.values()) == 10.0


def test_job_times_are_scaled_by_the_yardstick_passes_near_them():
    nominal = yardstick.NOMINAL_S
    gauge = [nominal] * 4 + [2 * nominal] * 4
    # Each job takes the median of the passes after it and two jobs either side.
    assert worker.scaled([1.0] * 8, gauge) == [1.0] * 4 + [0.5] * 4
    assert worker.scaled([0.2], [nominal / 2]) == [0.4]


def stub(code: int = 0, stdout: str = "", stderr: str = "", error: Exception | None = None):
    def main(argv):
        print(stdout, end="")
        print(stderr, end="", file=sys.stderr)
        if error is not None:
            raise error
        if code == 2:
            raise SystemExit(2)  # what argparse does on a usage error
        return code

    return main


VERIFY = Job(("verify", "m.tm"), 1)


@pytest.mark.parametrize(
    "main",
    [
        stub(1, "CHECK evolution -> PASS\n"),
        stub(2),
        stub(3, "", "error: composition would accumulate 11 terms, cap is 10\n"),
        stub(0, "CHECK evolution -> FAIL\n"),
        stub(0, ""),  # no verdict at all
        stub(0, "CHECK evolution -> PASS\n", error=KeyError("slot")),
    ],
    ids=["exit-1", "exit-2", "exit-3", "check-fail", "no-check", "raises"],
)
def test_failing_jobs_count_as_failed(main):
    ran = [(VERIFY, run_job(main, VERIFY.argv)), (VERIFY, run_job(stub(0, "CHECK evolution -> PASS\n"), VERIFY.argv))]
    result = worker.summary(ran, len(ran))
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)


def test_an_exception_in_a_job_becomes_exit_1_with_its_traceback():
    outcome = run_job(stub(error=KeyError("slot")), VERIFY.argv)
    assert outcome.code == 1
    assert "KeyError: 'slot'" in outcome.stderr


def test_dropped_lines_on_stderr_do_not_fail():
    main = stub(0, "CHECK evolution -> PASS\n", "dropped: i=1 j=0 k=1\ndropped: i=4 j=1 k=1\n")
    outcome = run_job(main, VERIFY.argv)
    assert outcome.stderr.startswith("dropped:")
    assert failure(VERIFY, outcome) is None


def test_evolve_trace_must_match_simulate():
    job = Job(("evolve", "m.tm"), 0)
    evolved = "t=1 state=q1 head=1 tape=1 _\nt=1 nnz=2 status=ok\nstatus=step-limit\n"
    same = Outcome(0, "t=1 state=q1 head=1 tape=1 _\nstatus=step-limit\n", "", 0.0)
    other = Outcome(0, "t=1 state=q2 head=1 tape=1 _\nstatus=step-limit\n", "", 0.0)
    assert failure(job, Outcome(0, evolved, "", 0.0), same) is None
    assert failure(job, Outcome(0, evolved, "", 0.0), other) == "trace differs from simulate"


def test_tracer_wraps_every_binding_and_restores_it():
    import tmtensor
    from tmtensor import cli, harness, products, tensor

    originals = (products.type1, harness.type1, cli.type1, tmtensor.type1, tensor.SparseTensor.__eq__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert products.type1 is harness.type1 is cli.type1
        assert products.type1.__wrapped__ is originals[0]
        assert tensor.SparseTensor.__eq__.__wrapped__ is originals[4]
    finally:
        tracer.uninstall()
    assert (products.type1, harness.type1, cli.type1, tmtensor.type1, tensor.SparseTensor.__eq__) == originals


def test_traced_counts_repeat_exactly(monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    jobs = [
        Job(("verify", machine_path("m1_unary_append"), "--cells", "4", "--steps", "8", "--tape", "1 1 1 1"), 1),
        Job(("evolve", machine_path("bouncer"), "--cells", "3", "--steps", "5"), 0),
        Job(("compose", machine_path("bouncer"), "--cells", "2", "--power", "3", "--steps", "2", "--tape", "1"), 2),
        Job(("assoc", "--trials", "1", "--seed", "5", "--density", "0.1", "--r", "1"), 3),
        Job(("compose", machine_path("m1_unary_append"), "--cells", "2", "--power", "2", "--cap", "10"), 0),
    ]
    first = worker.traced_run(jobs[:4], 0, tmp_path / "a.tsv")
    second = worker.traced_run(jobs[:4], 0, tmp_path / "b.tsv")
    assert first["correct"] and second["correct"]
    counted = [n for n, m in first["metrics"].items() if m["unit"] == "count"]
    assert {n: first["metrics"][n] for n in counted} == {n: second["metrics"][n] for n in counted}
    for name in ("products.type1.scanned", "products.type2.out_nnz", "encoding.encode_machine.dropped",
                 "machine.oracle_run.steps", "cli.main.calls"):
        assert first["metrics"][name]["value"] > 0
    assert (tmp_path / "a.tsv").read_text().startswith("id\tparent\tname")

    refused = worker.traced_run(jobs[4:], 0, tmp_path / "c.tsv")
    # One untraced and one traced pass, each refused with exit 3.
    assert (refused["attempted"], refused["failed"], refused["correct"]) == (2, 2, False)
    assert refused["metrics"]["products.type2.refused"]["value"] == 1
