"""Running one CLI job in-process with its output captured, and checking it."""

from __future__ import annotations

import io
import re
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable, Sequence

from workloads import Job

CHECK_LINE = re.compile(r"^CHECK .* -> (PASS|FAIL)\b", re.MULTILINE)


@dataclass(frozen=True)
class Outcome:
    code: int
    stdout: str
    stderr: str
    seconds: float


def run_job(main: Callable[[list[str]], int], argv: Sequence[str]) -> Outcome:
    """Call ``main(argv)`` with stdout and stderr captured.

    Argparse exits become codes; any other exception is the job's failure: code 1,
    with the traceback on the captured stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    seconds = time.perf_counter() - start
    return Outcome(code, out.getvalue(), err.getvalue(), seconds)


def simulate_argv(job: Job) -> tuple[str, ...] | None:
    """The `simulate` job whose trace an `evolve` job must reproduce, if any."""
    return ("simulate",) + job.argv[1:] if job.argv[0] == "evolve" else None


def trace_lines(stdout: str) -> list[str]:
    """The configuration lines (`t=… state=…`) and the final `status=` line."""
    return [
        line for line in stdout.splitlines()
        if (line.startswith("t=") and " state=" in line) or line.startswith("status=")
    ]


def failure(job: Job, outcome: Outcome, reference: Outcome | None = None) -> str | None:
    """Why the job's output is wrong, or None when it passes.

    A job fails on a nonzero exit, on any `CHECK … -> FAIL` line, on printing
    another number of `CHECK` lines than it must, or, for `evolve`, on trace
    lines that differ from the `simulate` reference.  Stderr is not judged.
    """
    if outcome.code != 0:
        return f"exit {outcome.code}"
    verdicts = CHECK_LINE.findall(outcome.stdout)
    if "FAIL" in verdicts:
        return "CHECK -> FAIL"
    if len(verdicts) != job.checks:
        return f"{len(verdicts)} CHECK lines, expected {job.checks}"
    if reference is not None and reference.code != 0:
        return f"simulate reference exit {reference.code}"
    if reference is not None and trace_lines(outcome.stdout) != trace_lines(reference.stdout):
        return "trace differs from simulate"
    return None

