"""Command-line frontend: simulate, evolve, verify, compose, assoc.

All results go to stdout as plain text, each line as soon as it is made, and
diagnostics to stderr.  Exit codes: 0 success/PASS, 1 verification FAIL, 2
usage or parse error, 3 resource limit.

The argument parser is built once per process, on the first ``main`` call,
and reused after that: ``main(argv)`` may be called repeatedly in one process,
and each call parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .encoding import (
    decode_config,
    encode_config,
    encode_machine,
    restrict_k_nonzero,
)
from .errors import DEFAULT_CAP, MachineFormatError, ResourceLimit, TensorError
from .harness import Check, mixed_assoc_trial, type2_assoc_trial, verify_evolution, verify_power
from .machine import (
    Configuration,
    Machine,
    RunStatus,
    initial_configuration,
    oracle_run,
    parse_document,
)
# type1 stays bound here although no command calls it: perfbench's tracer test
# checks that every module binding of type1 is wrapped, this one included.
from .products import evolve, type1, type2_power  # noqa: F401
from .tensor import Dims, SparseTensor


def _config_line(machine: Machine, t: int, config: Configuration) -> str:
    tape = " ".join(machine.symbol_name(j) for j in config.tape)
    return f"t={t} state={machine.state_name(config.state)} head={config.head} tape={tape}"


def _load(args: argparse.Namespace) -> tuple[Machine, list[str] | None]:
    """The machine and its tape tokens; ``--tape`` wins over the file's tape
    line, and the tokens are None when neither gives a tape."""
    doc = parse_document(Path(args.machine_file).read_text())
    if args.tape is not None:
        return doc.machine, args.tape.split()
    return doc.machine, None if doc.tape is None else list(doc.tape)


def _load_encoded(args: argparse.Namespace) -> tuple[Machine, list[str] | None, SparseTensor]:
    """``_load``, then the machine's transition tensor at ``--cells``; the edge
    entries the window drops are reported on stderr."""
    machine, tokens = _load(args)
    b, dropped = encode_machine(machine, args.cells)
    for i, j, k in dropped:
        print(f"dropped: i={i} j={j} k={k}", file=sys.stderr)
    return machine, tokens, b


def _print_checks(report: Iterable[str | Check]) -> int:
    """Write each line of ``report`` to stdout as it comes, a ``Check`` as its
    verdict line; 0 if every check passed, else 1."""
    write = sys.stdout.write  # about a third of ``print``'s cost per line
    failed = False
    for item in report:
        if isinstance(item, Check):
            failed = failed or not item.passed
            item = item.line()
        write(item + "\n")
    return 1 if failed else 0


def cmd_simulate(args: argparse.Namespace) -> int:
    machine, tokens = _load(args)
    initial = initial_configuration(machine, tokens or [], args.cells)
    trace = oracle_run(machine, initial, args.steps)
    for t, config in enumerate(trace.configs, start=1):
        print(_config_line(machine, t, config))
    print(f"status={trace.status.value}")
    return 0


def cmd_evolve(args: argparse.Namespace) -> int:
    machine, tokens, b = _load_encoded(args)
    initial = initial_configuration(machine, tokens or [], args.cells)
    tensors = enumerate(evolve(encode_config(initial, b.dims), b, args.steps), start=1)
    dump_dir = args.dump_dir
    if dump_dir is not None:
        dump_dir.mkdir(parents=True, exist_ok=True)
        (dump_dir / "B.tsv").write_text(b.to_text())

    def dump(t: int, a_t: SparseTensor) -> None:
        if dump_dir is not None:
            (dump_dir / f"A_{t}.tsv").write_text(a_t.to_text())

    # The first empty restriction is where the machine left the window.
    status = RunStatus.STEP_LIMIT
    for t, a_t in tensors:
        dump(t, a_t)
        restricted = restrict_k_nonzero(a_t)
        if restricted.is_zero:
            print(f"t={t} nnz={a_t.nnz} status=overflow")
            status = RunStatus.OVERFLOW
            break
        config = decode_config(restricted)
        print(_config_line(machine, t, config))
        halted = config.state in machine.halt_states
        print(f"t={t} nnz={a_t.nnz} status={'halted' if halted else 'ok'}")
        if halted:
            status = RunStatus.HALTED
            break
    print(f"status={status.value}")

    # Multiplying stops at the halt or overflow line; only a dump reads on.
    if dump_dir is not None:
        for t, a_t in tensors:
            dump(t, a_t)
    if args.strict and status is RunStatus.OVERFLOW:
        return 1
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    machine, tokens, b = _load_encoded(args)
    return _print_checks(verify_evolution(machine, tokens or [], b, args.steps))


def cmd_compose(args: argparse.Namespace) -> int:
    machine, tokens, b = _load_encoded(args)
    composed = type2_power(b, args.power, cap=args.cap)
    print(f"power={args.power} upper={composed.upper_count} nnz={composed.nnz}")
    if tokens is None:
        return 0
    return _print_checks(verify_power(machine, tokens, composed, args.power, args.steps))


def cmd_assoc(args: argparse.Namespace) -> int:
    dims = Dims(cells=args.cells, symbols=args.symbols, states=args.states + 1)

    # A generator: each trial runs only once the previous trial's lines are
    # printed, so the lines before a ResourceLimit still reach stdout.
    def checks() -> Iterator[Check]:
        for seed in range(args.seed, args.seed + args.trials):
            yield mixed_assoc_trial(dims, args.p, args.q, args.density, seed, cap=args.cap)
            if args.r is not None:
                yield from type2_assoc_trial(
                    dims, args.p, args.q, args.r, args.density, seed, cap=args.cap
                )

    return _print_checks(checks())


def _count(minimum: int) -> Callable[[str], int]:
    """Argparse type for an integer count of at least ``minimum``."""

    def count(text: str) -> int:  # argparse names the type "count" in its errors
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return count


def _dump_dir(text: str) -> Path:
    """Argparse type for ``--dump-dir``; ``Path("")`` is the working directory."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return Path(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser definition, built on the first call and shared after,
    so callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="tmtensor",
        description="Turing machines as exact sparse integer tensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    machine_args = argparse.ArgumentParser(add_help=False)
    machine_args.add_argument("machine_file", help="machine description file")
    machine_args.add_argument("--tape", help='initial tape tokens, e.g. "1 1" (overrides the file)')
    machine_args.add_argument("--cells", type=_count(1), default=8, help="window size N (default 8)")

    step_args = argparse.ArgumentParser(add_help=False)
    step_args.add_argument("--steps", type=_count(0), default=20, help="step budget T (default 20)")

    p = sub.add_parser(
        "simulate", parents=[machine_args, step_args], help="print the simulator trace"
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "evolve", parents=[machine_args, step_args], help="print the decoded tensor trajectory"
    )
    p.add_argument("--dump-dir", type=_dump_dir, help="write A_<t>.tsv and B.tsv dumps here")
    p.add_argument("--strict", action="store_true", help="exit nonzero on window overflow")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser(
        "verify",
        parents=[machine_args, step_args],
        help="compare tensor evolution against the simulator",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "compose", parents=[machine_args], help="build a composition power and check its action"
    )
    p.add_argument("--power", type=_count(1), default=2, help="composition exponent (default 2)")
    p.add_argument(
        "--steps", type=_count(1), default=1, help="applications to check against the simulator"
    )
    p.add_argument("--cap", type=_count(0), default=DEFAULT_CAP, help="entry budget for composition")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("assoc", help="run associativity trials on random tensors")
    p.add_argument("--cells", type=_count(1), default=2, help="window size N (default 2)")
    p.add_argument("--symbols", type=_count(1), default=2, help="symbol count incl. blank (default 2)")
    p.add_argument("--states", type=_count(1), default=1, help="real state count, excl. slot 0 (default 1)")
    p.add_argument("--p", type=_count(1), default=1, help="upper count of the first tensor")
    p.add_argument("--q", type=_count(1), default=1, help="upper count of the second tensor")
    p.add_argument("--r", type=_count(1), help="upper count of the third tensor (enables pure trials)")
    p.add_argument("--trials", type=_count(1), default=20, help="number of seeded trials")
    p.add_argument("--seed", type=int, default=0, help="first seed")
    p.add_argument("--density", type=float, default=0.2, help="nonzero probability per coordinate")
    p.add_argument("--cap", type=_count(0), default=DEFAULT_CAP, help="entry budget for composition")
    p.set_defaults(func=cmd_assoc)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    Safe to call repeatedly in one process: the parser is shared, but each call
    parses ``argv`` into a fresh namespace and nothing else is kept.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ResourceLimit, MachineFormatError, TensorError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ResourceLimit) else 2


if __name__ == "__main__":
    raise SystemExit(main())
