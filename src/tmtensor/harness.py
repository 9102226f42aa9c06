"""Verification battery: simulator-vs-tensor equivalence, associativity trials
on seeded random tensors, nonzero-count audits, and the reproducible random
generators behind them.

Randomness comes from ``random.Random(seed)`` (Mersenne Twister) using only
its ``random()`` method, whose sequence is guaranteed stable across Python
versions: one draw per coordinate in lexicographic order decides presence,
one more draw picks the value.  Identical arguments therefore reproduce
identical tensors and reports everywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from random import Random

from .encoding import encode_config, encode_machine, restrict_k_nonzero
from .machine import Machine, RunStatus, Trace, initial_configuration, oracle_run
from .products import DEFAULT_CAP, evolve, type1, type2
from .tensor import Coord, Dims, SparseTensor, format_coord


def _random_tensor(
    rng: Random, dims: Dims, upper_count: int, density: float, value_bound: int
) -> SparseTensor:
    if not 0 < density <= 1:
        raise ValueError("density must lie in (0, 1]")
    if value_bound < 1:
        raise ValueError("value_bound must be >= 1")
    quads = list(dims.iter_quads())
    entries: dict[Coord, int] = {}
    for coord in itertools.product(quads, repeat=upper_count + 1):
        if rng.random() < density:
            entries[coord] = 1 + int(rng.random() * value_bound)
    return SparseTensor(dims, upper_count, entries)


def random_config_tensor(dims: Dims, density: float, value_bound: int, seed: int) -> SparseTensor:
    return _random_tensor(Random(seed), dims, 0, density, value_bound)


def random_transition_tensor(
    dims: Dims, upper_count: int, density: float, value_bound: int, seed: int
) -> SparseTensor:
    return _random_tensor(Random(seed), dims, upper_count, density, value_bound)


def _first_difference(t1: SparseTensor, t2: SparseTensor) -> Coord | None:
    for coord in sorted(set(t1.entries) | set(t2.entries)):
        if t1.entries.get(coord, 0) != t2.entries.get(coord, 0):
            return coord
    return None


def _agrees(trace: Trace, a: SparseTensor, dims: Dims, t: int) -> bool:
    """Whether ``a`` restricts to the simulator's configuration at trajectory index
    t: held once halted, empty once off the window (the budget must reach t)."""
    restricted = restrict_k_nonzero(a)
    if t <= len(trace.configs):
        return restricted == encode_config(trace.configs[t - 1], dims)
    if trace.status is RunStatus.HALTED:
        return restricted == encode_config(trace.configs[-1], dims)
    return restricted.is_zero


@dataclass
class StepAgreement:
    t: int
    agree: bool


@dataclass
class EvolutionReport:
    """Per-step comparison of the evolved restrictions against the simulator."""

    steps: list[StepAgreement]
    oracle_status: RunStatus
    tensor_overflow_step: int | None
    overflow_agree: bool
    passed: bool

    def first_disagreement(self) -> int | None:
        for step in self.steps:
            if not step.agree:
                return step.t
        return None

    def lines(self) -> list[str]:
        out = [f"t={s.t} agree={'yes' if s.agree else 'no'}" for s in self.steps]
        oracle = "yes" if self.oracle_status is RunStatus.OVERFLOW else "no"
        tensor = "no" if self.tensor_overflow_step is None else f"step {self.tensor_overflow_step}"
        out.append(
            f"overflow oracle={oracle} tensor={tensor} "
            f"agree={'yes' if self.overflow_agree else 'no'}"
        )
        out.append(f"CHECK evolution -> {'PASS' if self.passed else 'FAIL'}")
        return out


def verify_evolution(
    machine: Machine,
    tape: list[str] | tuple[str, ...],
    dims: Dims,
    steps: int,
    b_override: SparseTensor | None = None,
) -> EvolutionReport:
    """Check that restricting each evolved tensor re-encodes the simulator's
    configuration at that step, with halting absorbed and overflow coinciding.

    ``b_override`` substitutes the transition tensor (fault injection).
    """
    initial = initial_configuration(machine, tape, dims.cells)
    trace = oracle_run(machine, initial, steps)
    b = b_override if b_override is not None else encode_machine(machine, dims).tensor
    evolution = evolve(encode_config(initial, dims), b, steps)

    # Past an overflow the overflow step is compared instead of the tensors.
    if trace.status is RunStatus.OVERFLOW:
        last = len(trace.configs)
        overflow_agree = evolution.overflow_step == last
    else:
        last = steps + 1
        overflow_agree = evolution.overflow_step is None
    agreements = [
        StepAgreement(t, _agrees(trace, evolution.tensors[t - 1], dims, t))
        for t in range(1, last + 1)
    ]
    passed = overflow_agree and all(step.agree for step in agreements)
    return EvolutionReport(agreements, trace.status, evolution.overflow_step, overflow_agree, passed)


@dataclass
class PowerReport:
    """Agreement after each application of a composition power; ``t`` is the
    trajectory index an application reaches."""

    steps: list[StepAgreement]
    passed: bool

    def lines(self) -> list[str]:
        return [
            f"CHECK compose-action step={s.t - 1} -> {'PASS' if s.agree else 'FAIL'}"
            for s in self.steps
        ]


def verify_power(
    machine: Machine,
    tape: list[str] | tuple[str, ...],
    dims: Dims,
    power_tensor: SparseTensor,
    power: int,
    steps: int,
) -> PowerReport:
    """Check that each application of ``power_tensor`` advances the simulator
    ``power`` steps, absorbing once halted and empty once off the window."""
    initial = initial_configuration(machine, tape, dims.cells)
    trace = oracle_run(machine, initial, power * steps)
    evolution = evolve(encode_config(initial, dims), power_tensor, steps)
    agreements = []
    for application in range(1, steps + 1):
        t = 1 + application * power
        agreements.append(StepAgreement(t, _agrees(trace, evolution.tensors[application], dims, t)))
    return PowerReport(agreements, all(step.agree for step in agreements))


@dataclass
class TrialResult:
    name: str
    seed: int
    passed: bool
    witness: Coord | None = None

    def line(self) -> str:
        tail = "PASS" if self.passed else "FAIL"
        if self.witness is not None:
            tail += f' witness="{format_coord(self.witness)}"'
        return f"CHECK {self.name} seed={self.seed} -> {tail}"


def mixed_assoc_trial(
    dims: Dims,
    p: int,
    q: int,
    density: float,
    seed: int,
    value_bound: int = 3,
    cap: int = DEFAULT_CAP,
) -> TrialResult:
    """Compare applying two transition tensors in sequence against applying
    their composition once, on random integer tensors; exact equality."""
    rng = Random(seed)
    a = _random_tensor(rng, dims, 0, density, value_bound)
    b = _random_tensor(rng, dims, p, density, value_bound)
    c = _random_tensor(rng, dims, q, density, value_bound)
    lhs = type1(type1(a, b), c)
    rhs = type1(a, type2(b, c, cap=cap))
    if lhs == rhs:
        return TrialResult("mixed-assoc", seed, True)
    return TrialResult("mixed-assoc", seed, False, _first_difference(lhs, rhs))


@dataclass
class Type2AssocReport:
    """Re-association of the composition product, checked by what both composites
    do to random configuration tensors and entry by entry, as derived in
    :func:`~tmtensor.products.type2`."""

    seed: int
    action_passed: bool
    entrywise_passed: bool

    def lines(self) -> list[str]:
        return [
            f"CHECK type2-assoc-{kind} seed={self.seed} -> {'PASS' if ok else 'FAIL'}"
            for kind, ok in (("action", self.action_passed), ("entrywise", self.entrywise_passed))
        ]


def type2_assoc_trial(
    dims: Dims,
    p: int,
    q: int,
    r: int,
    density: float,
    seed: int,
    value_bound: int = 3,
    action_samples: int = 10,
    cap: int = DEFAULT_CAP,
) -> Type2AssocReport:
    rng = Random(seed)
    b = _random_tensor(rng, dims, p, density, value_bound)
    c = _random_tensor(rng, dims, q, density, value_bound)
    f = _random_tensor(rng, dims, r, density, value_bound)
    left = type2(type2(b, c, cap=cap), f, cap=cap)
    right = type2(b, type2(c, f, cap=cap), cap=cap)

    action_passed = True
    for _ in range(action_samples):
        a = _random_tensor(rng, dims, 0, density, value_bound)
        if type1(a, left) != type1(a, right):
            action_passed = False
            break
    return Type2AssocReport(seed, action_passed, left == right)


@dataclass
class AuditReport:
    passed: bool
    expected: int
    actual: int
    dropped: int

    def line(self) -> str:
        return (
            f"CHECK nnz-audit expected={self.expected} actual={self.actual} "
            f"dropped={self.dropped} -> {'PASS' if self.passed else 'FAIL'}"
        )


def audit_nnz(
    machine: Machine,
    dims: Dims,
    tensor: SparseTensor | None = None,
    dropped: list[tuple[int, int, int]] | None = None,
) -> AuditReport:
    """Check the closed-form count of transition-tensor entries.

    Inactive combinations contribute (N-1) * N * (m+1) * n entries, active
    ones N * (m+1) * n minus the boundary drops.  Pass a ``tensor`` (and its
    ``dropped`` list) to audit an existing encoding instead of a fresh one.
    """
    if tensor is None or dropped is None:
        built = encode_machine(machine, dims)
        tensor = built.tensor if tensor is None else tensor
        dropped = built.dropped if dropped is None else dropped
    cells, m, n = dims.cells, machine.m, machine.n
    expected = (cells - 1) * cells * (m + 1) * n + cells * (m + 1) * n - len(dropped)
    return AuditReport(tensor.nnz == expected, expected, tensor.nnz, len(dropped))
