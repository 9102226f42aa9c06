"""Verification battery: simulator-vs-tensor equivalence, yielded one compared
step at a time, associativity trials on seeded random tensors, nonzero-count
audits, and the reproducible random generators behind them.

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
from typing import Iterator

from .encoding import MachineEncoding, encode_config, restrict_k_nonzero
from .errors import DEFAULT_CAP, ResourceLimit
from .machine import Machine, RunStatus, initial_configuration, oracle_run
from .products import evolve, type1, type2
from .tensor import Coord, Dims, Quad, SparseTensor, format_coord

# Random configuration tensors applied to both composites of a re-association
# trial whose composites differ.
ACTION_SAMPLES = 10
# Random tensor values lie in 1..VALUE_BOUND.
VALUE_BOUND = 3


@dataclass(frozen=True)
class Check:
    """One verdict.  :meth:`line` writes it as ``CHECK`` followed by
    ``<name>[ <detail>] -> PASS|FAIL[ witness="<coord>"]``."""

    name: str
    detail: str
    passed: bool
    witness: tuple[Quad, ...] | None = None

    def line(self) -> str:
        subject = f"{self.name} {self.detail}" if self.detail else self.name
        verdict = "PASS" if self.passed else "FAIL"
        if self.witness is not None:
            verdict += f' witness="{format_coord(self.witness)}"'
        return f"CHECK {subject} -> {verdict}"


def _random_tensor(
    rng: Random, dims: Dims, upper_count: int, density: float, value_bound: int
) -> SparseTensor:
    if not 0 < density <= 1:
        raise ValueError("density must lie in (0, 1]")
    if value_bound < 1:
        raise ValueError("value_bound must be >= 1")
    if upper_count < 0:
        raise ValueError("upper_count must be >= 0")
    # One draw per coordinate: refuse before drawing when that is over the cap.
    # Every Dims has at least 2 quads and 2 ** DEFAULT_CAP.bit_length() is over
    # the cap, so wider keys are refused without working out their draws.
    groups = upper_count + 1
    if groups >= DEFAULT_CAP.bit_length() or dims.quad_count ** groups > DEFAULT_CAP:
        raise ResourceLimit(f"random tensor would take {dims.quad_count}^{groups} draws, cap is {DEFAULT_CAP}")
    quads = list(dims.iter_quads())
    entries: dict[Coord, int] = {}
    for coord in itertools.product(quads, repeat=groups):
        if rng.random() < density:
            entries[dims.pack(coord)] = 1 + int(rng.random() * value_bound)
    return SparseTensor(dims, upper_count, entries)


def random_tensor(
    dims: Dims, upper_count: int, density: float, value_bound: int, seed: int
) -> SparseTensor:
    """Seeded random integer tensor: each coordinate is present with probability
    ``density`` and carries a value in 1..value_bound."""
    return _random_tensor(Random(seed), dims, upper_count, density, value_bound)


def _first_difference(t1: SparseTensor, t2: SparseTensor) -> Coord | None:
    e1, e2 = t1.entries, t2.entries
    return min((c for c in e1.keys() | e2.keys() if e1.get(c, 0) != e2.get(c, 0)), default=None)


def _run(
    machine: Machine,
    tape: list[str] | tuple[str, ...],
    transition: SparseTensor,
    stride: int,
    applications: int,
) -> Iterator[tuple[SparseTensor, SparseTensor]]:
    """Apply ``transition`` ``applications`` times and simulate ``stride *
    applications`` steps from one initial configuration, yielding for a = 0..
    applications the restriction of the tensor after a applications and the
    encoded configuration at trajectory index a * stride.  Past the end of the
    simulation a halted run holds its last configuration and an overflowed run
    is empty.  Each compared configuration is encoded once, when first needed."""
    dims = transition.dims
    initial = initial_configuration(machine, tape, dims.cells)
    expected = encode_config(initial, dims)
    # Evolve first: its refusal of a negative count names ``steps``, as callers do.
    tensors = evolve(expected, transition, applications)
    trace = oracle_run(machine, initial, stride * applications)
    configs = trace.configs
    # Index len(configs), the overflow step, stands for the empty tensor.
    last = len(configs) if trace.status is RunStatus.OVERFLOW else len(configs) - 1
    index = 0
    for a, a_t in enumerate(tensors):
        step = min(a * stride, last)
        if step != index:
            index = step
            expected = encode_config(configs[index], dims) if index < len(configs) else SparseTensor(dims, 0, {})
        yield restrict_k_nonzero(a_t), expected


def verify_evolution(
    machine: Machine,
    tape: list[str] | tuple[str, ...],
    transition: SparseTensor,
    steps: int,
) -> Iterator[str | Check]:
    """Check that restricting each tensor evolved by ``transition`` re-encodes
    the simulator's configuration at that step, with halting absorbed and
    overflow coinciding.  Yields a ``t=<t> agree=yes|no`` line per compared
    step, an ``overflow`` line, then the verdict; a refusal raises before the
    first line.  Once both sides' overflows are known, nothing more is computed."""
    run = enumerate(_run(machine, tape, transition, 1, steps))
    overflow = oracle_overflow = None
    agreed = True
    for a, (restricted, expected) in run:
        if overflow is None and restricted.is_zero:
            overflow = a
        if expected.is_zero:  # the simulator left the window at step a
            oracle_overflow = a
            break
        ok = restricted == expected
        agreed = agreed and ok
        yield f"t={a + 1} agree={'yes' if ok else 'no'}"
    if overflow is None:
        overflow = next((a for a, (restricted, _) in run if restricted.is_zero), None)
    overflow_agree = overflow == oracle_overflow
    tensor = "no" if overflow is None else f"step {overflow}"
    yield (
        f"overflow oracle={'no' if oracle_overflow is None else 'yes'} tensor={tensor} "
        f"agree={'yes' if overflow_agree else 'no'}"
    )
    yield Check("evolution", "", overflow_agree and agreed)


def verify_power(
    machine: Machine,
    tape: list[str] | tuple[str, ...],
    transition: SparseTensor,
    power: int,
    steps: int,
) -> Iterator[Check]:
    """Check that each application of ``transition`` advances the simulator
    ``power`` steps, absorbing once halted and empty once off the window.
    Yields one check per application as it is made; a refusal raises before
    the first."""
    if power < 1:
        raise ValueError("power must be >= 1")
    # Application 0 would compare the initial configuration with itself.
    run = itertools.islice(_run(machine, tape, transition, power, steps), 1, None)
    for application, (restricted, expected) in enumerate(run, start=1):
        yield Check("compose-action", f"step={application * power}", restricted == expected)


def mixed_assoc_trial(
    dims: Dims,
    p: int,
    q: int,
    density: float,
    seed: int,
    cap: int = DEFAULT_CAP,
) -> Check:
    """Compare applying two transition tensors in sequence against applying
    their composition once, on random integer tensors; exact equality."""
    rng = Random(seed)
    a = _random_tensor(rng, dims, 0, density, VALUE_BOUND)
    b = _random_tensor(rng, dims, p, density, VALUE_BOUND)
    c = _random_tensor(rng, dims, q, density, VALUE_BOUND)
    lhs = type1(type1(a, b), c)
    rhs = type1(a, type2(b, c, cap=cap))
    witness = _first_difference(lhs, rhs)
    quads = None if witness is None else dims.unpack(witness, 0)
    return Check("mixed-assoc", f"seed={seed}", witness is None, quads)


def type2_assoc_trial(
    dims: Dims,
    p: int,
    q: int,
    r: int,
    density: float,
    seed: int,
    cap: int = DEFAULT_CAP,
) -> list[Check]:
    """Re-association of the composition product, checked entry by entry (as
    derived in :func:`~tmtensor.products.type2`) and by what both composites do
    to random configuration tensors.  Equal composites act alike, so the action
    is sampled only when they differ."""
    rng = Random(seed)
    b = _random_tensor(rng, dims, p, density, VALUE_BOUND)
    c = _random_tensor(rng, dims, q, density, VALUE_BOUND)
    f = _random_tensor(rng, dims, r, density, VALUE_BOUND)
    left = type2(type2(b, c, cap=cap), f, cap=cap)
    right = type2(b, type2(c, f, cap=cap), cap=cap)

    entrywise = left == right
    action = True
    if not entrywise:
        for _ in range(ACTION_SAMPLES):
            a = _random_tensor(rng, dims, 0, density, VALUE_BOUND)
            if type1(a, left) != type1(a, right):
                action = False
                break
    return [
        Check("type2-assoc-action", f"seed={seed}", action),
        Check("type2-assoc-entrywise", f"seed={seed}", entrywise),
    ]


def audit_nnz(machine: Machine, encoding: MachineEncoding) -> Check:
    """Check the closed-form count of the entries of ``machine``'s encoding.

    Inactive combinations contribute (N-1) * N * (m+1) * n entries, active
    ones N * (m+1) * n minus the boundary drops, for the window N of the
    encoded tensor.
    """
    tensor, dropped = encoding
    cells, m, n = tensor.dims.cells, machine.m, machine.n
    expected = (cells - 1) * cells * (m + 1) * n + cells * (m + 1) * n - len(dropped)
    detail = f"expected={expected} actual={tensor.nnz} dropped={len(dropped)}"
    return Check("nnz-audit", detail, tensor.nnz == expected)
