"""Differential testing on random machines.

A seeded generator draws total deterministic machines (1-3 real states, some
of them halting, 2-3 symbols, L/R moves) with a window of 2-5 cells and a
random input word.  Left alone, almost every draw halts, so draws are kept
per simulator status until each status has its quota.  Every public path must
then agree with the simulator on every case.
"""

from random import Random

import pytest

from tmtensor import (
    Machine,
    RunStatus,
    audit_nnz,
    encode_config,
    encode_machine,
    evolve,
    initial_configuration,
    machine_to_text,
    oracle_run,
    parse_machine,
    restrict_k_nonzero,
    type1,
    type2_power,
    verify_evolution,
    verify_power,
)
from tmtensor.cli import main

SEED = 2024
PER_STATUS = 60
MAX_DRAWS = 20_000


def random_machine(rng):
    n = rng.randint(1, 3)
    m = rng.randint(1, 2)
    halt = frozenset(k for k in range(2, n + 1) if rng.random() < 0.5)
    delta = {
        (j, k): (rng.randrange(m + 1), rng.randint(1, n), rng.choice((-1, 1)))
        for k in range(1, n + 1)
        if k not in halt
        for j in range(m + 1)
    }
    return Machine(
        states=tuple(f"q{k}" for k in range(1, n + 1)),
        symbols=("_", "1", "2")[: m + 1],
        halt_states=halt,
        input_symbols=frozenset(range(1, m + 1)),
        delta=delta,
    )


def draw_cases():
    """(machine, cells, tape, steps, status) tuples, PER_STATUS of each status."""
    rng = Random(SEED)
    cases = {status: [] for status in RunStatus}
    for _ in range(MAX_DRAWS):
        if all(len(kept) >= PER_STATUS for kept in cases.values()):
            break
        machine = random_machine(rng)
        cells = rng.randint(2, 5)
        alphabet = machine.symbols[1:]
        tape = [rng.choice(alphabet) for _ in range(rng.randint(0, cells))]
        steps = 2 * cells + 2
        status = oracle_run(machine, initial_configuration(machine, tape, cells), steps).status
        if len(cases[status]) < PER_STATUS:
            cases[status].append((machine, cells, tape, steps, status))
    return [case for kept in cases.values() for case in kept]


@pytest.fixture(scope="module")
def cases():
    return draw_cases()


def test_every_status_is_covered(cases):
    counts = {status: 0 for status in RunStatus}
    for *_, status in cases:
        counts[status] += 1
    assert all(count >= 50 for count in counts.values()), counts


def test_machine_text_round_trips(cases):
    for machine, *_ in cases:
        assert parse_machine(machine_to_text(machine)) == machine, machine_to_text(machine)


def test_tensor_evolution_matches_the_simulator(cases):
    for machine, cells, tape, steps, _ in cases:
        encoding = encode_machine(machine, cells)
        lines, check = verify_evolution(machine, tape, encoding.tensor, steps)
        assert check.passed, (machine_to_text(machine), cells, tape, lines)
        assert audit_nnz(machine, encoding).passed, (machine_to_text(machine), cells)


def test_q0_entries_never_interfere(cases):
    # Entries parked on state slot 0 never influence the evolution product,
    # on generated machines as on the corpus (see test_products).
    for machine, cells, tape, steps, _ in cases:
        b = encode_machine(machine, cells).tensor
        initial = encode_config(initial_configuration(machine, tape, cells), b.dims)
        for a_t in evolve(initial, b, steps):
            assert type1(a_t, b) == type1(restrict_k_nonzero(a_t), b), machine_to_text(machine)


def test_squared_tensor_advances_two_steps(cases):
    for machine, cells, tape, steps, _ in cases:
        if cells > 3:
            continue
        squared = type2_power(encode_machine(machine, cells).tensor, 2)
        for check in verify_power(machine, tape, squared, 2, steps // 2):
            assert check.passed, (machine_to_text(machine), cells, tape, check.line())


def test_cli_evolve_trace_matches_simulate(cases, tmp_path, capsys):
    for number, (machine, cells, tape, steps, _) in enumerate(cases):
        path = tmp_path / f"machine_{number}.tm"
        path.write_text(machine_to_text(machine))
        args = [str(path), "--tape", " ".join(tape), "--cells", str(cells), "--steps", str(steps)]
        outputs = []
        for command in ("simulate", "evolve"):
            assert main([command, *args]) == 0
            lines = capsys.readouterr().out.splitlines()
            outputs.append([line for line in lines if " state=" in line] + lines[-1:])
        assert outputs[0] == outputs[1], (machine_to_text(machine), args)
