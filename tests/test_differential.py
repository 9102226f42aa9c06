"""Differential testing against the simulator, on two finite domains and on
random machines.

Every machine of the two smallest classes (one or two real states, two
symbols) is run at windows 3 and 4.  Every configuration of a window is
advanced by one application of a corpus machine's tensor or of its square,
and, at windows 3 and 4, of the composite of every ordered pair of machines
of the smallest class.  Drawn triples of the next class are composed both ways
round at window 3; the two composites must be equal and act as the three
machines in turn.
A seeded generator draws total deterministic machines from the larger classes
(1-3 real states, some of them halting, 2-3 symbols, L/R moves) with a window
of 2-5 cells and a random input word.  Left alone, almost every draw halts, so
draws are kept per simulator status until each status has its quota.  Every
public path must then agree with the simulator on every case.
"""

import itertools
from random import Random

import pytest

from tmtensor import (
    Configuration,
    Machine,
    RunStatus,
    SparseTensor,
    audit_nnz,
    encode_config,
    encode_machine,
    evolve,
    initial_configuration,
    machine_to_text,
    oracle_run,
    oracle_step,
    parse_machine,
    restrict_k_nonzero,
    type1,
    type2,
    type2_power,
    verify_evolution,
    verify_power,
)
from tmtensor.cli import main

from conftest import machine_text, quads_of, tensor_of

SEED = 2024
PER_STATUS = 60
TRIPLES = 30
MAX_DRAWS = 20_000
# The classes of n real states and m + 1 symbols that are checked machine by
# machine, with their sizes; random draws come from the other classes.
ENUMERATED = {(1, 1): 16, (2, 1): 4_160}
DRAWN = [(n, m) for n in (1, 2, 3) for m in (1, 2) if (n, m) not in ENUMERATED]


def make_machine(n, m, halt, delta):
    return Machine(
        states=tuple(f"q{k}" for k in range(1, n + 1)),
        symbols=("_", "1", "2")[: m + 1],
        halt_states=frozenset(halt),
        input_symbols=frozenset(range(1, m + 1)),
        delta=delta,
    )


def random_machine(rng):
    n, m = rng.choice(DRAWN)
    halt = [k for k in range(2, n + 1) if rng.random() < 0.5]
    delta = {
        (j, k): (rng.randrange(m + 1), rng.randint(1, n), rng.choice((-1, 1)))
        for k in range(1, n + 1)
        if k not in halt
        for j in range(m + 1)
    }
    return make_machine(n, m, halt, delta)


def every_machine(n, m):
    """Every machine of the class: each non-start state halts or not, and each
    rule of a running state writes any symbol, enters any state and moves L or R."""
    rules = list(itertools.product(range(m + 1), range(1, n + 1), (-1, 1)))
    for size in range(n):
        for halt in itertools.combinations(range(2, n + 1), size):
            keys = [(j, k) for k in range(1, n + 1) if k not in halt for j in range(m + 1)]
            for picks in itertools.product(rules, repeat=len(keys)):
                yield make_machine(n, m, halt, dict(zip(keys, picks)))


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
    assert {(machine.n, machine.m) for machine, *_ in cases} == set(DRAWN)


@pytest.mark.parametrize("n,m", list(ENUMERATED))
def test_every_small_machine_matches_the_simulator(n, m):
    machines = list(every_machine(n, m))
    assert len(machines) == ENUMERATED[(n, m)]
    for machine in machines:
        for cells in (3, 4):
            encoding = encode_machine(machine, cells)
            assert audit_nnz(machine, encoding).passed, (machine_to_text(machine), cells)
            for tape in ([], ["1"], ["1", "1"]):
                *lines, check = verify_evolution(machine, tape, encoding.tensor, 2 * cells + 2)
                assert check.passed, (machine_to_text(machine), cells, tape, lines)


def every_configuration(machine, cells):
    for tape in itertools.product(range(machine.m + 1), repeat=cells):
        for head in range(1, cells + 1):
            for state in range(1, machine.n + 1):
                yield Configuration(tape, head, state)


def after_steps(machines, config):
    """``config`` after one step of each of ``machines`` in turn, or None once
    a step leaves the window.  A halted state holds its configuration."""
    for machine in machines:
        step = oracle_step(machine, config)
        if step is RunStatus.OVERFLOW:
            return None
        if step is not RunStatus.HALTED:
            config = step
    return config


def first_window_failure(machines, transition):
    """The first configuration c of the transition tensor's window whose
    restricted product ``type1(encode_config(c), transition)`` is not the
    encoding of ``after_steps(machines, c)``, or None; a run that leaves the
    window expects the empty tensor.  With none found, every run in the window
    agrees at every step by induction: the transition tensor reads no upper
    quad with state slot 0, and off that slot each evolved tensor is a
    configuration's or empty."""
    dims = transition.dims
    empty = SparseTensor(dims, 0, {})
    for config in every_configuration(machines[0], dims.cells):
        after = after_steps(machines, config)
        expected = empty if after is None else encode_config(after, dims)
        if restrict_k_nonzero(type1(encode_config(config, dims), transition)) != expected:
            return config
    return None


def without_an_active_entry(machines, transition):
    """The transition tensor less its least entry whose every upper group
    reads the head cell of the window's first configuration that ``machines``
    keep in the window.  That configuration's product loses a term of its
    local factor, which meets a nonzero global factor of real states, so the
    loss shows."""
    config = next(
        c for c in every_configuration(machines[0], transition.dims.cells)
        if after_steps(machines, c) is not None
    )
    head = (config.head, config.tape[config.head - 1], config.state, config.head)
    entries = quads_of(transition)
    del entries[min(coord for coord in entries if set(coord[:-1]) == {head})]
    return tensor_of(transition.dims, transition.upper_count, entries)


# (corpus machine, window, power of its tensor).
WINDOW_CASES = [
    ("m1_unary_append", 8, 1),
    ("bouncer", 8, 1),
    ("binary_increment", 5, 1),
    ("m1_unary_append", 3, 2),
    ("bouncer", 3, 2),
    ("binary_increment", 3, 2),
]


def window_case(name, cells, power):
    machine = parse_machine(machine_text(name))
    return [machine] * power, type2_power(encode_machine(machine, cells).tensor, power)


@pytest.mark.parametrize("name,cells,power", WINDOW_CASES)
def test_every_configuration_of_the_window_advances(name, cells, power):
    machines, transition = window_case(name, cells, power)
    assert first_window_failure(machines, transition) is None


@pytest.mark.parametrize("name,cells,power", WINDOW_CASES)
def test_the_window_check_catches_a_missing_active_entry(name, cells, power):
    machines, transition = window_case(name, cells, power)
    assert first_window_failure(machines, without_an_active_entry(machines, transition)) is not None


@pytest.fixture(scope="module", params=[3, 4], ids=lambda cells: f"cells={cells}")
def pairs(request):
    """Every ordered pair (M, M') of the (1, 1) class, with type2(B_M, B_M')
    at one window."""
    encoded = [(machine, encode_machine(machine, request.param).tensor) for machine in every_machine(1, 1)]
    return [((m, m_next), type2(b, b_next)) for (m, b), (m_next, b_next) in itertools.product(encoded, repeat=2)]


def test_every_pair_of_small_machines_composes_in_order(pairs):
    # b∘c applies b, then c.
    assert len(pairs) == 256
    for machines, composite in pairs:
        assert first_window_failure(machines, composite) is None, [machine_to_text(m) for m in machines]


def test_the_window_check_catches_a_swapped_order(pairs):
    # In the (1, 1) class, only a machine composed with itself gives the same
    # map on the window whichever way round it is read.
    swapped = [
        machines for machines, composite in pairs
        if first_window_failure(machines[::-1], composite) is not None
    ]
    assert swapped == [machines for machines, _ in pairs if machines[0] != machines[1]]


def test_the_window_check_catches_a_missing_active_entry_of_a_pair(pairs):
    for machines, composite in pairs:
        faulty = without_an_active_entry(machines, composite)
        assert first_window_failure(machines, faulty) is not None, [machine_to_text(m) for m in machines]


def test_drawn_triples_of_machines_compose_associatively():
    # The paper's associative law on machine tensors: (b∘c)∘f equals b∘(c∘f)
    # entry by entry, and applies M, then M', then M''.  The left side, one
    # slot of f, files almost every group under one (i, j) pair; the right
    # side, two slots of c∘f, files most under several.  So the law checks
    # type2's lone-pair expansion against its merging one.
    machines = list(every_machine(2, 1))
    rng = Random(SEED)
    for _ in range(TRIPLES):
        triple = rng.choices(machines, k=3)
        b, c, f = (encode_machine(machine, 3).tensor for machine in triple)
        left = type2(type2(b, c), f)
        texts = [machine_to_text(machine) for machine in triple]
        assert left == type2(b, type2(c, f)), texts
        assert first_window_failure(triple, left) is None, texts


def test_machine_text_round_trips(cases):
    for machine, *_ in cases:
        assert parse_machine(machine_to_text(machine)) == machine, machine_to_text(machine)


def test_tensor_evolution_matches_the_simulator(cases):
    for machine, cells, tape, steps, _ in cases:
        encoding = encode_machine(machine, cells)
        *lines, check = verify_evolution(machine, tape, encoding.tensor, steps)
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
