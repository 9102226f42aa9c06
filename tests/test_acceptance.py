"""Acceptance battery: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

from random import Random

from tmtensor import (
    Configuration,
    Dims,
    ResourceLimit,
    SparseTensor,
    audit_nnz,
    decode_config,
    encode_config,
    encode_machine,
    evolve,
    initial_configuration,
    mixed_assoc_trial,
    restrict_k_nonzero,
    type1,
    type2_assoc_trial,
    type2_power,
    verify_evolution,
    verify_power,
)

SMALL = Dims(2, 2, 2)   # window 2, m=1, n=1
BIG = Dims(3, 2, 3)     # window 3, m=1, n=2


def verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name} -> {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {number} {name}"


def test_criterion_1_evolution_equivalence(corpus):
    failures = []
    cases = 0
    for name, machine, tape in corpus:
        for cells in (4, 8):
            *_, check = verify_evolution(machine, tape, encode_machine(machine, cells).tensor, 20)
            cases += 1
            if not check.passed:
                failures.append((name, cells))
    # window-overflow run: both sides must lose the machine at the same step
    m1 = corpus[0][1]
    *lines, check = verify_evolution(m1, ["1", "1", "1", "1"], encode_machine(m1, 4).tensor, 20)
    cases += 1
    if not (check.passed and lines[-1].startswith("overflow oracle=yes")):
        failures.append(("m1 overflow", 4))
    verdict(1, "evolution-equivalence", not failures, f"{cases} runs" if not failures else str(failures))


def test_criterion_2_mixed_associativity():
    densities = (0.1, 0.15, 0.2, 0.25, 0.3)
    schedule = (
        [(SMALL, 1, 1, densities[i % 5], i) for i in range(100)]
        + [(BIG, 1, 1, 0.1, 1000 + i) for i in range(40)]
        + [(SMALL, 1, 2, 0.1, 2000 + i) for i in range(30)]
        + [(SMALL, 2, 1, 0.1, 3000 + i) for i in range(30)]
    )
    assert len(schedule) == 200
    failed = [
        (dims, p, q, seed)
        for dims, p, q, density, seed in schedule
        if not mixed_assoc_trial(dims, p, q, density, seed).passed
    ]
    verdict(2, "mixed-associativity", not failed, f"{len(schedule)} trials" if not failed else str(failed))


def test_criterion_3_composition_semantics(corpus):
    failures = []
    notes = []
    for name, machine, tape in corpus:
        # squared tensor advances two steps at once
        squared = type2_power(encode_machine(machine, 4).tensor, 2)
        if not all(check.passed for check in verify_power(machine, tape, squared, 2, 1)):
            failures.append((name, "power 2"))

        # fourth power where the entry budget allows (window 2 keeps it small)
        tape2 = ["0"] if name == "binary_increment" else []
        try:
            fourth = type2_power(encode_machine(machine, 2).tensor, 4)
        except ResourceLimit:
            notes.append(f"{name}: power 4 skipped, resource cap")
            continue
        if not all(check.passed for check in verify_power(machine, tape2, fourth, 4, 1)):
            failures.append((name, "power 4"))
    for note in notes:
        print(f"note: {note}")
    verdict(3, "composition-semantics", not failures, "; ".join(notes) if not failures else str(failures))


def test_criterion_4_type2_associativity():
    failures = []
    for seed in range(20):
        for check in type2_assoc_trial(SMALL, 1, 1, 1, density=0.05, seed=seed):
            if not check.passed:
                failures.append((seed, check.name))
    verdict(4, "type2-associativity", not failures, "20 trials, entrywise identical" if not failures else str(failures))


def test_criterion_5_bookkeeping_noninterference(corpus):
    failures = []
    for name, machine, tape in corpus:
        dims = machine.dims(4)
        b = encode_machine(machine, 4).tensor
        tensors = evolve(encode_config(initial_configuration(machine, tape, 4), dims), b, 5)
        for t, a_t in enumerate(tensors, start=1):
            if type1(a_t, b) != type1(restrict_k_nonzero(a_t), b):
                failures.append((name, t))
    verdict(5, "bookkeeping-noninterference", not failures, "t <= 5, 3 machines" if not failures else str(failures))


def test_criterion_6_structural_audits(corpus):
    failures = []

    for name, machine, _ in corpus:
        for cells in (2, 4, 8):
            if not audit_nnz(machine, encode_machine(machine, cells)).passed:
                failures.append(("nnz", name, cells))

    rng = Random(2024)
    for name, machine, _ in corpus:
        dims = machine.dims(4)
        for _ in range(100):
            config = Configuration(
                tape=tuple(rng.randrange(machine.m + 1) for _ in range(4)),
                head=rng.randrange(1, 5),
                state=rng.randrange(1, machine.n + 1),
            )
            if decode_config(encode_config(config, dims)) != config:
                failures.append(("round-trip", name, config))

    for name, machine, tape in corpus:
        dims = machine.dims(4)
        b = encode_machine(machine, 4).tensor
        a2 = list(evolve(encode_config(initial_configuration(machine, tape, 4), dims), b, 1))[1]
        for tensor in (b, a2):
            text = tensor.to_text()
            if SparseTensor.from_text(text).to_text() != text:
                failures.append(("dump", name))

    verdict(6, "structural-audits", not failures, "counts, round-trips, dumps" if not failures else str(failures))
