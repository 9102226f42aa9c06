import collections
import tracemalloc

import pytest

from tmtensor import (
    Check,
    Dims,
    MachineEncoding,
    ResourceLimit,
    SparseTensor,
    audit_nnz,
    encode_config,
    encode_machine,
    mixed_assoc_trial,
    random_tensor,
    restrict_k_nonzero,
    type1,
    type2,
    type2_assoc_trial,
    type2_power,
    verify_evolution,
    verify_power,
)

from conftest import quads_of, tensor_of

SMALL = Dims(2, 2, 2)   # window 2, symbols m=1, states n=1
BIG = Dims(3, 2, 3)     # window 3, symbols m=1, states n=2


def test_verify_evolution_corrupted_b_names_the_step(m1):
    b = encode_machine(m1, 4).tensor
    # drop one inactive-cell entry: cell 2 no longer carries its symbol forward
    broken = dict(b.entries)
    del broken[b.dims.pack(((2, 1, 1, 1), (2, 1, 0, 1)))]
    *lines, check = verify_evolution(m1, ["1", "1"], SparseTensor(b.dims, 1, broken), 10)
    assert not check.passed
    assert lines[:2] == ["t=1 agree=yes", "t=2 agree=no"]  # trajectory index 2
    # Step 2 leaves an empty restriction, even though the tensor it starts
    # from (t=2) is no longer a configuration.
    assert [lines[-1], check.line()] == [
        "overflow oracle=no tensor=step 2 agree=no",
        "CHECK evolution -> FAIL",
    ]


def test_verify_evolution_restricts_every_tensor_and_encodes_every_configuration(
    monkeypatch, m1
):
    # m1 halts after 3 steps: 4 simulated configurations, 63 evolved tensors.
    calls = {"restrict": 0, "encode": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        return wrapper

    monkeypatch.setattr("tmtensor.harness.restrict_k_nonzero", counted("restrict", restrict_k_nonzero))
    monkeypatch.setattr("tmtensor.harness.encode_config", counted("encode", encode_config))
    *lines, check = verify_evolution(m1, ["1", "1"], encode_machine(m1, 32).tensor, 62)
    assert check.passed and len(lines) == 64
    assert calls == {"restrict": 63, "encode": 4}


def test_verify_evolution_holds_one_line_at_a_time(m1):
    # m1 halts after 3 steps, so 50,000 steps repeat one tensor and one
    # configuration; a reader that keeps only the verdict holds no report.
    b = encode_machine(m1, 4).tensor
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        (check,) = collections.deque(verify_evolution(m1, ["1", "1"], b, 50_000), maxlen=1)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert check.passed
    assert peak < 1024 * 1024


def test_verify_evolution_stops_once_both_sides_have_overflowed(monkeypatch, m1):
    # On a blank tape at window 1, m1 leaves the window at step 1 on both
    # sides: A_1 and A_2 are restricted, and no later tensor is computed.
    calls = 0

    def counted(tensor):
        nonlocal calls
        calls += 1
        return restrict_k_nonzero(tensor)

    monkeypatch.setattr("tmtensor.harness.restrict_k_nonzero", counted)
    *lines, check = verify_evolution(m1, [], encode_machine(m1, 1).tensor, 100_000)
    assert calls <= 2
    assert check.passed
    assert lines == ["t=1 agree=yes", "overflow oracle=yes tensor=step 1 agree=yes"]


def test_verify_power(m1):
    # b advances one step per application, not the two claimed
    checks = list(verify_power(m1, ["1", "1"], encode_machine(m1, 4).tensor, 2, 2))
    assert checks[0].line() == "CHECK compose-action step=2 -> FAIL"


def test_verify_power_encodes_only_the_compared_configurations(monkeypatch, bouncer):
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return encode_config(*args)

    two_steps = type2_power(encode_machine(bouncer, 4).tensor, 2)
    monkeypatch.setattr("tmtensor.harness.encode_config", counted)
    checks = list(verify_power(bouncer, [], two_steps, 2, 3))
    assert all(check.passed for check in checks)
    # 3 applications of the square simulate 6 steps, 7 configurations; the
    # initial one and the three after each application are compared.
    assert calls == 4


@pytest.mark.parametrize(
    "call, message",
    [
        # The verifiers are lazy: a refusal raises on the first item.
        (lambda m1, b: list(verify_evolution(m1, ["1", "1"], b, -1)), "^steps must be >= 0"),
        (lambda m1, b: list(verify_power(m1, ["1", "1"], b, 2, -1)), "^steps must be >= 0"),
        (lambda m1, b: list(verify_power(m1, ["1", "1"], b, 0, 2)), "power must be >= 1"),
        (lambda m1, b: list(verify_power(m1, ["1", "1"], b, -1, 2)), "power must be >= 1"),
        (lambda m1, b: random_tensor(SMALL, -1, 0.5, 3, 0), "upper_count must be >= 0"),
    ],
    ids=["evolution-steps", "power-steps", "power-0", "power-negative", "upper-count"],
)
def test_counts_out_of_range_are_refused(m1, call, message):
    with pytest.raises(ValueError, match=message):
        call(m1, encode_machine(m1, 4).tensor)


def test_random_tensor_density_one_fills_the_space():
    dims = Dims(1, 1, 2)
    t = random_tensor(dims, 0, density=1.0, value_bound=1, seed=0)
    assert t.nnz == dims.quad_count
    assert set(quads_of(t)) == {(quad,) for quad in dims.iter_quads()}


def test_random_tensor_seed_determinism():
    a = random_tensor(SMALL, 0, density=0.5, value_bound=3, seed=42)
    b = random_tensor(SMALL, 0, density=0.5, value_bound=3, seed=42)
    assert a == b
    assert a != random_tensor(SMALL, 0, density=0.5, value_bound=3, seed=43)


def test_random_tensor_values_in_bound():
    t = random_tensor(SMALL, 0, density=1.0, value_bound=3, seed=9)
    assert set(t.entries.values()) <= {1, 2, 3}


def test_random_tensor_arity_and_grid():
    t = random_tensor(Dims(1, 1, 2), 1, density=1.0, value_bound=2, seed=1)
    assert all(len(coord) == 2 for coord in quads_of(t))
    assert t.nnz == Dims(1, 1, 2).quad_count ** 2


def test_random_tensor_argument_validation():
    with pytest.raises(ValueError):
        random_tensor(SMALL, 0, density=0.0, value_bound=3, seed=0)
    with pytest.raises(ValueError):
        random_tensor(SMALL, 0, density=0.5, value_bound=0, seed=0)


def test_random_tensor_refuses_draws_over_the_cap():
    # 144 quads at Dims(6, 2, 2): upper count 3 would take 144^4 draws.
    with pytest.raises(ResourceLimit):
        random_tensor(Dims(6, 2, 2), 3, density=0.1, value_bound=3, seed=0)


def test_mixed_assoc_trial_near_zero_density():
    # density small enough that the tensors are almost surely all zero
    assert mixed_assoc_trial(SMALL, 1, 1, density=1e-9, seed=0).passed


def test_mixed_assoc_trial_names_the_first_difference(monkeypatch):
    def corrupted(b, c, cap):
        composite = quads_of(type2(b, c, cap=cap))
        pairs = [*composite.items(), (min(composite), 1)]
        return SparseTensor.from_entries(b.dims, 2, pairs)

    monkeypatch.setattr("tmtensor.harness.type2", corrupted)
    check = mixed_assoc_trial(SMALL, 1, 1, density=0.3, seed=1)
    assert check.line() == 'CHECK mixed-assoc seed=1 -> FAIL witness="1 0 0 1"'


def test_mixed_assoc_resource_limit_on_big_composition():
    with pytest.raises(ResourceLimit):
        mixed_assoc_trial(BIG, 1, 2, density=0.1, seed=0)


def test_type2_assoc_trial_zero_tensors():
    assert all(check.passed for check in type2_assoc_trial(SMALL, 1, 1, 1, density=1e-9, seed=4))


def test_check_line_grammar():
    assert Check("evolution", "", True).line() == "CHECK evolution -> PASS"
    assert (
        Check("type2-assoc-entrywise", "seed=2", False).line()
        == "CHECK type2-assoc-entrywise seed=2 -> FAIL"
    )
    witness = ((1, 0, 1, 1), (2, 1, 0, 2))
    assert (
        Check("mixed-assoc", "seed=3", False, witness).line()
        == 'CHECK mixed-assoc seed=3 -> FAIL witness="1 0 1 1 | 2 1 0 2"'
    )


def counting_type1(monkeypatch):
    """Wrap the harness's type1; the returned list grows by one per call."""
    calls = []

    def counted(a, b):
        calls.append(1)
        return type1(a, b)

    monkeypatch.setattr("tmtensor.harness.type1", counted)
    return calls


def test_type2_assoc_trial_samples_nothing_when_composites_are_equal(monkeypatch):
    calls = counting_type1(monkeypatch)
    assert all(check.passed for check in type2_assoc_trial(SMALL, 1, 1, 1, density=0.05, seed=0))
    assert calls == []


UPPER = (1, 1, 1, 1)
LEFT = tensor_of(SMALL, 1, {(UPPER, (1, 0, 1, 1)): 1, (UPPER, (2, 1, 1, 2)): 1})


@pytest.mark.parametrize(
    "right, action, samples",
    [
        # The two lower groups trade their (state, head) pairs: a different
        # tensor with the same marginals, so every sample acts alike.
        (tensor_of(SMALL, 1, {(UPPER, (1, 0, 1, 2)): 1, (UPPER, (2, 1, 1, 1)): 1}), "PASS", 10),
        # A changed value changes a local and a global marginal: the first
        # sample (density 1 weighs every upper group) tells them apart.
        (tensor_of(SMALL, 1, {(UPPER, (1, 0, 1, 1)): 2, (UPPER, (2, 1, 1, 2)): 1}), "FAIL", 1),
    ],
)
def test_type2_assoc_trial_samples_the_action_when_composites_differ(
    monkeypatch, right, action, samples
):
    # type2 is called for (b∘c), (b∘c)∘f, (c∘f), b∘(c∘f), in that order.
    composites = iter([LEFT, LEFT, LEFT, right])
    monkeypatch.setattr("tmtensor.harness.type2", lambda b, c, cap: next(composites))
    calls = counting_type1(monkeypatch)
    checks = type2_assoc_trial(SMALL, 1, 1, 1, density=1.0, seed=0)
    assert [check.line() for check in checks] == [
        f"CHECK type2-assoc-action seed=0 -> {action}",
        "CHECK type2-assoc-entrywise seed=0 -> FAIL",
    ]
    assert len(calls) == 2 * samples


def test_audit_nnz_m1_values(m1):
    report = audit_nnz(m1, encode_machine(m1, 4))
    assert report.line() == "CHECK nnz-audit expected=62 actual=62 dropped=2 -> PASS"


def test_audit_nnz_fault_injection(m1):
    tensor, dropped = encode_machine(m1, 4)
    broken = dict(tensor.entries)
    broken.popitem()
    report = audit_nnz(m1, MachineEncoding(SparseTensor(tensor.dims, 1, broken), dropped))
    assert report.line() == "CHECK nnz-audit expected=62 actual=61 dropped=2 -> FAIL"
