import pytest

from tmtensor import (
    Dims,
    ResourceLimit,
    SparseTensor,
    Type2AssocReport,
    audit_nnz,
    encode_machine,
    mixed_assoc_trial,
    random_config_tensor,
    random_transition_tensor,
    type2_assoc_trial,
    type2_power,
    verify_evolution,
    verify_power,
)

SMALL = Dims(2, 2, 2)   # window 2, symbols m=1, states n=1
BIG = Dims(3, 2, 3)     # window 3, symbols m=1, states n=2


def test_verify_evolution_m1(m1):
    report = verify_evolution(m1, ["1", "1"], m1.dims(4), 10)
    assert report.passed
    assert [s.t for s in report.steps] == list(range(1, 12))
    assert report.lines()[-1] == "CHECK evolution -> PASS"


def test_verify_evolution_overflow_coincides(m1):
    report = verify_evolution(m1, ["1", "1", "1", "1"], m1.dims(4), 10)
    assert report.passed
    assert report.oracle_status.value == "overflow"
    assert report.tensor_overflow_step == 4


def test_verify_evolution_corrupted_b_names_the_step(m1):
    dims = m1.dims(4)
    b = encode_machine(m1, dims).tensor
    # drop one inactive-cell entry: cell 2 no longer carries its symbol forward
    broken = dict(b.entries)
    del broken[((2, 1, 1, 1), (2, 1, 0, 1))]
    report = verify_evolution(
        m1, ["1", "1"], dims, 10, b_override=SparseTensor(dims, 1, broken)
    )
    assert not report.passed
    assert report.first_disagreement() == 2
    assert "FAIL" in report.lines()[-1]


def test_verify_evolution_zero_steps(m1):
    report = verify_evolution(m1, ["1", "1"], m1.dims(4), 0)
    assert report.passed
    assert len(report.steps) == 1


def test_verify_reports_are_deterministic(increment):
    dims = increment.dims(4)
    first = verify_evolution(increment, ["0", "1", "1"], dims, 12)
    second = verify_evolution(increment, ["0", "1", "1"], dims, 12)
    assert first == second


def test_verify_power(m1):
    dims = m1.dims(4)
    b = encode_machine(m1, dims).tensor
    report = verify_power(m1, ["1", "1"], dims, type2_power(b, 2), 2, 2)
    assert report.passed
    assert report.lines() == [
        "CHECK compose-action step=2 -> PASS",
        "CHECK compose-action step=4 -> PASS",
    ]
    # b advances one step per application, not the two claimed
    wrong = verify_power(m1, ["1", "1"], dims, b, 2, 2)
    assert not wrong.passed
    assert wrong.lines()[0] == "CHECK compose-action step=2 -> FAIL"


def test_random_config_tensor_density_one_fills_the_space():
    dims = Dims(1, 1, 2)
    t = random_config_tensor(dims, density=1.0, value_bound=1, seed=0)
    assert t.nnz == dims.quad_count
    assert set(t.entries) == {(quad,) for quad in dims.iter_quads()}


def test_random_tensor_seed_determinism():
    a = random_config_tensor(SMALL, density=0.5, value_bound=3, seed=42)
    b = random_config_tensor(SMALL, density=0.5, value_bound=3, seed=42)
    assert a == b
    assert a != random_config_tensor(SMALL, density=0.5, value_bound=3, seed=43)


def test_random_tensor_values_in_bound():
    t = random_config_tensor(SMALL, density=1.0, value_bound=3, seed=9)
    assert set(t.entries.values()) <= {1, 2, 3}


def test_random_transition_tensor_arity_and_grid():
    t = random_transition_tensor(Dims(1, 1, 2), 1, density=1.0, value_bound=2, seed=1)
    assert all(len(coord) == 2 for coord in t.entries)
    assert t.nnz == Dims(1, 1, 2).quad_count ** 2


def test_random_tensor_argument_validation():
    with pytest.raises(ValueError):
        random_config_tensor(SMALL, density=0.0, value_bound=3, seed=0)
    with pytest.raises(ValueError):
        random_config_tensor(SMALL, density=0.5, value_bound=0, seed=0)


@pytest.mark.parametrize("seed", range(5))
def test_mixed_assoc_trial_small(seed):
    result = mixed_assoc_trial(SMALL, 1, 1, density=0.25, seed=seed)
    assert result.passed, result.line()
    assert result.line() == f"CHECK mixed-assoc seed={seed} -> PASS"


def test_mixed_assoc_trial_big_dims():
    assert mixed_assoc_trial(BIG, 1, 1, density=0.1, seed=17).passed


def test_mixed_assoc_trial_higher_upper_counts():
    assert mixed_assoc_trial(SMALL, 1, 2, density=0.1, seed=2).passed
    assert mixed_assoc_trial(SMALL, 2, 1, density=0.1, seed=2).passed


def test_mixed_assoc_trial_near_zero_density():
    # density small enough that the tensors are almost surely all zero
    assert mixed_assoc_trial(SMALL, 1, 1, density=1e-9, seed=0).passed


def test_mixed_assoc_resource_limit_on_big_composition():
    with pytest.raises(ResourceLimit):
        mixed_assoc_trial(BIG, 1, 2, density=0.1, seed=0)


@pytest.mark.parametrize("seed", range(3))
def test_type2_assoc_trial(seed):
    report = type2_assoc_trial(SMALL, 1, 1, 1, density=0.05, seed=seed)
    assert report.action_passed
    assert report.entrywise_passed
    assert report.lines()[0].endswith("PASS")


def test_type2_assoc_trial_zero_tensors():
    report = type2_assoc_trial(SMALL, 1, 1, 1, density=1e-9, seed=4)
    assert report.action_passed and report.entrywise_passed


def test_type2_assoc_report_rendering():
    ok = Type2AssocReport(seed=1, action_passed=True, entrywise_passed=True)
    assert ok.lines() == [
        "CHECK type2-assoc-action seed=1 -> PASS",
        "CHECK type2-assoc-entrywise seed=1 -> PASS",
    ]
    mismatch = Type2AssocReport(seed=2, action_passed=True, entrywise_passed=False)
    assert mismatch.lines() == [
        "CHECK type2-assoc-action seed=2 -> PASS",
        "CHECK type2-assoc-entrywise seed=2 -> FAIL",
    ]


def test_audit_nnz_corpus(corpus):
    for name, machine, _ in corpus:
        for cells in (2, 4, 8):
            report = audit_nnz(machine, machine.dims(cells))
            assert report.passed, (name, cells, report.line())


def test_audit_nnz_m1_values(m1):
    report = audit_nnz(m1, m1.dims(4))
    assert (report.expected, report.actual, report.dropped) == (62, 62, 2)


def test_audit_nnz_fault_injection(m1):
    dims = m1.dims(4)
    tensor, dropped = encode_machine(m1, dims)
    broken = dict(tensor.entries)
    broken.popitem()
    report = audit_nnz(m1, dims, tensor=SparseTensor(dims, 1, broken), dropped=dropped)
    assert not report.passed
    assert report.line().endswith("FAIL")
