import pytest
from hypothesis import given
from hypothesis import strategies as st

from tmtensor import (
    DEFAULT_CAP,
    Configuration,
    MachineFormatError,
    ResourceLimit,
    RunStatus,
    initial_configuration,
    machine_to_text,
    oracle_run,
    oracle_step,
    parse_document,
    parse_machine,
)

from conftest import machine_text

M1_TEXT = machine_text("m1_unary_append")


def test_parse_m1(m1):
    assert m1.states == ("q1", "q2")
    assert m1.symbols == ("_", "1")
    assert m1.n == 2 and m1.m == 1
    assert m1.halt_states == frozenset({2})
    assert m1.input_symbols == frozenset({1})
    assert m1.delta == {(1, 1): (1, 1, 1), (0, 1): (1, 2, 1)}


def test_parse_strips_comments_and_blank_lines():
    assert parse_machine("# leading comment\n\n" + M1_TEXT) == parse_machine(M1_TEXT)


def test_missing_start_line():
    text = "\n".join(l for l in M1_TEXT.splitlines() if not l.startswith("start:"))
    with pytest.raises(MachineFormatError, match="missing 'start:' line"):
        parse_machine(text)


def test_missing_halt_line():
    text = "\n".join(l for l in M1_TEXT.splitlines() if not l.startswith("halt:"))
    with pytest.raises(MachineFormatError, match="missing 'halt:' line"):
        parse_machine(text)


def test_reserved_state_name():
    with pytest.raises(MachineFormatError, match="is reserved"):
        parse_machine(M1_TEXT.replace("states: q1 q2", "states: q1 q0"))


def test_duplicate_state_name():
    with pytest.raises(MachineFormatError, match="duplicate state name"):
        parse_machine(M1_TEXT.replace("states: q1 q2", "states: q1 q1"))


def test_duplicate_symbol_name():
    with pytest.raises(MachineFormatError, match="duplicate symbol name"):
        parse_machine(M1_TEXT.replace("symbols: _ 1", "symbols: _ _"))


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("halt: q2", "halt: q2 q2", "duplicate state name in 'halt:'"),
        ("input: 1", "input: 1 1", "duplicate symbol name in 'input:'"),
    ],
    ids=["halt", "input"],
)
def test_duplicate_name_in_halt_or_input(old, new, message):
    # A repeated name is refused, not merged into one.
    with pytest.raises(MachineFormatError, match=message):
        parse_machine(M1_TEXT.replace(old, new))


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("states: q1 q2", "states:", "'states:' lists no states"),
        ("symbols: _ 1", "symbols:", "'symbols:' lists no symbols"),
        ("start: q1", "start: q1 q2", "'start:' must name exactly one state"),
    ],
    ids=["states", "symbols", "start"],
)
def test_header_with_the_wrong_number_of_names(old, new, message):
    with pytest.raises(MachineFormatError, match=message):
        parse_machine(M1_TEXT.replace(old, new))


def test_incomplete_delta():
    text = "\n".join(l for l in M1_TEXT.splitlines() if "q1 _" not in l)
    with pytest.raises(MachineFormatError, match="no rule for"):
        parse_machine(text)


def test_duplicate_rule():
    with pytest.raises(MachineFormatError, match="duplicate rule for"):
        parse_machine(M1_TEXT + "delta: q1 1 -> q2 1 L\n")
    # A halt documentation row meets the same check.
    with pytest.raises(MachineFormatError, match=r"line 10: duplicate rule for \(q2, _\)"):
        parse_machine(M1_TEXT + "delta: q2 _ -> q2 _ S\n" * 2)


def test_unknown_tokens():
    with pytest.raises(MachineFormatError, match="unknown state 'q9'"):
        parse_machine(M1_TEXT.replace("delta: q1 1 -> q1 1 R", "delta: q9 1 -> q1 1 R"))
    with pytest.raises(MachineFormatError, match="unknown symbol '7'"):
        parse_machine(M1_TEXT.replace("delta: q1 1 -> q1 1 R", "delta: q1 7 -> q1 1 R"))
    with pytest.raises(MachineFormatError, match="move must be L, R, or S"):
        parse_machine(M1_TEXT.replace("delta: q1 1 -> q1 1 R", "delta: q1 1 -> q1 1 U"))
    with pytest.raises(MachineFormatError, match="unknown field 'bogus'"):
        parse_machine(M1_TEXT + "bogus: 1 2 3\n")
    with pytest.raises(MachineFormatError, match="expected '<field>:"):
        parse_machine(M1_TEXT + "a line without a field marker\n")


def test_malformed_rule_arity():
    with pytest.raises(MachineFormatError, match="rule must read"):
        parse_machine(M1_TEXT.replace("delta: q1 1 -> q1 1 R", "delta: q1 1 q1 1 R"))


def test_stay_move_rejected_outside_halt_rows():
    with pytest.raises(MachineFormatError, match="only allowed on halt-state rows"):
        parse_machine(M1_TEXT.replace("delta: q1 1 -> q1 1 R", "delta: q1 1 -> q1 1 S"))


def test_halt_documentation_row():
    m = parse_machine(M1_TEXT + "delta: q2 1 -> q2 1 S\n")
    assert m == parse_machine(M1_TEXT)  # documentation rows are not stored
    with pytest.raises(MachineFormatError):
        parse_machine(M1_TEXT + "delta: q2 1 -> q1 1 R\n")


def test_start_state_must_be_listed_first():
    with pytest.raises(MachineFormatError):
        parse_machine(M1_TEXT.replace("start: q1", "start: q2"))


def test_blank_cannot_join_input_alphabet():
    with pytest.raises(MachineFormatError):
        parse_machine(M1_TEXT.replace("input: 1", "input: _ 1"))


def test_input_defaults_to_non_blank_symbols():
    text = "\n".join(l for l in M1_TEXT.splitlines() if not l.startswith("input:"))
    assert parse_machine(text).input_symbols == frozenset({1})


def test_duplicate_header_rejected():
    with pytest.raises(MachineFormatError):
        parse_machine(M1_TEXT + "states: q3\n")


def test_empty_halt_set_allowed(bouncer):
    assert bouncer.halt_states == frozenset()


def test_tape_line_parsed_and_validated():
    doc = parse_document(M1_TEXT + "tape: 1 1 1\n")
    assert doc.tape == ("1", "1", "1")
    with pytest.raises(MachineFormatError, match="not in the input alphabet"):
        parse_document(M1_TEXT + "tape: 1 _\n")  # blank is not in the input alphabet


def test_machine_round_trip(corpus):
    for name, machine, _ in corpus:
        assert parse_machine(machine_to_text(machine)) == machine, name


def test_oracle_step_m1(m1):
    c1 = Configuration((1, 1, 0, 0), head=1, state=1)
    assert oracle_step(m1, c1) == Configuration((1, 1, 0, 0), head=2, state=1)
    assert oracle_step(m1, Configuration((1, 1, 1, 0), head=3, state=2)) is RunStatus.HALTED
    out = oracle_step(m1, Configuration((1, 1, 1, 1), head=4, state=1))
    assert out is RunStatus.OVERFLOW


def test_oracle_run_m1_trace(m1):
    trace = oracle_run(m1, Configuration((1, 1, 0, 0), head=1, state=1), 10)
    assert trace.status is RunStatus.HALTED
    assert len(trace.configs) == 4
    assert trace.configs[-1] == Configuration((1, 1, 1, 0), head=4, state=2)


def test_oracle_run_zero_budget(m1):
    trace = oracle_run(m1, Configuration((1, 0, 0, 0), head=1, state=1), 0)
    assert trace.status is RunStatus.STEP_LIMIT
    assert len(trace.configs) == 1


@pytest.mark.parametrize("max_steps", [-1, -3])
def test_oracle_run_refuses_a_negative_budget(m1, max_steps):
    with pytest.raises(ValueError, match="max_steps must be >= 0"):
        oracle_run(m1, Configuration((1, 0, 0, 0), head=1, state=1), max_steps)


def test_oracle_run_halted_start(m1):
    start = Configuration((1, 0, 0, 0), head=2, state=2)
    trace = oracle_run(m1, start, 5)
    assert trace.status is RunStatus.HALTED
    assert trace.configs == [start]


def test_oracle_run_overflow(m1):
    trace = oracle_run(m1, Configuration((1, 1, 1, 1), head=1, state=1), 20)
    assert trace.status is RunStatus.OVERFLOW
    assert len(trace.configs) == 4  # the step from head 4 leaves the window


def test_oracle_run_caps_the_cells_of_its_trace(m1):
    # 4 cells x 2,500,000 configurations is the cap.  A halted start stops at
    # once, so the accepted side simulates nothing either.
    halted = Configuration((1, 1, 1, 0), head=4, state=2)
    assert oracle_run(m1, halted, 2_499_999).status is RunStatus.HALTED
    with pytest.raises(ResourceLimit, match="^trace would hold 10000004 cells, cap is 10000000$"):
        oracle_run(m1, halted, 2_500_000)


def test_initial_configuration(m1):
    config = initial_configuration(m1, ["1", "1"], 4)
    assert config == Configuration((1, 1, 0, 0), head=1, state=1)
    assert initial_configuration(m1, [], 2).tape == (0, 0)
    with pytest.raises(MachineFormatError):
        initial_configuration(m1, ["1"] * 5, 4)
    with pytest.raises(MachineFormatError, match="not in the input alphabet"):
        initial_configuration(m1, ["_"], 4)  # blank is outside the input alphabet
    with pytest.raises(MachineFormatError, match="unknown tape symbol '2'"):
        initial_configuration(m1, ["2"], 4)
    with pytest.raises(ResourceLimit, match="^window has 10000001 cells, cap is 10000000$"):
        initial_configuration(m1, [], DEFAULT_CAP + 1)


increment_configs = st.builds(
    Configuration,
    tape=st.tuples(*[st.integers(0, 2)] * 4),
    head=st.integers(1, 4),
    state=st.integers(1, 3),
)


@given(increment_configs)
def test_step_touches_only_the_head_cell(increment, config):
    outcome = oracle_step(increment, config)
    if outcome is RunStatus.HALTED:
        assert config.state in increment.halt_states
        return
    if outcome is RunStatus.OVERFLOW:
        return
    changed = [i for i in range(4) if outcome.tape[i] != config.tape[i]]
    assert changed in ([], [config.head - 1])
    assert abs(outcome.head - config.head) == 1
