"""Deterministic one-tape Turing machines over a bounded cell window.

Covers the text description format, validation, and the direct
step-by-step simulator that serves as ground truth for the tensor side.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

from .errors import DEFAULT_CAP, MachineFormatError, ResourceLimit
from .tensor import Dims

RESERVED_STATE = "q0"
_MOVES = {"L": -1, "R": 1, "S": 0}
_MOVE_NAMES = {-1: "L", 1: "R", 0: "S"}

Rule = tuple[int, int, int]  # (written symbol, next state, head move)


@dataclass(frozen=True)
class Machine:
    """A validated machine: names fix indices (states 1..n, symbols 0..m).

    ``delta`` is total on symbol x non-halt state and defined nowhere else;
    its moves are strictly -1 or +1.  State 1 starts, symbol 0 is the blank.
    """

    states: tuple[str, ...]
    symbols: tuple[str, ...]
    halt_states: frozenset[int]
    input_symbols: frozenset[int]
    delta: dict[tuple[int, int], Rule]  # keyed (symbol j, state k)

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def m(self) -> int:
        return len(self.symbols) - 1

    def state_name(self, k: int) -> str:
        return self.states[k - 1]

    def symbol_name(self, j: int) -> str:
        return self.symbols[j]

    def dims(self, cells: int) -> Dims:
        """Index bounds for tensors over a window of ``cells`` cells."""
        return Dims(cells=cells, symbols=self.m + 1, states=self.n + 1)


@dataclass(frozen=True, slots=True)
class Configuration:
    """Snapshot of a run: window contents (cells 1..N), head cell, state index."""

    tape: tuple[int, ...]
    head: int
    state: int


class RunStatus(str, Enum):
    HALTED = "halted"
    OVERFLOW = "overflow"
    STEP_LIMIT = "step-limit"


@dataclass
class Trace:
    configs: list[Configuration]
    status: RunStatus


def oracle_step(machine: Machine, config: Configuration) -> Configuration | RunStatus:
    """One direct simulation step; never mutates the input.  A halt state gives
    RunStatus.HALTED and a move off the window RunStatus.OVERFLOW."""
    if config.state in machine.halt_states:
        return RunStatus.HALTED
    symbol, next_state, move = machine.delta[(config.tape[config.head - 1], config.state)]
    target = config.head + move
    if not 1 <= target <= len(config.tape):
        return RunStatus.OVERFLOW
    tape = list(config.tape)
    tape[config.head - 1] = symbol
    return Configuration(tuple(tape), target, next_state)


def oracle_run(machine: Machine, initial: Configuration, max_steps: int) -> Trace:
    """Simulate until halt, window overflow, or the step budget runs out.

    The trace keeps every configuration, so it raises ResourceLimit, before
    simulating, when the cells of up to ``max_steps + 1`` configurations
    exceed ``DEFAULT_CAP``."""
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    cells = len(initial.tape) * (max_steps + 1)
    if cells > DEFAULT_CAP:
        raise ResourceLimit(f"trace would hold {cells} cells, cap is {DEFAULT_CAP}")
    configs = [initial]
    status = RunStatus.STEP_LIMIT
    for _ in range(max_steps):
        outcome = oracle_step(machine, configs[-1])
        if isinstance(outcome, RunStatus):
            status = outcome
            break
        configs.append(outcome)
    # A run that halts on the last step of its budget is halted, not cut short.
    if configs[-1].state in machine.halt_states:
        status = RunStatus.HALTED
    return Trace(configs, status)


class MachineFile(NamedTuple):
    machine: Machine
    tape: tuple[str, ...] | None  # tokens from an optional tape: line


_HEADERS = ("states", "start", "halt", "symbols", "input", "tape")


def parse_document(text: str) -> MachineFile:
    """Parse a full machine document, including its optional tape line."""
    fields: dict[str, list[str]] = {}
    rules: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        key = key.strip()
        if not sep:
            raise MachineFormatError(f"line {lineno}: expected '<field>: ...', got {raw!r}")
        if key == "delta":
            rules.append((lineno, rest.split()))
        elif key in _HEADERS:
            if key in fields:
                raise MachineFormatError(f"line {lineno}: duplicate '{key}:' line")
            fields[key] = rest.split()
        else:
            raise MachineFormatError(f"line {lineno}: unknown field {key!r}")

    for required in ("states", "start", "halt", "symbols"):
        if required not in fields:
            raise MachineFormatError(f"missing '{required}:' line")

    state_names = fields["states"]
    if not state_names:
        raise MachineFormatError("'states:' lists no states")
    if RESERVED_STATE in state_names:
        raise MachineFormatError(f"state name {RESERVED_STATE!r} is reserved")
    symbol_names = fields["symbols"]
    if not symbol_names:
        raise MachineFormatError("'symbols:' lists no symbols (the first is the blank)")
    for key, kind in (("states", "state"), ("symbols", "symbol"), ("halt", "state"), ("input", "symbol")):
        names = fields.get(key, [])
        if len(set(names)) != len(names):
            raise MachineFormatError(f"duplicate {kind} name in '{key}:'")

    state_of = {name: idx for idx, name in enumerate(state_names, start=1)}
    symbol_of = {name: idx for idx, name in enumerate(symbol_names)}

    def lookup(table: dict[str, int], token: str, kind: str) -> int:
        if token not in table:
            raise MachineFormatError(f"unknown {kind} {token!r}")
        return table[token]

    if len(fields["start"]) != 1:
        raise MachineFormatError("'start:' must name exactly one state")
    start = lookup(state_of, fields["start"][0], "state")
    if start != 1:
        raise MachineFormatError("the start state must be listed first in 'states:'")

    halt = frozenset(lookup(state_of, tok, "state") for tok in fields["halt"])

    if "input" in fields:
        input_symbols = frozenset(lookup(symbol_of, tok, "symbol") for tok in fields["input"])
        if 0 in input_symbols:
            raise MachineFormatError("the blank symbol cannot be in the input alphabet")
    else:
        input_symbols = frozenset(range(1, len(symbol_names)))

    rows: dict[tuple[int, int], Rule] = {}
    for lineno, tokens in rules:
        if len(tokens) != 6 or tokens[2] != "->":
            raise MachineFormatError(
                f"line {lineno}: rule must read '<state> <symbol> -> <state> <symbol> <L|R|S>'"
            )
        src_state = lookup(state_of, tokens[0], "state")
        src_symbol = lookup(symbol_of, tokens[1], "symbol")
        dst_state = lookup(state_of, tokens[3], "state")
        dst_symbol = lookup(symbol_of, tokens[4], "symbol")
        if tokens[5] not in _MOVES:
            raise MachineFormatError(f"line {lineno}: move must be L, R, or S, got {tokens[5]!r}")
        move = _MOVES[tokens[5]]
        if (src_symbol, src_state) in rows:
            raise MachineFormatError(f"line {lineno}: duplicate rule for ({tokens[0]}, {tokens[1]})")
        if src_state in halt:
            # Documentation row only; must restate the absorbing behaviour.
            if dst_state != src_state or dst_symbol != src_symbol or move != 0:
                raise MachineFormatError(
                    f"line {lineno}: halt-state rows are documentation and must read "
                    f"'{tokens[0]} {tokens[1]} -> {tokens[0]} {tokens[1]} S'"
                )
        elif move == 0:
            raise MachineFormatError(f"line {lineno}: move 'S' is only allowed on halt-state rows")
        rows[(src_symbol, src_state)] = (dst_symbol, dst_state, move)

    for k in range(1, len(state_names) + 1):
        if k in halt:
            continue
        for j in range(len(symbol_names)):
            if (j, k) not in rows:
                raise MachineFormatError(
                    f"no rule for state {state_names[k - 1]!r} reading {symbol_names[j]!r}"
                )

    machine = Machine(
        states=tuple(state_names),
        symbols=tuple(symbol_names),
        halt_states=halt,
        input_symbols=input_symbols,
        delta={jk: rule for jk, rule in rows.items() if jk[1] not in halt},  # documentation left out
    )
    tape = fields.get("tape")
    if tape is not None:
        _check_tape_tokens(machine, tape)
    return MachineFile(machine, tuple(tape) if tape is not None else None)


def parse_machine(text: str) -> Machine:
    return parse_document(text).machine


def machine_to_text(machine: Machine) -> str:
    """Canonical document form; parsing it back yields an equal Machine."""
    halt_names = " ".join(machine.state_name(k) for k in sorted(machine.halt_states))
    input_names = " ".join(machine.symbol_name(j) for j in sorted(machine.input_symbols))
    lines = [
        "states: " + " ".join(machine.states),
        "start: " + machine.states[0],
        "halt:" + (" " + halt_names if halt_names else ""),
        "symbols: " + " ".join(machine.symbols),
        "input:" + (" " + input_names if input_names else ""),
    ]
    for j, k in sorted(machine.delta, key=lambda jk: (jk[1], jk[0])):
        j2, k2, move = machine.delta[(j, k)]
        lines.append(
            f"delta: {machine.state_name(k)} {machine.symbol_name(j)} -> "
            f"{machine.state_name(k2)} {machine.symbol_name(j2)} {_MOVE_NAMES[move]}"
        )
    return "\n".join(lines) + "\n"


def _check_tape_tokens(machine: Machine, tokens: Sequence[str]) -> list[int]:
    indices = []
    for token in tokens:
        if token not in machine.symbols:
            raise MachineFormatError(f"unknown tape symbol {token!r}")
        j = machine.symbols.index(token)
        if j not in machine.input_symbols:
            raise MachineFormatError(f"tape symbol {token!r} is not in the input alphabet")
        indices.append(j)
    return indices


def initial_configuration(machine: Machine, tape_tokens: Sequence[str], cells: int) -> Configuration:
    """Lay the tokens into cells 1..k, blanks after; head on cell 1, start state 1.

    Raises ResourceLimit, before building the tape, when ``cells`` exceeds
    ``DEFAULT_CAP``."""
    if cells > DEFAULT_CAP:
        raise ResourceLimit(f"window has {cells} cells, cap is {DEFAULT_CAP}")
    indices = _check_tape_tokens(machine, tape_tokens)
    if len(indices) > cells:
        raise MachineFormatError(f"tape needs {len(indices)} cells, window has {cells}")
    tape = tuple(indices) + (0,) * (cells - len(indices))
    return Configuration(tape=tape, head=1, state=1)
