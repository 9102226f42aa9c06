import itertools
from pathlib import Path

import pytest
from hypothesis import settings

from tmtensor import SparseTensor, parse_machine

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

MACHINE_DIR = Path(__file__).parent / "machines"

# Tape tokens used whenever a corpus machine needs an input.
CORPUS_TAPES = {
    "m1_unary_append": ["1", "1"],
    "binary_increment": ["0", "1", "1"],
    "bouncer": [],
}


def machine_text(name: str) -> str:
    return (MACHINE_DIR / f"{name}.tm").read_text()


def machine_path(name: str) -> Path:
    return MACHINE_DIR / f"{name}.tm"


def quads_of(t):
    """``t``'s entries keyed by tuples of quads, read back through
    ``Dims.unpack``: the form the brute-force references use."""
    return {t.dims.unpack(coord, t.upper_count): value for coord, value in t.entries.items()}


def tensor_of(dims, upper_count, entries):
    """A tensor from entries keyed by tuples of quads, stored as given, zeros
    included.  Quads are packed through ``Dims.quad``, without the range check
    of ``Dims.pack``, so a test can store a quad that its packed field holds
    but ``dims`` does not."""

    def key(coord):
        packed = 0
        for quad in coord:
            packed = packed << dims.quad_bits | dims.quad(*quad)
        return packed

    return SparseTensor(dims, upper_count, {key(coord): value for coord, value in entries.items()})


def input_words(machine, cells):
    """Every tape of at most ``cells`` input symbols, as --tape arguments."""
    alphabet = [machine.symbol_name(j) for j in sorted(machine.input_symbols)]
    return [
        " ".join(word)
        for length in range(cells + 1)
        for word in itertools.product(alphabet, repeat=length)
    ]


@pytest.fixture(scope="session")
def m1():
    return parse_machine(machine_text("m1_unary_append"))


@pytest.fixture(scope="session")
def increment():
    return parse_machine(machine_text("binary_increment"))


@pytest.fixture(scope="session")
def bouncer():
    return parse_machine(machine_text("bouncer"))


@pytest.fixture(scope="session")
def corpus():
    return [
        (name, parse_machine(machine_text(name)), tape)
        for name, tape in CORPUS_TAPES.items()
    ]
