"""Characteristic tensors of configurations and machines, and their inverses.

A configuration becomes a 0-1 tensor with one entry per cell, all sharing the
(state, head) pair.  A machine becomes an order-8 0-1 tensor with one entry
per inactive-cell index combination (successor state parked at slot 0) and one
per active-cell combination (successor given by the machine's rule).  Active
entries whose move leaves the window are dropped and reported.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DEFAULT_CAP, ResourceLimit, TensorError
from .machine import Configuration, Machine
from .tensor import Coord, Dims, SparseTensor


def encode_config(config: Configuration, dims: Dims) -> SparseTensor:
    """0-1 tensor with entry (i, tape[i], state, head) = 1 for every cell i."""
    if len(config.tape) != dims.cells:
        raise TensorError(f"tape has {len(config.tape)} cells, dims expect {dims.cells}")
    if not 1 <= config.head <= dims.cells:
        raise TensorError(f"head {config.head} outside 1..{dims.cells}")
    if not 1 <= config.state < dims.states:
        raise TensorError(f"state {config.state} outside 1..{dims.states - 1}")
    for j in config.tape:
        if not 0 <= j < dims.symbols:
            raise TensorError(f"symbol index {j} outside 0..{dims.symbols - 1}")
    entries = {
        dims.quad(i, config.tape[i - 1], config.state, config.head): 1
        for i in range(1, dims.cells + 1)
    }
    return SparseTensor(dims, 0, entries)


def decode_config(a: SparseTensor) -> Configuration:
    """Inverse of :func:`encode_config`: the configuration read off the entries
    (a cell without one reads blank) must re-encode to exactly ``a``."""
    if a.upper_count != 0:
        raise TensorError("only configuration tensors (upper count 0) decode")
    cells = a.dims.cells
    if a.nnz != cells:
        raise TensorError(f"expected {cells} entries, found {a.nnz}")
    quads = [a.dims.unpack(coord, 0)[0] for coord in a.entries]
    symbol_at = {i: j for i, j, _, _ in quads}
    _, _, state, head = quads[0]
    tape = tuple(symbol_at.get(i, 0) for i in range(1, cells + 1))
    config = Configuration(tape=tape, head=head, state=state)
    if encode_config(config, a.dims) == a:
        return config
    raise TensorError("tensor is not the characteristic tensor of a configuration")


class MachineEncoding(NamedTuple):
    tensor: SparseTensor
    dropped: list[tuple[int, int, int]]  # (i1, j1, k1) of omitted active entries


def encode_machine(machine: Machine, cells: int) -> MachineEncoding:
    """Order-8 transition tensor over a window of ``cells`` cells, plus the
    active entries lost at the window edge; the machine fixes the other dims.

    Entry (i1 j1, k1 l1) -> (i2 j2, k2 l2) is 1 when either
      * the cell is inactive (k1 != 0, i1 != l1) and keeps its symbol while the
        successor state is parked at slot 0 (i2=i1, j2=j1, k2=0, l2=l1), or
      * the cell is active (k1 != 0, i1 = l1) and the machine's rule
        (j2, k2, move) = delta(j1, k1) fixes the successor, l2 = l1 + move
        still in window; a halt state k1 keeps its symbol, state and cell.
    Active combinations whose l2 falls outside 1..cells are reported in
    ``dropped`` instead of being stored.  Raises ResourceLimit, before building
    anything, when the cells^2 * symbols * (states - 1) index combinations (a
    bound on the entries) exceed ``DEFAULT_CAP``.
    """
    dims = machine.dims(cells)
    combinations = cells * cells * dims.symbols * (dims.states - 1)
    if combinations > DEFAULT_CAP:
        raise ResourceLimit(f"machine tensor has {combinations} index combinations, cap is {DEFAULT_CAP}")
    entries: dict[Coord, int] = {}
    dropped: list[tuple[int, int, int]] = []
    width = dims.quad_bits
    for i1 in range(1, cells + 1):
        for j1 in range(dims.symbols):
            # Each parked lower quad is built once and shared by the n states
            # k1; its upper quad differs from it only by k1.
            parked = [dims.quad(i1, j1, 0, l1) for l1 in range(1, cells + 1) if l1 != i1]
            for k1 in range(1, dims.states):
                k_field = k1 << dims.l_bits
                for lower in parked:
                    entries[(lower | k_field) << width | lower] = 1
                j2, k2, move = machine.delta.get((j1, k1), (j1, k1, 0))
                l2 = i1 + move
                if 1 <= l2 <= cells:
                    entries[dims.quad(i1, j1, k1, i1) << width | dims.quad(i1, j2, k2, l2)] = 1
                else:
                    dropped.append((i1, j1, k1))
    return MachineEncoding(SparseTensor(dims, 1, entries), dropped)


def restrict_k_nonzero(a: SparseTensor) -> SparseTensor:
    """Delete every entry whose state index is 0, keeping all others intact."""
    if a.upper_count != 0:
        raise TensorError("restriction applies to configuration tensors (upper count 0)")
    k_field = ((1 << a.dims.k_bits) - 1) << a.dims.l_bits
    kept = {coord: value for coord, value in a.entries.items() if coord & k_field}
    return SparseTensor(a.dims, 0, kept)
