"""Coordinate-sparse integer tensors indexed by (cell, symbol, state, head) quads.

A tensor with ``upper_count == u`` keys every stored entry by ``u + 1`` quads,
``u`` upper groups followed by one lower group, so its order is ``4 * (u + 1)``.
``u = 0`` gives the order-4 configuration tensors, ``u = 1`` the order-8
transition tensors, and composition products push ``u`` higher.  Scalars are
exact Python integers; zero is never stored.

A coordinate is one int, the linearized form of HiCOO and ALTO: ``Dims``
gives every quad a fixed bit width, and the key packs the upper quads, most
significant first, above the lower quad.  Keys of one tensor therefore order
as their quad tuples do lexicographically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import TensorError

Quad = tuple[int, int, int, int]
Coord = int


@dataclass(frozen=True)
class Dims:
    """Bounds shared by every quad: i, l in 1..cells; j in 0..symbols-1; k in 0..states-1.

    State slot 0 is reserved for the bookkeeping state, so ``states`` counts the
    real states plus one.

    A packed quad holds i - 1, j, k and l - 1, most significant first, in
    fields of ``l_bits``, ``j_bits``, ``k_bits`` and ``l_bits`` bits; a field
    with one possible value has width 0.  ``kl_bits`` is the shift of the
    (i, j) pair above the (k, l) pair, and ``quad_bits`` the whole width.
    """

    cells: int
    symbols: int
    states: int
    j_bits: int = field(init=False, repr=False, compare=False)
    k_bits: int = field(init=False, repr=False, compare=False)
    l_bits: int = field(init=False, repr=False, compare=False)
    kl_bits: int = field(init=False, repr=False, compare=False)
    quad_bits: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.cells < 1:
            raise ValueError("cells must be >= 1")
        if self.symbols < 1:
            raise ValueError("symbols must be >= 1")
        if self.states < 2:
            raise ValueError("states must be >= 2 (slot 0 plus at least one real state)")
        l_bits = (self.cells - 1).bit_length()
        j_bits = (self.symbols - 1).bit_length()
        k_bits = (self.states - 1).bit_length()
        object.__setattr__(self, "j_bits", j_bits)
        object.__setattr__(self, "k_bits", k_bits)
        object.__setattr__(self, "l_bits", l_bits)
        object.__setattr__(self, "kl_bits", k_bits + l_bits)
        object.__setattr__(self, "quad_bits", 2 * l_bits + j_bits + k_bits)

    def iter_quads(self) -> Iterator[Quad]:
        """Every quad in lexicographic (i, j, k, l) order."""
        for i in range(1, self.cells + 1):
            for j in range(self.symbols):
                for k in range(self.states):
                    for l in range(1, self.cells + 1):
                        yield (i, j, k, l)

    @property
    def quad_count(self) -> int:
        return self.cells * self.symbols * self.states * self.cells

    def quad(self, i: int, j: int, k: int, l: int) -> int:
        """The bits of one in-range quad."""
        return (((i - 1) << self.j_bits | j) << self.kl_bits) | (k << self.l_bits) | (l - 1)

    def pack(self, quads: Iterable[Sequence[int]]) -> Coord:
        """The key of quads, the first in the most significant bits.  Raises
        TensorError for a quad outside these bounds, whose fields would spill
        into their neighbours."""
        key = 0
        for quad in quads:
            i, j, k, l = quad
            if not (
                1 <= i <= self.cells
                and 0 <= j < self.symbols
                and 0 <= k < self.states
                and 1 <= l <= self.cells
            ):
                raise TensorError(f"quad {tuple(quad)!r} is outside {self}")
            key = key << self.quad_bits | self.quad(i, j, k, l)
        return key

    def unpack(self, coord: Coord, upper_count: int) -> tuple[Quad, ...]:
        """The ``upper_count + 1`` quads that :meth:`pack` made ``coord`` from."""
        width = self.quad_bits
        quads = []
        for shift in range(upper_count * width, -1, -width):
            quad = coord >> shift & ((1 << width) - 1)
            l = quad & ((1 << self.l_bits) - 1)
            quad >>= self.l_bits
            k = quad & ((1 << self.k_bits) - 1)
            quad >>= self.k_bits
            j = quad & ((1 << self.j_bits) - 1)
            quads.append(((quad >> self.j_bits) + 1, j, k, l + 1))
        return tuple(quads)


def _check_coord(dims: Dims, upper_count: int, coord: Sequence[Sequence[int]]) -> Coord:
    """Pack a coordinate given as quads, checking arity; ``pack`` checks ranges."""
    if len(coord) != upper_count + 1:
        raise TensorError(
            f"coordinate has {len(coord)} quads, tensor needs {upper_count + 1}"
        )
    for group in coord:
        if len(group) != 4:
            raise TensorError(f"index group {tuple(group)!r} does not have 4 components")
    return dims.pack(coord)


def format_coord(quads: Sequence[Sequence[int]]) -> str:
    """A coordinate's quads, as :meth:`Dims.unpack` reads them back, written as
    the dump writes them: components space-separated, groups joined by " | "."""
    return " | ".join(" ".join(str(c) for c in quad) for quad in quads)


@dataclass(frozen=True)
class SparseTensor:
    """Nonzero integers keyed by coordinates (ints packed by :meth:`Dims.pack`).

    The fields are frozen, but ``entries`` is a plain dict: nothing in the
    package changes it after construction, and callers must not change it
    either.  ``hash()`` raises ``TypeError``, since a dict has no hash.

    The constructor checks nothing: the package builds finished, zero-free
    dicts and passes them straight in.  Outside input goes through
    :meth:`from_entries`, which validates, sums duplicates and drops zeros, or
    through :meth:`from_text`.
    """

    dims: Dims
    upper_count: int
    entries: dict[Coord, int]

    @classmethod
    def from_entries(
        cls,
        dims: Dims,
        upper_count: int,
        pairs: Iterable[tuple[Sequence[Sequence[int]], int]],
    ) -> SparseTensor:
        if upper_count < 0:
            raise ValueError(f"upper count must be >= 0, got {upper_count}")
        acc: dict[Coord, int] = {}
        for coord, value in pairs:
            if not isinstance(value, int):
                raise TypeError(f"scalar {value!r} is not an exact integer")
            key = _check_coord(dims, upper_count, coord)
            acc[key] = acc.get(key, 0) + value
        return cls(dims, upper_count, {c: v for c, v in acc.items() if v})

    def get(self, coord: Sequence[Sequence[int]]) -> int:
        return self.entries.get(_check_coord(self.dims, self.upper_count, coord), 0)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    @property
    def order(self) -> int:
        return 4 * (self.upper_count + 1)

    def to_text(self) -> str:
        """Line-oriented dump: header, then one sorted `quads : scalar` line per entry."""
        d = self.dims
        lines = [f"dims {d.cells} {d.symbols - 1} {d.states - 1}  upper {self.upper_count}"]
        for coord in sorted(self.entries):
            lines.append(f"{format_coord(d.unpack(coord, self.upper_count))} : {self.entries[coord]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> SparseTensor:
        """Parse a dump.  Only the exact text :meth:`to_text` writes is accepted:
        duplicate, unsorted, zero-valued or blank lines raise ValueError.  A
        coordinate that :meth:`from_entries` refuses (the wrong number of
        quads, a quad without four components, a quad outside the header's
        dims) raises TensorError, as it does there."""
        lines = text.splitlines()
        if not lines:
            raise ValueError("empty tensor dump")
        header = lines[0].split()
        if len(header) != 6 or header[0] != "dims" or header[4] != "upper":
            raise ValueError(f"bad dump header: {lines[0]!r}")
        cells, m, n, upper_count = (int(tok) for tok in (header[1], header[2], header[3], header[5]))
        dims = Dims(cells, m + 1, n + 1)

        def parse_line(line: str) -> tuple[tuple[tuple[int, ...], ...], int]:
            body, _, scalar = line.rpartition(":")
            if not body:
                raise ValueError(f"bad dump line: {line!r}")
            coord = tuple(
                tuple(int(tok) for tok in group.split()) for group in body.split("|")
            )
            return coord, int(scalar)

        tensor = cls.from_entries(dims, upper_count, (parse_line(line) for line in lines[1:]))
        if tensor.to_text() != text:
            raise ValueError("tensor dump is not canonical (sorted, distinct, nonzero lines only)")
        return tensor

    def __repr__(self) -> str:
        d = self.dims
        return (
            f"SparseTensor(cells={d.cells}, symbols={d.symbols}, states={d.states}, "
            f"upper_count={self.upper_count}, nnz={self.nnz})"
        )
