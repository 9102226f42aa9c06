import pytest
from hypothesis import given
from hypothesis import strategies as st

from tmtensor import (
    Configuration,
    Dims,
    SparseTensor,
    TensorError,
    decode_config,
    encode_config,
    encode_machine,
    initial_configuration,
    parse_machine,
    restrict_k_nonzero,
)

from conftest import quads_of, tensor_of


def rule(machine, j, k):
    """The successor (symbol, state, move) of symbol j under state k: a halt
    state keeps its symbol and state and does not move."""
    if k in machine.halt_states:
        return j, k, 0
    return machine.delta[(j, k)]


def brute_force_machine_tensor(machine, dims):
    """Direct enumeration of the two defining conditions over the full space."""
    entries = {}
    quads = list(dims.iter_quads())
    for upper in quads:
        i1, j1, k1, l1 = upper
        if k1 == 0:
            continue
        for lower in quads:
            i2, j2, k2, l2 = lower
            inactive = i1 != l1 and i2 == i1 and j2 == j1 and k2 == 0 and l2 == l1
            if i1 == l1 and i2 == i1:
                d1, d2, d3 = rule(machine, j1, k1)
                active = j2 == d1 and k2 == d2 and l2 == l1 + d3
            else:
                active = False
            if inactive or active:
                entries[(upper, lower)] = 1
    return entries


def brute_force_dropped(machine, dims):
    dropped = []
    for i1 in range(1, dims.cells + 1):
        for j1 in range(dims.symbols):
            for k1 in range(1, dims.states):
                if not 1 <= i1 + rule(machine, j1, k1)[2] <= dims.cells:
                    dropped.append((i1, j1, k1))
    return dropped


C1 = Configuration((1, 1, 0, 0), head=1, state=1)


def test_encode_config_m1_c1(m1):
    a = encode_config(C1, m1.dims(4))
    assert set(quads_of(a)) == {
        ((1, 1, 1, 1),),
        ((2, 1, 1, 1),),
        ((3, 0, 1, 1),),
        ((4, 0, 1, 1),),
    }
    assert all(value == 1 for value in a.entries.values())


def test_encode_config_all_blank():
    dims = Dims(2, 2, 2)
    a = encode_config(Configuration((0, 0), head=1, state=1), dims)
    assert set(quads_of(a)) == {((1, 0, 1, 1),), ((2, 0, 1, 1),)}


def test_encode_config_dims_mismatch():
    dims = Dims(2, 2, 2)
    with pytest.raises(TensorError, match="tape has 3 cells"):
        encode_config(Configuration((0, 0, 0), head=1, state=1), dims)
    with pytest.raises(TensorError, match="head 3 outside"):
        encode_config(Configuration((0, 0), head=3, state=1), dims)
    with pytest.raises(TensorError, match="state 2 outside"):
        encode_config(Configuration((0, 0), head=1, state=2), dims)
    with pytest.raises(TensorError, match="symbol index 3 outside"):
        encode_config(Configuration((0, 3), head=1, state=1), dims)
    with pytest.raises(TensorError, match="state 0 outside"):
        encode_config(Configuration((0, 0), head=1, state=0), dims)


NOT_CHARACTERISTIC = "not the characteristic tensor of a configuration"


def test_decode_rejects_non_characteristic():
    dims = Dims(2, 2, 2)
    with pytest.raises(TensorError, match="expected 2 entries, found 0"):
        decode_config(SparseTensor(dims, 0, {}))
    # two head positions
    bad = SparseTensor.from_entries(dims, 0, [(((1, 0, 1, 1),), 1), (((2, 0, 1, 2),), 1)])
    with pytest.raises(TensorError, match=NOT_CHARACTERISTIC):
        decode_config(bad)
    # doubled cell
    bad = SparseTensor.from_entries(dims, 0, [(((1, 0, 1, 1),), 1), (((1, 1, 1, 1),), 1)])
    with pytest.raises(TensorError, match=NOT_CHARACTERISTIC):
        decode_config(bad)
    # non-unit value
    bad = SparseTensor.from_entries(dims, 0, [(((1, 0, 1, 1),), 2), (((2, 0, 1, 1),), 1)])
    with pytest.raises(TensorError, match=NOT_CHARACTERISTIC):
        decode_config(bad)
    # bookkeeping state in an entry
    bad = SparseTensor.from_entries(dims, 0, [(((1, 0, 0, 1),), 1), (((2, 0, 0, 1),), 1)])
    with pytest.raises(TensorError, match="state 0 outside"):
        decode_config(bad)
    with pytest.raises(TensorError, match="only configuration tensors"):
        decode_config(SparseTensor(dims, 1, {}))


# Tensors on a 3-cell window that the plain constructor accepts unchecked.
# Each packed field of Dims(3, 3, 3) holds one value past its range.
@pytest.mark.parametrize(
    "quads, message",
    [
        ([(1, 3, 1, 1), (2, 0, 1, 1), (3, 0, 1, 1)], "symbol index 3 outside 0..2"),
        ([(1, 0, 1, 4), (2, 0, 1, 4), (3, 0, 1, 4)], "head 4 outside 1..3"),
        ([(1, 0, 3, 1), (2, 0, 3, 1), (3, 0, 3, 1)], "state 3 outside 1..2"),
        ([(1, 0, 1, 1), (2, 0, 1, 1), (4, 0, 1, 1)], NOT_CHARACTERISTIC),
    ],
    ids=["symbol-3", "head-4", "state-3", "cell-4"],
)
def test_decode_rejects_out_of_range_entries(quads, message):
    bad = tensor_of(Dims(3, 3, 3), 0, {(quad,): 1 for quad in quads})
    with pytest.raises(TensorError, match=message):
        decode_config(bad)


def test_decode_rejects_keys_wider_than_one_quad():
    # The low quads alone are the characteristic tensor of a configuration.
    dims = Dims(2, 2, 2)
    config = Configuration((1, 0), head=1, state=1)
    wide = {coord | 1 << dims.quad_bits: 1 for coord in encode_config(config, dims).entries}
    with pytest.raises(TensorError, match=NOT_CHARACTERISTIC):
        decode_config(SparseTensor(dims, 0, wide))


def malformed_mutants(a):
    """(label, entries keyed by quads) for every one-entry change of the
    configuration tensor ``a`` that no configuration encodes to: the entry
    dropped, its value set to 2, or its state, head, cell or symbol moved out
    of what ``encode_config`` writes (cell and head also to one past the
    window, and each to one past its range where the packed field holds it)."""
    dims = a.dims
    one_past = range(1, dims.cells + 2)
    entries = quads_of(a)
    for coord in entries:
        i, j, k, l = coord[0]
        rest = {c: v for c, v in entries.items() if c != coord}
        yield f"cell {i} dropped", rest
        yield f"cell {i} value 2", {**rest, coord: 2}
        moved = (
            [(i, j, k2, l) for k2 in (0, dims.states)]
            + [(i, j, k, l2) for l2 in one_past if l2 != l]
            + [(i2, j, k, l) for i2 in one_past if i2 != i]
            + [(i, dims.symbols, k, l)]
        )
        for quad in moved:
            if dims.unpack(dims.quad(*quad), 0) == (quad,):
                yield f"cell {i} as {quad}", {**rest, (quad,): 1}


def test_decode_rejects_every_malformed_mutant(corpus):
    # At 3 cells the cell and head fields hold one past the window.
    for name, machine, tape in corpus:
        a = encode_config(initial_configuration(machine, tape, 3), machine.dims(3))
        labels = set()
        for label, entries in malformed_mutants(a):
            labels.add(label)
            try:
                decoded = decode_config(tensor_of(a.dims, 0, entries))
            except TensorError:
                continue
            pytest.fail(f"{name}, {label}: decoded to {decoded}")
        past = a.dims.cells + 1
        assert any(f"as ({past}," in label for label in labels), name
        assert any(label.endswith(f", {past})") for label in labels), name


def test_decode_reads_every_in_range_symbol_mutant(corpus):
    for name, machine, tape in corpus:
        config = initial_configuration(machine, tape, 4)
        a = encode_config(config, machine.dims(4))
        for i in range(1, 5):
            for j in range(a.dims.symbols):
                if j == config.tape[i - 1]:
                    continue
                entries = {c: v for c, v in quads_of(a).items() if c[0][0] != i}
                entries[((i, j, config.state, config.head),)] = 1
                mutant = tensor_of(a.dims, 0, entries)
                changed = config.tape[: i - 1] + (j,) + config.tape[i:]
                expected = Configuration(changed, head=config.head, state=config.state)
                assert decode_config(mutant) == expected, (name, i, j)
                assert encode_config(expected, a.dims) == mutant, (name, i, j)


configs = st.builds(
    Configuration,
    tape=st.tuples(*[st.integers(0, 2)] * 3),
    head=st.integers(1, 3),
    state=st.integers(1, 2),
)


@given(configs)
def test_encode_decode_round_trip(config):
    dims = Dims(3, 3, 3)
    a = encode_config(config, dims)
    assert a.nnz == dims.cells
    assert decode_config(a) == config


def test_encode_machine_m1_condition_entries(m1):
    tensor, dropped = encode_machine(m1, 4)
    # inactive cell keeps its symbol, successor state parked at slot 0
    assert tensor.get(((2, 1, 1, 1), (2, 1, 0, 1))) == 1
    # active cell follows the rule (read 1 in q1: write 1, stay q1, move right)
    assert tensor.get(((1, 1, 1, 1), (1, 1, 1, 2))) == 1
    # halt states absorb in place
    assert tensor.get(((3, 1, 2, 3), (3, 1, 2, 3))) == 1
    # no upper group ever carries state slot 0
    assert all(coord[0][2] != 0 for coord in quads_of(tensor))
    # right-edge moves are dropped and reported
    assert dropped == [(4, 0, 1), (4, 1, 1)]


def test_encode_machine_matches_brute_force(corpus):
    for name, machine, _ in corpus:
        for cells in (1, 2, 3, 4):
            dims = machine.dims(cells)
            tensor, dropped = encode_machine(machine, cells)
            assert quads_of(tensor) == brute_force_machine_tensor(machine, dims), (name, cells)
            assert dropped == brute_force_dropped(machine, dims), (name, cells)


def test_encode_machine_single_cell_window():
    # One non-halt state over one symbol, always moving right: every active
    # combination leaves a one-cell window, so only drops remain.
    machine = parse_machine(
        "states: q1\nstart: q1\nhalt:\nsymbols: _\ndelta: q1 _ -> q1 _ R\n"
    )
    tensor, dropped = encode_machine(machine, 1)
    assert tensor.nnz == 0
    assert dropped == [(1, 0, 1)]


def test_restrict_k_nonzero():
    dims = Dims(2, 2, 2)
    t = SparseTensor.from_entries(
        dims, 0, [(((1, 1, 0, 1),), 3), (((1, 1, 1, 2),), 1)]
    )
    restricted = restrict_k_nonzero(t)
    assert quads_of(restricted) == {((1, 1, 1, 2),): 1}

    untouched = SparseTensor.from_entries(dims, 0, [(((1, 1, 1, 2),), 4)])
    assert restrict_k_nonzero(untouched) == untouched

    zero = SparseTensor(dims, 0, {})
    assert restrict_k_nonzero(zero) == zero

    with pytest.raises(TensorError, match="applies to configuration tensors"):
        restrict_k_nonzero(SparseTensor(dims, 1, {}))
