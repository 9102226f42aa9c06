import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tmtensor import Dims, SparseTensor, TensorError
from tmtensor.harness import _first_difference

DIMS = Dims(cells=2, symbols=2, states=2)

X = ((1, 1, 1, 1),)
Y = ((2, 0, 1, 2),)


def test_dims_validation():
    with pytest.raises(ValueError):
        Dims(0, 1, 2)
    with pytest.raises(ValueError):
        Dims(1, 0, 2)
    with pytest.raises(ValueError):
        Dims(1, 1, 1)  # slot 0 alone is not a machine


def test_from_entries_empty_is_zero():
    t = SparseTensor.from_entries(DIMS, 0, [])
    assert t.nnz == 0
    assert t.is_zero


def test_from_entries_cancellation():
    t = SparseTensor.from_entries(DIMS, 0, [(X, 2), (X, -2)])
    assert t.nnz == 0


def test_from_entries_distinct_coords():
    t = SparseTensor.from_entries(DIMS, 0, [(X, 1), (Y, 3)])
    assert t.nnz == 2
    assert t.get(X) == 1
    assert t.get(Y) == 3


def test_from_entries_sums_duplicates():
    t = SparseTensor.from_entries(DIMS, 0, [(X, 1), (X, 4)])
    assert t.get(X) == 5


def test_from_entries_rejects_floats():
    with pytest.raises(TypeError):
        SparseTensor.from_entries(DIMS, 0, [(X, 1.5)])


def test_from_entries_range_and_arity_errors():
    with pytest.raises(TensorError, match="is outside"):
        SparseTensor.from_entries(DIMS, 0, [(((3, 0, 0, 1),), 1)])
    with pytest.raises(TensorError, match="is outside"):
        SparseTensor.from_entries(DIMS, 0, [(((1, 2, 0, 1),), 1)])
    with pytest.raises(TensorError, match="coordinate has 2 quads"):
        SparseTensor.from_entries(DIMS, 0, [((X[0], X[0]), 1)])
    with pytest.raises(TensorError, match="does not have 4 components"):
        SparseTensor.from_entries(DIMS, 0, [(((1, 1, 1),), 1)])


def test_get_zero_tensor():
    assert SparseTensor(DIMS, 0, {}).get(X) == 0


def test_get_arity_mismatch():
    t = SparseTensor.from_entries(DIMS, 0, [(X, 1)])
    with pytest.raises(TensorError, match="coordinate has 2 quads"):
        t.get((X[0], Y[0]))


def test_equality_is_shape_and_entries():
    t = SparseTensor.from_entries(DIMS, 0, [(X, 1)])
    assert t == t
    assert SparseTensor(DIMS, 0, {}) == SparseTensor(DIMS, 0, {})
    assert t != SparseTensor.from_entries(DIMS, 0, [(X, 2)])
    # differing shape is inequality, not an error
    assert SparseTensor(DIMS, 0, {}) != SparseTensor(DIMS, 1, {})
    assert SparseTensor(DIMS, 0, {}) != SparseTensor(Dims(3, 2, 2), 0, {})


def test_repr_is_short():
    t = SparseTensor.from_entries(DIMS, 1, [((X[0], Y[0]), 5), ((X[0], X[0]), -2)])
    text = repr(t)
    assert text == "SparseTensor(cells=2, symbols=2, states=2, upper_count=1, nnz=2)"
    assert str(X[0]) not in text  # no coordinate is spelled out


def test_order_tracks_upper_count():
    assert SparseTensor(DIMS, 0, {}).order == 4
    assert SparseTensor(DIMS, 1, {}).order == 8
    assert SparseTensor(DIMS, 2, {}).order == 12


def test_dump_format_exact():
    t = SparseTensor.from_entries(DIMS, 1, [((X[0], Y[0]), 1), ((X[0], X[0]), -2)])
    assert t.to_text() == (
        "dims 2 1 1  upper 1\n"
        "1 1 1 1 | 1 1 1 1 : -2\n"
        "1 1 1 1 | 2 0 1 2 : 1\n"
    )


def test_dump_round_trip_byte_identical():
    t = SparseTensor.from_entries(DIMS, 1, [((X[0], Y[0]), 7), ((Y[0], X[0]), -3)])
    text = t.to_text()
    again = SparseTensor.from_text(text)
    assert again == t
    assert again.to_text() == text


def test_dump_round_trip_zero_tensor():
    t = SparseTensor(Dims(4, 2, 3), 0, {})
    assert SparseTensor.from_text(t.to_text()) == t


def test_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        SparseTensor.from_text("")
    with pytest.raises(ValueError):
        SparseTensor.from_text("not a header\n")
    with pytest.raises(ValueError):
        SparseTensor.from_text("dims 2 1 1  upper 0\n1 1 1 1\n")
    with pytest.raises(ValueError):
        SparseTensor.from_text("dims 2 1 1  upper -1\n")  # no order-0 tensors


@pytest.mark.parametrize(
    "line, message",
    [
        ("1 0 1 1 | 1 0 1 1 : 1", "coordinate has 2 quads"),
        ("1 0 1 : 1", "does not have 4 components"),
        ("3 0 1 1 : 1", "is outside"),
    ],
)
def test_from_text_raises_tensor_error_on_a_coordinate_from_entries_refuses(line, message):
    with pytest.raises(TensorError, match=message):
        SparseTensor.from_text(f"dims 2 1 1  upper 0\n{line}\n")


def test_from_text_rejects_duplicate_lines():
    with pytest.raises(ValueError):
        SparseTensor.from_text("dims 2 1 1  upper 0\n1 1 1 1 : 1\n1 1 1 1 : 1\n")


def test_from_text_rejects_unsorted_lines():
    with pytest.raises(ValueError):
        SparseTensor.from_text("dims 2 1 1  upper 0\n2 0 1 2 : -1\n1 1 1 1 : 2\n")


def test_from_text_rejects_zero_lines():
    with pytest.raises(ValueError):
        SparseTensor.from_text("dims 2 1 1  upper 0\n1 1 1 1 : 2\n2 0 1 2 : 0\n")


def test_from_text_rejects_blank_lines():
    with pytest.raises(ValueError):
        SparseTensor.from_text("dims 2 1 1  upper 0\n\n1 1 1 1 : 2\n2 0 1 2 : -1\n")


quad = st.tuples(
    st.integers(1, 2), st.integers(0, 1), st.integers(0, 1), st.integers(1, 2)
)
entry_lists = st.lists(st.tuples(st.tuples(quad), st.integers(-3, 3)), max_size=24)


@given(entry_lists)
def test_canonical_form(entries):
    t = SparseTensor.from_entries(DIMS, 0, entries)
    assert all(value != 0 for value in t.entries.values())
    sums = {}
    for coord, value in entries:
        sums[coord] = sums.get(coord, 0) + value
    for coord, value in sums.items():
        assert t.get(coord) == value
    assert t.nnz == sum(1 for v in sums.values() if v)


@given(entry_lists, entry_lists)
def test_equality_matches_summed_maps(e1, e2):
    t1 = SparseTensor.from_entries(DIMS, 0, e1)
    t2 = SparseTensor.from_entries(DIMS, 0, e2)
    sums1: dict = {}
    for coord, value in e1:
        sums1[coord] = sums1.get(coord, 0) + value
    sums2: dict = {}
    for coord, value in e2:
        sums2[coord] = sums2.get(coord, 0) + value
    same = {c for c, v in sums1.items() if v} == {c for c, v in sums2.items() if v} and all(
        sums1[c] == sums2.get(c, 0) for c in sums1
    )
    assert (t1 == t2) == same


# Packed coordinates.  Dims of one cell or one symbol give a field of width 0;
# nine quads of the widest Dims below take 126 bits.
any_dims = st.builds(Dims, cells=st.integers(1, 9), symbols=st.integers(1, 5), states=st.integers(2, 6))


def quads_in(dims):
    return st.tuples(
        st.integers(1, dims.cells),
        st.integers(0, dims.symbols - 1),
        st.integers(0, dims.states - 1),
        st.integers(1, dims.cells),
    )


@st.composite
def coordinate_pairs(draw):
    dims = draw(any_dims)
    upper_count = draw(st.integers(0, 8))
    c1 = draw(st.tuples(*[quads_in(dims)] * (upper_count + 1)))
    # The second coordinate changes one quad of the first, so that the two
    # share a prefix of any length.
    pos = draw(st.integers(0, upper_count))
    return dims, upper_count, c1, c1[:pos] + (draw(quads_in(dims)),) + c1[pos + 1 :]


@given(coordinate_pairs())
@example((Dims(1, 1, 2), 8, ((1, 0, 1, 1),) * 9, ((1, 0, 0, 1),) * 9))
@example((Dims(9, 5, 6), 8, ((9, 4, 5, 9),) * 9, ((9, 4, 5, 8),) * 9))
def test_packing_round_trips_and_keeps_lexicographic_order(case):
    dims, upper_count, c1, c2 = case
    k1, k2 = dims.pack(c1), dims.pack(c2)
    assert dims.unpack(k1, upper_count) == c1
    assert dims.unpack(k2, upper_count) == c2
    assert 0 <= k1 < 1 << dims.quad_bits * (upper_count + 1)
    assert (k1 < k2) == (c1 < c2) and (k1 == k2) == (c1 == c2)


def test_pack_refuses_a_quad_outside_its_dims():
    # At Dims(4, 2, 3) the head field has 2 bits: head 5 (l - 1 = 4) would
    # spill into the state field's low bit, which state 1 already sets, and
    # give the key of head 1.
    dims = Dims(4, 2, 3)
    assert dims.pack([(1, 0, 1, 1)]) == 4
    with pytest.raises(TensorError, match=r"quad \(1, 0, 1, 5\) is outside Dims\(cells=4, symbols=2, states=3\)"):
        dims.pack([(1, 0, 1, 5)])
    for quad in [(0, 0, 1, 1), (5, 0, 1, 1), (1, -1, 1, 1), (1, 2, 1, 1), (1, 0, -1, 1), (1, 0, 3, 1), (1, 0, 1, 0)]:
        with pytest.raises(TensorError, match="is outside"):
            dims.pack([(1, 0, 1, 1), quad])


def test_packing_gives_a_one_value_field_width_0_and_goes_past_64_bits():
    assert Dims(1, 1, 2).quad_bits == 1
    assert Dims(1, 1, 2).pack([(1, 0, 1, 1)] * 9) == (1 << 9) - 1
    widest = Dims(9, 5, 6)
    assert widest.quad_bits == 14
    assert widest.pack([(9, 4, 5, 9)] * 9) >= 1 << 64


@st.composite
def sparse_tensors(draw, upper_counts):
    dims = draw(st.builds(Dims, cells=st.integers(1, 4), symbols=st.integers(1, 3), states=st.integers(2, 4)))
    upper_count = draw(upper_counts)
    coord = st.tuples(*[quads_in(dims)] * (upper_count + 1))
    entries = draw(st.lists(st.tuples(coord, st.integers(-3, 3)), max_size=20))
    return dims, upper_count, entries


@given(sparse_tensors(st.integers(4, 6)))
def test_dump_round_trips_a_sparse_tensor_of_many_upper_groups(case):
    dims, upper_count, entries = case
    t = SparseTensor.from_entries(dims, upper_count, entries)
    sums = {}
    for coord, value in entries:
        sums[coord] = sums.get(coord, 0) + value
    lines = [
        " | ".join(" ".join(map(str, quad)) for quad in coord) + f" : {value}"
        for coord, value in sorted(sums.items()) if value
    ]
    assert t.to_text().splitlines()[1:] == lines
    assert SparseTensor.from_text(t.to_text()) == t


@given(sparse_tensors(st.integers(2, 4)), st.data())
def test_first_difference_is_the_lexicographic_minimum(case, data):
    dims, upper_count, entries = case
    others = data.draw(st.lists(st.sampled_from(entries), max_size=len(entries))) if entries else []
    t1 = SparseTensor.from_entries(dims, upper_count, entries)
    t2 = SparseTensor.from_entries(dims, upper_count, others)
    differ = [coord for coord, _ in entries + others if t1.get(coord) != t2.get(coord)]
    witness = _first_difference(t1, t2)
    if differ:
        assert dims.unpack(witness, upper_count) == min(differ)
    else:
        assert witness is None
