import collections
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmtensor import (
    Configuration,
    Dims,
    ResourceLimit,
    SparseTensor,
    TensorError,
    encode_config,
    encode_machine,
    evolve,
    factors,
    initial_configuration,
    oracle_run,
    restrict_k_nonzero,
    type1,
    type2,
    type2_power,
)
from tmtensor.harness import mixed_assoc_trial, random_tensor

from conftest import input_words, quads_of, tensor_of

DIMS = Dims(2, 2, 2)
BIG = Dims(3, 2, 3)


def brute_force_type1(a, b):
    """Both defining sums evaluated over the full index space.  An upper group
    outside supp(a) weighs 0, so the sum over upper groups runs over supp(a)."""
    dims = a.dims
    p = b.upper_count
    a_entries, b_entries = quads_of(a), quads_of(b)
    quads = list(dims.iter_quads())
    support = [x for x in quads if (x,) in a_entries]
    entries = {}
    for i, j, k, l in quads:
        local_sum = 0
        global_sum = 0
        for uppers in itertools.product(support, repeat=p):
            weight = 1
            for x in uppers:
                weight *= a_entries[(x,)]
            for k2 in range(dims.states):
                for l2 in range(1, dims.cells + 1):
                    local_sum += weight * b_entries.get(uppers + ((i, j, k2, l2),), 0)
            for i2 in range(1, dims.cells + 1):
                for j2 in range(dims.symbols):
                    global_sum += weight * b_entries.get(uppers + ((i2, j2, k, l),), 0)
        if local_sum and global_sum:
            entries[((i, j, k, l),)] = local_sum * global_sum
    return entries


def brute_force_type2_order8(b, c):
    """The composition sum for order-8 operands, straight from its definition."""
    dims = b.dims
    b_entries, c_entries = quads_of(b), quads_of(c)
    quads = list(dims.iter_quads())
    entries = {}
    for x1 in quads:
        for x2 in quads:
            for z in quads:
                total = 0
                for yp in quads:  # the quad contracted against c's upper group
                    ip, jp, kp, lp = yp
                    cz = c_entries.get((yp, z), 0)
                    if not cz:
                        continue
                    for ipp, jpp, kpp, lpp in quads:  # summed away entirely
                        total += (
                            b_entries.get((x1, (ip, jp, kpp, lpp)), 0)
                            * b_entries.get((x2, (ipp, jpp, kp, lp)), 0)
                            * cz
                        )
                if total:
                    entries[(x1, x2, z)] = total
    return entries


def brute_force_type2(b, c):
    """The composition sum for any upper counts, straight from its definition.

    Each upper quad y of an entry of c is replaced by the uppers U V of a pair
    of b's entries: the first with lower (cell, symbol) equal to y's, the
    second with lower (state, head) equal to y's.  Keys are U_1 V_1 .. U_q V_q z;
    no marginal is formed.
    """
    entries = {}
    b_entries = quads_of(b)
    for coord, cv in quads_of(c).items():
        *slots, z = coord
        choices = []
        for i, j, k, l in slots:
            firsts = [(u[:-1], bu) for u, bu in b_entries.items() if u[-1][:2] == (i, j)]
            seconds = [(v[:-1], bv) for v, bv in b_entries.items() if v[-1][2:] == (k, l)]
            choices.append([(u + v, bu * bv) for u, bu in firsts for v, bv in seconds])
        for picks in itertools.product(*choices):
            key, value = (), cv
            for uv, weight in picks:
                key += uv
                value *= weight
            key += (z,)
            entries[key] = entries.get(key, 0) + value
    return {key: value for key, value in entries.items() if value}


def first_slot_rows(b, c):
    """How c's first upper slot meets b's uppers U.  Group c's entries by the
    quads after the first, and within a group by the first quad's (i, j) pair;
    a pair's row is h(V) = sum_kl G(V; kl) c(ij kl ..; z), where G is b's
    (state, head) marginal.  Counts the sums h(V) that have a nonzero term and
    still come to 0 ("cancelled h"); the (group, pair) rows with a nonzero
    term whose every h(V) comes to 0 ("cancelled row"), and the (group, U)
    whose L holds U at such a row and at no pair with a nonzero row
    ("cancelled row, U alone") or at one or more ("cancelled row, U shared");
    the (group, U) whose L holds U at exactly one pair with a nonzero row
    ("single") and at two or more ("merged"); and the merged sums
    sum_ij L(U; ij) h_ij(V) that have a nonzero term and still come to 0
    ("cancelled merged").  Also counts the groups that hold exactly one pair,
    whose row is nonzero ("lone pair"), and those of them whose L holds a
    weight other than 0 and 1 ("lone pair, L weight not 0 or 1").  Of the
    groups that hold two or more pairs, counts those whose set of pairs an
    earlier group already had ("repeated pair set") and those whose set is
    new although an earlier group had as many pairs ("new pair set, seen
    size"); neither depends on the order of the groups."""
    margins = {"local": {}, "global": {}}
    for coord, value in quads_of(b).items():
        i, j, k, l = coord[-1]
        for side, pair in (("local", (i, j)), ("global", (k, l))):
            sums = margins[side].setdefault(pair, {})
            sums[coord[:-1]] = sums.get(coord[:-1], 0) + value
    rows = {}
    for (y, *rest), cv in quads_of(c).items():
        i, j, k, l = y
        row = rows.setdefault((tuple(rest), (i, j)), {})
        for upper, g in margins["global"].get((k, l), {}).items():
            if g:
                row[upper] = row.get(upper, 0) + cv * g
    counts = dict.fromkeys(
        ("cancelled h", "cancelled row", "cancelled row, U alone", "cancelled row, U shared",
         "single", "merged", "cancelled merged", "lone pair", "lone pair, L weight not 0 or 1"),
        0,
    )
    pair_sets = collections.defaultdict(set)
    for rest, pair in rows:
        pair_sets[rest].add(pair)
    shared = [frozenset(pairs) for pairs in pair_sets.values() if len(pairs) > 1]
    counts["repeated pair set"] = len(shared) - len(set(shared))
    counts["new pair set, seen size"] = len(set(shared)) - len({len(pairs) for pairs in shared})
    held = {}
    cancelled = set()
    for (rest, pair), row in rows.items():
        counts["cancelled h"] += sum(1 for hv in row.values() if not hv)
        counts["cancelled row"] += bool(row) and not any(row.values())
        live = {v: hv for v, hv in row.items() if hv}
        if len(pair_sets[rest]) == 1 and live:
            counts["lone pair"] += 1
            weights = set(margins["local"].get(pair, {}).values())
            counts["lone pair, L weight not 0 or 1"] += bool(weights - {0, 1})
        for u, weight in margins["local"].get(pair, {}).items():
            if weight and live:
                held.setdefault((rest, u), []).append({v: weight * hv for v, hv in live.items()})
            elif weight and row:
                cancelled.add((rest, u))
    for key in cancelled:
        counts["cancelled row, U shared" if key in held else "cancelled row, U alone"] += 1
    for parts in held.values():
        if len(parts) == 1:
            counts["single"] += 1
            continue
        counts["merged"] += 1
        sums = {}
        for part in parts:
            for v, term in part.items():
                sums[v] = sums.get(v, 0) + term
        counts["cancelled merged"] += sum(1 for value in sums.values() if not value)
    return counts


def pairs_of(dims, local, glob):
    """The factors keyed by (i, j) and (k, l) pairs, read back through
    ``Dims.unpack`` from a quad's upper and lower ``kl_bits``."""
    return (
        {dims.unpack(ij << dims.kl_bits, 0)[0][:2]: value for ij, value in local.items()},
        {dims.unpack(kl, 0)[0][2:]: value for kl, value in glob.items()},
    )


def test_factors_on_m1(m1):
    dims = m1.dims(4)
    a1 = encode_config(Configuration((1, 1, 0, 0), head=1, state=1), dims)
    b = encode_machine(m1, 4).tensor
    assert pairs_of(dims, *factors(a1, b)) == (
        {(1, 1): 1, (2, 1): 1, (3, 0): 1, (4, 0): 1},
        {(0, 1): 3, (1, 2): 1},
    )


class CountedEntries(dict):
    """A tensor's entries that count how often they are iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()

    def keys(self):
        self.iterations += 1
        return super().keys()

    def values(self):
        self.iterations += 1
        return super().values()

    def items(self):
        self.iterations += 1
        return super().items()


def counted(t):
    """``t`` and its entries, which count how often they are iterated."""
    entries = CountedEntries(t.entries)
    return SparseTensor(t.dims, t.upper_count, entries), entries


def test_factors_zero_configuration(m1):
    # type1(0, b) = 0 for every b, so no entry of b is read.
    dims = m1.dims(4)
    entries = CountedEntries(encode_machine(m1, 4).tensor.entries)
    b = SparseTensor(dims, 1, entries)
    zero = SparseTensor(dims, 0, {})
    assert factors(zero, b) == ({}, {})
    assert type1(zero, b).is_zero
    assert entries.iterations == 0


def test_factors_empty_transition_reads_nothing():
    # type1(a, 0) = 0: neither |supp(a)|^u nor a candidate list is worked out,
    # however wide b's keys are.
    dims = Dims(3, 2, 2)
    a = encode_config(Configuration((1, 0, 1), head=2, state=1), dims)
    b = SparseTensor(dims, 2**20, {})
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert factors(a, b) == ({}, {})
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_factors_single_entry():
    b = SparseTensor.from_entries(DIMS, 1, [(((1, 1, 1, 1), (2, 0, 1, 2)), 1)])
    a = SparseTensor.from_entries(DIMS, 0, [(((1, 1, 1, 1),), 5)])
    assert pairs_of(DIMS, *factors(a, b)) == ({(2, 0): 5}, {(1, 2): 5})


def test_type1_m1_worked_product(m1):
    dims = m1.dims(4)
    c1 = Configuration((1, 1, 0, 0), head=1, state=1)
    a1 = encode_config(c1, dims)
    b = encode_machine(m1, 4).tensor
    a2 = type1(a1, b)
    cells = {(1, 1), (2, 1), (3, 0), (4, 0)}
    expected = {((i, j, 1, 2),): 1 for i, j in cells}
    expected.update({((i, j, 0, 1),): 3 for i, j in cells})
    assert quads_of(a2) == expected
    # restriction recovers the next simulator configuration
    trace = oracle_run(m1, c1, 1)
    assert restrict_k_nonzero(a2) == encode_config(trace.configs[1], dims)


def test_type1_zero_inputs(m1):
    dims = m1.dims(4)
    b = encode_machine(m1, 4).tensor
    assert type1(SparseTensor(dims, 0, {}), b).is_zero
    assert type1(SparseTensor(dims, 0, {}), SparseTensor(dims, 1, {})).is_zero


def test_type1_operand_checks(m1):
    dims = m1.dims(4)
    b = encode_machine(m1, 4).tensor
    with pytest.raises(TensorError, match="operands disagree on dims"):
        type1(SparseTensor(Dims(3, 2, 3), 0, {}), b)
    with pytest.raises(TensorError, match="left operand must be a configuration tensor"):
        type1(SparseTensor(dims, 1, {}), b)
    with pytest.raises(TensorError, match="right operand must be a transition tensor"):
        type1(SparseTensor(dims, 0, {}), SparseTensor(dims, 0, {}))


def test_type1_refuses_an_outer_product_over_the_cap():
    # One upper quad fans out to every (cell, symbol) and every (state, head):
    # 9,199 entries of b whose factors would multiply out to 4,600 * 4,600 =
    # 21,160,000 entries, over DEFAULT_CAP.
    dims = Dims(2300, 2, 2)
    upper = (1, 0, 1, 1)
    lowers = {(i, j, 1, 1) for i in range(1, 2301) for j in range(2)}
    lowers |= {(1, 0, k, l) for k in range(2) for l in range(1, 2301)}
    b = tensor_of(dims, 1, {(upper, lower): 1 for lower in lowers})
    assert b.nnz == 9199
    a = tensor_of(dims, 0, {(upper,): 1})
    local, glob = factors(a, b)
    assert len(local) * len(glob) == 21_160_000
    with pytest.raises(ResourceLimit, match="21160000 entries"):
        type1(a, b)


def random_operand(upper_count, density, seed, signed, dims=DIMS):
    """``random_tensor`` with values 1..3; a signed operand has each value
    minus 2, so its stored values are +-1 and its sums can cancel."""
    t = random_tensor(dims, upper_count, density=density, value_bound=3, seed=seed)
    if signed:
        t = SparseTensor.from_entries(dims, upper_count, ((c, v - 2) for c, v in quads_of(t).items()))
    return t


def type1_operands(p, seed, signed):
    """A configuration and a transition operand with upper count p.  At p = 4
    the transition operand is the composite of random p = 1 and q = 2 operands."""
    a = random_operand(0, 0.6 if signed else 0.4, seed, signed)
    if p == 4:
        b = type2(random_operand(1, 0.05, seed + 100, signed), random_operand(2, 0.05, seed + 200, signed))
    else:
        b = random_operand(p, 0.4 if signed else 0.2, seed + 100, signed)
    return a, b


def first_misses(a, b):
    """The upper positions at which entries of b first leave supp(a)."""
    misses = set()
    a_entries = quads_of(a)
    for coord in quads_of(b):
        for pos, quad in enumerate(coord[:-1]):
            if (quad,) not in a_entries:
                misses.add(pos)
                break
    return misses


def cancelled_factor_sums(a, b):
    """How many local and global sums of type1(a, b) have a nonzero term and
    still come to 0."""
    sums = {}
    a_entries = quads_of(a)
    for coord, value in quads_of(b).items():
        for quad in coord[:-1]:
            value *= a_entries.get((quad,), 0)
        if value:
            i, j, k, l = coord[-1]
            for key in (("local", i, j), ("global", k, l)):
                sums[key] = sums.get(key, 0) + value
    return sum(1 for value in sums.values() if not value)


@pytest.mark.parametrize(
    "p,seed,signed",
    [
        pytest.param(p, seed, signed, id=f"{p}-{seed}" + "-signed" * signed)
        for signed in (False, True)
        for p, seed in [(1, 0), (1, 1), (2, 2), (2, 3), (3, 4), (3, 5), (4, 7), (4, 9)]
    ],
)
def test_type1_matches_brute_force(p, seed, signed):
    a, b = type1_operands(p, seed, signed)
    # Some entry of b leaves supp(a) first at each upper position: the first,
    # every middle one and the last.
    assert first_misses(a, b) == set(range(p))
    if signed and p >= 3:  # these seeds were picked so that sums cancel
        assert cancelled_factor_sums(a, b)
    assert quads_of(type1(a, b)) == brute_force_type1(a, b)


def with_zeros(t, coords):
    """``t`` plus an explicitly stored 0 at each coordinate it lacks."""
    return tensor_of(t.dims, t.upper_count, {**dict.fromkeys(coords, 0), **quads_of(t)})


@pytest.mark.parametrize(
    "p,seed,locates",
    [(1, 0, True), (2, 2, True), (3, 5, True), (4, 7, False)],
    ids=["1-0", "2-2", "3-5", "4-7"],
)
def test_explicit_zero_entries_change_no_factor(p, seed, locates):
    a, b = type1_operands(p, seed, signed=True)
    support = [quad for (quad,) in quads_of(a)]
    a0 = with_zeros(a, [(quad,) for quad in a.dims.iter_quads()])
    # Stored zeros of b on a's support reach the sums.  On the scan side a's
    # stored zeros sit at the first upper quad of some entry of b, where the
    # scan tests membership; on the locate side no candidate is drawn from them.
    b0 = with_zeros(b, [(quad,) * p + (lower,) for quad in support for lower in b.dims.iter_quads()])
    assert any(coord[0] not in support for coord in quads_of(b))
    assert a0.nnz == a.dims.quad_count and b0.nnz > b.nnz
    expected = factors(a, b)
    for left, right in ((a0, b), (a, b0), (a0, b0)):
        assert factors(left, right) == expected
        assert type1(left, right) == type1(a, b)
    # With b0 holding the zeros, the locate side looks candidates up and never
    # iterates it; the scan side iterates it once.
    right, entries = counted(b0)
    assert factors(a0, right) == expected
    assert entries.iterations == (0 if locates else 1)
    # A left operand whose every stored value is 0 reads nothing of b.
    right, entries = counted(b0)
    zeros = SparseTensor(a.dims, 0, dict.fromkeys(a0.entries, 0))
    assert factors(zeros, right) == ({}, {})
    assert entries.iterations == 0


@pytest.mark.parametrize(
    "dims,p,q,seed",
    [(BIG, 1, 1, 0), (DIMS, 1, 2, 1), (DIMS, 2, 1, 1)],
    ids=["BIG-1-1", "SMALL-1-2", "SMALL-2-1"],
)
def test_type1_locates_on_the_composites_of_criterion_2(dims, p, q, seed):
    # The shapes of criterion 2's type1(a, b∘c), at density 0.05 so that type2
    # stays cheap: a sparse a gives far fewer candidate coordinates than the
    # composite stores, so no entry of it is iterated.
    a = random_tensor(dims, 0, density=0.05, value_bound=3, seed=seed)
    bc = type2(
        random_tensor(dims, p, density=0.05, value_bound=3, seed=seed + 10),
        random_tensor(dims, q, density=0.05, value_bound=3, seed=seed + 20),
    )
    assert a.nnz ** bc.upper_count * dims.quad_count < bc.nnz
    b, entries = counted(bc)
    result = type1(a, b)
    assert entries.iterations == 0 and not result.is_zero
    assert quads_of(result) == brute_force_type1(a, bc)


def test_type1_locates_on_binary_increments_cube(increment):
    # B³ at window 2 holds 47,008 entries; A_1 and A_2 need 768 and 12,288
    # candidate lookups.
    b = encode_machine(increment, 2).tensor
    power = type2_power(b, 3)
    cube, entries = counted(power)
    assert cube.nnz == 47008
    a1 = encode_config(initial_configuration(increment, ["0"], 2), b.dims)
    for a in (a1, type1(a1, b)):
        result = type1(a, cube)
        assert not result.is_zero
        assert quads_of(result) == brute_force_type1(a, power)
    assert entries.iterations == 0


@pytest.mark.parametrize("cells", [16, 48])
def test_an_encoded_machine_is_scanned_once_per_step(corpus, cells):
    # B has upper count 1 and fewer entries than the window has quads, so
    # even a one-entry a has at least as many candidates as B has entries.
    for name, machine, tape in corpus:
        b, entries = counted(encode_machine(machine, cells).tensor)
        assert b.nnz < b.dims.quad_count, name
        a1 = encode_config(initial_configuration(machine, tape, cells), b.dims)
        assert not type1(a1, b).is_zero
        assert entries.iterations == 1, name


def scaled(t, factor):
    """t with every value multiplied by a nonzero factor."""
    return SparseTensor(t.dims, t.upper_count, {c: factor * v for c, v in t.entries.items()})


LAW_CASES = [
    pytest.param(p, seed, lam, id=f"{p}-{seed}-lambda{lam}")
    for p, seed in [(1, 0), (2, 3), (4, 7)]
    for lam in (-2, 3)
]


@pytest.mark.parametrize("p,seed,lam", LAW_CASES)
def test_type1_is_homogeneous_of_degree_2u_in_a(p, seed, lam):
    # Each factor sums terms with p values of a (p = u, b's upper count), so
    # the outer product has degree 2p in a.
    a, b = type1_operands(p, seed, signed=True)
    expected = type1(a, b)
    assert not expected.is_zero
    assert type1(scaled(a, lam), b) == scaled(expected, lam ** (2 * p))


@pytest.mark.parametrize("p,seed,lam", LAW_CASES)
def test_type1_is_homogeneous_of_degree_2_in_b(p, seed, lam):
    # Each factor sums terms with one value of b, so the outer product has
    # degree 2 in b.
    a, b = type1_operands(p, seed, signed=True)
    expected = type1(a, b)
    assert not expected.is_zero
    assert type1(a, scaled(b, lam)) == scaled(expected, lam ** 2)


@pytest.mark.parametrize("seed", range(4))
def test_type1_equals_factor_outer_product(seed):
    a = random_tensor(DIMS, 0, density=0.4, value_bound=3, seed=seed)
    b = random_tensor(DIMS, 1, density=0.2, value_bound=3, seed=seed + 50)
    local, glob = pairs_of(DIMS, *factors(a, b))
    expected = {
        ((i, j, k, l),): lv * gv for (i, j), lv in local.items() for (k, l), gv in glob.items()
    }
    assert quads_of(type1(a, b)) == expected


@pytest.mark.parametrize(
    "seed,signed",
    [
        pytest.param(seed, signed, id=f"{seed}" + "-signed" * signed)
        for signed in (False, True)
        for seed in range(3)
    ],
)
def test_type2_matches_brute_force(seed, signed):
    density = 0.4 if signed else 0.15
    b = random_operand(1, density, seed, signed)
    c = random_operand(1, density, seed + 10, signed)
    d = type2(b, c)
    assert d.upper_count == 2
    assert quads_of(d) == brute_force_type2_order8(b, c)


@pytest.mark.parametrize(
    "p,q,density_b,density_c,seed",
    [
        pytest.param(*case, id=f"{case[0]}{case[1]}-signed")
        for case in [(1, 1, 0.3, 0.3, 0), (2, 1, 0.02, 0.2, 1), (1, 2, 0.05, 0.05, 2)]
    ],
)
def test_type2_matches_the_definition(p, q, density_b, density_c, seed):
    b = random_operand(p, density_b, seed, signed=True)
    c = random_operand(q, density_c, seed + 10, signed=True)
    d = type2(b, c)
    assert d.upper_count == 2 * p * q
    assert 0 not in d.entries.values()
    assert quads_of(d) == brute_force_type2(b, c)
    # Sums over the slot's (k, l) cancel to 0 before they meet L, and some
    # group holds a lone pair whose L weighs a U by neither 0 nor 1.
    rows = first_slot_rows(b, c)
    assert rows["cancelled h"] and rows["lone pair, L weight not 0 or 1"], rows


# Signed b; the seeds were picked so that some of b's marginals cancel to 0.
BASIS_SWEEP_CASES = {
    "11": (DIMS, 1, 1, 0.3, 0),
    "21": (DIMS, 2, 1, 0.02, 2),
    "12": (DIMS, 1, 2, 0.05, 37),
    "BIG": (BIG, 1, 1, 0.05, 3),
}


@pytest.mark.parametrize("case", BASIS_SWEEP_CASES)
def test_type2_matches_the_definition_on_every_basis_tensor(case):
    # type2 is linear in c, so its values on the single-entry tensors e_y, one
    # for every coordinate y, fix type2(b, c) for every c of that shape.
    dims, p, q, density, seed = BASIS_SWEEP_CASES[case]
    b = random_operand(p, density, seed, True, dims)
    # Some L and G marginals of b cancel to 0, and some do not.
    for lower in (lambda quad: quad[:2], lambda quad: quad[2:]):
        sums = {}
        for coord, value in quads_of(b).items():
            key = (coord[:-1], lower(coord[-1]))
            sums[key] = sums.get(key, 0) + value
        assert 0 in sums.values() and any(sums.values())
    nonzero = 0
    for y in itertools.product(dims.iter_quads(), repeat=q + 1):
        e_y = tensor_of(dims, q, {y: 1})
        d = type2(b, e_y)
        assert quads_of(d) == brute_force_type2(b, e_y), y
        nonzero += not d.is_zero
    assert nonzero


@pytest.mark.parametrize(
    "p,q,density_b,density_c,seed",
    [
        pytest.param(*case, id=f"{case[0]}{case[1]}-{case[4]}")
        for case in [(1, 1, 0.3, 0.3, 5), (1, 2, 0.05, 0.05, 4), (2, 1, 0.02, 0.2, 6)]
    ],
)
def test_type2_merges_the_rows_of_an_upper_held_by_several_pairs(p, q, density_b, density_c, seed):
    b = random_operand(p, density_b, seed, signed=True)
    c = random_operand(q, density_c, seed + 10, signed=True)
    rows = first_slot_rows(b, c)
    # Some U of b is held by one pair of a group, some by several, and some
    # merged sum cancels to 0 although its terms do not.  Some group of
    # several pairs has the pair set of an earlier one, and some has a new set
    # of a size already seen, so a merge plan must be keyed by the set itself.
    assert rows["single"] and rows["merged"] and rows["cancelled merged"], rows
    assert rows["repeated pair set"] and rows["new pair set, seen size"], rows
    d = type2(b, c)
    assert 0 not in d.entries.values()
    assert quads_of(d) == brute_force_type2(b, c)


@pytest.mark.parametrize(
    "density_b,seed,setting",
    [
        pytest.param(0.02, 5, "cancelled row, U shared", id="shared-5"),
        pytest.param(0.05, 18, "cancelled row, U alone", id="alone-18"),
    ],
)
def test_type2_spells_nothing_for_a_row_whose_sums_all_cancel(density_b, seed, setting):
    b = random_operand(1, density_b, seed, signed=True)
    c = random_operand(2, 0.2, seed + 10, signed=True)
    rows = first_slot_rows(b, c)
    # Some (i, j) row of a group has nonzero terms and every h(V) comes to 0;
    # its U is held by no live row of the group ("alone"), or also by one
    # ("shared").  The seeds were picked so that the setting occurs.
    assert rows["cancelled row"] and rows[setting], rows
    d = type2(b, c)
    assert 0 not in d.entries.values()
    assert quads_of(d) == brute_force_type2(b, c)


def added(t1, t2):
    """The entrywise sum of two tensors of one shape, zeros dropped."""
    return SparseTensor.from_entries(t1.dims, t1.upper_count, [*quads_of(t1).items(), *quads_of(t2).items()])


TYPE2_LAW_OPERANDS = {
    "11": (DIMS, 1, 1, 0.3, 0.3, 0),
    "21": (DIMS, 2, 1, 0.02, 0.2, 1),
    "12": (DIMS, 1, 2, 0.05, 0.05, 2),
    "BIG": (BIG, 1, 1, 0.1, 0.1, 3),
}


def type2_law_operands(case):
    """Signed b, and two signed c drawn from different seeds, so that their
    sum keeps some entries, cancels some and adds new ones."""
    dims, p, q, density_b, density_c, seed = TYPE2_LAW_OPERANDS[case]
    b = random_operand(p, density_b, seed, True, dims)
    c1 = random_operand(q, density_c, seed + 10, True, dims)
    c2 = random_operand(q, density_c, seed + 20, True, dims)
    return b, c1, c2


@pytest.mark.parametrize("case", TYPE2_LAW_OPERANDS)
def test_type2_is_additive_in_c(case):
    b, c1, c2 = type2_law_operands(case)
    shared = c1.entries.keys() & c2.entries.keys()
    assert any(c1.entries[x] + c2.entries[x] == 0 for x in shared)  # some entries cancel
    assert any(c1.entries[x] == c2.entries[x] for x in shared)  # some add up
    expected = added(type2(b, c1), type2(b, c2))
    assert not expected.is_zero
    assert type2(b, added(c1, c2)) == expected


TYPE2_SCALING_CASES = [
    pytest.param(case, lam, id=f"{case}-lambda{lam}") for case in TYPE2_LAW_OPERANDS for lam in (-2, 3)
]


@pytest.mark.parametrize("case,lam", TYPE2_SCALING_CASES)
def test_type2_is_homogeneous_of_degree_1_in_c(case, lam):
    # Each term has one value of c.
    b, c, _ = type2_law_operands(case)
    expected = type2(b, c)
    assert not expected.is_zero
    assert type2(b, scaled(c, lam)) == scaled(expected, lam)


@pytest.mark.parametrize("case,lam", TYPE2_SCALING_CASES)
def test_type2_is_homogeneous_of_degree_2q_in_b(case, lam):
    # Each term has one L and one G value of b for each of c's q slots.
    b, c, _ = type2_law_operands(case)
    expected = type2(b, c)
    assert not expected.is_zero
    assert type2(scaled(b, lam), c) == scaled(expected, lam ** (2 * c.upper_count))


def test_type2_is_additive_in_c_at_a_composition_power(bouncer):
    # The shape of compose --power 3: the square of the bouncer at N = 3 on
    # the left, where every U of a group is held by one pair.
    b1 = encode_machine(bouncer, 3).tensor
    # b2 cancels every other of a quarter of b1's entries, doubles the rest of
    # that quarter and adds entries of its own.
    shared = sorted(b1.entries)[::4]
    own = random_operand(1, 0.01, 1, True, b1.dims)
    b2 = added(own, SparseTensor(b1.dims, 1, {x: (-1) ** n for n, x in enumerate(shared)}))
    square = type2_power(b1, 2)
    expected = added(type2(square, b1), type2(square, b2))
    assert type2(square, added(b1, b2)) == expected


def test_type2_cap_counts_the_expanded_terms(monkeypatch):
    # The mixed trial at density 0.3, seed 0 expands 10,098 terms into 3,490
    # entries; the cap bounds the terms, not the entries.
    operands = []

    def record(b, c, cap):
        operands.append((b, c))
        return type2(b, c, cap=cap)

    monkeypatch.setattr("tmtensor.harness.type2", record)
    assert mixed_assoc_trial(DIMS, 1, 1, density=0.3, seed=0).passed
    [(b, c)] = operands
    assert type2(b, c, cap=10098).nnz == 3490
    with pytest.raises(ResourceLimit) as refused:
        type2(b, c, cap=10097)
    assert str(refused.value) == "composition would accumulate 10098 terms, cap is 10097"


def test_type2_entrywise_associative_exhaustive():
    # Every triple of 0-1 order-8 tensors over the two quads of Dims(1, 1, 2):
    # re-association changes neither a coordinate nor a value.
    dims = Dims(1, 1, 2)
    coords = list(itertools.product(dims.iter_quads(), repeat=2))
    tensors = [
        tensor_of(dims, 1, {coord: 1 for coord, bit in zip(coords, bits) if bit})
        for bits in itertools.product((0, 1), repeat=len(coords))
    ]
    assert len(tensors) == 16
    for b, c, f in itertools.product(tensors, repeat=3):
        assert type2(type2(b, c), f) == type2(b, type2(c, f)), (b.entries, c.entries, f.entries)


def test_type2_zero_operand():
    zero = SparseTensor(DIMS, 1, {})
    c = random_tensor(DIMS, 1, density=0.2, value_bound=2, seed=5)
    assert type2(zero, c).is_zero
    assert type2(c, zero).is_zero


def test_type2_upper_count_bookkeeping():
    b1 = random_tensor(DIMS, 1, density=0.1, value_bound=2, seed=1)
    b2 = random_tensor(DIMS, 2, density=0.05, value_bound=2, seed=2)
    assert type2(b1, b2).upper_count == 4
    assert type2(b2, b1).upper_count == 4
    with pytest.raises(TensorError, match="both operands must be transition tensors"):
        type2(SparseTensor(DIMS, 0, {}), b1)
    with pytest.raises(TensorError, match="operands disagree on dims"):
        type2(SparseTensor(Dims(3, 2, 2), 1, {}), b1)


def test_type2_resource_limit():
    b = random_tensor(DIMS, 1, density=0.5, value_bound=2, seed=3)
    with pytest.raises(ResourceLimit):
        type2(b, b, cap=10)


def test_type2_power_base_cases(m1):
    b = encode_machine(m1, 4).tensor
    assert type2_power(b, 1) == b
    assert type2_power(b, 2) == type2(b, b)
    assert type2_power(b, 2).upper_count == 2
    with pytest.raises(ValueError):
        type2_power(b, 0)
    with pytest.raises(ResourceLimit):
        type2_power(b, 4, cap=1000)


def test_evolve_equals_the_plain_type1_iteration(corpus):
    # Every input word up to the window, so runs halt, overflow and hit the
    # step limit: evolve's fixed-point shortcut must not change an entry.
    for name, machine, _ in corpus:
        for cells in range(2, 6):
            b = encode_machine(machine, cells).tensor
            for tape in input_words(machine, cells):
                a1 = encode_config(initial_configuration(machine, tape.split(), cells), b.dims)
                expected = [a1]
                for _ in range(2 * cells + 2):
                    expected.append(type1(expected[-1], b))
                assert list(evolve(a1, b, 2 * cells + 2)) == expected, (name, cells, tape)


def test_evolve_halted_start_is_stationary(m1):
    dims = m1.dims(4)
    halted = Configuration((1, 1, 1, 0), head=4, state=2)
    b = encode_machine(m1, 4).tensor
    tensors = list(evolve(encode_config(halted, dims), b, 2))
    r1 = restrict_k_nonzero(tensors[0])
    assert restrict_k_nonzero(tensors[1]) == r1
    assert restrict_k_nonzero(tensors[2]) == r1


def test_evolve_flags_overflow(m1):
    dims = m1.dims(4)
    edge = Configuration((1, 1, 1, 1), head=4, state=1)
    entries = CountedEntries(encode_machine(m1, 4).tensor.entries)
    tensors = list(evolve(encode_config(edge, dims), SparseTensor(dims, 1, entries), 3))
    assert [restrict_k_nonzero(a_t).is_zero for a_t in tensors] == [False, True, True, True]
    # A_2 holds only slot-0 entries, which B never reads, so A_3 is empty and
    # A_4 comes from it without a scan of B.
    assert [a_t.is_zero for a_t in tensors] == [False, False, True, True]
    assert entries.iterations == 2


@pytest.mark.parametrize("steps", [-1, -3])
def test_evolve_refuses_a_negative_step_count(m1, steps):
    a1 = encode_config(initial_configuration(m1, ["1", "1"], 4), m1.dims(4))
    with pytest.raises(ValueError, match="steps must be >= 0"):
        evolve(a1, encode_machine(m1, 4).tensor, steps)


def test_evolve_refuses_mismatched_operands_when_called(m1):
    a1 = encode_config(initial_configuration(m1, ["1", "1"], 4), m1.dims(4))
    with pytest.raises(TensorError, match="disagree on dims"):
        evolve(a1, encode_machine(m1, 5).tensor, 3)
    with pytest.raises(TensorError, match="transition tensor"):
        evolve(a1, a1, 3)


def test_evolve_holds_one_tensor_at_a_time(bouncer):
    # The bouncer neither halts nor overflows at window 4, so every step runs
    # type1; reading 8000 steps must peak within 64 KiB of reading 1000.
    b = encode_machine(bouncer, 4).tensor
    a1 = encode_config(initial_configuration(bouncer, [], 4), b.dims)

    def peak(steps):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            collections.deque(evolve(a1, b, steps), maxlen=0)
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    assert peak(8000) <= peak(1000) + 64 * 1024


def test_a_composite_holds_one_int_key_per_entry(m1):
    # m1's cube at window 3: 33,030 entries of five quads.  Keyed by tuples of
    # quads they held about 115 bytes each; keyed by one packed int, about 72.
    b = encode_machine(m1, 3).tensor
    square = type2_power(b, 2)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        cube = type2(square, b)
        live = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert cube.nnz == 33030
    assert live / cube.nnz < 90


def test_factor_shapes_on_characteristic_inputs(corpus):
    # While the step stays inside the window: the local factor marks exactly
    # one (symbol) per cell with value 1, and the global factor carries exactly
    # one real-state entry, also with value 1.
    rng_configs = []
    for name, machine, tape in corpus:
        trace = oracle_run(machine, initial_configuration(machine, tape, 4), 6)
        rng_configs.extend((name, machine, c) for c in trace.configs)
    for name, machine, config in rng_configs:
        dims = machine.dims(4)
        b = encode_machine(machine, 4).tensor
        a = encode_config(config, dims)
        local, glob = pairs_of(dims, *factors(a, b))
        assert sorted(i for i, _ in local) == [1, 2, 3, 4], name
        assert set(local.values()) == {1}, name
        real = [(k, l) for k, l in glob if k != 0]
        assert len(real) == 1 and glob[real[0]] == 1, name


def test_q0_entries_never_interfere(corpus):
    # Machine tensors only read upper groups with a real state, so entries
    # parked on state slot 0 can never influence the product, even in
    # arbitrary tensors (criterion 5 covers the evolved ones).
    for name, machine, _ in corpus:
        dims = machine.dims(4)
        b = encode_machine(machine, 4).tensor
        for seed in range(3):
            a = random_tensor(dims, 0, density=0.3, value_bound=3, seed=seed)
            assert type1(a, b) == type1(restrict_k_nonzero(a), b), name


small_quad = st.tuples(
    st.integers(1, 2), st.integers(0, 1), st.integers(0, 1), st.integers(1, 2)
)


def entry_lists(groups, size):
    coord = st.tuples(*[small_quad] * groups)
    return st.lists(st.tuples(coord, st.integers(-2, 3)), max_size=size)


@settings(max_examples=40)
@given(entry_lists(1, 6), entry_lists(2, 8), entry_lists(2, 8))
def test_mixed_associativity_property(ea, eb, ec):
    a = SparseTensor.from_entries(DIMS, 0, ea)
    b = SparseTensor.from_entries(DIMS, 1, eb)
    c = SparseTensor.from_entries(DIMS, 1, ec)
    assert type1(type1(a, b), c) == type1(a, type2(b, c))
