"""The two contraction products and the evolution loop, which yields one
tensor at a time.

``type1`` contracts a configuration tensor against a transition tensor into
the outer product of a local factor over (cell, symbol) and a global factor
over (state, head); ``factors`` states when it looks entries up, when it
scans, and what an empty configuration reads.  ``type2`` composes two
transition tensors into one that acts as both in turn; its docstring states
how the contraction is staged slot by slot.  Keys are read and built with
shifts and masks (see ``tensor``); all arithmetic is exact.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .errors import DEFAULT_CAP, ResourceLimit, TensorError
from .tensor import Coord, SparseTensor

# A (cell, symbol) pair, a quad's bits above its lowest kl_bits, or a
# (state, head) pair, those lowest bits.
PairMap = dict[int, int]


def _check_type1_operands(a: SparseTensor, b: SparseTensor) -> None:
    if a.dims != b.dims:
        raise TensorError(f"operands disagree on dims: {a.dims} vs {b.dims}")
    if a.upper_count != 0:
        raise TensorError("left operand must be a configuration tensor (upper count 0)")
    if b.upper_count < 1:
        raise TensorError("right operand must be a transition tensor (upper count >= 1)")


def factors(a: SparseTensor, b: SparseTensor) -> tuple[PairMap, PairMap]:
    """The local and global factors, reading a's nonzero entries through a map
    from their quads built once per call; an empty operand reads nothing.

    Only b's entries whose u upper quads all lie in supp(a) contribute, so
    there are L = |supp(a)|^u * quad_count candidate coordinates.  When L is
    smaller than b.nnz, each candidate, an upper sequence drawn from supp(a)
    with the product of its values joined to a lower quad, is looked up in b;
    otherwise one pass over b's entries tests each entry's first upper quad,
    its key's top bits, with one membership test.  An encoded machine has
    u = 1 and more quads than entries, so it is always scanned.  The local
    factor keeps the lower (cell, symbol) pair and the global factor the
    lower (state, head) pair, each summing over the other pair; each is keyed
    by its pair's bits (see ``PairMap``).  Zero sums are left out."""
    _check_type1_operands(a, b)
    local: PairMap = {}
    glob: PairMap = {}
    lookup = {quad: value for quad, value in a.entries.items() if value}
    if not lookup or not b.entries:
        return local, glob
    width, kl_bits = b.dims.quad_bits, b.dims.kl_bits
    quad_mask, kl_mask = (1 << width) - 1, (1 << kl_bits) - 1
    if len(lookup) ** b.upper_count * b.dims.quad_count < b.nnz:
        prefixes = [(0, 1)]
        for _ in range(b.upper_count):
            prefixes = [
                (prefix << width | quad, weight * value)
                for prefix, weight in prefixes
                for quad, value in lookup.items()
            ]
        lowers = [b.dims.quad(*quad) for quad in b.dims.iter_quads()]
        entries = b.entries
        for prefix, weight in prefixes:
            prefix <<= width
            for lower in lowers:
                term = entries.get(prefix | lower)
                if term:
                    term *= weight
                    local[lower >> kl_bits] = local.get(lower >> kl_bits, 0) + term
                    glob[lower & kl_mask] = glob.get(lower & kl_mask, 0) + term
    else:
        top = b.upper_count * width
        inner = range(top - width, 0, -width)
        for coord, term in b.entries.items():
            if coord >> top not in lookup:
                continue
            term *= lookup[coord >> top]
            for shift in inner:
                value = lookup.get(coord >> shift & quad_mask)
                if not value:
                    break
                term *= value
            else:
                lower = coord & quad_mask
                local[lower >> kl_bits] = local.get(lower >> kl_bits, 0) + term
                glob[lower & kl_mask] = glob.get(lower & kl_mask, 0) + term
    return (
        {pair: value for pair, value in local.items() if value},
        {pair: value for pair, value in glob.items() if value},
    )


def type1(a: SparseTensor, b: SparseTensor) -> SparseTensor:
    """The evolution product: the outer product of the local and global factors.

    The result entry at (i, j, k, l) is local(i, j) * global(k, l), keyed by
    the two pairs' bits joined.  Raises ResourceLimit, before building it,
    when that is more than ``DEFAULT_CAP`` entries.
    """
    local, glob = factors(a, b)
    size = len(local) * len(glob)
    if size > DEFAULT_CAP:
        raise ResourceLimit(f"evolution product would have {size} entries, cap is {DEFAULT_CAP}")
    kl_bits = a.dims.kl_bits
    entries = {
        ij << kl_bits | kl: lv * gv
        for ij, lv in local.items()
        for kl, gv in glob.items()
    }
    return SparseTensor(a.dims, 0, entries)


def type2(b: SparseTensor, c: SparseTensor, cap: int = DEFAULT_CAP) -> SparseTensor:
    """Composition product of transition tensors with upper counts p and q.

    The result has upper count 2pq: for each of c's upper groups (a "slot"),
    a block U of p groups feeds b's marginal L keeping the lower (cell, symbol)
    pair, then a block V of p groups feeds b's marginal G keeping the lower
    (state, head) pair; both kept pairs contract against that slot's quad of
    c, and c's lower group survives as the lower group of the result.  Slot
    by slot, an entry is
        sum_ij L(U_s; ij) sum_kl G(V_s; kl) c(.. ij kl ..; z)
    at the coordinate (U_1 V_1 .. U_q V_q; z), and it is computed in that
    order: for each slot, the sums h(V_s) over (k, l) are taken first, and
    only then multiply out against L.  Terms that merge are therefore added
    before they expand.

    Each distinct block of upper groups of b's entries, a possible U or V, is
    numbered once; the marginals and every sum are keyed by these numbers.
    Within a slot, the entries that agree off the slot form a group.  One
    pass over the stage files each entry under its group and its (i, j)
    pair and adds its G terms into that pair's row h as it goes; then, for
    each U_s, the h rows of the group's pairs whose L holds U_s are summed
    under V_s's number.  A group of one pair, as most groups of a machine
    composite are, has nothing to merge: each U_s of its L writes
    L(U_s) h(V_s) straight into the result.  A row may hold sums that came
    to 0: they are skipped where the row is spelled out and add 0 where rows
    merge.  Keys of different groups or of different (U_s, V_s) differ, so
    each key is built once, when its nonzero sum is stored; a zero sum is
    never stored.

    Raises ResourceLimit, before building anything, when the result would
    have more than ``DEFAULT_CAP`` upper groups, and, before accumulating
    anything, when the predicted number of terms of the full expansion
    exceeds ``cap``.  The prediction bounds every intermediate stage as well
    as the result: after slot s at most sum_y prod_{t<=s} |L(ij(y_t))|
    |G(kl(y_t))| entries exist.  Slot s's h rows hold at most
    sum_y |G(kl(y_s))| prod_{t<s} |L(ij(y_t))| |G(kl(y_t))| sums, one per
    stage entry and G value, and |G(kl(y_s))| is a factor of y's predicted
    terms, so the same bound covers them.

    Re-association is exact entry by entry.  Multiplying out the nested
    sums, an entry of b∘c is sum_y c(y; z) W_b(U V; y) with
    W_b(U V; y) = prod_s L_b(U_s; ij(y_s)) G_b(V_s; kl(y_s)); the argument
    concerns these entries, finite sums of exact integers, so it holds
    whatever the order of summation.  Summing that form over the kept
    pair's partner gives b∘c's marginals as the same sums over c's marginals,
    L_{b∘c}(A; ij) = sum_y L_c(y; ij) W_b(A; y) and likewise for G: they
    factor through the inner composite.  Both (b∘c)∘f and b∘(c∘f), whose sum
    over c∘f's upper groups splits per block, expand to
        sum_x f(x; z) prod_t [sum_y L_c(y; ij(x_t)) W_b(A_t; y)]
                             [sum_y G_c(y; kl(x_t)) W_b(B_t; y)]
    at the coordinate (A_1 B_1 .. A_r B_r; z): slot-major over f, then the
    local block A_t before the global block B_t, then c's inner slot, then
    the upper group, U before V.
    """
    if b.dims != c.dims:
        raise TensorError(f"operands disagree on dims: {b.dims} vs {c.dims}")
    if b.upper_count < 1 or c.upper_count < 1:
        raise TensorError("both operands must be transition tensors (upper count >= 1)")
    upper_count = 2 * b.upper_count * c.upper_count
    if upper_count > DEFAULT_CAP:
        raise ResourceLimit(f"composition would have {upper_count} upper groups, cap is {DEFAULT_CAP}")

    width, kl_bits = b.dims.quad_bits, b.dims.kl_bits
    quad_mask, kl_mask = (1 << width) - 1, (1 << kl_bits) - 1

    # Number b's distinct upper blocks once: the marginals and every sum below
    # are keyed by these numbers, and a block is spelled out only in a key.
    number: dict[int, int] = {}
    local_sums: dict[int, dict[int, int]] = {}
    global_sums: dict[int, dict[int, int]] = {}
    for coord, value in b.entries.items():
        n = number.setdefault(coord >> width, len(number))
        lower = coord & quad_mask
        sums = local_sums.setdefault(lower >> kl_bits, {})
        sums[n] = sums.get(n, 0) + value
        sums = global_sums.setdefault(lower & kl_mask, {})
        sums[n] = sums.get(n, 0) + value
    uppers = list(number)

    # A pair whose marginals all cancel keeps an empty list: it offers no choice.
    local_index, global_index = (
        {pair: [(n, s) for n, s in sums.items() if s] for pair, sums in margins.items()}
        for margins in (local_sums, global_sums)
    )

    # Predict the full expansion before accumulating anything, so an
    # over-budget composition aborts without doing the work.  A slot's quad
    # sits as many quads up as c has groups after it, whatever the slots
    # before it have become.
    slot_shifts = range(c.upper_count * width, 0, -width)
    entries: dict[Coord, int] = {}
    terms = 0
    for coord, cv in c.entries.items():
        count = 1
        for shift in slot_shifts:
            quad = coord >> shift & quad_mask
            count *= len(local_index.get(quad >> kl_bits, ())) * len(global_index.get(quad & kl_mask, ()))
        if count:
            terms += count
            entries[coord] = cv
    if terms > cap:
        raise ResourceLimit(f"composition would accumulate {terms} terms, cap is {cap}")

    # Slot by slot, the quad ``shift`` bits up becomes the blocks U V.
    # Entries whose keys agree once the slot's bits are cleared form a group.
    # One pass files each entry under its group and (i, j) pair and adds its
    # G terms into that pair's row h[V]; then each U sums the h rows of the
    # pairs whose L holds it, or, in a group of one pair, that pair's row is
    # spelled straight into the result.  A key is its group's bits above the
    # slot, then U, as its head, and V, then the group's bits below the slot,
    # as its tail.  Keys from different groups or different (U, V) differ, so
    # each key is built once and stored once, nonzero.
    block = b.upper_count * width
    for shift in slot_shifts:
        keep = ~(quad_mask << shift)
        groups: dict[int, dict[int, dict[int, int]]] = {}
        for coord, value in entries.items():
            quad = coord >> shift & quad_mask
            h = groups.setdefault(coord & keep, {}).setdefault(quad >> kl_bits, {})
            for n, weight in global_index[quad & kl_mask]:
                h[n] = h.get(n, 0) + value * weight
        heads = [upper << (block + shift) for upper in uppers]
        tails = [upper << shift for upper in uppers]
        below = (1 << shift) - 1
        # Popping frees each group as it expands, so the groups and the next
        # stage do not reach their full sizes together.
        entries = {}
        while groups:
            key, pairs = groups.popitem()
            above = key >> (shift + width) << (2 * block + shift)
            rest = key & below
            if len(pairs) == 1:
                [(pair, h)] = pairs.items()
                spelled = [(tails[n] | rest, hv) for n, hv in h.items() if hv]
                for u, weight in local_index[pair]:
                    head = above | heads[u]
                    for tail, hv in spelled:
                        entries[head | tail] = weight * hv
                continue
            # Each row keeps h by V's number, for merging, where a zero h[V]
            # adds 0, and its nonzero h spelled out as (tail, h[V]), for a U
            # that only it holds.  A row whose sums all came to 0 spells
            # nothing.
            rows: dict[int, list[tuple[int, dict[int, int], list[tuple[int, int]]]]] = {}
            for pair, h in pairs.items():
                spelled = [(tails[n] | rest, hv) for n, hv in h.items() if hv]
                for u, weight in local_index[pair]:
                    rows.setdefault(u, []).append((weight, h, spelled))
            for u, row in rows.items():
                head = above | heads[u]
                if len(row) == 1:
                    [(weight, _, spelled)] = row
                    for tail, hv in spelled:
                        entries[head | tail] = weight * hv
                    continue
                merged: dict[int, int] = {}
                for weight, h, _ in row:
                    for n, hv in h.items():
                        merged[n] = merged.get(n, 0) + weight * hv
                head |= rest
                for n, value in merged.items():
                    if value:
                        entries[head | tails[n]] = value
    return SparseTensor(b.dims, upper_count, entries)


def type2_power(b: SparseTensor, e: int, cap: int = DEFAULT_CAP) -> SparseTensor:
    """Left-nested composition power: power 1 is b itself, power e composes
    the previous power with b, so one application advances e steps."""
    if e < 1:
        raise ValueError("exponent must be >= 1")
    result = b
    for _ in range(e - 1):
        result = type2(result, b, cap=cap)
    return result


def evolve(a1: SparseTensor, b: SparseTensor, steps: int) -> Iterator[SparseTensor]:
    """Iterate the evolution product ``steps`` times, yielding the tensors
    A_1..A_{T+1} one at a time: A_{t+1} is computed only when it is asked for,
    and only the current tensor is held.  The operands and the step count are
    checked when ``evolve`` is called.  Once a product equals the tensor it
    came from, equal inputs give equal products from then on, so that tensor
    is repeated, not recomputed."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    _check_type1_operands(a1, b)

    def tensors() -> Iterator[SparseTensor]:
        current = a1
        yield current
        for step in range(steps):
            following = type1(current, b)
            yield following
            if following == current:
                yield from itertools.repeat(following, steps - step - 1)
                return
            current = following

    return tensors()
