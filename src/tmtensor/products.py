"""The two contraction products and the plain evolution loop.

The evolution product contracts a configuration tensor against a transition
tensor and factors exactly into an outer product: a local factor over
(cell, symbol) and a global factor over (state, head).  One scan of the
transition tensor sums both, reading the configuration through a quad-keyed map
and skipping an entry at its first upper quad that misses.  The composition
product merges two transition tensors into one that acts as both in turn; it
contracts the right operand slot by slot against the left operand's
per-upper-sequence local/global marginals, summing each slot's global half
before its local half multiplies out, and never expands the full Einstein sum.
All arithmetic is exact; ``encoding`` reads tensors back as configurations.
"""

from __future__ import annotations

from .errors import DEFAULT_CAP, ResourceLimit, TensorError
from .tensor import Coord, SparseTensor

PairMap = dict[tuple[int, int], int]


def _check_type1_operands(a: SparseTensor, b: SparseTensor) -> None:
    if a.dims != b.dims:
        raise TensorError(f"operands disagree on dims: {a.dims} vs {b.dims}")
    if a.upper_count != 0:
        raise TensorError("left operand must be a configuration tensor (upper count 0)")
    if b.upper_count < 1:
        raise TensorError("right operand must be a transition tensor (upper count >= 1)")


def factors(a: SparseTensor, b: SparseTensor) -> tuple[PairMap, PairMap]:
    """One pass over b, reading a through a quad-keyed map built once per call;
    an entry of b is skipped at its first upper quad that a lacks.  The local
    factor keeps the lower (cell, symbol) pair and the global factor the lower
    (state, head) pair, each summing over the other pair.  Zero sums are left out."""
    _check_type1_operands(a, b)
    local: PairMap = {}
    glob: PairMap = {}
    lookup = {quad: value for (quad,), value in a.entries.items()}
    for coord, term in b.entries.items():
        value = lookup.get(coord[0])
        if not value:
            continue
        term *= value
        for quad in coord[1:-1]:
            value = lookup.get(quad)
            if not value:
                break
            term *= value
        else:
            i2, j2, k2, l2 = coord[-1]
            local[(i2, j2)] = local.get((i2, j2), 0) + term
            glob[(k2, l2)] = glob.get((k2, l2), 0) + term
    return (
        {pair: value for pair, value in local.items() if value},
        {pair: value for pair, value in glob.items() if value},
    )


def type1(a: SparseTensor, b: SparseTensor) -> SparseTensor:
    """The evolution product: the outer product of the local and global factors.

    The result entry at (i, j, k, l) is local(i, j) * global(k, l).  Raises
    ResourceLimit, before building it, when that is more than ``DEFAULT_CAP``
    entries.
    """
    local, glob = factors(a, b)
    size = len(local) * len(glob)
    if size > DEFAULT_CAP:
        raise ResourceLimit(f"evolution product would have {size} entries, cap is {DEFAULT_CAP}")
    entries = {
        ((i, j, k, l),): lv * gv
        for (i, j), lv in local.items()
        for (k, l), gv in glob.items()
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
    only their nonzero values multiply out against L.  Terms that merge are
    therefore added before they expand.

    Raises ResourceLimit, before accumulating anything, when the predicted
    number of terms of the full expansion exceeds ``cap``.  The prediction
    bounds every intermediate stage as well as the result: after slot s at
    most sum_y prod_{t<=s} |L(ij(y_t))| |G(kl(y_t))| entries exist.

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

    local_sums: dict[tuple[int, int], dict[Coord, int]] = {}
    global_sums: dict[tuple[int, int], dict[Coord, int]] = {}
    for coord, value in b.entries.items():
        upper = coord[:-1]
        i, j, k, l = coord[-1]
        sums = local_sums.setdefault((i, j), {})
        sums[upper] = sums.get(upper, 0) + value
        sums = global_sums.setdefault((k, l), {})
        sums[upper] = sums.get(upper, 0) + value

    # A pair whose marginals all cancel keeps an empty list: it offers no choice.
    local_index, global_index = (
        {pair: [(u, s) for u, s in sums.items() if s] for pair, sums in margins.items()}
        for margins in (local_sums, global_sums)
    )

    # Predict the full expansion before accumulating anything, so an
    # over-budget composition aborts without doing the work.
    entries: dict[Coord, int] = {}
    terms = 0
    for coord, cv in c.entries.items():
        count = 1
        for i, j, k, l in coord[:-1]:
            count *= len(local_index.get((i, j), ())) * len(global_index.get((k, l), ()))
        if count:
            terms += count
            entries[coord] = cv
    if terms > cap:
        raise ResourceLimit(f"composition would accumulate {terms} terms, cap is {cap}")

    # Slot by slot, the quad at ``pos`` becomes the blocks U V.  Entries that
    # differ only in the slot's (k, l) share a group; its G sums h[V] are
    # taken before they multiply out against L.
    width = 2 * b.upper_count
    for pos in range(0, width * c.upper_count, width):
        groups: dict[tuple[Coord, int, int, Coord], list[tuple[list[tuple[Coord, int]], int]]] = {}
        for coord, value in entries.items():
            i, j, k, l = coord[pos]
            groups.setdefault((coord[:pos], i, j, coord[pos + 1 :]), []).append(
                (global_index[(k, l)], value)
            )
        # Popping frees each group as it expands, so the groups and the next
        # stage do not reach their full sizes together.
        entries = {}
        while groups:
            (prefix, i, j, rest), group = groups.popitem()
            h: dict[Coord, int] = {}
            for glo, value in group:
                for upper, weight in glo:
                    h[upper] = h.get(upper, 0) + value * weight
            tails = [(upper + rest, hv) for upper, hv in h.items() if hv]
            for upper, weight in local_index[(i, j)]:
                head = prefix + upper
                for tail, hv in tails:
                    key = head + tail
                    entries[key] = entries.get(key, 0) + weight * hv
        for key in [key for key, value in entries.items() if not value]:
            del entries[key]
    return SparseTensor(b.dims, 2 * b.upper_count * c.upper_count, entries)


def type2_power(b: SparseTensor, e: int, cap: int = DEFAULT_CAP) -> SparseTensor:
    """Left-nested composition power: power 1 is b itself, power e composes
    the previous power with b, so one application advances e steps."""
    if e < 1:
        raise ValueError("exponent must be >= 1")
    result = b
    for _ in range(e - 1):
        result = type2(result, b, cap=cap)
    return result


def evolve(a1: SparseTensor, b: SparseTensor, steps: int) -> list[SparseTensor]:
    """Iterate the evolution product ``steps`` times: the tensors A_1..A_{T+1}.
    Once a product equals the tensor it came from, equal inputs give equal
    products from then on, so that tensor is repeated, not recomputed."""
    _check_type1_operands(a1, b)
    tensors = [a1]
    for _ in range(steps):
        fixed = len(tensors) > 1 and tensors[-1] == tensors[-2]
        tensors.append(tensors[-1] if fixed else type1(tensors[-1], b))
    return tensors
