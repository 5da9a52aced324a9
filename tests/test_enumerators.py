"""Differential tests: the output-sensitive enumerators against literal sweeps.

The oracles below are the definitions read off directly: every reflexive
0/1 matrix filtered by the order axioms, every mask of the universe
filtered for upper or lower sets, and every subset of the order pairs
filtered by the auxiliary-relation axioms.  The enumerators must give
the same output in the same (ascending) order.  Past the sweeps' reach,
the chunked upper-set lister is checked against the plain depth-first
walk, ``upper_masks_by_dfs``.
"""

import random
import time
import tracemalloc
from itertools import islice, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orderlab.approx import _lap_mask
from orderlab.auxrel import (
    AuxRelation,
    _axiom_check_aux,
    _leq_pairs,
    enumerate_aux,
    leq_aux,
)
from orderlab.bitset import iter_bits, transpose
from orderlab.errors import AxiomViolation, BudgetExceeded
from orderlab.poset import (
    CHUNK_FREE,
    Poset,
    _axiom_check,
    _closed,
    _join,
    _relabel,
    _transitive_close,
    _upper_list,
    _upper_masks,
    antichain,
    bottom,
    canonical_form,
    chain,
    enumerate_lower_sets,
    enumerate_posets,
    enumerate_upper_sets,
    random_poset,
)
from orderlab.topology import mu_topology


def posets_by_sweep(n):
    """Row tuples of every reflexive 0/1 matrix on n points that is an order."""
    off_diagonal = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for mask in range(1 << len(off_diagonal)):
        rows = [1 << i for i in range(n)]
        for b in iter_bits(mask):
            i, j = off_diagonal[b]
            rows[i] |= 1 << j
        try:
            _axiom_check(rows, transpose(rows))
        except AxiomViolation:
            continue
        out.append(tuple(rows))
    return sorted(out)


def upper_sets_by_sweep(p):
    return [m for m in range(1 << p.n) if _closed(p.up, m)]


def lower_sets_by_sweep(p):
    return [m for m in range(1 << p.n) if _closed(p.down, m)]


def aux_by_sweep(p):
    """Section tuples of every auxiliary relation, ascending by pair subset."""
    pairs = _leq_pairs(p)
    out = []
    for mask in range(1 << len(pairs)):
        sec = [0] * p.n
        for b in iter_bits(mask):
            i, j = pairs[b]
            sec[j] |= 1 << i
        try:
            _axiom_check_aux(p, tuple(sec))
        except AxiomViolation:
            continue
        out.append(tuple(sec))
    return out


def upper_masks_by_dfs(up, down, start=0):
    """The upper sets above ``start``, ascending, by the plain depth-first
    walk over the highest undecided element: excluding it rules out its
    down-set, including it takes in its up-set, and each leaf is one set.
    On rows that are not an order, its leaves are what ``_upper_masks``
    must give too."""
    full = (1 << len(up)) - 1
    stack = [(start, 0)]
    while stack:
        inside, outside = stack.pop()
        free = full & ~(inside | outside)
        if not free:
            yield inside
            continue
        x = free.bit_length() - 1
        stack.append((inside | up[x], outside))
        stack.append((inside, outside | down[x]))


def pair_order(p):
    """The order on ``_leq_pairs(p)`` whose upper sets above the bottom pairs
    are the auxiliary relations, and that start set, as ``enumerate_aux``
    builds them."""
    pairs = _leq_pairs(p)
    index = {pair: b for b, pair in enumerate(pairs)}
    order = Poset(
        sum(1 << index[u, z] for u in iter_bits(p.down[x]) for z in iter_bits(p.up[y]))
        for x, y in pairs
    )
    bot = bottom(p)
    return order, 0 if bot is None else sum(1 << index[bot, y] for y in range(p.n))


def encoder(p):
    """Pair-subset encoding: bit b stands for ``_leq_pairs(p)[b]``."""
    index = {pair: b for b, pair in enumerate(_leq_pairs(p))}
    return lambda pairs: sum(1 << index[pair] for pair in pairs)


def labeled(max_n):
    for n in range(1, max_n + 1):
        yield from enumerate_posets(n)


# -- exhaustive, every labeled poset ----------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_posets_match_the_sweep_up_to_four_points(n):
    swept = posets_by_sweep(n)
    assert [p.up for p in enumerate_posets(n)] == swept
    classes = sorted({canonical_form(Poset(rows)) for rows in swept})
    assert [p.up for p in enumerate_posets(n, up_to_iso=True)] == classes


@pytest.mark.parametrize(
    "n, up_to_iso, count",
    [(5, False, 4231), (5, True, 63), (6, True, 318)],  # OEIS A001035, A000112
)
def test_poset_counts_beyond_the_sweep(n, up_to_iso, count):
    rows = [p.up for p in enumerate_posets(n, up_to_iso=up_to_iso)]
    assert len(rows) == count
    assert rows == sorted(set(rows))


def test_upper_and_lower_sets_match_the_sweep_up_to_five_points():
    count = 0
    for p in labeled(5):
        assert [s.bits for s in enumerate_upper_sets(p)] == upper_sets_by_sweep(p)
        assert [s.bits for s in enumerate_lower_sets(p)] == lower_sets_by_sweep(p)
        count += 1
    assert count == 1 + 3 + 19 + 219 + 4231


def test_aux_matches_the_sweep_up_to_four_points():
    total = 0
    for p in labeled(4):
        got = [r.sec for r in enumerate_aux(p)]
        assert got == aux_by_sweep(p)
        total += len(got)
    assert total == 5560


def test_aux_matches_the_sweep_on_every_labeled_five_point_poset():
    # Sweeping the pair subsets of all 4,231 labelings would take minutes,
    # so sweep one representative per isomorphism class and carry its
    # relations over to each labeling, re-sorted by that labeling's
    # pair-subset encoding.
    labelings = {}
    for rep in enumerate_posets(5, up_to_iso=True):
        relations = [AuxRelation(rep, sec).pairs() for sec in aux_by_sweep(rep)]
        for perm in permutations(range(5)):
            labelings.setdefault(_relabel(rep.up, perm), (relations, perm))
    assert sorted(labelings) == [q.up for q in enumerate_posets(5)]
    total = 0
    for rows, (relations, perm) in labelings.items():
        q = Poset(rows)
        encode = encoder(q)
        expected = sorted(
            encode((perm[i], perm[j]) for i, j in pairs) for pairs in relations
        )
        got = [encode(r.pairs()) for r in enumerate_aux(q)]
        assert got == expected
        total += len(got)
    assert total == 355547


# -- sampled, larger posets ---------------------------------------------------------


sampled_posets = st.builds(
    random_poset,
    n=st.integers(min_value=1, max_value=16),
    p=st.sampled_from([0.1, 0.2, 0.3, 0.5]),
    seed=st.integers(min_value=0, max_value=10**6),
)


@settings(max_examples=20, deadline=None)
@given(sampled_posets)
@example(random_poset(16, 0.2, 7))
def test_upper_sets_match_the_sweep_on_sampled_posets(p):
    assert [s.bits for s in enumerate_upper_sets(p)] == upper_sets_by_sweep(p)


@settings(max_examples=20, deadline=None)
@given(sampled_posets)
@example(random_poset(16, 0.2, 7))
def test_mu_of_the_order_matches_the_sweep_on_sampled_posets(p):
    r = leq_aux(p)
    expected = [m for m in upper_sets_by_sweep(p) if _lap_mask(r, m) == m]
    assert list(mu_topology(r).masks) == expected


# -- beyond the old pair cap, and budgets -------------------------------------------


@pytest.mark.parametrize("n, catalan", [(6, 132), (7, 429)])
def test_aux_on_long_chains_gives_the_catalan_numbers(n, catalan):
    p = chain(n)
    assert len(_leq_pairs(p)) > 16
    encode = encoder(p)
    codes = []
    for r in enumerate_aux(p):
        _axiom_check_aux(p, r.sec)
        codes.append(encode(r.pairs()))
    assert len(codes) == catalan
    assert codes == sorted(set(codes))


@pytest.mark.parametrize("enumerate_", [enumerate_aux, enumerate_upper_sets])
def test_budget_yields_exactly_budget_items_then_raises(enumerate_):
    start = time.monotonic()
    got = []
    with pytest.raises(BudgetExceeded):
        for item in enumerate_(antichain(24), budget=1000):
            got.append(item)
    assert len(got) == 1000
    assert time.monotonic() - start < 1.0


# -- the chunked lister against the depth-first walk --------------------------------


PREFIX = 200_000  # more than three chunks of 2^CHUNK_FREE sets


def _assert_lists_the_walk(up, down, start=0, prefix=PREFIX):
    got = list(islice(_upper_masks(up, down, start), prefix))
    assert got == list(islice(upper_masks_by_dfs(up, down, start), prefix))
    return got


def _relabeled(p, seed):
    """p under a seeded permutation, so that index order is no linear extension."""
    perm = list(range(p.n))
    random.Random(seed).shuffle(perm)
    return Poset(_relabel(p.up, tuple(perm)))


@settings(max_examples=12, deadline=None)
@given(
    st.integers(min_value=CHUNK_FREE + 1, max_value=24),
    st.sampled_from([0.02, 0.05, 0.1, 0.15]),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=(1 << 24) - 1),
)
@example(17, 0.05, 3, 0)
@example(24, 0.1, 11, 0b1001 << 18)
def test_chunks_past_the_bound_give_the_walk_in_both_orders_and_above_a_start_set(
    n, density, seed, picked
):
    """Sparse posets on 17 to 24 points, relabeled: the walk decides some
    elements, possibly forcing others, before a chunk starts mid-walk.  The
    order and its dual, from the empty set and from a sampled upper set."""
    p = _relabeled(random_poset(n, density, seed), seed)
    picked &= (1 << n) - 1
    for up, down in ((p.up, p.down), (p.down, p.up)):
        for start in (0, _join(up, picked)):
            got = _assert_lists_the_walk(up, down, start)
            assert got == sorted(set(got))
            assert all(_closed(up, m) and m & start == start for m in got)


def _poset_with_pairs(n, seed, low=CHUNK_FREE + 1, high=24):
    """A relabeled poset on n points grown by seeded random edges, each kept
    while the order has at most ``high`` pairs, until it has ``low``."""
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(edges)
    rows = [1 << i for i in range(n)]
    for i, j in edges:
        if sum(map(int.bit_count, rows)) >= low:
            break
        grown = [row | (1 << j if k == i else 0) for k, row in enumerate(rows)]
        grown = _transitive_close(grown, n)
        if sum(map(int.bit_count, grown)) <= high:
            rows = grown
    return _relabeled(Poset(rows), seed)


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=6, max_value=16), st.integers(min_value=0, max_value=10**6))
@example(8, 5)
def test_chunks_of_pair_orders_past_the_bound_give_the_walk(n, seed):
    """The pair orders of sampled posets with 17 to 24 order pairs, above
    their bottom pairs: ``enumerate_aux`` lists the walk's masks."""
    p = _poset_with_pairs(n, seed)
    assert CHUNK_FREE < len(_leq_pairs(p)) <= 24
    order, start = pair_order(p)
    got = _assert_lists_the_walk(order.up, order.down, start)
    encode = encoder(p)
    listed = [encode(r.pairs()) for r in islice(enumerate_aux(p), 20_000)]
    assert listed == got[:20_000]


def test_chunks_past_the_bound_give_the_whole_walk_on_small_outputs():
    """Complete outputs: the 17-antichain (2^17 sets, two chunks), a 20-chain
    and the pair order of the 6-chain (21 pairs, the 132 Catalan relations)."""
    for p in (antichain(17), chain(20)):
        got = _assert_lists_the_walk(p.up, p.down, prefix=None)
        assert len(got) == (1 << 17 if p.n == 17 else 21)
    order, start = pair_order(chain(6))
    assert order.n == 21
    assert len(_assert_lists_the_walk(order.up, order.down, start, prefix=None)) == 132


def test_rows_that_are_no_order_give_the_walk():
    """``Poset`` does not check its axioms: on every reflexive relation with
    n <= 4 and on sampled ones large enough for chunks, the lister gives the
    walk's leaves, which need not be closed sets."""
    differs = 0
    for n in range(1, 5):
        off_diagonal = [(i, j) for i in range(n) for j in range(n) if i != j]
        for mask in range(1 << len(off_diagonal)):
            rows = [1 << i for i in range(n)]
            for b in iter_bits(mask):
                i, j = off_diagonal[b]
                rows[i] |= 1 << j
            up, down = tuple(rows), transpose(rows)
            got = _assert_lists_the_walk(up, down)
            differs += got != [m for m in range(1 << n) if _closed(up, m)]
    assert differs > 0
    rng = random.Random(7)
    for n in (8, 12, 17, 20):
        sparse = (rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n) for _ in range(n))
        up = tuple(1 << i | bits for i, bits in enumerate(sparse))
        with pytest.raises(AxiomViolation):
            _axiom_check(up, transpose(up))
        _assert_lists_the_walk(up, transpose(up), prefix=20_000)


@pytest.mark.parametrize("enumerate_", [enumerate_aux, enumerate_upper_sets])
def test_a_budgeted_prefix_holds_one_chunk_at_most(enumerate_):
    """At the 24-antichain a budget of 1,000 stops inside the first chunk of
    2^16 sets, so the prefix peaks under 8 MB."""
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            for _ in enumerate_(antichain(24), budget=1000):
                pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak


def test_the_listed_upper_sets_reach_the_cap_at_twenty_points():
    sets = _upper_list(antichain(20))
    assert len(sets) == 1 << 20
    assert sets[:3] == (0, 1, 2) and sets[-1] == (1 << 20) - 1
