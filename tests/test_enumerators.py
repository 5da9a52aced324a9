"""Differential tests: the output-sensitive enumerators against literal sweeps.

The oracles below are the definitions read off directly: every reflexive
0/1 matrix filtered by the order axioms, every mask of the universe
filtered for upper or lower sets, and every subset of the order pairs
filtered by the auxiliary-relation axioms.  The enumerators must give
the same output in the same (ascending) order.
"""

import time
from itertools import permutations

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
from orderlab.bitset import iter_bits
from orderlab.errors import AxiomViolation, BudgetExceeded
from orderlab.poset import (
    Poset,
    _axiom_check,
    _is_lower_mask,
    _is_upper_mask,
    _relabel,
    antichain,
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
            _axiom_check(rows, n)
        except AxiomViolation:
            continue
        out.append(tuple(rows))
    return sorted(out)


def upper_sets_by_sweep(p):
    return [m for m in range(1 << p.n) if _is_upper_mask(p, m)]


def lower_sets_by_sweep(p):
    return [m for m in range(1 << p.n) if _is_lower_mask(p, m)]


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
