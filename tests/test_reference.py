"""The reference tables against the literal per-set definitions they regroup.

Every labeled poset with n <= 4, hypothesis-sampled posets with n <= 9 and
the omega windows up to 12 elements.  The plane-decided directed sets also
meet the one-list-pass-per-pair sweep they replaced, up to 14 elements.
"""

from itertools import combinations, compress

from hypothesis import given, settings
from hypothesis import strategies as st

from orderlab import reference
from orderlab.bitset import iter_bits
from orderlab.families import OMEGA, window
from orderlab.poset import (
    _directed,
    _join,
    _least,
    _upper_masks,
    antichain,
    chain,
    enumerate_posets,
    random_poset,
)


def _tables_match_the_definitions(p):
    per_mask = tuple(
        (d, _least(p.up, d))
        for d in range(1 << p.n)
        if _directed(p.up, d) and _least(p.up, d) is not None
    )
    assert reference.directed_sups(p) == per_mask

    rows = [(1 << p.n) - 1] * p.n
    for d, s in per_mask:
        for y in iter_bits(p.down[s]):
            rows[y] &= _join(p.down, d)
    assert reference.way_below(p).sec == tuple(rows)

    assert reference.scott_masks(p) == tuple(
        m
        for m in _upper_masks(p.up, p.down)
        if all(d & m or not m >> s & 1 for d, s in per_mask)
    )


def test_the_reference_tables_match_the_definitions_on_small_posets():
    for n in range(1, 5):
        for p in enumerate_posets(n):
            _tables_match_the_definitions(p)


@settings(max_examples=20, deadline=None)
@given(
    st.builds(
        random_poset,
        n=st.integers(min_value=1, max_value=9),
        p=st.sampled_from([0.1, 0.2, 0.3, 0.5]),
        seed=st.integers(min_value=0, max_value=10**6),
    )
)
def test_the_reference_tables_match_the_definitions_on_sampled_posets(p):
    _tables_match_the_definitions(p)


def test_the_reference_tables_match_the_definitions_on_omega_windows():
    for k in range(11):
        _tables_match_the_definitions(window(OMEGA, 0, k).poset)


def _directed_sups_by_list_passes(p):
    """``directed_sups`` as one pass over a 2^n-element list per incomparable pair."""
    up, masks = p.up, range(1 << p.n)
    ok = [m != 0 for m in masks]
    for a, b in combinations(range(p.n), 2):
        common, pair = up[a] & up[b], 1 << a | 1 << b
        if not common & pair:
            ok = [o and (m & pair != pair or m & common != 0) for m, o in zip(masks, ok)]
    ubs = [(1 << p.n) - 1]
    for row in up:
        ubs += [u & row for u in ubs]
    least = {row: s for s, row in enumerate(up)}
    return tuple((d, least[ubs[d]]) for d in compress(masks, ok) if ubs[d] in least)


def _planes_match_the_list_passes(p):
    assert reference.directed_sups.__wrapped__(p) == _directed_sups_by_list_passes(p)


def test_plane_directed_sets_match_the_list_passes_on_small_posets():
    for n in range(1, 5):
        for p in enumerate_posets(n):
            _planes_match_the_list_passes(p)


@settings(max_examples=40, deadline=None)
@given(
    st.builds(
        random_poset,
        n=st.integers(min_value=1, max_value=11),
        p=st.sampled_from([0.1, 0.2, 0.3, 0.5]),
        seed=st.integers(min_value=0, max_value=10**6),
    )
)
def test_plane_directed_sets_match_the_list_passes_on_sampled_posets(p):
    _planes_match_the_list_passes(p)


def test_plane_directed_sets_match_the_list_passes_on_chains_antichains_and_windows():
    for k in range(1, 15):
        _planes_match_the_list_passes(chain(k))
        _planes_match_the_list_passes(antichain(k))
    for k in range(13):
        _planes_match_the_list_passes(window(OMEGA, 0, k).poset)
