"""The row-level order primitives against their literal definitions.

Each primitive is one function of rows, read on ``p.up`` for the order and
on ``p.down`` for its dual.  Both readings are checked on every labeled
poset with n <= 4 and on hypothesis-sampled posets with n <= 9; ``_join``
and ``transpose`` also on the sections of every relation with n <= 3.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from orderlab.auxrel import enumerate_aux
from orderlab.bitset import row_unions, transpose
from orderlab.poset import (
    _closed,
    _directed,
    _join,
    _least,
    bottom,
    enumerate_posets,
    random_poset,
    top,
)


def _holds(rows, i, j):
    return rows[i] >> j & 1 == 1


def _join_and_transpose_match_the_definitions(rows):
    n = len(rows)
    unions = row_unions(rows)
    for m in range(1 << n):
        members = [i for i in range(n) if m >> i & 1]
        assert _join(rows, m) == unions[m] == sum(
            1 << j for j in range(n) if any(_holds(rows, i, j) for i in members)
        )
    converse = transpose(rows)
    assert all(_holds(converse, j, i) == _holds(rows, i, j) for i in range(n) for j in range(n))


def _primitives_match_the_definitions(rows):
    _join_and_transpose_match_the_definitions(rows)
    n = len(rows)
    for m in range(1 << n):
        members = [i for i in range(n) if m >> i & 1]
        assert _closed(rows, m) == all(
            m >> j & 1 for i in members for j in range(n) if _holds(rows, i, j)
        )
        assert _directed(rows, m) == (
            bool(members)
            and all(
                any(_holds(rows, a, c) and _holds(rows, b, c) for c in members)
                for a in members
                for b in members
            )
        )
        bounds = [c for c in range(n) if all(_holds(rows, i, c) for i in members)]
        least = [c for c in bounds if all(_holds(rows, c, d) for d in bounds)]
        assert len(least) <= 1
        assert _least(rows, m) == (least[0] if members and least else None)


def _posets_match_the_definitions(p):
    assert p.down == transpose(p.up)
    for rows in (p.up, p.down):
        _primitives_match_the_definitions(rows)
    least = [x for x in range(p.n) if all(p.leq(x, y) for y in range(p.n))]
    greatest = [x for x in range(p.n) if all(p.leq(y, x) for y in range(p.n))]
    assert bottom(p) == (least[0] if least else None)
    assert top(p) == (greatest[0] if greatest else None)


def test_the_primitives_match_the_definitions_on_small_posets():
    for n in range(1, 5):
        for p in enumerate_posets(n):
            _posets_match_the_definitions(p)


@settings(max_examples=20, deadline=None)
@given(
    st.builds(
        random_poset,
        n=st.integers(min_value=1, max_value=9),
        p=st.sampled_from([0.1, 0.2, 0.3, 0.5]),
        seed=st.integers(min_value=0, max_value=10**6),
    )
)
def test_the_primitives_match_the_definitions_on_sampled_posets(p):
    _posets_match_the_definitions(p)


def test_join_and_transpose_match_the_definitions_on_relation_sections():
    relations = 0
    for n in range(1, 4):
        for p in enumerate_posets(n):
            for r in enumerate_aux(p):
                relations += 1
                _join_and_transpose_match_the_definitions(r.sec)
    assert relations == 158
