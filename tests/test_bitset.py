"""Bit-mask subset values: construction, rendering, and set algebra."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orderlab.bitset import ElementSet, iter_bits, plane_masks, planes, submask_unions
from orderlab.errors import IndexOutOfRange, PosetMismatch


def test_constructors_and_indices():
    s = ElementSet.from_indices(3, [0, 2])
    assert s.bits == 0b101
    assert s.indices() == (0, 2)
    assert ElementSet.empty(3).bits == 0
    assert ElementSet.full(3).bits == 0b111
    assert ElementSet.single(3, 1).bits == 0b010


def test_text_and_parse_round_trip():
    s = ElementSet.from_indices(5, [4, 0, 2])
    assert s.text() == "0,2,4"
    assert ElementSet.parse(5, s.text()) == s
    assert ElementSet.parse(5, "") == ElementSet.empty(5)
    assert ElementSet.parse(5, " 1,3 ") == ElementSet.from_indices(5, [1, 3])
    assert ElementSet.parse(3, "2,1").indices() == (1, 2)


def test_parse_rejects_garbage_and_out_of_range():
    with pytest.raises(IndexOutOfRange):
        ElementSet.parse(3, "a,b")
    with pytest.raises(IndexOutOfRange):
        ElementSet.parse(3, "3")
    with pytest.raises(IndexOutOfRange):
        ElementSet.single(3, -1)
    with pytest.raises(IndexOutOfRange):
        ElementSet(0b1000, 3)


def test_set_algebra():
    a = ElementSet.from_indices(4, [0, 1])
    b = ElementSet.from_indices(4, [1, 2])
    assert (a | b).indices() == (0, 1, 2)
    assert (a & b).indices() == (1,)
    assert (a - b).indices() == (0,)
    assert (a ^ b).indices() == (0, 2)
    assert a.complement().indices() == (2, 3)
    assert a <= (a | b)
    assert not a <= b
    assert ElementSet.empty(4) <= a
    assert a < ElementSet.full(4)
    assert 1 in a and 2 not in a
    assert list(a) == [0, 1]
    assert len(a) == 2
    assert bool(a) and not bool(ElementSet.empty(4))


def test_algebra_rejects_mixed_universes():
    with pytest.raises(PosetMismatch):
        ElementSet.empty(3) | ElementSet.empty(4)


def test_iter_bits_ascending():
    assert list(iter_bits(0b101101)) == [0, 2, 3, 5]
    assert list(iter_bits(0)) == []


@given(st.integers(min_value=0, max_value=2**8 - 1))
def test_complement_is_involutive(bits):
    s = ElementSet(bits, 8)
    assert s.complement().complement() == s


@given(
    st.integers(min_value=0, max_value=2**8 - 1),
    st.integers(min_value=0, max_value=2**8 - 1),
)
def test_de_morgan(x, y):
    a, b = ElementSet(x, 8), ElementSet(y, 8)
    assert (a | b).complement() == a.complement() & b.complement()


@given(st.integers(min_value=0, max_value=2**8 - 1))
def test_text_parse_round_trip_property(bits):
    s = ElementSet(bits, 8)
    assert ElementSet.parse(8, s.text()) == s


@given(
    st.integers(min_value=0, max_value=10),
    st.lists(st.tuples(st.integers(0, 2**10 - 1), st.integers(0, 2**8 - 1)), max_size=8),
)
def test_submask_unions_or_the_values_seeded_below_each_mask(n, seeds):
    seeds = [(mask & ((1 << n) - 1), value) for mask, value in seeds]
    expected = []
    for b in range(1 << n):
        acc = 0
        for mask, value in seeds:
            if mask & ~b == 0:
                acc |= value
        expected.append(acc)
    assert submask_unions(n, seeds) == tuple(expected)


def test_plane_x_holds_the_masks_that_hold_x():
    for n in range(9):
        held = planes(n)
        assert len(held) == n
        for x, plane in enumerate(held):
            assert plane == sum(1 << m for m in range(1 << n) if m >> x & 1), (n, x)


@given(st.integers(min_value=0, max_value=9), st.data())
def test_plane_masks_reads_the_set_bits_in_order(n, data):
    plane = data.draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    assert list(plane_masks(plane, n)) == list(iter_bits(plane))

