"""Bit-mask subset values: construction, rendering, and set algebra."""

import random
from operator import or_

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orderlab.bitset import (
    ByteUnions,
    ElementSet,
    iter_bits,
    lane_width,
    pack,
    plane_masks,
    planes,
    row_unions,
    submask_unions,
    unpack,
)
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
    assert tuple(submask_unions(n, seeds)) == tuple(expected)


def _submask_unions_by_slice_passes(n, seeds):
    """``submask_unions`` as a list: bit i ORs each mask without it into the
    mask with it, one slice pass per offset or one per block."""
    size = 1 << n
    table = [0] * size
    for mask, value in seeds:
        table[mask] |= value
    for i in range(n):
        bit, step = 1 << i, 2 << i
        if step * step <= size:
            for j in range(bit):
                table[bit + j :: step] = map(or_, table[bit + j :: step], table[j::step])
        else:
            for lo in range(0, size, step):
                hi = lo + bit
                table[hi : hi + bit] = map(or_, table[hi : hi + bit], table[lo:hi])
    return tuple(table)


@pytest.mark.parametrize("n", [*range(13), 16, 17, 20])
def test_lane_submask_unions_match_the_slice_passes(n):
    """Every n to 12, the lane-width edges 8/9 and 16/17, and n = 20; values
    fill the lane, as wide as 8, 16 or 32 bits."""
    rng = random.Random(n)
    width = 8 if n <= 8 else 16 if n <= 16 else 32
    for count in (0, 1, 5, 1 << n if n <= 12 else 64):
        seeds = [(rng.getrandbits(n), rng.getrandbits(width)) for _ in range(count)]
        table = submask_unions(n, seeds)
        assert len(table) == 1 << n
        assert tuple(table) == _submask_unions_by_slice_passes(n, seeds), (n, count)


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



def _union_by_bit_walk(rows, mask):
    out = 0
    for i in iter_bits(mask):
        out |= rows[i]
    return out


@given(
    st.integers(min_value=0, max_value=70),
    st.sampled_from([0, 3, 9, 20]),
    st.integers(min_value=0, max_value=10**6),
)
def test_byte_unions_look_up_the_union_of_the_members_rows(n, width, seed):
    """Every item width: one, two, four and eight bytes, and a tuple of ints
    past eight, whether rows are as wide as the masks or ``width`` bytes."""
    rng = random.Random(seed)
    bits = 8 * width or n
    rows = [rng.getrandbits(bits) for _ in range(n)]
    unions = ByteUnions(rows, width)
    assert len(unions.slices) == max(1, -(-n // 8))
    for k, entries in enumerate(unions.slices):
        assert tuple(entries) == row_unions(rows[8 * k : 8 * k + 8])
    for mask in [0, (1 << n) - 1, *(rng.getrandbits(n) for _ in range(20))]:
        assert unions(mask) == _union_by_bit_walk(rows, mask), (n, width, mask)


@pytest.mark.parametrize("n", [*range(1, 19), 23, 24, 25, 31, 32])
def test_byte_unions_gather_every_lane_as_its_lookup(n):
    """Lanes of one, two and four bytes, on both sides of n = 8/9 and 16/17:
    the byte-sliced translates give each lane the union at its mask."""
    rng = random.Random(n)
    rows = [rng.getrandbits(n) for _ in range(n)]
    unions = ByteUnions(rows)
    w = lane_width(n)
    masks = [0, (1 << n) - 1, *(rng.getrandbits(n) for _ in range(300))]
    gathered = unions.gather(pack(masks, w)).to_bytes(w * len(masks), "little")
    assert list(unpack(gathered, w)) == [_union_by_bit_walk(rows, m) for m in masks]
    if n <= 8:  # the whole table, one translate
        assert ByteUnions.byte_table(rows) == bytes(map(unions, range(1 << n))).ljust(256, b"\0")
