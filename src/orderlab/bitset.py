"""Subsets of a finite universe stored as bit masks.

Inside the library a set is an int mask (bit ``i`` set means element
``i`` is a member) and each set operation has one mask-level function.
A predicate over every subset of an n-element universe is a plane, an int
of 2^n bits whose bit m says whether it holds at mask m (Knuth, *TAOCP*
4A, §7.1.1 and §7.1.3); ``planes`` gives the membership planes that such
predicates are combined from, a few big-int operations for all 2^n masks.
A lane int holds one value per mask in ``lane_width(n)`` bytes instead, as
in ``submask_unions``.  ``ByteUnions`` is the one kernel for "the OR of the
rows of a mask's members": one 256-entry lookup per byte of a mask, or
byte-sliced ``bytes.translate`` calls over a whole lane int.  ``ElementSet``,
a mask plus its universe size ``n``, is the public boundary type: a public
function validates it, calls the mask-level code and boxes the result once.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Iterable, Iterator, Sequence

from .errors import IndexOutOfRange, PosetMismatch

_PLANE_BITS = bytes.maketrans(b"01", b"\0\1")  # bin() digits as compress selectors


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_text(mask: int) -> str:
    """The members of ``mask`` as "0,2", the form witnesses and the CLI use."""
    return ",".join(map(str, iter_bits(mask)))


def row_unions(rows: Sequence[int]) -> tuple[int, ...]:
    """Every mask m over len(rows) bits mapped to the OR of rows[i] over the
    members i of m, doubling the table once per row."""
    table = [0]
    for row in rows:
        table += [t | row for t in table]
    return tuple(table)


def transpose(rows: Sequence[int]) -> tuple[int, ...]:
    """The rows of the converse of a relation on len(rows) points: bit i of
    row j is set when bit j of row i is."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        while row:
            out[(row & -row).bit_length() - 1] |= 1 << i
            row &= row - 1
    return tuple(out)


def planes(n: int) -> list[int]:
    """The membership planes of an n-element universe: bit m of plane x is
    set when mask m holds x, so plane x repeats 2^x zeros, then 2^x ones."""
    out = []
    for x in range(n):
        half = 1 << x
        plane, width = ((1 << half) - 1) << half, 2 * half
        while width < 1 << n:
            plane |= plane << width
            width *= 2
        out.append(plane)
    return out


def plane_masks(plane: int, n: int) -> Iterator[int]:
    """The masks over n bits whose bit is set in ``plane``, ascending; read at
    C level, as a set-bit walk costs a 2^n-bit shift per member."""
    return compress(range(1 << n), bin(plane)[:1:-1].encode().translate(_PLANE_BITS))


LANE_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}  # the array type of each item width
_BIG_ENDIAN = sys.byteorder == "big"


def lane_width(n: int) -> int:
    """The bytes of a lane that holds a mask over n <= 32 bits: 1, 2 or 4."""
    return 1 if n <= 8 else 2 if n <= 16 else 4


def pack(values: Iterable[int], w: int) -> bytes:
    """The values as little-endian lanes of w bytes, on every host."""
    lanes = array(LANE_CODES[w], values)
    if _BIG_ENDIAN:
        lanes.byteswap()
    return lanes.tobytes()


def unpack(lanes: bytes, w: int) -> array:
    """The values of little-endian lanes of w bytes, read at C level."""
    values = array(LANE_CODES[w], lanes)
    if _BIG_ENDIAN:
        values.byteswap()
    return values


@lru_cache(maxsize=16)
def _doubling_ones(item: int) -> tuple[int, ...]:
    """1 in each of the 2^i lanes of ``item`` bytes that row i of a chunk fills."""
    return tuple(int.from_bytes((b"\1" + bytes(item - 1)) * (1 << i), "little") for i in range(8))


def _doubled(rows: Sequence[int], item: int) -> bytes:
    """The ``row_unions`` of at most 8 rows as little-endian lanes of ``item``
    bytes: each row doubles the lane int, one shift and OR."""
    table, shift = 0, 8 * item
    for ones, row in zip(_doubling_ones(item), rows):
        table |= (table | row * ones) << shift
        shift *= 2
    return table.to_bytes(shift // 8, "little")


class ByteUnions:
    """The OR of rows[i] over the members i of a mask, one lookup per byte of
    the mask (a byte-sliced table; Knuth, *TAOCP* 4A, §7.1.3).

    ``slices[k]`` is the ``row_unions`` of rows 8k..8k+7, indexed by byte k
    of a mask: an ``array`` of items of ``width`` bytes rounded up to 1, 2, 4
    or 8, else a tuple of ints.  A lane gather reads the byte planes of the
    slices (built on its first call): plane (k, j) maps byte k of a lane to
    byte j of its union as a ``bytes.translate`` table.  Up to 8 rows over 8
    bits the one plane is the whole table, which ``byte_table`` builds
    without the slices.
    """

    __slots__ = ("width", "slices", "_planes")

    def __init__(self, rows: Sequence[int], width: int = 0):
        """``width`` is the bytes of a union, by default those of a mask over
        len(rows) bits."""
        self.width = width or (len(rows) + 7) // 8 or 1
        item = next((w for w in LANE_CODES if w >= self.width), self.width)
        chunks = (_doubled(rows[k : k + 8], item) for k in range(0, len(rows) or 1, 8))
        if item in LANE_CODES:
            self.slices = tuple(unpack(data, item) for data in chunks)
        else:
            self.slices = tuple(
                tuple(int.from_bytes(data[i : i + item], "little") for i in range(0, len(data), item))
                for data in chunks
            )
        self._planes = None

    @staticmethod
    def byte_table(rows: Sequence[int]) -> bytes:
        """The unions of at most 8 rows over 8 bits as a translate table, zero
        past the masks."""
        return _doubled(rows, 1).ljust(256, b"\0")

    def __call__(self, mask: int) -> int:
        """The union at ``mask``, which must fit len(rows) bits."""
        out = 0
        for table in self.slices:
            out |= table[mask & 255]
            mask >>= 8
        return out

    def gather(self, lanes: bytes) -> int:
        """The union at every lane of ``lanes``, little-endian lanes as wide as
        the items, as one lane int: byte k of every lane translated into each
        byte j of its share of the union, ORed over k."""
        item = self.slices[0].itemsize
        if self._planes is None:
            self._planes = tuple(
                tuple(data[j::item] for j in range(self.width))
                for data in (pack(t, item).ljust(256 * item, b"\0") for t in self.slices)
            )
        out, buf = 0, bytearray(len(lanes))
        for k, row in enumerate(self._planes):
            source = lanes[k::item]
            for j, plane in enumerate(row):
                buf[j::item] = source.translate(plane)
            out |= int.from_bytes(buf, "little")
        return out


def submask_unions(n: int, seeds: Iterable[tuple[int, int]]) -> bytes | memoryview:
    """Every mask m over n bits mapped to the OR of the (mask, value) seeds at
    submasks of m, as ``bytes`` for one-byte lanes, else a ``memoryview`` cast.

    The fast zeta transform over OR on one int, whose lane m holds the value
    at m (values must fit a lane): bit i ORs each lane without bit i into the
    lane 2^i above it, one shift, AND and OR.  The bits commute, so they run
    downward, each lane mask one shift and XOR from the last (like 0x0000ffff,
    0x00ff00ff, 0x0f0f0f0f).  Steps move whole bytes, so native-order lanes
    are right on any host."""
    w = lane_width(n)
    code = LANE_CODES[w]
    seeded = bytearray(w << n)
    lanes = memoryview(seeded).cast(code)
    for mask, value in seeds:
        lanes[mask] |= value
    x = int.from_bytes(seeded, "little")
    keep = every = (1 << (8 * w << n)) - 1
    for i in reversed(range(n)):
        shift = 8 * w << i
        keep = (keep ^ keep << shift) & every  # the lanes of the masks without bit i
        x |= (x & keep) << shift
    table = x.to_bytes(w << n, "little")
    return table if w == 1 else memoryview(table).cast(code)


@dataclass(frozen=True, slots=True)
class ElementSet:
    """A subset of {0..n-1} as a bit mask over a fixed universe."""

    bits: int
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise IndexOutOfRange(f"negative universe size {self.n}")
        if self.bits < 0 or self.bits >> self.n:
            raise IndexOutOfRange(
                f"mask {self.bits:#x} does not fit a universe of {self.n}"
            )

    # -- constructors ---------------------------------------------------

    @classmethod
    def empty(cls, n: int) -> "ElementSet":
        return cls(0, n)

    @classmethod
    def full(cls, n: int) -> "ElementSet":
        return cls((1 << n) - 1, n)

    @classmethod
    def single(cls, n: int, i: int) -> "ElementSet":
        if not 0 <= i < n:
            raise IndexOutOfRange(f"index {i} outside 0..{n - 1}")
        return cls(1 << i, n)

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "ElementSet":
        mask = 0
        for i in indices:
            if not 0 <= i < n:
                raise IndexOutOfRange(f"index {i} outside 0..{n - 1}")
            mask |= 1 << i
        return cls(mask, n)

    @classmethod
    def parse(cls, n: int, text: str) -> "ElementSet":
        """Parse the textual form used on the command line, e.g. "0,2"."""
        text = text.strip()
        if not text:
            return cls(0, n)
        try:
            indices = [int(part) for part in text.split(",")]
        except ValueError as exc:
            raise IndexOutOfRange(f"cannot parse element list {text!r}") from exc
        return cls.from_indices(n, indices)

    # -- rendering ------------------------------------------------------

    def indices(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.bits))

    def text(self) -> str:
        return mask_text(self.bits)

    def __repr__(self):
        return f"ElementSet([{self.text()}], n={self.n})"

    # -- set algebra ----------------------------------------------------

    def _check(self, other: "ElementSet") -> None:
        if self.n != other.n:
            raise PosetMismatch(f"universe {other.n} differs from {self.n}")

    def __or__(self, other: "ElementSet") -> "ElementSet":
        self._check(other)
        return ElementSet(self.bits | other.bits, self.n)

    def __and__(self, other: "ElementSet") -> "ElementSet":
        self._check(other)
        return ElementSet(self.bits & other.bits, self.n)

    def __sub__(self, other: "ElementSet") -> "ElementSet":
        self._check(other)
        return ElementSet(self.bits & ~other.bits, self.n)

    def __xor__(self, other: "ElementSet") -> "ElementSet":
        self._check(other)
        return ElementSet(self.bits ^ other.bits, self.n)

    def complement(self) -> "ElementSet":
        return ElementSet(self.bits ^ ((1 << self.n) - 1), self.n)

    def __le__(self, other: "ElementSet") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def __lt__(self, other: "ElementSet") -> bool:
        return self <= other and self.bits != other.bits

    def __ge__(self, other: "ElementSet") -> bool:
        return other <= self

    def __gt__(self, other: "ElementSet") -> bool:
        return other < self

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.n and self.bits >> i & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0
