"""Subsets of a finite universe stored as bit masks.

Inside the library a set is an int mask (bit ``i`` set means element
``i`` is a member) and each set operation has one mask-level function.
A predicate over every subset of an n-element universe is a plane, an int
of 2^n bits whose bit m says whether it holds at mask m (Knuth, *TAOCP*
4A, §7.1.1 and §7.1.3); ``planes`` gives the membership planes that such
predicates are combined from, a few big-int operations for all 2^n masks.
A lane int holds one value per mask in ``lane_width(n)`` bytes instead, as
in ``submask_unions``.  ``ElementSet``, a mask plus its universe size ``n``, is the public
boundary type: a public function validates it, calls the mask-level
code and boxes the result once.
"""

from __future__ import annotations

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


@lru_cache(maxsize=None)
def _or_table(row: int) -> bytes:
    return bytes(v | row for v in range(256))


def byte_unions(rows: Sequence[int]) -> bytes:
    """``row_unions`` of rows on at most 8 points as a ``bytes.translate``
    table, zero past the masks; each doubling is one C-level translate."""
    table = b"\0"
    for row in rows:
        table += table.translate(_or_table(row))
    return table.ljust(256, b"\0")


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


LANE_CODES = {1: "B", 2: "H", 4: "I"}  # the array type of each lane width


def lane_width(n: int) -> int:
    """The bytes of a lane that holds a mask over n <= 32 bits: 1, 2 or 4."""
    return 1 if n <= 8 else 2 if n <= 16 else 4


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
