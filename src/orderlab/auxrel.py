"""Auxiliary relations on a finite poset.

A relation ``R`` here is a strengthening of the order: it must sit
inside <=, absorb <= on both sides (u <= x R y <= z implies u R z), and
relate the bottom element to everything when a bottom exists.  The
way-below relation is the canonical example; on a finite poset it is the
order itself, and ``reference`` keeps its directed-subset definition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .bitset import ByteUnions, ElementSet, iter_bits, lane_width, transpose, unpack
from .errors import (
    AxiomViolation,
    BudgetExceeded,
    IndexOutOfRange,
    PosetMismatch,
    SeedViolatesOrder,
)
from .poset import Poset, _directed, _join, _least, _per_poset, _upper_masks, bottom


class AuxRelation:
    """A relation stored column-wise: sec[j] is the mask of {i : i R j}.

    Immutable, so what depends on the relation alone is memoized: its
    sorted pairs, ``classify`` result, report subject, induced topology,
    transposed sections and the ``approx`` operator tables: on posets of at
    most ``approx.TABLE_MAX_N`` elements ``bytes`` indexed by mask, which the
    lane laws also use as translate tables, and above it the byte-sliced
    ``bitset.ByteUnions`` of the transposed sections.
    """

    __slots__ = (
        "poset", "sec", "_pairs", "_class", "_subject", "_mu", "_above", "_lap", "_uap", "_hit"
    )

    def __init__(self, poset: Poset, sec: Iterable[int]):
        self.poset = poset
        self.sec = tuple(sec)
        if len(self.sec) != poset.n:
            raise PosetMismatch(
                f"{len(self.sec)} section rows for a poset of {poset.n}"
            )
        self._pairs = self._class = self._subject = self._mu = None
        self._above = self._lap = self._uap = self._hit = None

    @property
    def above(self) -> tuple[int, ...]:
        """above[x] is the mask of {y : x R y}, the transposed sections."""
        if self._above is None:
            self._above = transpose(self.sec)
        return self._above

    def pairs(self) -> list[tuple[int, int]]:
        if self._pairs is None:
            self._pairs = sorted((i, j) for j, sec in enumerate(self.sec) for i in iter_bits(sec))
        return list(self._pairs)

    def holds(self, i: int, j: int) -> bool:
        n = self.poset.n
        if not (0 <= i < n and 0 <= j < n):
            raise IndexOutOfRange(f"pair ({i},{j}) outside universe of {n}")
        return self.sec[j] >> i & 1 == 1

    def __eq__(self, other):
        return (
            isinstance(other, AuxRelation)
            and self.poset == other.poset
            and self.sec == other.sec
        )

    def __hash__(self):
        return hash((self.poset.up, self.sec))

    def __repr__(self):
        return f"AuxRelation(pairs={self.pairs()})"


def _check_same_poset(r1: AuxRelation, r2: AuxRelation) -> None:
    if r1.poset != r2.poset:
        raise PosetMismatch("relations live on different posets")


# -- validation and builtins ----------------------------------------------


def _axiom_check_aux(p: Poset, sec: tuple[int, ...]) -> None:
    for j in range(p.n):
        outside = sec[j] & ~p.down[j]
        if outside:
            i = (outside & -outside).bit_length() - 1
            raise AxiomViolation("aux-1", (i, j))
    for z in range(p.n):
        missing = _join(p.down, _join(sec, p.down[z])) & ~sec[z]
        if missing:
            u = (missing & -missing).bit_length() - 1
            raise AxiomViolation("aux-2", (u, z))
    bot = bottom(p)
    if bot is not None:
        for x in range(p.n):
            if not sec[x] >> bot & 1:
                raise AxiomViolation("aux-3", (bot, x))


def validate_aux(p: Poset, pairs: Iterable[tuple[int, int]]) -> AuxRelation:
    """Check the three axioms and return the relation, or raise."""
    sec = [0] * p.n
    for i, j in pairs:
        if not (0 <= i < p.n and 0 <= j < p.n):
            raise IndexOutOfRange(f"pair ({i},{j}) outside universe of {p.n}")
        sec[j] |= 1 << i
    sec_t = tuple(sec)
    _axiom_check_aux(p, sec_t)
    return AuxRelation(p, sec_t)


@_per_poset
def leq_aux(p: Poset) -> AuxRelation:
    """The order itself, the top auxiliary relation; calls in a row on p share it."""
    return AuxRelation(p, p.down)


def bottom_aux(p: Poset) -> AuxRelation:
    """The least auxiliary relation: bottom-to-everything, or empty."""
    bot = bottom(p)
    if bot is None:
        return AuxRelation(p, (0,) * p.n)
    return AuxRelation(p, (1 << bot,) * p.n)


def aux_closure(p: Poset, seed_pairs: Iterable[tuple[int, int]]) -> AuxRelation:
    """Least auxiliary relation containing the seed pairs.

    Every seed pair must already lie within the order.  One saturation
    pass suffices because <= is transitive.
    """
    seed = [0] * p.n
    for i, j in seed_pairs:
        if not (0 <= i < p.n and 0 <= j < p.n):
            raise IndexOutOfRange(f"pair ({i},{j}) outside universe of {p.n}")
        if not p.up[i] >> j & 1:
            raise SeedViolatesOrder((i, j))
        seed[j] |= 1 << i
    bot = bottom(p)
    if bot is not None:
        for x in range(p.n):
            seed[x] |= 1 << bot
    down_of_seed = [_join(p.down, s) for s in seed]
    out = AuxRelation(p, [_join(down_of_seed, d) for d in p.down])
    _axiom_check_aux(p, out.sec)
    return out


# -- way-below ------------------------------------------------------------


def way_below(p: Poset) -> AuxRelation:
    """x way-below y: every directed set with a supremum >= y reaches x.

    On a finite poset every directed set contains its supremum, so this
    is the order itself, ``leq_aux(p)`` with its memoized tables and
    classification; ``reference.way_below`` keeps the literal definition.
    """
    return leq_aux(p)


# -- sections and classification -------------------------------------------


def section_below(r: AuxRelation, x: int) -> ElementSet:
    """Everything related up into x."""
    if not 0 <= x < r.poset.n:
        raise IndexOutOfRange(f"element {x} outside universe of {r.poset.n}")
    return ElementSet(r.sec[x], r.poset.n)


def section_above(r: AuxRelation, x: int) -> ElementSet:
    """Everything x is related up into (an upper set by the axioms)."""
    p = r.poset
    if not 0 <= x < p.n:
        raise IndexOutOfRange(f"element {x} outside universe of {p.n}")
    return ElementSet(r.above[x], p.n)


@dataclass(frozen=True)
class AuxClass:
    """Classification flags with witnesses for the failed ones."""

    pre_approximating: bool
    approximating: bool
    has_int: bool
    witnesses: dict = field(default_factory=dict)


def classify(r: AuxRelation) -> AuxClass:
    """Directedness of sections, join-back, and interpolation."""
    if r._class is not None:
        return r._class
    p = r.poset
    witnesses: dict = {}
    pre = True
    for x in range(p.n):
        if not _directed(p.up, r.sec[x]):
            pre = False
            witnesses["pre_approximating"] = x
            break
    app = pre
    if pre:
        for x in range(p.n):
            if _least(p.up, r.sec[x]) != x:
                app = False
                witnesses["approximating"] = x
                break
    above = r.above
    has_int = True
    for z, sec in enumerate(r.sec):
        rest = sec  # from the lowest x in sec(z), until one has no step into it
        while rest and above[(rest & -rest).bit_length() - 1] & sec:
            rest &= rest - 1
        if rest:
            has_int = False
            witnesses["has_int"] = ((rest & -rest).bit_length() - 1, z)
            break
    r._class = AuxClass(pre, app, has_int, witnesses)
    return r._class


# -- lattice structure ------------------------------------------------------


def aux_union(r1: AuxRelation, r2: AuxRelation) -> AuxRelation:
    _check_same_poset(r1, r2)
    sec = tuple(a | b for a, b in zip(r1.sec, r2.sec))
    _axiom_check_aux(r1.poset, sec)
    return AuxRelation(r1.poset, sec)


def aux_intersection(r1: AuxRelation, r2: AuxRelation) -> AuxRelation:
    _check_same_poset(r1, r2)
    sec = tuple(a & b for a, b in zip(r1.sec, r2.sec))
    _axiom_check_aux(r1.poset, sec)
    return AuxRelation(r1.poset, sec)


def aux_subset(r1: AuxRelation, r2: AuxRelation) -> bool:
    _check_same_poset(r1, r2)
    return all(a & ~b == 0 for a, b in zip(r1.sec, r2.sec))


def _leq_pairs(p: Poset) -> list[tuple[int, int]]:
    return [(i, j) for i in range(p.n) for j in iter_bits(p.up[i])]


def enumerate_aux(p: Poset, budget: int | None = None) -> Iterator[AuxRelation]:
    """Every auxiliary relation, ascending by pair-subset encoding.

    Bit b of the encoding stands for the order pair ``_leq_pairs(p)[b]``.
    The relations are exactly the upper sets of the pair order
    (x, y) <= (u, z) iff u <= x and y <= z that contain the bottom pairs,
    so the output-sensitive upper-set enumerator lists them with no cap
    on the number of pairs.  A relation's sections are one lane int, lane j
    holding sec[j], looked up byte by byte of its encoding in a
    ``bitset.ByteUnions`` where pair b = (i, j) sets bit i of lane j.
    """
    pairs = _leq_pairs(p)
    index = {pair: b for b, pair in enumerate(pairs)}
    pair_order = Poset(
        sum(1 << index[u, z] for u in iter_bits(p.down[x]) for z in iter_bits(p.up[y]))
        for x, y in pairs
    )
    bot = bottom(p)
    start = 0 if bot is None else sum(1 << index[bot, y] for y in range(p.n))
    masks = _upper_masks(pair_order.up, pair_order.down, start)
    w = lane_width(p.n)
    sections = ByteUnions([1 << i + 8 * w * j for i, j in pairs], w * p.n)
    for emitted, mask in enumerate(masks, 1):
        if budget is not None and emitted > budget:
            raise BudgetExceeded(f"more than {budget} auxiliary relations")
        yield AuxRelation(p, unpack(sections(mask).to_bytes(w * p.n, "little"), w))


def sample_aux(p: Poset, seed: int, density: float = 0.3) -> AuxRelation:
    """Closure of a pseudo-random subset of the order pairs."""
    rng = random.Random(seed)
    chosen = [pair for pair in _leq_pairs(p) if rng.random() < density]
    return aux_closure(p, chosen)
