"""Finite posets on elements 0..n-1 with bit-row order matrices.

``up[i]`` is the mask of everything above ``i`` (inclusive), ``down[i]``
the mask of everything below.  Validation, order primitives, generators,
exhaustive enumeration, Hasse diagrams and JSON/DOT serialization all
live here.  By duality each order primitive is one function of rows:
pass ``p.up`` for the order, ``p.down`` for its dual.
"""

from __future__ import annotations

import functools
import json
import random
from itertools import permutations
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .bitset import ElementSet, iter_bits, mask_text, row_unions, transpose
from .errors import (
    AxiomViolation,
    BadParameters,
    BudgetExceeded,
    IndexOutOfRange,
    PosetMismatch,
)

MAX_UNIVERSE = 24
MAX_DIRECTED_UNIVERSE = 20
MAX_LABELED_ENUM = 5
MAX_ISO_ENUM = 6

_T = TypeVar("_T")


class Poset:
    """Immutable finite poset; equality and hashing use the order matrix only."""

    __slots__ = ("n", "up", "down", "labels")

    def __init__(self, up: Iterable[int], labels: Iterable[str] | None = None):
        rows = tuple(up)
        n = len(rows)
        self.n = n
        self.up = rows
        self.down = transpose(rows)
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != n:
            raise BadParameters(f"{len(self.labels)} labels for {n} elements")

    def leq(self, i: int, j: int) -> bool:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexOutOfRange(f"pair ({i},{j}) outside universe of {self.n}")
        return self.up[i] >> j & 1 == 1

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)

    def subset(self, *indices: int) -> ElementSet:
        return ElementSet.from_indices(self.n, indices)

    def empty_set(self) -> ElementSet:
        return ElementSet.empty(self.n)

    def full_set(self) -> ElementSet:
        return ElementSet.full(self.n)

    def parse_subset(self, text: str) -> ElementSet:
        return ElementSet.parse(self.n, text)

    def __eq__(self, other):
        return isinstance(other, Poset) and self.up == other.up

    def __hash__(self):
        return hash(self.up)

    def __repr__(self):
        return f"Poset(n={self.n}, covers={hasse(self)})"


# -- validation ---------------------------------------------------------


def _axiom_check(up: Sequence[int], down: Sequence[int]) -> None:
    """Raise AxiomViolation unless the up-rows ``up``, whose transpose is
    ``down``, form a partial order.  Antisymmetry fails at the least i with
    some j != i both above and below it, and the least such j, so i < j."""
    n = len(up)
    for i in range(n):
        if not up[i] >> i & 1:
            raise AxiomViolation("reflexivity", (i, i))
    for i in range(n):
        both = up[i] & down[i] & ~(1 << i)
        if both:
            j = (both & -both).bit_length() - 1
            raise AxiomViolation("antisymmetry", (i, j))
    for i in range(n):
        missing = _join(up, up[i]) & ~up[i]
        if missing:
            k = (missing & -missing).bit_length() - 1
            raise AxiomViolation("transitivity", (i, k))


def _transitive_close(rows: list[int], n: int) -> list[int]:
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rows[k]
    return rows


def from_rows(rows: Iterable[int], labels: Iterable[str] | None = None) -> Poset:
    """Build a poset from up-rows, validating the order axioms.

    No universe-size cap is applied here; ``validate_poset`` is the
    capped public entry point for external input.
    """
    p = Poset(rows, labels)
    _axiom_check(p.up, p.down)
    return p


def validate_poset(
    n: int,
    pairs: Iterable[tuple[int, int]],
    mode: str = "full-order",
    labels: Iterable[str] | None = None,
) -> Poset:
    """Check the order axioms and return the poset, or raise.

    mode "full-order" expects the complete relation including the
    diagonal; mode "covers" expects cover pairs and closes them
    reflexively and transitively before checking antisymmetry.
    """
    if not 1 <= n <= MAX_UNIVERSE:
        raise BadParameters(f"n={n} outside 1..{MAX_UNIVERSE}")
    if mode not in ("full-order", "covers"):
        raise BadParameters(f"unknown mode {mode!r}")
    rows = [0] * n
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise IndexOutOfRange(f"pair ({i},{j}) outside universe of {n}")
        rows[i] |= 1 << j
    if mode == "covers":
        for i in range(n):
            rows[i] |= 1 << i
        _transitive_close(rows, n)
    return from_rows(rows, labels)


# -- order primitives ---------------------------------------------------


def _join(rows: Sequence[int], bits: int) -> int:
    """The OR of the members' rows: up(bits) on ``p.up``, down(bits) on ``p.down``."""
    out = 0
    while bits:
        out |= rows[(bits & -bits).bit_length() - 1]
        bits &= bits - 1
    return out


def _closed(rows: Sequence[int], bits: int) -> bool:
    """Every member's row stays inside: upper on ``p.up``, lower on ``p.down``."""
    rest = bits
    while rest:
        if rows[(rest & -rest).bit_length() - 1] & ~bits:
            return False
        rest &= rest - 1
    return True


def _directed(rows: Sequence[int], bits: int) -> bool:
    """Nonempty, and the rows of every two members meet inside: directed on
    ``p.up``, filtered on ``p.down``."""
    if not bits:
        return False
    seen, rest = [], bits  # the rows, inside bits, of the members before this one
    while rest:
        row = rows[(rest & -rest).bit_length() - 1] & bits
        for earlier in seen:
            if not earlier & row:
                return False
        seen.append(row)
        rest &= rest - 1
    return True


def _least(rows: Sequence[int], bits: int) -> int | None:
    """The common bound of the members whose row holds every common bound, or
    None, also for no members: supremum on ``p.up``, infimum on ``p.down``."""
    if not bits:
        return None
    bounds = (1 << len(rows)) - 1
    while bits:
        bounds &= rows[(bits & -bits).bit_length() - 1]
        bits &= bits - 1
    rest = bounds
    while rest:
        m = (rest & -rest).bit_length() - 1
        if bounds & ~rows[m] == 0:
            return m
        rest &= rest - 1
    return None


def _check_universe(p: Poset, s: ElementSet) -> None:
    if s.n != p.n:
        raise PosetMismatch(f"set over universe {s.n}, poset has {p.n}")


def up_closure(p: Poset, s: ElementSet) -> ElementSet:
    """Everything above some member of s."""
    _check_universe(p, s)
    return ElementSet(_join(p.up, s.bits), p.n)


def down_closure(p: Poset, s: ElementSet) -> ElementSet:
    """Everything below some member of s."""
    _check_universe(p, s)
    return ElementSet(_join(p.down, s.bits), p.n)


def is_upper(p: Poset, s: ElementSet) -> bool:
    _check_universe(p, s)
    return _closed(p.up, s.bits)


def is_lower(p: Poset, s: ElementSet) -> bool:
    _check_universe(p, s)
    return _closed(p.down, s.bits)


def is_directed(p: Poset, s: ElementSet) -> bool:
    """Nonempty, and every pair has an upper bound inside the set."""
    _check_universe(p, s)
    return _directed(p.up, s.bits)


def is_filtered(p: Poset, s: ElementSet) -> bool:
    """Nonempty, and every pair has a lower bound inside the set."""
    _check_universe(p, s)
    return _directed(p.down, s.bits)


def supremum(p: Poset, s: ElementSet) -> int | None:
    """Least upper bound, or None when it does not exist (including s = {})."""
    _check_universe(p, s)
    return _least(p.up, s.bits)


def infimum(p: Poset, s: ElementSet) -> int | None:
    _check_universe(p, s)
    return _least(p.down, s.bits)


def bottom(p: Poset) -> int | None:
    return _least(p.down, (1 << p.n) - 1)


def top(p: Poset) -> int | None:
    return _least(p.up, (1 << p.n) - 1)


# -- enumerations -------------------------------------------------------


def _upper_masks(
    up: tuple[int, ...], down: tuple[int, ...], start: int = 0
) -> Iterator[int]:
    """Every upper set containing the upper set ``start``, ascending.

    Depth-first over the highest undecided element: excluding it rules
    out its down-set, including it takes in its up-set.  Both choices
    always extend to an upper set, so the work is proportional to the
    output and the stack never holds more than n + 1 entries.
    """
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


_memo_poset: "Poset | None" = None
_memo: dict = {}  # build function -> its value on _memo_poset


def _per_poset(build: Callable[[Poset], _T]) -> Callable[[Poset], _T]:
    """Memoize ``build(p)`` while calls stay on one poset object.

    All memoized functions share one entry, keyed on the identity of the
    last poset asked about: a call on another poset drops every value of
    the previous one, because a campaign holds all its posets for the
    whole run.  Values must be immutable, as every caller shares them.
    """

    @functools.wraps(build)
    def memoized(p: Poset) -> _T:
        global _memo_poset, _memo
        if _memo_poset is not p:
            _memo_poset, _memo = p, {}
        value = _memo.get(build)
        if value is None:
            value = _memo[build] = build(p)
        return value

    return memoized


@_per_poset
def _upper_list(p: Poset) -> tuple[int, ...]:
    """Every upper set of p, ascending."""
    return tuple(_upper_masks(p.up, p.down))


@_per_poset
def _lower_list(p: Poset) -> tuple[int, ...]:
    """Every lower set of p, ascending."""
    return tuple(_upper_masks(p.down, p.up))


@_per_poset
def _down_table(p: Poset) -> tuple[int, ...]:
    """down(A) for every mask A of p, indexed by A."""
    return row_unions(p.down)


def _budgeted_sets(
    p: Poset, up: tuple[int, ...], down: tuple[int, ...], budget: int | None, what: str
) -> Iterator[ElementSet]:
    if p.n > MAX_UNIVERSE:
        raise BudgetExceeded(f"universe of {p.n} exceeds {MAX_UNIVERSE}")
    for emitted, mask in enumerate(_upper_masks(up, down), 1):
        if budget is not None and emitted > budget:
            raise BudgetExceeded(f"more than {budget} {what}")
        yield ElementSet(mask, p.n)


def enumerate_upper_sets(p: Poset, budget: int | None = None) -> Iterator[ElementSet]:
    """All upper sets, ascending by bit value. Includes the empty set.

    Output-sensitive: the work is proportional to the number of upper
    sets, not to the 2^n subsets.
    """
    yield from _budgeted_sets(p, p.up, p.down, budget, "upper sets")


def enumerate_lower_sets(p: Poset, budget: int | None = None) -> Iterator[ElementSet]:
    """All lower sets, ascending by bit value. Includes the empty set.

    Output-sensitive, as the upper sets of the dual order.
    """
    yield from _budgeted_sets(p, p.down, p.up, budget, "lower sets")


def enumerate_directed_subsets(
    p: Poset, budget: int | None = None
) -> Iterator[ElementSet]:
    """All nonempty directed subsets, ascending by bit value."""
    if p.n > MAX_DIRECTED_UNIVERSE:
        raise BudgetExceeded(f"universe of {p.n} exceeds {MAX_DIRECTED_UNIVERSE}")
    directed = (mask for mask in range(1, 1 << p.n) if _directed(p.up, mask))
    for emitted, mask in enumerate(directed, 1):
        if budget is not None and emitted > budget:
            raise BudgetExceeded(f"more than {budget} directed subsets")
        yield ElementSet(mask, p.n)


# -- generators ---------------------------------------------------------


def _check_n(kind: str, n: int) -> None:
    if not 1 <= n <= MAX_UNIVERSE:
        raise BadParameters(f"{kind} needs 1 <= n <= {MAX_UNIVERSE}, got {n}")


def chain(n: int) -> Poset:
    _check_n("chain", n)
    return Poset([((1 << n) - 1) & ~((1 << i) - 1) for i in range(n)])


def antichain(n: int) -> Poset:
    _check_n("antichain", n)
    return Poset([1 << i for i in range(n)])


def diamond() -> Poset:
    """0 below 1 and 2 (incomparable), both below 3."""
    return Poset((0b1111, 0b1010, 0b1100, 0b1000))


def boolean(k: int) -> Poset:
    """The subsets of a k-set under inclusion, labeled "{0,2}" and so on."""
    if not 0 <= k <= 5:
        raise BadParameters(f"boolean needs 0 <= k <= 5, got {k}")
    n = 1 << k
    if n > MAX_UNIVERSE:
        raise BadParameters(f"boolean k={k} yields n={n} > {MAX_UNIVERSE}")
    rows = []
    for i in range(n):
        row = 0
        for j in range(n):
            if i & j == i:
                row |= 1 << j
        rows.append(row)
    labels = ["{" + mask_text(i) + "}" for i in range(n)]
    return Poset(rows, labels)


def random_poset(n: int, p: float, seed: int) -> Poset:
    """Edges i < j drawn with probability p, then closed transitively."""
    _check_n("random", n)
    if not 0.0 <= p <= 1.0:
        raise BadParameters(f"random needs 0 <= p <= 1, got {p}")
    if seed is None:
        raise BadParameters("random needs a seed")
    rng = random.Random(seed)
    rows = [1 << i for i in range(n)]
    # edges only from lower to higher index, so antisymmetry is free
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i] |= 1 << j
    return Poset(_transitive_close(rows, n))


# -- exhaustive enumeration ----------------------------------------------


def _relabel(rows: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    new = [0] * len(rows)
    for i, row in enumerate(rows):
        r = 0
        while row:
            r |= 1 << perm[(row & -row).bit_length() - 1]
            row &= row - 1
        new[perm[i]] = r
    return tuple(new)


def canonical_form(p: Poset) -> tuple[int, ...]:
    """Lexicographically minimal row tuple over all relabelings."""
    best = None
    for perm in permutations(range(p.n)):
        cand = _relabel(p.up, perm)
        if best is None or cand < best:
            best = cand
    return best


def _classes(n: int) -> list[tuple[int, ...]]:
    """The canonical forms of the posets on n points, ascending.

    Removing a maximal element leaves a poset on n - 1 points, so each
    class arises from a class on n - 1 points by a new maximal element
    above one of its lower sets (canonical augmentation: McKay,
    "Isomorph-free exhaustive generation", J. Algorithms 26, 1998).
    """
    classes: list[tuple[int, ...]] = [()]
    for m in range(n):
        bit = 1 << m
        grown = set()
        for rows in classes:
            q = Poset(rows)
            for lower in _upper_masks(q.down, q.up):
                new = [r | bit if lower >> i & 1 else r for i, r in enumerate(rows)]
                grown.add(canonical_form(Poset(new + [bit])))
        classes = sorted(grown)
    return classes


def enumerate_posets(
    n: int, up_to_iso: bool = False, budget: int | None = None
) -> Iterator[Poset]:
    """All posets on n elements, ascending by row tuple.

    Labeled mode emits every order matrix; iso mode emits one canonical
    representative per isomorphism class.
    """
    cap = MAX_ISO_ENUM if up_to_iso else MAX_LABELED_ENUM
    if not 1 <= n <= cap:
        raise BadParameters(f"n={n} outside 1..{cap} for this mode")
    rows_list = _classes(n)
    if not up_to_iso:
        perms = list(permutations(range(n)))
        rows_list = sorted({_relabel(r, perm) for r in rows_list for perm in perms})
    for emitted, rows in enumerate(rows_list, 1):
        if budget is not None and emitted > budget:
            raise BudgetExceeded(f"more than {budget} posets at n={n}")
        yield Poset(rows)


# -- Hasse diagram and serialization --------------------------------------


def hasse(p: Poset) -> list[tuple[int, int]]:
    """Cover pairs (i, j) with i strictly below j and nothing in between."""
    covers = []
    for i in range(p.n):
        strict_up = p.up[i] & ~(1 << i)
        for j in iter_bits(strict_up):
            strict_down_j = p.down[j] & ~(1 << j)
            if strict_up & strict_down_j == 0:
                covers.append((i, j))
    covers.sort()
    return covers


def export_dot(p: Poset, shade: ElementSet | None = None, name: str = "poset") -> str:
    """Render the Hasse diagram as DOT with edges pointing upward."""
    if shade is not None:
        _check_universe(p, shade)
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for i in range(p.n):
        attrs = [f'label="{p.label(i)}"']
        if shade is not None and i in shade:
            attrs.append("style=filled")
            attrs.append("fillcolor=lightblue")
        lines.append(f"  {i} [{' '.join(attrs)}];")
    for i, j in hasse(p):
        lines.append(f"  {i} -> {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_to_json(p: Poset) -> dict:
    """JSON-ready dict in the cover-pair file format."""
    doc: dict = {
        "n": p.n,
        "relation": {"mode": "covers", "pairs": [list(c) for c in hasse(p)]},
    }
    if p.labels is not None:
        doc["labels"] = list(p.labels)
    return doc


def poset_from_json(doc: dict) -> Poset:
    """Parse and validate the poset file format."""
    if not isinstance(doc, dict):
        raise BadParameters("poset document must be a JSON object")
    try:
        n = doc["n"]
        relation = doc["relation"]
        mode = relation["mode"]
        pairs = [tuple(pair) for pair in relation["pairs"]]
    except (KeyError, TypeError) as exc:
        raise BadParameters(f"malformed poset document: {exc}") from exc
    if type(n) is not int:
        raise BadParameters("n must be an integer")
    labels = doc.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(x, str) for x in labels)
    ):
        raise BadParameters("labels must be a list of strings")
    for pair in pairs:
        if len(pair) != 2 or not all(type(x) is int for x in pair):
            raise BadParameters(f"malformed pair {pair!r}")
    return validate_poset(n, pairs, mode, labels)


def load_poset(path: str) -> Poset:
    with open(path, "r", encoding="utf-8") as fh:
        return poset_from_json(json.load(fh))


def dump_poset(p: Poset, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(poset_to_json(p), fh, indent=2, sort_keys=True)
        fh.write("\n")
