"""Way-below, Scott opens and one step, from the directed-subset definitions.

On a finite poset every directed set contains its supremum, so way-below
is the order, the Scott opens are the upper sets and one step of the
closure operator is the down closure (Gierz et al., *Continuous Lattices
and Domains*).  The engine uses those closed forms.  This module keeps
the literal definitions, read off whole-mask tables, as the oracle for the
laws that exercise the definitions and for the differential tests of the
closed forms.  ``one_step_mask`` also serves the finite windows of a
family: their declared chains stand in for the directed sets, since a
finite directed set's supremum is already in the down closure.

``directed_sups`` (an ``lru_cache``, as queries rebuild equal posets such
as one window of a family) lists every directed set with its supremum.
It decides directedness for all 2^n masks at once on truth-table planes
(``bitset.planes``): one statement per incomparable pair clears the masks
that hold the pair and none of its common upper bounds.
The rest is built once per poset, through the memo of ``poset`` that the
poset-level suites of a campaign share: ``subset_sups``, the directed
suprema inside every mask, read by ``scott_masks`` and ``one_step_images``
(whose per-mask oracle is ``one_step_mask``); ``scott_interiors``, from
the Scott opens; and ``way_below``.  ``way_below`` and ``one_step_images``
read the down closures off ``poset._down_table``, never off the byte
tables of the approximation operators, so a law that compares the engine
with this oracle compares two computations.  ``subset_sups`` and
``scott_interiors`` are each one ``bitset.submask_unions``, indexed by
mask; the laws read them on the lanes of ``approx``.  Every
reference-derived table lives here.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations
from operator import and_, or_

from .approx import _int, _lane_constants, _pack
from .auxrel import AuxRelation
from .bitset import iter_bits, lane_width, plane_masks, planes, submask_unions
from .errors import BudgetExceeded
from .poset import MAX_DIRECTED_UNIVERSE, Poset, _down_table, _join, _per_poset, _upper_list


@lru_cache(maxsize=2048)
def directed_sups(p: Poset) -> tuple[tuple[int, int], ...]:
    """Every nonempty directed mask, ascending, with its supremum (the upper bound
    below all upper bounds); ``BudgetExceeded`` beyond ``MAX_DIRECTED_UNIVERSE``."""
    if p.n > MAX_DIRECTED_UNIVERSE:
        raise BudgetExceeded(f"universe of {p.n} exceeds {MAX_DIRECTED_UNIVERSE}")
    up, held = p.up, planes(p.n)
    ok = (1 << (1 << p.n)) - 2  # the plane of masks whose pairs have an upper bound inside
    for a, b in combinations(range(p.n), 2):
        common, pair = up[a] & up[b], 1 << a | 1 << b
        if not common & pair:  # else a or b bounds the pair in every mask holding both
            ok &= ~(held[a] & held[b]) | reduce(or_, map(held.__getitem__, iter_bits(common)), 0)
    ubs = [(1 << p.n) - 1]  # ubs[m]: the upper bounds of every member of m
    for row in up:
        ubs += [u & row for u in ubs]
    least = {row: s for s, row in enumerate(up)}
    return tuple((d, least[ubs[d]]) for d in plane_masks(ok, p.n) if ubs[d] in least)


@_per_poset
def subset_sups(p: Poset) -> bytes | memoryview:
    """The suprema of the directed subsets of every mask, indexed by mask."""
    sups = directed_sups(p)  # checks the budget before the table is built
    return submask_unions(p.n, ((d, 1 << s) for d, s in sups))


@_per_poset
def way_below(p: Poset) -> AuxRelation:
    """x way-below y: every directed set with a supremum >= y reaches x."""
    reached = [(1 << p.n) - 1] * p.n  # reached[s]: for the directed sets with supremum s
    sups, down = directed_sups(p), _down_table(p)  # the sweep checks the budget first
    for d, s in sups:
        reached[s] &= down[d]
    # row y: what every directed set with a supremum s >= y reaches
    return AuxRelation(p, [reduce(and_, map(reached.__getitem__, iter_bits(u))) for u in p.up])


@_per_poset
def scott_masks(p: Poset) -> tuple[int, ...]:
    """The upper sets that every directed set with its supremum inside meets:
    no directed subset of the complement has its supremum inside."""
    sups, full = subset_sups(p), (1 << p.n) - 1
    return tuple(m for m in _upper_list(p) if not sups[full ^ m] & m)


@_per_poset
def scott_interiors(p: Poset) -> bytes | memoryview:
    """Every mask's Scott interior, indexed by mask: the union of the opens inside."""
    return submask_unions(p.n, ((u, u) for u in scott_masks(p)))


@_per_poset
def one_step_images(p: Poset) -> tuple[int, ...]:
    """``one_step_mask`` of every mask, indexed by mask: the suprema of the
    directed subsets of down(b), among them each member as a singleton.  The
    sweep of ``subset_sups`` checks the budget before the down table is built."""
    return tuple(map(subset_sups(p).__getitem__, _down_table(p)))


def scott_closure_lanes(p: Poset) -> int:
    """The Scott closure full ^ interior(full ^ b) of every mask b, one lane
    per mask in order: the interiors in reverse lane order, complemented."""
    n = p.n
    fulls = ((1 << n) - 1) * _lane_constants(1 << n, lane_width(n))[0]
    return _int(_pack(scott_interiors(p)[::-1], n)) ^ fulls


def one_step_mask(p: Poset, bits: int, sups=None) -> int:
    """Suprema of the directed subsets of the down closure of ``bits``; a
    window passes its declared chains as ``sups``, (members, supremum) pairs."""
    down = _join(p.down, bits)
    out = down
    for d, s in directed_sups(p) if sups is None else sups:
        if d & ~down == 0:
            out |= 1 << s
    return out
