"""Way-below, Scott opens and one step, from the directed-subset definitions.

On a finite poset every directed set contains its supremum, so way-below
is the order, the Scott opens are the upper sets and one step of the
closure operator is the down closure (Gierz et al., *Continuous Lattices
and Domains*).  The engine uses those closed forms.  This module keeps
the literal definitions, all derived from one sweep over every subset, as
the oracle for the laws that exercise the definitions and for the
differential tests of the closed forms.

Way-below and the Scott opens are built once per poset through the
per-poset memo of ``poset``, which the poset-level suites of a campaign
share.  The sweep itself keeps an ``lru_cache``: queries rebuild equal
posets, such as the same window of a symbolic family, and reuse it.  The
suites read Scott closures and one-step images off tables of every mask
(``topology._reference_interiors``, ``closures._steps``), for which
``one_step_mask`` and ``topology._closure_mask`` stay the oracles.
"""

from __future__ import annotations

from functools import lru_cache

from .auxrel import AuxRelation
from .bitset import iter_bits
from .poset import (
    Poset,
    _directed_masks,
    _down_mask,
    _down_table,
    _per_poset,
    _supremum_mask,
    _upper_masks,
)


@lru_cache(maxsize=2048)
def directed_sups(p: Poset) -> tuple[tuple[int, int], ...]:
    """Every nonempty directed mask paired with its supremum.

    Raises ``BudgetExceeded`` beyond ``MAX_DIRECTED_UNIVERSE`` elements.
    """
    sups = ((d, _supremum_mask(p, d)) for d in _directed_masks(p))
    return tuple((d, s) for d, s in sups if s is not None)


@_per_poset
def way_below(p: Poset) -> AuxRelation:
    """x way-below y: every directed set with a supremum >= y reaches x."""
    rows = [(1 << p.n) - 1] * p.n
    sups, down = directed_sups(p), _down_table(p)  # the sweep checks the budget first
    for d, s in sups:
        for y in iter_bits(p.down[s]):
            rows[y] &= down[d]
    return AuxRelation(p, rows)


@_per_poset
def scott_masks(p: Poset) -> tuple[int, ...]:
    """The upper sets that every directed set with its supremum inside meets."""
    sups = directed_sups(p)
    return tuple(
        m
        for m in _upper_masks(p.up, p.down)
        if all(d & m or not m >> s & 1 for d, s in sups)
    )


def one_step_mask(p: Poset, bits: int) -> int:
    """Suprema of the directed subsets of the down closure of ``bits``."""
    down = _down_mask(p, bits)
    out = down
    for d, s in directed_sups(p):
        if d & ~down == 0:
            out |= 1 << s
    return out
