"""One-step closure operator and its interaction with the Scott topology.

The operator sends a set to all suprema of directed subsets of its down
closure.  On a finite universe every directed set has a greatest element,
which collapses several of the laws below to exact equalities, and makes
``one_step`` the down closure.  The laws exist to exercise the
definitions, so there one step, way-below and the Scott topology all come
from the directed-subset tables in ``reference`` rather than from the
closed forms: way-below, the Scott interior of every mask (a set is open
when it is its own interior) and the one-step image of every mask, each
built once per poset.
"""

from __future__ import annotations

from . import reference
from .approx import _uap_mask
from .bitset import ElementSet, iter_bits, mask_text
from .errors import OrderlabError
from .poset import Poset, _down_table, down_closure
from .report import CheckReport


def one_step(p: Poset, a: ElementSet) -> ElementSet:
    """Suprema of directed subsets of the down closure of a.

    On a finite poset each such subset contains its supremum, so this is the
    down closure; ``reference.one_step_mask`` keeps the definition.
    """
    return down_closure(p, a)


def has_one_step_closure(p: Poset) -> tuple[bool, dict | None]:
    """Whether one application of the operator always lands on the closure.

    Computed two ways: against the Scott closure directly, and as
    closedness of every image.  The two readings are equivalent, so a
    disagreement is an internal error rather than a result.
    """
    inner = reference.scott_interiors(p)
    via_closure = True
    via_fixed = True
    witness = None
    full = (1 << p.n) - 1
    for bits, step in enumerate(reference.one_step_images(p)):
        if step != full ^ inner[full ^ bits]:
            if via_closure:
                witness = {"set": mask_text(bits)}
            via_closure = False
        if inner[full ^ step] != full ^ step:  # the complement is not open
            via_fixed = False
    if via_closure != via_fixed:
        raise OrderlabError(
            "one-step closure criteria disagree; definitions are inconsistent"
        )
    return via_closure, None if via_closure else witness


def is_meet_continuous(p: Poset) -> bool:
    """Below a directed supremum, the element is reached from below the set."""
    inner = reference.scott_interiors(p)
    down = _down_table(p)
    full = (1 << p.n) - 1
    for mask, s in reference.directed_sups(p):
        for x in iter_bits(p.down[s]):
            # x misses the closure of C when it is in the interior of full ^ C
            if inner[full ^ (down[mask] & p.down[x])] >> x & 1:
                return False
    return True


def check_sec5_theorems(p: Poset) -> CheckReport:
    """Laws tying the one-step operator to down closure and Scott closure."""
    inner = reference.scott_interiors(p)
    wb = reference.way_below(p)
    down = _down_table(p)
    full = (1 << p.n) - 1
    rep = CheckReport(f"poset n={p.n}", f"all {1 << p.n} subsets")
    steps = reference.one_step_images(p)

    def failing(bad):
        return ({"set": mask_text(b)} for b, step in enumerate(steps) if bad(b, step))

    def unsandwiched(b, step):
        return b & ~down[b] or down[b] & ~step or step & ~(full ^ inner[full ^ b])

    discriminating = "discriminating: exercises the literal quantifier oracle"
    rep.law("onestep.sandwich", failing(unsandwiched), note=discriminating)
    rep.law(
        "onestep.below-uap-of-way-below",
        failing(lambda b, step: step & ~_uap_mask(wb, b)),
        note=discriminating,
    )
    rep.law(
        "onestep.fixed-iff-scott-closed",
        failing(lambda b, step: (step == b) != (inner[full ^ b] == full ^ b)),
        note=discriminating,
    )
    rep.law(
        "onestep.equals-down-closure",
        failing(lambda b, step: step != down[b]),
        note="finite-trivial: every directed set on a finite universe has a greatest element",
    )

    one_step_prop, osc_witness = has_one_step_closure(p)
    rep.add("onestep.one-step-closure", one_step_prop, osc_witness, informational=True)
    mc = is_meet_continuous(p)
    rep.add(
        "onestep.meet-continuity-equivalence",
        mc == one_step_prop,
        None if mc == one_step_prop else {"meet-continuous": mc, "one-step": one_step_prop},
        note="finite-trivial: both properties hold on every finite universe",
    )

    way_up = wb.above
    rep.law(
        "onestep.scott-interior-of-up-is-way-up",
        ({"element": x} for x in range(p.n) if inner[p.up[x]] != way_up[x]),
        note="finite-trivial: both sides collapse to the principal upper set",
    )
    return rep
