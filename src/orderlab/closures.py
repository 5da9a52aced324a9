"""One-step closure operator and its interaction with the Scott topology.

The operator sends a set to all suprema of directed subsets of its down
closure.  On a finite universe every directed set has a greatest element,
which collapses several of the laws below to exact equalities, and makes
``one_step`` the down closure.  The laws exist to exercise the
definitions, so there one step, way-below and the Scott topology all come
from the directed-subset sweep in ``reference`` rather than from the
closed forms.  Each is built once per poset: the one-step image of every
subset here, the Scott topology in ``topology``, way-below in
``reference``, all through the per-poset memo of ``poset``.
"""

from __future__ import annotations

from . import reference
from .approx import _uap_mask
from .auxrel import _above_mask
from .bitset import ElementSet, mask_text
from .errors import OrderlabError
from .poset import Poset, _down_mask, _per_poset, down_closure
from .report import CheckReport
from .topology import _closure_mask, _interior_mask, _reference_scott


@_per_poset
def _steps(p: Poset) -> tuple[int, ...]:
    """The one-step image of every mask of p, indexed by mask."""
    return tuple(reference.one_step_mask(p, bits) for bits in range(1 << p.n))


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
    sigma = _reference_scott(p)
    via_closure = True
    via_fixed = True
    witness = None
    full = (1 << p.n) - 1
    for bits, step in enumerate(_steps(p)):
        if step != _closure_mask(sigma, bits):
            if via_closure:
                witness = {"set": mask_text(bits)}
            via_closure = False
        if (full ^ step) not in sigma._mask_set:
            via_fixed = False
    if via_closure != via_fixed:
        raise OrderlabError(
            "one-step closure criteria disagree; definitions are inconsistent"
        )
    return via_closure, None if via_closure else witness


def is_meet_continuous(p: Poset) -> bool:
    """Below a directed supremum, the element is reached from below the set."""
    sigma = _reference_scott(p)
    for mask, s in reference.directed_sups(p):
        below = _down_mask(p, mask)
        for x in range(p.n):
            if not p.up[x] >> s & 1:
                continue
            if not _closure_mask(sigma, below & p.down[x]) >> x & 1:
                return False
    return True


def check_sec5_theorems(p: Poset) -> CheckReport:
    """Laws tying the one-step operator to down closure and Scott closure."""
    sigma = _reference_scott(p)
    wb = reference.way_below(p)
    full = (1 << p.n) - 1
    rep = CheckReport(f"poset n={p.n}", f"all {1 << p.n} subsets")
    steps = _steps(p)

    def failing(bad):
        return ({"set": mask_text(b)} for b, step in enumerate(steps) if bad(b, step))

    def unsandwiched(b, step):
        down = _down_mask(p, b)
        return b & ~down or down & ~step or step & ~_closure_mask(sigma, b)

    discriminating = "discriminating: exercises the literal quantifier oracle"
    rep.law("onestep.sandwich", failing(unsandwiched), note=discriminating)
    rep.law(
        "onestep.below-uap-of-way-below",
        failing(lambda b, step: step & ~_uap_mask(wb, b)),
        note=discriminating,
    )
    rep.law(
        "onestep.fixed-iff-scott-closed",
        failing(lambda b, step: (step == b) != ((full ^ b) in sigma._mask_set)),
        note=discriminating,
    )
    rep.law(
        "onestep.equals-down-closure",
        failing(lambda b, step: step != _down_mask(p, b)),
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

    rep.law(
        "onestep.scott-interior-of-up-is-way-up",
        (
            {"element": x}
            for x in range(p.n)
            if _interior_mask(sigma, p.up[x]) != _above_mask(wb, x)
        ),
        note="finite-trivial: both sides collapse to the principal upper set",
    )
    return rep
