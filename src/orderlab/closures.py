"""One-step closure operator and its interaction with the Scott topology.

The operator sends a set to all suprema of directed subsets of its down
closure.  On a finite universe every directed set has a greatest element,
which collapses several of the laws below to exact equalities.  These
laws exist to exercise the definitions, so one step, way-below and the
Scott topology all come from the directed-subset sweep in ``reference``
rather than from the closed forms.
"""

from __future__ import annotations

from . import reference
from .approx import _uap_mask
from .auxrel import section_above
from .bitset import ElementSet
from .errors import OrderlabError
from .poset import Poset, _check_universe, _down_mask, _up_mask
from .report import CheckReport
from .topology import Topology, closure, interior


def _scott(p: Poset) -> Topology:
    return Topology(p, reference.scott_masks(p))


def one_step(p: Poset, a: ElementSet) -> ElementSet:
    """Suprema of directed subsets of the down closure of a."""
    _check_universe(p, a)
    return ElementSet(reference.one_step_mask(p, a.bits), p.n)


def has_one_step_closure(p: Poset) -> tuple[bool, dict | None]:
    """Whether one application of the operator always lands on the closure.

    Computed two ways: against the Scott closure directly, and as
    closedness of every image.  The two readings are equivalent, so a
    disagreement is an internal error rather than a result.
    """
    sigma = _scott(p)
    via_closure = True
    via_fixed = True
    witness = None
    for bits in range(1 << p.n):
        step = reference.one_step_mask(p, bits)
        if step != closure(sigma, ElementSet(bits, p.n)).bits:
            if via_closure:
                witness = {"set": ElementSet(bits, p.n).text()}
            via_closure = False
        full = (1 << p.n) - 1
        if (full ^ step) not in sigma._mask_set:
            via_fixed = False
    if via_closure != via_fixed:
        raise OrderlabError(
            "one-step closure criteria disagree; definitions are inconsistent"
        )
    return via_closure, None if via_closure else witness


def is_meet_continuous(p: Poset) -> bool:
    """Below a directed supremum, the element is reached from below the set."""
    sigma = _scott(p)
    for mask, s in reference.directed_sups(p):
        below = _down_mask(p, mask)
        for x in range(p.n):
            if not p.up[x] >> s & 1:
                continue
            if not closure(sigma, ElementSet(below & p.down[x], p.n)).bits >> x & 1:
                return False
    return True


def check_sec5_theorems(p: Poset) -> CheckReport:
    """Laws tying the one-step operator to down closure and Scott closure."""
    sigma = _scott(p)
    wb = reference.way_below(p)
    full = (1 << p.n) - 1
    rep = CheckReport(f"poset n={p.n}", f"all {1 << p.n} subsets")

    sandwich_ok, sandwich_witness = True, None
    uap_ok, uap_witness = True, None
    fixed_ok, fixed_witness = True, None
    down_ok, down_witness = True, None
    for bits in range(1 << p.n):
        down = _down_mask(p, bits)
        step = reference.one_step_mask(p, bits)
        cl = closure(sigma, ElementSet(bits, p.n)).bits
        if not (bits & ~down == 0 and down & ~step == 0 and step & ~cl == 0):
            if sandwich_ok:
                sandwich_witness = {"set": ElementSet(bits, p.n).text()}
            sandwich_ok = False
        if step & ~_uap_mask(wb, bits):
            if uap_ok:
                uap_witness = {"set": ElementSet(bits, p.n).text()}
            uap_ok = False
        closed = (full ^ bits) in sigma._mask_set
        if (step == bits) != closed:
            if fixed_ok:
                fixed_witness = {"set": ElementSet(bits, p.n).text()}
            fixed_ok = False
        if step != down:
            if down_ok:
                down_witness = {"set": ElementSet(bits, p.n).text()}
            down_ok = False
    rep.add(
        "onestep.sandwich",
        sandwich_ok,
        sandwich_witness,
        note="discriminating: exercises the literal quantifier oracle",
    )
    rep.add(
        "onestep.below-uap-of-way-below",
        uap_ok,
        uap_witness,
        note="discriminating: exercises the literal quantifier oracle",
    )
    rep.add(
        "onestep.fixed-iff-scott-closed",
        fixed_ok,
        fixed_witness,
        note="discriminating: exercises the literal quantifier oracle",
    )
    rep.add(
        "onestep.equals-down-closure",
        down_ok,
        down_witness,
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

    sec_ok, sec_witness = True, None
    for x in range(p.n):
        lhs = interior(sigma, ElementSet(_up_mask(p, 1 << x), p.n)).bits
        rhs = section_above(wb, x).bits
        if lhs != rhs:
            sec_ok, sec_witness = False, {"element": x}
            break
    rep.add(
        "onestep.scott-interior-of-up-is-way-up",
        sec_ok,
        sec_witness,
        note="finite-trivial: both sides collapse to the principal upper set",
    )
    return rep
