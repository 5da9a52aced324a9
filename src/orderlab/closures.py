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

The laws are decided on the lanes of ``approx``, one lane per mask or per
directed set; a law's witness is its lowest failing lane, the first
failing mask of an ascending scan.
"""

from __future__ import annotations

from . import reference
from .approx import (
    _DOWN,
    _TABLE,
    _UAP,
    _gather,
    _int,
    _lane_constants,
    _nonzero,
    _pack,
    _set_witness,
)
from .auxrel import classify
from .bitset import ElementSet, lane_width
from .errors import OrderlabError
from .poset import Poset, down_closure
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
    closures = reference.scott_closure_lanes(p)
    n, w = p.n, lane_width(p.n)
    steps = _int(_pack(reference.one_step_images(p), n))
    missed = steps ^ closures
    # an image is closed when its complement is its own interior
    rest = steps ^ ((1 << n) - 1) * _lane_constants(1 << n, w)[0]
    inner = _gather(rest.to_bytes(w << n, "little"), n, _TABLE, reference.scott_interiors(p))
    if (not missed) != (_int(inner) == rest):
        raise OrderlabError(
            "one-step closure criteria disagree; definitions are inconsistent"
        )
    return not missed, _set_witness(missed, range(1 << n), w)


def is_meet_continuous(p: Poset) -> bool:
    """Below a directed supremum, the element is reached from below the set.

    One lane per directed set C with supremum s, and one step per element x:
    x <= s misses the closure of down(C) & down(x) when it is in the interior
    of the complement."""
    n, w = p.n, lane_width(p.n)
    sups, inner = reference.directed_sups(p), reference.scott_interiors(p)
    directed = _pack((d for d, _ in sups), n)
    reached = _int(_gather(directed, n, _DOWN, p))
    below_sup = _int(_pack((p.down[s] for _, s in sups), n))
    ones = _lane_constants(len(sups), w)[0]
    fulls = ((1 << n) - 1) * ones
    for x in range(n):
        rest = (reached & p.down[x] * ones) ^ fulls
        inside = _int(_gather(rest.to_bytes(len(directed), "little"), n, _TABLE, inner))
        if inside & below_sup & (1 << x) * ones:
            return False
    return True


def check_sec5_theorems(p: Poset) -> CheckReport:
    """Laws tying the one-step operator to down closure and Scott closure.

    Each law over every mask is decided on one lane per mask, so its witness
    is the first failing mask."""
    closures = reference.scott_closure_lanes(p)
    wb = reference.way_below(p)
    n, w = p.n, lane_width(p.n)
    steps = _int(_pack(reference.one_step_images(p), n))
    masks = range(1 << n)
    family = _pack(masks, n)
    _, low, high = _lane_constants(1 << n, w)
    rep = CheckReport(f"poset n={n}", f"all {1 << n} subsets")
    sets, down = _int(family), _int(_gather(family, n, _DOWN, p))
    uap = _int(_gather(family, n, _UAP, wb))
    fixed, closed = _nonzero(steps ^ sets, low, high), _nonzero(closures ^ sets, low, high)
    discriminating = "discriminating: exercises the literal quantifier oracle"
    finite = "finite-trivial: every directed set on a finite universe has a greatest element"
    for law, bad, note in (
        ("onestep.sandwich", sets & ~down | down & ~steps | steps & ~closures, discriminating),
        ("onestep.below-uap-of-way-below", steps & ~uap, discriminating),
        ("onestep.fixed-iff-scott-closed", fixed ^ closed, discriminating),
        ("onestep.equals-down-closure", steps ^ down, finite),
    ):
        rep.add(law, not bad, _set_witness(bad, masks, w), note=note)

    one_step_prop, osc_witness = has_one_step_closure(p)
    rep.add("onestep.one-step-closure", one_step_prop, osc_witness, informational=True)
    gap = one_step_prop and not classify(wb).approximating
    rep.add(
        "onestep.one-step-implies-continuity",
        not gap,
        {"one-step-closure": True, "continuous": False} if gap else None,
        finding=True,
        note="finite-trivial: every finite poset is continuous",
    )
    mc = is_meet_continuous(p)
    rep.add(
        "onestep.meet-continuity-equivalence",
        mc == one_step_prop,
        None if mc == one_step_prop else {"meet-continuous": mc, "one-step": one_step_prop},
        note="finite-trivial: both properties hold on every finite universe",
    )

    inner, way_up = reference.scott_interiors(p), wb.above
    rep.law(
        "onestep.scott-interior-of-up-is-way-up",
        ({"element": x} for x in range(n) if inner[p.up[x]] != way_up[x]),
        note="finite-trivial: both sides collapse to the principal upper set",
    )
    return rep
