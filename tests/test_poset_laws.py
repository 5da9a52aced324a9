"""The poset-level laws on lanes against the per-mask scans they replaced.

``check_sec5_theorems``, ``has_one_step_closure``, ``is_meet_continuous``,
``check_continuity_characterization`` and ``check_mu_way_below_is_scott``
decide each law over every mask, upper set or directed set on lanes of the
reference tables.  The scans below are the loops they replaced, one table
entry at a time; both must give the same whole report, or raise the same
error, on every labeled poset with n <= 5, on sampled posets up to n = 9
(above the one-byte lanes), and with one reference-table entry flipped.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from orderlab import reference
from orderlab.approx import _lap_mask, _uap_mask
from orderlab.auxrel import classify, leq_aux
from orderlab.bitset import iter_bits, mask_text
from orderlab.closures import check_sec5_theorems, has_one_step_closure, is_meet_continuous
from orderlab.errors import NotPreApproximating, OrderlabError
from orderlab.poset import _down_table, _upper_list, enumerate_posets, random_poset
from orderlab.report import CheckReport
from orderlab.topology import (
    check_continuity_characterization,
    check_mu_way_below_is_scott,
    is_continuous,
)


def _scanned_one_step_closure(p):
    inner = reference.scott_interiors(p)
    via_closure = via_fixed = True
    witness = None
    full = (1 << p.n) - 1
    for bits, step in enumerate(reference.one_step_images(p)):
        if step != full ^ inner[full ^ bits]:
            if via_closure:
                witness = {"set": mask_text(bits)}
            via_closure = False
        if inner[full ^ step] != full ^ step:
            via_fixed = False
    if via_closure != via_fixed:
        raise OrderlabError("one-step closure criteria disagree; definitions are inconsistent")
    return via_closure, None if via_closure else witness


def _scanned_meet_continuous(p):
    inner, down, full = reference.scott_interiors(p), _down_table(p), (1 << p.n) - 1
    for mask, s in reference.directed_sups(p):
        for x in iter_bits(p.down[s]):
            if inner[full ^ (down[mask] & p.down[x])] >> x & 1:
                return False
    return True


def _scanned_continuous(p):
    """Every element is the directed supremum of what is way below it."""
    for x, below in enumerate(reference.way_below(p).sec):
        members = list(iter_bits(below))
        directed = members and all(
            any(p.up[a] >> c & 1 and p.up[b] >> c & 1 for c in members)
            for a in members
            for b in members
        )
        bounds = [u for u in range(p.n) if all(p.up[a] >> u & 1 for a in members)]
        if not (directed and x in bounds and all(p.up[x] >> u & 1 for u in bounds)):
            return False
    return True


def _scanned_sec5(p):
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
    one_step_prop, osc_witness = _scanned_one_step_closure(p)
    rep.add("onestep.one-step-closure", one_step_prop, osc_witness, informational=True)
    gap = one_step_prop and not _scanned_continuous(p)
    rep.add(
        "onestep.one-step-implies-continuity",
        not gap,
        {"one-step-closure": True, "continuous": False} if gap else None,
        finding=True,
        note="finite-trivial: every finite poset is continuous",
    )
    mc = _scanned_meet_continuous(p)
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


def _scanned_continuity(p):
    wb = reference.way_below(p)
    inner = reference.scott_interiors(p)
    full = (1 << p.n) - 1
    uppers = _upper_list(p)

    def lap_matches(r):
        return all(_lap_mask(r, u) == inner[u] for u in uppers)

    def uap_matches(r):
        return all(_uap_mask(r, full ^ u) == full ^ inner[u] for u in uppers)

    s1 = is_continuous(p)
    s2 = lap_matches(wb)
    s4 = uap_matches(wb)
    candidates = [r for r in (leq_aux(p), wb) if classify(r).approximating]
    s3 = any(lap_matches(r) for r in candidates)
    s5 = any(uap_matches(r) for r in candidates)
    rep = CheckReport(f"poset n={p.n}", "all upper and lower sets")
    names = (
        "continuous",
        "way-below-lap-is-scott-interior",
        "some-approximating-lap-is-scott-interior",
        "way-below-uap-is-scott-closure",
        "some-approximating-uap-is-scott-closure",
    )
    stmts = (s1, s2, s3, s4, s5)
    for name, value in zip(names, stmts):
        rep.add(f"continuity.{name}", value, informational=True)
    rep.add(
        "continuity.agreement",
        len(set(stmts)) == 1,
        None if len(set(stmts)) == 1 else {"statements": list(stmts)},
    )
    rep.law(
        "continuity.scott-closure-criterion",
        (
            {"set": mask_text(bits), "element": next(iter_bits(diff))}
            for bits in range(1 << p.n)
            for diff in [full ^ inner[full ^ bits] ^ _uap_mask(wb, bits)]
            if diff
        ),
    )
    return rep


def _scanned_mu_way_below(p):
    rep = CheckReport(f"poset n={p.n}", "whole topology")
    wb = reference.way_below(p)
    cls = classify(wb)
    if not cls.pre_approximating:
        raise NotPreApproximating(cls.witnesses.get("pre_approximating"))
    mu = tuple(m for m in _upper_list(p) if _lap_mask(wb, m) == m)
    sigma = reference.scott_masks(p)
    rep.add(
        "chain.mu-of-way-below-equals-scott",
        mu == sigma,
        None if mu == sigma else {"mu-opens": len(mu), "scott-opens": len(sigma)},
    )
    uppers = _upper_list(p)
    rep.add(
        "chain.scott-is-all-upper-sets",
        sigma == uppers,
        None if sigma == uppers else {"scott-opens": len(sigma), "upper-sets": len(uppers)},
        note="on a finite universe every directed set attains its supremum",
    )
    return rep


PAIRS = (
    (has_one_step_closure, _scanned_one_step_closure),
    (is_meet_continuous, _scanned_meet_continuous),
    (check_sec5_theorems, _scanned_sec5),
    (check_continuity_characterization, _scanned_continuity),
    (check_mu_way_below_is_scott, _scanned_mu_way_below),
)


def _outcome(check, p):
    try:
        value = check(p)
    except OrderlabError as exc:
        return ("raised", type(exc).__name__, str(exc))
    return value.to_dict() if isinstance(value, CheckReport) else value


def _lanes_match_the_scans(p):
    """The lane outcomes, each checked equal to the scan's."""
    outcomes = []
    for lanes, scan in PAIRS:
        outcome = _outcome(lanes, p)
        assert outcome == _outcome(scan, p), (lanes.__name__, p.up)
        outcomes.append(outcome)
    return outcomes


def test_lane_laws_match_the_scans_on_every_labeled_poset_up_to_five_points():
    count = 0
    for n in range(1, 6):
        for p in enumerate_posets(n):
            _lanes_match_the_scans(p)
            count += 1
    assert count == 4473


@settings(max_examples=30, deadline=None)
@given(
    st.builds(
        random_poset,
        n=st.integers(min_value=6, max_value=9),
        p=st.sampled_from([0.1, 0.2, 0.3, 0.5]),
        seed=st.integers(min_value=0, max_value=10**6),
    )
)
def test_lane_laws_match_the_scans_on_sampled_posets(p):
    _lanes_match_the_scans(p)


def _failed(outcomes):
    """The names of what failed: each law of a report, the two properties."""
    one_step, meet, *reports = outcomes
    verdicts = [v for rep in reports if isinstance(rep, dict) for v in rep["verdicts"]]
    failed = {v["law"] for v in verdicts if not v["passed"]}
    if one_step[0] is False:
        failed.add("has_one_step_closure")
    if meet is False:
        failed.add("is_meet_continuous")
    return failed


def test_one_flipped_reference_entry_gives_the_scans_outcome(break_reference):
    """Every entry of each table, every bit, on every labeled poset with
    n <= 3; every law that reads a flipped table fails somewhere."""
    failed, laws = set(), {"has_one_step_closure", "is_meet_continuous"}
    posets = [p for n in range(1, 4) for p in enumerate_posets(n)]
    for p in posets:
        for outcome in _lanes_match_the_scans(p)[2:]:
            laws |= {v["law"] for v in outcome["verdicts"]}
    for p in posets:
        for table, entries in (("interiors", 1 << p.n), ("one-step", 1 << p.n), ("way-below", p.n)):
            for entry in range(entries):
                for x in range(p.n):
                    break_reference(table, entry, 1 << x)
                    failed |= _failed(_lanes_match_the_scans(p))
    # neither reads a flipped table: is_continuous and the Scott opens
    assert failed == laws - {"continuity.continuous", "chain.scott-is-all-upper-sets"}
