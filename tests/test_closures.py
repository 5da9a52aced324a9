"""The one-step operator: fixtures, fixpoints, and the related theorem bundle."""

import pytest

from orderlab.bitset import ElementSet
from orderlab.closures import (
    check_sec5_theorems,
    has_one_step_closure,
    is_meet_continuous,
    one_step,
)
from orderlab.errors import BudgetExceeded
from orderlab.poset import (
    antichain,
    chain,
    diamond,
    down_closure,
    enumerate_posets,
    from_rows,
)
from orderlab.topology import closure, scott_topology


def test_one_step_fixtures(c3, d4):
    assert one_step(d4, ElementSet.from_indices(4, [1, 2])) == ElementSet.from_indices(4, [0, 1, 2])
    assert one_step(c3, ElementSet.empty(3)) == ElementSet.empty(3)
    assert one_step(c3, ElementSet.single(3, 2)) == ElementSet.full(3)


def test_one_step_on_a_non_closed_set(c3):
    a = ElementSet.single(3, 1)
    step = one_step(c3, a)
    assert step == ElementSet.from_indices(3, [0, 1])
    assert step == closure(scott_topology(c3), a)
    assert step != a


def test_one_step_equals_down_closure_and_scott_closure_small():
    for p in enumerate_posets(3):
        sigma = scott_topology(p)
        for bits in range(1 << p.n):
            a = ElementSet(bits, p.n)
            step = one_step(p, a)
            assert step == down_closure(p, a)
            assert step == closure(sigma, a)


def test_every_small_poset_has_one_step_closure():
    for p in enumerate_posets(3):
        ok, witness = has_one_step_closure(p)
        assert ok and witness is None


def test_one_step_closure_on_singleton_and_diamond(d4):
    assert has_one_step_closure(from_rows((1,))) == (True, None)
    assert has_one_step_closure(d4) == (True, None)


def test_meet_continuity_fixtures(c3):
    assert is_meet_continuous(c3)
    assert is_meet_continuous(antichain(3))
    for p in enumerate_posets(3):
        assert is_meet_continuous(p)


def test_meet_continuity_holds_on_every_poset_up_to_four_points():
    for n in range(1, 5):
        for p in enumerate_posets(n):
            assert is_meet_continuous(p)
            verdict = check_sec5_theorems(p).verdict("onestep.meet-continuity-equivalence")
            assert verdict.passed, p.up


def test_theorem_bundle_on_diamond(d4):
    rep = check_sec5_theorems(d4)
    assert rep.ok
    for law in (
        "onestep.sandwich",
        "onestep.below-uap-of-way-below",
        "onestep.fixed-iff-scott-closed",
        "onestep.equals-down-closure",
        "onestep.meet-continuity-equivalence",
        "onestep.scott-interior-of-up-is-way-up",
    ):
        assert rep.verdict(law).passed
    assert rep.verdict("onestep.one-step-closure").informational


def test_theorem_bundle_labels_claim_strength(d4):
    rep = check_sec5_theorems(d4)
    assert rep.verdict("onestep.sandwich").note.startswith("discriminating")
    assert rep.verdict("onestep.equals-down-closure").note.startswith("finite-trivial")
    assert rep.verdict("onestep.scott-interior-of-up-is-way-up").note.startswith(
        "finite-trivial"
    )


def test_theorem_bundle_everywhere_small():
    for p in enumerate_posets(3):
        assert check_sec5_theorems(p).ok


def test_directed_enumeration_budget_guard():
    big = from_rows(tuple(1 << i for i in range(21)))
    assert one_step(big, ElementSet.from_indices(21, [3, 20])) == ElementSet.from_indices(21, [3, 20])
    assert one_step(chain(21), ElementSet.single(21, 5)) == ElementSet.from_indices(21, range(6))
    with pytest.raises(BudgetExceeded):
        has_one_step_closure(big)
