"""The one-step operator: fixtures, fixpoints, and the related theorem bundle."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderlab import approx, closures, poset, reference, topology
from orderlab.bitset import ElementSet
from orderlab.closures import (
    _steps,
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
    random_poset,
)
from orderlab.topology import (
    _closure_mask,
    _interior_mask,
    _reference_interiors,
    _reference_scott,
    check_continuity_characterization,
    closure,
    scott_topology,
)


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


def test_the_directed_subset_laws_stop_before_tabulating_any_mask(monkeypatch):
    """Beyond the directed-subset budget each law, and the directed-set sweep
    itself, raises before a 2^n table is built."""
    big = from_rows(tuple(1 << i for i in range(21)))
    builds = []
    for module in (poset, reference, topology, closures, approx):
        for name in ("submask_unions", "_down_table"):
            real = getattr(module, name, None)
            if real is not None:
                monkeypatch.setattr(
                    module, name, lambda *args, _real=real: builds.append(args) or _real(*args)
                )
    for law in (
        has_one_step_closure,
        is_meet_continuous,
        check_sec5_theorems,
        check_continuity_characterization,
    ):
        with pytest.raises(BudgetExceeded):
            law(big)
    assert builds == []
    # a list of 2^21 entries alone takes 16 MiB
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            reference.directed_sups(big)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def _tables_match_the_per_mask_oracles(p):
    sigma, full = _reference_scott(p), (1 << p.n) - 1
    steps, inner = _steps(p), _reference_interiors(p)
    for b in range(1 << p.n):
        assert steps[b] == reference.one_step_mask(p, b)
        assert inner[b] == _interior_mask(sigma, b)
        assert full ^ inner[full ^ b] == _closure_mask(sigma, b)


def test_the_one_step_and_scott_closure_tables_match_the_per_mask_oracles():
    """Every labeled poset with n <= 4, then hypothesis-sampled posets with n <= 9."""
    for n in range(1, 5):
        for p in enumerate_posets(n):
            _tables_match_the_per_mask_oracles(p)

    @settings(max_examples=20, deadline=None)
    @given(
        st.builds(
            random_poset,
            n=st.integers(min_value=1, max_value=9),
            p=st.sampled_from([0.1, 0.2, 0.3, 0.5]),
            seed=st.integers(min_value=0, max_value=10**6),
        )
    )
    def sampled(p):
        _tables_match_the_per_mask_oracles(p)

    sampled()
