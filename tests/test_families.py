"""Symbolic infinite poset families and their finite-window consistency checks."""

import random
import tracemalloc

import pytest

from orderlab import reference
from orderlab.errors import (
    AxiomViolation,
    BadParameters,
    ForeignElement,
    UnknownSet,
    WindowTooLarge,
)
from orderlab.families import (
    LADDER,
    OMEGA,
    DeclaredChain,
    FamilyElement,
    OmegaFamily,
    family_membership,
    family_order,
    family_way_below,
    get_family,
    verify_window_soundness,
    window,
)
from orderlab.poset import _join, hasse, validate_poset


def fe(text):
    return FamilyElement.parse(text)


# -- elements ---------------------------------------------------------------------


def test_element_parse_and_render_round_trip():
    for text in ("a(1,2)", "a(0,0)", "b(0)", "b(17)", "top", "nat(4)", "omega"):
        assert str(fe(text)) == text


def test_element_parse_rejects_malformed_terms():
    for bad in ("c(1)", "a(1)", "a(-1,2)", "nat(2,3)", "nat()", "what", ""):
        with pytest.raises(BadParameters):
            fe(bad)


def test_element_constructor_validates():
    with pytest.raises(BadParameters):
        FamilyElement("z")
    with pytest.raises(BadParameters):
        FamilyElement("a", -1, 0)


def test_get_family():
    assert get_family("ladder") is LADDER
    assert get_family("omega") is OMEGA
    with pytest.raises(BadParameters):
        get_family("spiral")


# -- order rules ------------------------------------------------------------------


def test_ladder_order_fixtures():
    assert family_order(LADDER, fe("a(1,3)"), fe("b(2)"))
    assert not family_order(LADDER, fe("b(2)"), fe("b(1)"))
    assert family_order(LADDER, fe("b(1)"), fe("b(2)"))
    assert family_order(LADDER, fe("a(0,0)"), fe("a(0,5)"))
    assert not family_order(LADDER, fe("a(0,5)"), fe("a(0,0)"))
    assert not family_order(LADDER, fe("a(0,1)"), fe("a(1,0)"))
    assert not family_order(LADDER, fe("a(2,0)"), fe("b(1)"))
    for x in ("a(3,7)", "b(9)", "top"):
        assert family_order(LADDER, fe(x), fe("top"))
    assert not family_order(LADDER, fe("top"), fe("b(9)"))


def test_omega_order_fixtures():
    assert family_order(OMEGA, fe("nat(5)"), fe("omega"))
    assert not family_order(OMEGA, fe("omega"), fe("nat(5)"))
    assert family_order(OMEGA, fe("nat(2)"), fe("nat(7)"))
    assert not family_order(OMEGA, fe("nat(7)"), fe("nat(2)"))
    assert family_order(OMEGA, fe("omega"), fe("omega"))


def test_order_rejects_foreign_elements():
    with pytest.raises(ForeignElement):
        family_order(LADDER, fe("omega"), fe("top"))
    with pytest.raises(ForeignElement):
        family_order(OMEGA, fe("a(0,0)"), fe("omega"))


# -- distinguished sets --------------------------------------------------------------


def test_membership_fixtures():
    assert family_membership(LADDER, "Aprime", fe("b(3)"))
    assert not family_membership(LADDER, "Aprime", fe("top"))
    assert family_membership(LADDER, "scott_closure_A", fe("top"))
    assert family_membership(LADDER, "downA", fe("a(0,0)"))
    assert family_membership(LADDER, "A", fe("a(4,9)"))
    assert not family_membership(LADDER, "A", fe("b(0)"))
    assert not family_membership(LADDER, "downA", fe("b(0)"))


def test_the_closure_of_the_grid_needs_two_steps():
    """The top element is in the closure but not in the one-step image."""
    assert family_membership(LADDER, "scott_closure_A", fe("top"))
    assert not family_membership(LADDER, "Aprime", fe("top"))


def test_membership_rejects_unknown_sets_and_wrong_family():
    with pytest.raises(UnknownSet):
        family_membership(LADDER, "B", fe("top"))
    with pytest.raises(BadParameters):
        family_membership(OMEGA, "A", fe("omega"))


# -- way-below ------------------------------------------------------------------------


def test_way_below_fixtures():
    assert family_way_below(OMEGA, fe("nat(3)"), fe("omega"))
    assert not family_way_below(OMEGA, fe("omega"), fe("omega"))
    assert family_way_below(OMEGA, fe("nat(2)"), fe("nat(2)"))
    assert not family_way_below(OMEGA, fe("nat(5)"), fe("nat(3)"))


def test_way_below_is_only_answered_for_omega():
    with pytest.raises(BadParameters):
        family_way_below(LADDER, fe("a(0,0)"), fe("top"))


# -- windows ---------------------------------------------------------------------------


def test_ladder_window_composition():
    w = window(LADDER, 1, 1)
    assert [str(e) for e in w.elements] == [
        "a(0,0)",
        "a(0,1)",
        "a(1,0)",
        "a(1,1)",
        "b(0)",
        "b(1)",
        "top",
    ]
    assert w.poset.labels == tuple(str(e) for e in w.elements)


def test_smallest_ladder_window_is_a_three_chain():
    w = window(LADDER, 0, 0)
    assert [str(e) for e in w.elements] == ["a(0,0)", "b(0)", "top"]
    assert hasse(w.poset) == [(0, 1), (1, 2)]


def test_omega_window_is_a_chain():
    w = window(OMEGA, 0, 3)
    assert w.poset.n == 5
    assert hasse(w.poset) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert w.index(fe("omega")) == 4
    assert w.index(fe("nat(2)")) == 2
    with pytest.raises(ForeignElement):
        w.index(fe("nat(9)"))


def test_window_posets_pass_validation():
    for w in (window(LADDER, 2, 3), window(OMEGA, 0, 5)):
        p = w.poset
        validate_poset(
            p.n, [(i, j) for i in range(p.n) for j in range(p.n) if p.leq(i, j)]
        )


def test_window_order_matches_the_family_order():
    # the closed-form sizes and rows, square and non-square, against every pair
    for f in (LADDER, OMEGA):
        for m in range(9):
            for n in range(9):
                elements = f.window_elements(m, n)
                assert len(elements) == f.window_size(m, n)
                pointwise = tuple(
                    sum(1 << k for k, y in enumerate(elements) if family_order(f, x, y))
                    for x in elements
                )
                assert window(f, m, n).poset.up == pointwise, (f.name, m, n)


def test_window_bounds():
    with pytest.raises(BadParameters):
        window(LADDER, -1, 2)
    with pytest.raises(WindowTooLarge):
        window(LADDER, 15, 14)


def test_an_oversized_window_is_refused_before_it_is_built():
    for base in (LADDER, OMEGA):
        # fails fast, where a window built first would fill the memory

        class Unbuilt(type(base)):
            def window_elements(self, m, n):
                raise AssertionError("listed the elements of an oversized window")

            window_rows = window_elements

        with pytest.raises(WindowTooLarge):
            window(Unbuilt(), 10**6, 10**6)
    tracemalloc.start()
    try:
        for f in (LADDER, OMEGA):
            with pytest.raises(WindowTooLarge, match="exceeds the cap of 240"):
                window(f, 10**6, 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(WindowTooLarge, match=r"^window of 241 elements exceeds the cap of 240$"):
        window(OMEGA, 0, 239)
    assert window(OMEGA, 0, 238).poset.n == 240


# -- window soundness -------------------------------------------------------------------


def test_ladder_window_soundness():
    rep = verify_window_soundness(LADDER, 4, 4)
    assert rep.ok
    for law in (
        "window.order-embedding",
        "window.declared-suprema",
        "window.one-step-consistency",
        "family.top-in-scott-closure",
        "family.top-not-in-one-step",
        "family.down-closure-of-a-fixed",
        "family.column-suprema-in-one-step",
    ):
        assert rep.verdict(law).passed


def test_trivial_ladder_window_soundness():
    assert verify_window_soundness(LADDER, 0, 0).ok


@pytest.mark.parametrize("m, n", [(0, 0), (2, 3), (12, 12)])
def test_a_one_step_that_drops_the_declared_chains_fails_its_law(monkeypatch, m, n):
    """Without the chains the step of A is its down closure, A itself, which
    misses the column suprema b(j) of ``Aprime``: the law names the first."""
    real = reference.one_step_mask
    monkeypatch.setattr(reference, "one_step_mask", lambda p, bits, sups=None: real(p, bits, []))
    verdict = verify_window_soundness(LADDER, m, n).verdict("window.one-step-consistency")
    assert not verdict.passed and verdict.witness == {"element": "b(0)"}


def test_omega_window_soundness():
    rep = verify_window_soundness(OMEGA, 0, 8)
    assert rep.ok
    for law in (
        "window.order-embedding",
        "window.declared-suprema",
        "window.way-below-agreement",
        "window.omega-not-compact",
        "window.way-up-of-omega-empty",
        "window.scott-interior-of-up-omega-empty",
        "window.up-of-omega-is-singleton",
        "window.family-continuity",
    ):
        assert rep.verdict(law).passed


def _first_unsound_supremum(w):
    """The scan of every element, and of every member for each bound, in order."""
    p = w.poset
    for chain in w.family.chains(w.m, w.n):
        si = w.elements.index(chain.sup)
        for k, e in enumerate(w.elements):
            if chain.contains(e) and not p.up[k] >> si & 1:
                return {"chain": chain.name, "member": str(e)}
            if chain.is_upper_bound(e):
                if not p.up[si] >> k & 1:
                    return {"chain": chain.name, "bound": str(e)}
                for ci, c in enumerate(w.elements):
                    if chain.contains(c) and not p.up[ci] >> k & 1:
                        return {"chain": chain.name, "bound": str(e), "member": str(c)}
    return None


def test_misdeclared_suprema_fail_with_the_first_witness_of_the_element_scan():
    bounds = (
        lambda e: e.kind == "omega",
        lambda e: e.kind == "omega" or e.i >= 2,
        lambda e: e.kind == "nat" and e.i == 1,
        lambda e: True,
    )
    for sup in window(OMEGA, 0, 4).elements:
        for is_bound in bounds:

            class Misdeclared(OmegaFamily):
                def chains(self, m, n, sup=sup, is_bound=is_bound):
                    return [DeclaredChain("nat-chain", sup, lambda e: e.kind == "nat", is_bound)]

            f = Misdeclared()
            verdict = verify_window_soundness(f, 0, 4).verdict("window.declared-suprema")
            assert verdict.witness == _first_unsound_supremum(window(f, 0, 4))


def _first_misplaced_pair(w):
    """The pair scan the order-embedding law replaced, in (x, y) order."""
    for xi, x in enumerate(w.elements):
        for yi, y in enumerate(w.elements):
            if bool(w.poset.up[xi] >> yi & 1) != w.family.leq(x, y):
                return {"x": str(x), "y": str(y)}
    return None


def test_flipped_window_row_bits_fail_the_order_embedding_with_the_pair_scans_witness():
    failing = 0
    for base, m, n in ((LADDER, 1, 2), (LADDER, 2, 1), (OMEGA, 0, 4)):
        size = base.window_size(m, n)
        # one or two flipped bits in one row
        flips = [(x, 1 << y | 1 << z) for x in range(size) for y in range(size) for z in range(y, size)]
        for x, flip in flips:

            class Flipped(type(base)):
                def window_rows(self, m, n, x=x, flip=flip):
                    rows = super().window_rows(m, n)
                    rows[x] ^= flip
                    return rows

            f = Flipped()
            try:
                w = window(f, m, n)
            except AxiomViolation:
                continue  # the flip is no order; from_rows refuses it
            verdict = verify_window_soundness(f, m, n).verdict("window.order-embedding")
            assert not verdict.passed
            assert verdict.witness == _first_misplaced_pair(w) is not None
            failing += 1
    assert failing >= 20


def test_oversized_omega_window_skips_the_computed_comparison():
    rep = verify_window_soundness(OMEGA, 0, 19)
    assert rep.ok
    v = rep.verdict("window.way-below-agreement")
    assert v.passed and "skipped" in v.note


def test_equal_windows_share_one_directed_sweep():
    # Queries rebuild the same window; the sweep's cache serves the rebuilt poset.
    first, second = window(OMEGA, 3, 3).poset, window(OMEGA, 3, 3).poset
    assert first is not second and first == second
    sweep = reference.directed_sups(first)
    hits = reference.directed_sups.cache_info().hits
    assert reference.directed_sups(second) is sweep
    assert reference.directed_sups.cache_info().hits == hits + 1


def _window_one_step_oracle(w, bits):
    """Down closure in the window plus declared-supremum completions."""
    down = _join(w.poset.down, bits)
    out = down
    for chain, members in w.declared:
        if members and members & ~down == 0:
            out |= 1 << w.index(chain.sup)
    return out


def test_the_reference_one_step_with_declared_chains_matches_the_window_oracle():
    rng = random.Random(0)
    sweeps = reference.directed_sups.cache_info()
    for f in (LADDER, OMEGA):
        for m in range(4):
            for n in range(4):
                w = window(f, m, n)
                p = w.poset
                chains = [(members, w.index(c.sup)) for c, members in w.declared if members]
                if p.n <= 12:
                    masks = range(1 << p.n)
                else:
                    masks = [w.mask(lambda e: e.kind == "a"), *p.down]
                    masks += [rng.getrandbits(p.n) for _ in range(200)]
                for bits in masks:
                    step = reference.one_step_mask(p, bits, chains)
                    assert step == _window_one_step_oracle(w, bits)
    # a window's one step never reaches the directed-set sweep
    assert reference.directed_sups.cache_info()[:2] == sweeps[:2]
