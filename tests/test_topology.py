"""Induced and Scott topologies, interior/closure, specialization, c-spaces."""

import pytest

from orderlab import topology
from orderlab.auxrel import (
    classify,
    enumerate_aux,
    leq_aux,
    validate_aux,
    way_below,
)
from orderlab.bitset import ElementSet
from orderlab.errors import BadParameters, BudgetExceeded, NotApproximating, NotPreApproximating
from orderlab.poset import (
    antichain,
    chain,
    diamond,
    enumerate_posets,
    enumerate_upper_sets,
    validate_poset,
)
from orderlab.topology import (
    Topology,
    check_chain_of_containments,
    check_continuity_characterization,
    check_cspace_theorems,
    check_mu_inaccessibility,
    check_mu_laws,
    check_mu_way_below_is_scott,
    check_topology_invariants,
    closure,
    interior,
    is_c_space,
    is_continuous,
    is_scott_open,
    mu_topology,
    opens_completely_distributive,
    scott_topology,
    specialization_order,
)


@pytest.fixture
def v_relation():
    """A relation whose section at a minimal element is empty, hence not directed."""
    p = validate_poset(3, [(0, 2), (1, 2)], "covers")
    return validate_aux(p, [(0, 2), (1, 2)])


# -- induced topology -------------------------------------------------------------


def test_induced_topology_of_r1_is_indiscrete(r1):
    assert mu_topology(r1).masks == (0, 0b111)


def test_induced_topology_of_bottom_relation_is_indiscrete(r_bot):
    assert mu_topology(r_bot).masks == (0, 0b111)


def test_induced_topology_of_way_below_is_all_upper_sets():
    for p in enumerate_posets(3):
        t = mu_topology(way_below(p))
        assert t.masks == tuple(s.bits for s in enumerate_upper_sets(p))


def test_induced_topology_requires_directed_sections(v_relation):
    assert not classify(v_relation).pre_approximating
    with pytest.raises(NotPreApproximating):
        mu_topology(v_relation)


def test_induced_topology_satisfies_topology_laws():
    for p in enumerate_posets(3):
        for r in enumerate_aux(p):
            if classify(r).pre_approximating:
                assert check_topology_invariants(mu_topology(r)).ok


# -- Scott topology -----------------------------------------------------------------


def test_scott_topology_of_three_chain_has_four_opens(c3):
    assert len(scott_topology(c3).masks) == 4


def test_is_scott_open_fixtures(d4):
    assert is_scott_open(d4, ElementSet.from_indices(4, [1, 3]))
    assert not is_scott_open(d4, ElementSet.single(4, 1))


def test_scott_opens_are_exactly_the_upper_sets_on_finite_universes():
    for p in enumerate_posets(3):
        expected = tuple(s.bits for s in enumerate_upper_sets(p))
        assert scott_topology(p).masks == expected


def test_topology_membership_and_equality(c3):
    t = scott_topology(c3)
    assert t.is_open(ElementSet.from_indices(3, [1, 2]))
    assert not t.is_open(ElementSet.single(3, 0))
    assert t == scott_topology(c3)
    assert hash(t) == hash(scott_topology(c3))


# -- interior and closure --------------------------------------------------------------


def test_interior_closure_fixtures(c3):
    sigma = scott_topology(c3)
    a = ElementSet.single(3, 1)
    assert interior(sigma, a) == ElementSet.empty(3)
    assert closure(sigma, a) == ElementSet.from_indices(3, [0, 1])


def test_interior_closure_of_empty_set(c3, r1):
    for t in (scott_topology(c3), mu_topology(r1)):
        assert interior(t, ElementSet.empty(3)) == ElementSet.empty(3)
        assert closure(t, ElementSet.empty(3)) == ElementSet.empty(3)


def test_interior_closure_under_indiscrete_opens(r1):
    t = mu_topology(r1)
    a = ElementSet.from_indices(3, [1, 2])
    assert interior(t, a) == ElementSet.empty(3)
    assert closure(t, a) == ElementSet.full(3)


def test_interior_closure_operator_laws():
    for p in enumerate_posets(3):
        t = scott_topology(p)
        full = ElementSet.full(p.n)
        for bits in range(1 << p.n):
            a = ElementSet(bits, p.n)
            ia, ca = interior(t, a), closure(t, a)
            assert interior(t, ia) == ia
            assert closure(t, ca) == ca
            assert full - ca == interior(t, full - a)
            for bits_b in range(1 << p.n):
                b = ElementSet(bits_b, p.n)
                assert interior(t, a & b) == ia & interior(t, b)


# -- specialization order ----------------------------------------------------------------


def test_scott_specialization_recovers_the_order(c3):
    so = specialization_order(scott_topology(c3))
    assert so.rows == c3.up
    assert so.is_t0


def test_indiscrete_specialization_is_total_and_not_t0(r1):
    so = specialization_order(mu_topology(r1))
    assert so.rows == (0b111, 0b111, 0b111)
    assert not so.is_t0


def test_order_relation_topology_specializes_to_the_underlying_order():
    for p in enumerate_posets(3):
        so = specialization_order(mu_topology(leq_aux(p)))
        assert so.rows == p.up
        assert so.is_t0


# -- c-spaces -----------------------------------------------------------------------------


def test_scott_topologies_are_c_spaces():
    for p in enumerate_posets(3):
        ok, witness = is_c_space(scott_topology(p))
        assert ok and witness is None


def test_indiscrete_bottom_topology_is_a_c_space_in_both_modes(r_bot):
    t = mu_topology(r_bot)
    assert is_c_space(t, "specialization") == (True, None)
    assert is_c_space(t, "underlying") == (True, None)


def test_c_space_witness_in_underlying_mode():
    t = Topology(antichain(2), [0b00, 0b11])
    ok, witness = is_c_space(t, "underlying")
    assert not ok
    assert witness == {"element": 0, "open": 3, "mode": "underlying"}
    assert is_c_space(t, "specialization") == (True, None)


def test_c_space_rejects_unknown_mode(c3):
    with pytest.raises(BadParameters):
        is_c_space(scott_topology(c3), "sideways")


# -- complete distributivity ------------------------------------------------------------


def test_open_lattices_are_completely_distributive(c3, a2, r1):
    assert opens_completely_distributive(mu_topology(r1))
    assert opens_completely_distributive(scott_topology(c3))
    assert opens_completely_distributive(scott_topology(a2))


@pytest.mark.parametrize(
    "t",
    [Topology(antichain(2), [0, 1, 2]), Topology(antichain(3), [0b011, 0b110, 0b111])],
    ids=["no-union", "no-intersection"],
)
def test_opens_not_closed_under_union_or_intersection_are_not_distributive(t):
    assert not opens_completely_distributive(t)


def test_complete_distributivity_guard():
    with pytest.raises(BudgetExceeded):
        opens_completely_distributive(scott_topology(antichain(8)))


# -- containment chain --------------------------------------------------------------------


def test_chain_fixture_under_the_order():
    rep = check_chain_of_containments(leq_aux(diamond()), ElementSet.single(4, 1))
    assert rep.ok
    assert rep.verdict("chain.values").witness == {
        "scott-interior": "",
        "mu-interior": "",
        "lap": "1",
        "set": "1",
        "uap": "0,1",
        "mu-closure": "0,1",
        "scott-closure": "0,1",
    }


def test_chain_fixture_under_way_below(c3):
    rep = check_chain_of_containments(way_below(c3), ElementSet.single(3, 2))
    assert rep.ok
    assert rep.verdict("chain.values").witness == {
        "scott-interior": "2",
        "mu-interior": "2",
        "lap": "2",
        "set": "2",
        "uap": "0,1,2",
        "mu-closure": "0,1,2",
        "scott-closure": "0,1,2",
    }


def test_chain_on_the_whole_space_collapses(leq3):
    rep = check_chain_of_containments(leq3, ElementSet.full(3))
    full = ElementSet.full(3).text()
    assert rep.ok
    assert all(v == full for v in rep.verdict("chain.values").witness.values())


def test_chain_requires_an_approximating_relation(r1, v_relation):
    with pytest.raises(NotApproximating):
        check_chain_of_containments(r1, ElementSet.single(3, 1))
    with pytest.raises(NotPreApproximating):
        check_chain_of_containments(v_relation, ElementSet.empty(3))


def test_chain_holds_for_every_approximating_relation_small():
    for p in enumerate_posets(3):
        for r in enumerate_aux(p):
            if not classify(r).approximating:
                continue
            for bits in range(1 << p.n):
                assert check_chain_of_containments(r, ElementSet(bits, p.n)).ok


def test_way_below_topology_agrees_with_scott_everywhere_small():
    for p in enumerate_posets(3):
        rep = check_mu_way_below_is_scott(p)
        assert rep.ok
        assert rep.verdict("chain.mu-of-way-below-equals-scott").passed
        assert rep.verdict("chain.scott-is-all-upper-sets").passed


# -- continuity characterization -------------------------------------------------------------


def test_five_statements_hold_on_every_small_poset():
    for p in enumerate_posets(3):
        assert is_continuous(p)
        rep = check_continuity_characterization(p)
        assert rep.ok
        for law in (
            "continuity.continuous",
            "continuity.way-below-lap-is-scott-interior",
            "continuity.some-approximating-lap-is-scott-interior",
            "continuity.way-below-uap-is-scott-closure",
            "continuity.some-approximating-uap-is-scott-closure",
        ):
            assert rep.verdict(law).passed
        assert rep.verdict("continuity.agreement").passed
        assert rep.verdict("continuity.scott-closure-criterion").passed


def test_optional_relation_instance_is_reported_without_affecting_agreement(c3, r1):
    rep = check_continuity_characterization(c3, r_opt=r1)
    assert rep.ok
    inst = rep.verdict("continuity.instance-check")
    assert inst.informational
    assert not inst.passed


def test_characterization_on_singleton():
    p = chain(1)
    rep = check_continuity_characterization(p)
    assert rep.ok


# -- c-space theorem bundle --------------------------------------------------------------------


def test_cspace_bundle_raises_findings_for_the_bottom_relation(r_bot):
    rep = check_cspace_theorems(r_bot)
    assert rep.ok
    assert rep.verdict("cspace.int-implies-cspace").passed
    assert rep.verdict("cspace.sections-form-base").passed
    assert rep.verdict("cspace.classical-scott").passed
    findings = {v.law for v in rep.findings}
    assert findings == {"cspace.converse-approximating", "cspace.cdl-vs-approximating"}
    witness = rep.verdict("cspace.converse-approximating").witness
    assert witness["approximating"] is False
    assert witness["c-space-specialization"] is True
    assert witness["c-space-underlying"] is True


def test_cspace_bundle_clean_under_the_order():
    rep = check_cspace_theorems(leq_aux(diamond()))
    assert rep.ok and not rep.findings


def test_cspace_bundle_clean_under_way_below():
    for p in enumerate_posets(3):
        rep = check_cspace_theorems(way_below(p))
        assert rep.ok and not rep.findings


def test_cspace_bundle_requires_directed_sections(v_relation):
    with pytest.raises(NotPreApproximating):
        check_cspace_theorems(v_relation)


# -- inaccessibility and the bundled laws ---------------------------------------------------------


def test_inaccessibility_fixtures(r1, r_bot):
    rep = check_mu_inaccessibility(r1)
    assert rep.ok
    rep = check_mu_inaccessibility(leq_aux(diamond()))
    assert rep.ok
    assert rep.verdict("mu.inaccessible-implies-open").note == ""
    rep = check_mu_inaccessibility(r_bot)
    assert rep.ok
    assert "vacuous" in rep.verdict("mu.inaccessible-implies-open").note


def test_bundled_laws_build_the_induced_topology_once(monkeypatch):
    built = []
    monkeypatch.setattr(topology, "mu_topology", lambda r: built.append(r) or mu_topology(r))
    rep = check_mu_laws(leq_aux(diamond()))
    assert rep.ok and rep.verdict("mu.inaccessible-implies-open") is not None
    assert len(built) == 1


def test_bundled_laws_for_approximating_relations():
    for p in enumerate_posets(3):
        for r in enumerate_aux(p):
            cls = classify(r)
            if not cls.pre_approximating:
                continue
            rep = check_mu_laws(r)
            assert rep.ok
            finer = rep.verdict("mu.finer-than-scott")
            spec = rep.verdict("mu.specialization-recovers-order")
            if cls.approximating:
                assert finer.note == "" and spec.note == ""
            else:
                assert "vacuous" in finer.note and "vacuous" in spec.note
