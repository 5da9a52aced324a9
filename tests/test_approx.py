"""Lower/upper approximation operators, their adjoints, and their algebra."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orderlab.approx import (
    _lap_mask,
    _uap_mask,
    check_adjunction,
    check_algebra,
    check_basic_laws,
    check_int_equivalences,
    check_partition,
    int_statements,
    lap,
    lap_upper_adjoint,
    uap,
    uap_lower_adjoint,
)
from orderlab.auxrel import (
    bottom_aux,
    classify,
    enumerate_aux,
    leq_aux,
    sample_aux,
    section_below,
    validate_aux,
)
from orderlab.bitset import ElementSet
from orderlab.errors import NotLower, NotUpper, PosetMismatch
from orderlab.poset import (
    chain,
    diamond,
    down_closure,
    enumerate_lower_sets,
    enumerate_posets,
    enumerate_upper_sets,
    random_poset,
)


def _sets(n):
    return [ElementSet(bits, n) for bits in range(1 << n)]


# -- the two operators -----------------------------------------------------------


def test_lap_keeps_points_reachable_from_inside(r1):
    assert lap(r1, ElementSet.from_indices(3, [1, 2])) == ElementSet.single(3, 2)


def test_lap_under_the_order_is_the_identity():
    for p in enumerate_posets(3):
        r = leq_aux(p)
        for a in _sets(p.n):
            assert lap(r, a) == a


def test_lap_can_be_empty_even_on_large_sets():
    d4 = diamond()
    r = bottom_aux(d4)
    assert lap(r, ElementSet.from_indices(4, [1, 2, 3])) == ElementSet.empty(4)


def test_uap_collects_points_approximated_from_below(r1):
    assert uap(r1, ElementSet.single(3, 0)) == ElementSet.from_indices(3, [0, 1])


def test_uap_under_the_order_is_down_closure():
    for p in enumerate_posets(3):
        r = leq_aux(p)
        for a in _sets(p.n):
            assert uap(r, a) == down_closure(p, a)


def test_uap_of_empty_is_empty_when_sections_are_nonempty(r1, r_bot, leq3):
    for r in (r1, r_bot, leq3):
        assert all(section_below(r, x) for x in range(3))
        assert uap(r, ElementSet.empty(3)) == ElementSet.empty(3)


def test_sandwich_everywhere():
    for p in enumerate_posets(3):
        for r in enumerate_aux(p):
            for a in _sets(p.n):
                assert lap(r, a) <= a <= uap(r, a)


def _literal_lap_uap(r, bits):
    """lap and uap as the set-builder definitions of the approx docstring."""
    p = r.poset
    a = {x for x in range(p.n) if bits >> x & 1}
    section = [{i for i in range(p.n) if r.holds(i, x)} for x in range(p.n)]
    down_a = {y for y in range(p.n) if any(p.leq(y, x) for x in a)}
    lap_a = {x for x in a if section[x] & a}
    uap_a = {x for x in range(p.n) if section[x] <= down_a}
    return sum(1 << x for x in lap_a), sum(1 << x for x in uap_a)


def _assert_operators_literal(r, masks):
    for bits in masks:
        assert (_lap_mask(r, bits), _uap_mask(r, bits)) == _literal_lap_uap(r, bits), bits


def test_operator_tables_match_the_definitions_on_every_small_relation():
    for n in range(1, 5):
        for p in enumerate_posets(n):
            for r in enumerate_aux(p):
                _assert_operators_literal(r, range(1 << n))
                assert r._lap is not None and r._uap is not None


@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_operators_match_the_definitions_on_both_sides_of_the_table_bound(n):
    for seed in range(3):
        p = random_poset(n, 0.3, 1000 * n + seed)
        r = sample_aux(p, seed=seed)
        tabled = n <= 8
        _assert_operators_literal(r, range(1 << n) if tabled else range(0, 1 << n, 7))
        assert (r._lap is not None) == tabled and (r._uap is not None) == tabled


def test_uap_ignores_everything_above_its_argument():
    for p in enumerate_posets(3):
        for r in enumerate_aux(p):
            for a in _sets(p.n):
                assert uap(r, a) == uap(r, down_closure(p, a))


# -- partition -------------------------------------------------------------------


def test_partition_fixture(r1):
    a = ElementSet.from_indices(3, [1, 2])
    assert lap(r1, a) == ElementSet.single(3, 2)
    assert uap(r1, a.complement()) == ElementSet.from_indices(3, [0, 1])
    rep = check_partition(r1, a)
    assert rep.ok
    assert rep.verdict("partition.cover").passed
    assert rep.verdict("partition.disjoint-on-upper").passed


def test_partition_on_whole_space(r1, r_bot):
    for r in (r1, r_bot):
        assert check_partition(r, ElementSet.full(3)).ok


def test_partition_under_the_order():
    d4 = diamond()
    r = leq_aux(d4)
    a = ElementSet.single(4, 3)
    assert lap(r, a) == a
    assert uap(r, a.complement()) == ElementSet.from_indices(4, [0, 1, 2])
    assert check_partition(r, a).ok


def test_partition_cover_holds_even_on_non_upper_sets():
    for p in enumerate_posets(3):
        for r in enumerate_aux(p):
            for a in _sets(p.n):
                assert check_partition(r, a).ok


# -- adjoints --------------------------------------------------------------------


def test_lower_adjoint_fixture(r1):
    assert uap_lower_adjoint(r1, ElementSet.from_indices(3, [0, 1])) == ElementSet.single(3, 0)


def test_lower_adjoint_of_empty_is_empty(r1, r_bot, leq3):
    for r in (r1, r_bot, leq3):
        assert uap_lower_adjoint(r, ElementSet.empty(3)) == ElementSet.empty(3)


def test_upper_adjoint_fixture(leq3):
    b = ElementSet.from_indices(3, [1, 2])
    assert lap_upper_adjoint(leq3, b) == b


def test_adjoints_validate_argument_shape(r1):
    with pytest.raises(NotLower):
        uap_lower_adjoint(r1, ElementSet.single(3, 2))
    with pytest.raises(NotUpper):
        lap_upper_adjoint(r1, ElementSet.single(3, 0))


def test_galois_laws_quantified_over_the_sublattices():
    for p in enumerate_posets(2):
        lowers = list(enumerate_lower_sets(p))
        uppers = list(enumerate_upper_sets(p))
        for r in enumerate_aux(p):
            for b in lowers:
                g = uap_lower_adjoint(r, b)
                for a in lowers:
                    assert (b <= uap(r, a)) == (g <= a)
            for b in uppers:
                h = lap_upper_adjoint(r, b)
                for a in uppers:
                    assert (lap(r, a) <= b) == (a <= h)


def test_closed_form_adjoints_match_the_enumerating_meet_and_join():
    # Oracle: the literal definitions, a meet over the lower sets whose uap
    # contains b and a join over the upper sets whose lap stays inside b.
    relations = 0
    for n in range(1, 5):
        for p in enumerate_posets(n):
            lowers = [l.bits for l in enumerate_lower_sets(p)]
            uppers = [u.bits for u in enumerate_upper_sets(p)]
            for r in enumerate_aux(p):
                relations += 1
                uaps = {a: uap(r, ElementSet(a, n)).bits for a in lowers}
                laps = {a: lap(r, ElementSet(a, n)).bits for a in uppers}
                for b in lowers:
                    meet = (1 << n) - 1
                    for a in lowers:
                        if b & ~uaps[a] == 0:
                            meet &= a
                    assert uap_lower_adjoint(r, ElementSet(b, n)).bits == meet
                for b in uppers:
                    join = 0
                    for a in uppers:
                        if laps[a] & ~b == 0:
                            join |= a
                    assert lap_upper_adjoint(r, ElementSet(b, n)).bits == join
    assert relations == 5560


def test_check_adjunction_passes_on_samples(r1, r_bot, leq3):
    for r in (r1, r_bot, leq3):
        rep = check_adjunction(r)
        assert rep.ok
        assert {v.law for v in rep.verdicts} == {
            "adjoint.lower-galois",
            "adjoint.upper-galois",
        }


# -- interpolation characterization ------------------------------------------------


def test_int_statements_all_false_for_r1(r1):
    flags, detail = int_statements(r1)
    assert flags == (False, False, False, False, False)
    assert detail["lap-idempotent"] == "1,2"
    a = ElementSet.from_indices(3, [1, 2])
    assert lap(r1, lap(r1, a)) == ElementSet.empty(3) != lap(r1, a)


def test_int_statements_all_true_for_the_order_and_bottom_relations(r_bot, leq3):
    for r in (leq3, r_bot):
        flags, _ = int_statements(r)
        assert flags == (True, True, True, True, True)


def test_int_equivalence_report_structure(r1):
    rep = check_int_equivalences(r1)
    assert rep.verdict("int-char.agreement").passed
    for law in (
        "int-char.interpolation",
        "int-char.lap-idempotent-on-upper",
        "int-char.lap-kernel-on-upper-lattice",
        "int-char.uap-idempotent-on-lower",
        "int-char.uap-closure-on-lower-lattice",
    ):
        assert not rep.verdict(law).passed
        assert rep.verdict(law).informational


def test_int_equivalence_agreement_over_every_small_instance():
    for p in enumerate_posets(3):
        for r in enumerate_aux(p):
            assert check_int_equivalences(r).verdict("int-char.agreement").passed


# -- algebra ------------------------------------------------------------------------


def test_monotonicity_in_the_relation(c3, r1, r_bot):
    a = ElementSet.from_indices(3, [1, 2])
    assert lap(r_bot, a) <= lap(r1, a)
    assert uap(r1, a) <= uap(r_bot, a)
    assert check_algebra(r_bot, r1).ok


def test_algebra_reduces_to_identities_on_equal_relations(r1):
    assert check_algebra(r1, r1).ok


def test_filtered_intersection_fixture(c3, r1, r_bot):
    from orderlab.auxrel import aux_intersection

    a = ElementSet.from_indices(3, [0, 1])
    meet = aux_intersection(r_bot, r1)
    assert meet.pairs() == r_bot.pairs()
    assert lap(r_bot, a) & lap(r1, a) == lap(meet, a)


def test_algebra_rejects_mixed_posets(r1):
    with pytest.raises(PosetMismatch):
        check_algebra(r1, leq_aux(diamond()))


def test_algebra_passes_over_every_pair_of_small_relations():
    p = chain(3)
    rels = list(enumerate_aux(p))
    for r1 in rels:
        for r2 in rels:
            assert check_algebra(r1, r2).ok


# -- whole-space equivalences and basic-law bundle ------------------------------------


def test_whole_space_three_way_equivalence():
    for p in enumerate_posets(3):
        for r in enumerate_aux(p):
            nonempty = all(section_below(r, x) for x in range(p.n))
            assert (uap(r, ElementSet.empty(p.n)) == ElementSet.empty(p.n)) == nonempty
            assert (lap(r, ElementSet.full(p.n)) == ElementSet.full(p.n)) == nonempty


def test_basic_laws_pass_everywhere_small():
    for p in enumerate_posets(3):
        for r in enumerate_aux(p):
            assert check_basic_laws(r).ok


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)
def test_sandwich_on_sampled_relations(n, pseed, rseed):
    p = random_poset(n, 0.4, pseed)
    r = sample_aux(p, seed=rseed)
    for bits in range(1 << p.n):
        a = ElementSet(bits, p.n)
        assert lap(r, a) <= a <= uap(r, a)
