"""Lower/upper approximation operators, their adjoints, and their algebra."""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderlab import approx, auxrel, topology
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
    AuxRelation,
    bottom_aux,
    classify,
    enumerate_aux,
    leq_aux,
    sample_aux,
    section_above,
    section_below,
    validate_aux,
)
from orderlab.bitset import ElementSet, iter_bits, mask_text
from orderlab.errors import NotLower, NotUpper, PosetMismatch
from orderlab.poset import (
    _closed,
    _join,
    chain,
    diamond,
    down_closure,
    enumerate_lower_sets,
    enumerate_posets,
    enumerate_upper_sets,
    random_poset,
)
from orderlab.report import CheckReport
from orderlab.topology import check_chain_of_containments


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


def _per_element_lap_uap(r, bits):
    """lap over the members of the set and uap over every element, one section each."""
    down_a = _join(r.poset.down, bits)
    lap_a = sum(1 << x for x in iter_bits(bits) if r.sec[x] & bits)
    uap_a = sum(1 << x for x in range(r.poset.n) if r.sec[x] & ~down_a == 0)
    return lap_a, uap_a


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=approx.TABLE_MAX_N + 1, max_value=16),
    st.sampled_from([0.1, 0.2, 0.3, 0.5]),
    st.integers(min_value=0, max_value=10**6),
    st.data(),
)
def test_the_hit_formula_above_the_table_bound_matches_the_per_element_loops(n, density, seed, data):
    r = sample_aux(random_poset(n, density, seed), seed=seed, density=density)
    for bits in data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=16)):
        assert (_lap_mask(r, bits), _uap_mask(r, bits)) == _per_element_lap_uap(r, bits), bits
    assert r._lap is r._uap is None


def test_each_relation_is_transposed_once(monkeypatch):
    transposed = []
    real = auxrel.transpose
    monkeypatch.setattr(auxrel, "transpose", lambda rows: transposed.append(rows) or real(rows))
    for n in (4, approx.TABLE_MAX_N + 2):
        r = sample_aux(chain(n), seed=n)  # pre-approximating, for the c-space laws
        classify(r)
        check_basic_laws(r, sets=[ElementSet(0b1011, n)])
        check_int_equivalences(r)
        topology.check_cspace_theorems(r)
        assert [section_above(r, x).bits for x in range(n)] == list(r.above)
        assert sum(rows is r.sec for rows in transposed) == 1


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


@pytest.mark.parametrize("checker", [check_partition, check_chain_of_containments])
def test_a_family_report_takes_each_law_from_its_first_failing_set(monkeypatch, checker):
    """A call over ``sets`` gives each law the verdict and witness of the
    first one-set report that fails it, in the order of ``sets``."""
    real_lap, real_uap = approx._lap_mask, approx._uap_mask
    for module in (approx, topology):
        # errs on a relation-dependent third of the sets, so that witnesses
        # differ between sets and orders
        monkeypatch.setattr(module, "_lap_mask", lambda r, b: real_lap(r, b) ^ ((sum(r.sec) + b) % 3 == 0))
        monkeypatch.setattr(module, "_uap_mask", lambda r, b: real_uap(r, b) ^ ((sum(r.sec) + b) % 3 == 1) << 1)
    failed = 0
    for r in _relations_up_to(3):
        if checker is check_chain_of_containments and not classify(r).approximating:
            continue
        ascending = _sets(r.poset.n)
        for family in (ascending, ascending[::-1], ascending[1::3]):
            singles = [checker(r, a) for a in family]
            rep = checker(r, sets=family)
            assert rep.to_dict() == checker(AuxRelation(r.poset, r.sec), sets=family).to_dict()
            for v in rep.verdicts:
                if v.informational:
                    continue
                first = next((w for one in singles for w in [one.verdict(v.law)] if not w.passed), None)
                assert (v.passed, v.witness) == (first is None, first and first.witness)
                failed += not v.passed
        assert checker(r).to_dict() == checker(r, sets=ascending).to_dict()
    assert failed


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


def _statements_by_pair_scan(r):
    """The five statements, with monotonicity read off every pair of upper or
    of lower sets."""
    p = r.poset
    lap_of, uap_of = approx._lap_mask, approx._uap_mask  # as monkeypatched, if they are
    uppers = [u.bits for u in enumerate_upper_sets(p)]
    lowers = [l.bits for l in enumerate_lower_sets(p)]
    s2 = all(lap_of(r, lap_of(r, u)) == lap_of(r, u) for u in uppers)
    s4 = all(uap_of(r, uap_of(r, l)) == uap_of(r, l) for l in lowers)
    s3 = (
        s2
        and all(lap_of(r, u) & ~u == 0 for u in uppers)
        and all(lap_of(r, u) & ~lap_of(r, v) == 0 for u in uppers for v in uppers if u & ~v == 0)
    )
    s5 = (
        s4
        and all(l & ~uap_of(r, l) == 0 for l in lowers)
        and all(uap_of(r, l) & ~uap_of(r, m) == 0 for l in lowers for m in lowers if l & ~m == 0)
    )
    return (classify(r).has_int, s2, s3, s4, s5)


@pytest.mark.parametrize("mutant", [None, "lap", "uap"])
def test_int_statements_on_covering_pairs_match_the_pair_scan(monkeypatch, mutant):
    """Every relation with n <= 4, under the real operators and under mutants
    that stay idempotent but are not monotone: lap sending the full set to the
    empty set, or uap sending the empty set to the full set."""
    real_lap, real_uap = approx._lap_mask, approx._uap_mask
    if mutant == "lap":
        monkeypatch.setattr(
            approx, "_lap_mask", lambda r, b: 0 if b == (1 << r.poset.n) - 1 else real_lap(r, b)
        )
    if mutant == "uap":
        monkeypatch.setattr(
            approx, "_uap_mask", lambda r, b: (1 << r.poset.n) - 1 if b == 0 else real_uap(r, b)
        )
    relations = not_monotone = 0
    for n in range(1, 5):
        for p in enumerate_posets(n):
            for r in enumerate_aux(p):
                relations += 1
                expected = _statements_by_pair_scan(r)
                assert int_statements(r)[0] == expected
                # the mutants keep idempotence and the kernel and closure
                # inclusions, so only monotonicity can part s3 from s2 or s5 from s4
                not_monotone += expected[1] != expected[2] or expected[3] != expected[4]
    assert relations == 5560
    assert (not_monotone > 0) == (mutant is not None)


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


def test_a_family_names_its_first_set_over_another_universe(r1):
    family = [ElementSet(1, 3), ElementSet(1, 4), ElementSet(1, 5)]
    for check in (check_partition, check_basic_laws, check_chain_of_containments):
        with pytest.raises(PosetMismatch, match="^set over universe 4, poset has 3$"):
            check(r1, sets=iter(family))


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


# -- memos and half scans ---------------------------------------------------------


def _relations_up_to(n):
    return [r for k in range(1, n + 1) for p in enumerate_posets(k) for r in enumerate_aux(p)]


@pytest.mark.parametrize("max_n, perturbed", [(4, False), (3, True)])
def test_basic_laws_with_the_relation_memo_match_a_fresh_relation(monkeypatch, max_n, perturbed):
    """Each report of a relation equals the report of a new copy of it, which
    has nothing memoized."""
    if perturbed:
        # Every real law holds everywhere, so all verdicts pass alike.  A lap
        # that errs on a relation-dependent third of the sets makes verdicts
        # and witnesses differ between subsets and relations, so that a
        # verdict memoized from another call would show.
        real_lap = approx._lap_mask
        monkeypatch.setattr(
            approx, "_lap_mask", lambda r, b: real_lap(r, b) ^ ((sum(r.sec) + b) % 3 == 0)
        )
    for r in _relations_up_to(max_n):
        for a in _sets(r.poset.n):
            memoized = check_basic_laws(r, sets=[a]).to_dict()
            fresh = check_basic_laws(AuxRelation(r.poset, r.sec), sets=[a])
            assert memoized == fresh.to_dict(), (r.poset.up, r.sec, a.bits)


def _scanned_basic_laws(r, relation_laws, sets=None):
    """``check_basic_laws`` as one counterexample scan over ``sets`` per law,
    followed by the given relation-level verdicts."""
    p = r.poset
    lap_of, uap_of = approx._lap_mask, approx._uap_mask  # as monkeypatched, if they are
    masks = [s.bits for s in sets] if sets is not None else range(1 << p.n)
    rep = CheckReport(f"n={p.n};rel={r.pairs()}", f"{len(masks)} subsets")
    r_leq = leq_aux(p)
    rep.law(
        "basic.sandwich",
        ({"set": mask_text(b)} for b in masks if lap_of(r, b) & ~b or b & ~uap_of(r, b)),
    )
    rep.law(
        "basic.uap-down-invariance",
        ({"set": mask_text(b)} for b in masks if uap_of(r, b) != uap_of(r, _join(p.down, b))),
    )
    rep.law(
        "basic.uap-lower",
        ({"set": mask_text(b)} for b in masks if not _closed(p.down, uap_of(r, b))),
    )
    rep.law(
        "basic.lap-preserves-upper",
        (
            {"set": mask_text(b)}
            for b in masks
            if _closed(p.up, b) and not _closed(p.up, lap_of(r, b))
        ),
    )
    rep.law(
        "basic.leq-identities",
        (
            {"set": mask_text(b), "op": "lap" if lap_of(r_leq, b) != b else "uap"}
            for b in masks
            if lap_of(r_leq, b) != b or uap_of(r_leq, b) != _join(p.down, b)
        ),
    )
    rep.law(
        "basic.membership-characterization",
        (
            {"set": mask_text(b), "element": x}
            for b in masks
            for la in [lap_of(r, b)]
            for x in range(p.n)
            if bool(la >> x & 1) != (bool(b >> x & 1) and bool(r.sec[x] & b))
        ),
    )
    rep.verdicts.extend(relation_laws)
    return rep.to_dict()


def _break_sandwich_and_lower_sets(monkeypatch):
    """Flip element 0 in lap of odd-sized sets and in uap of sets with an odd
    number of other elements: lap leaves the set, uap drops a member or stops
    being lower, on many sets of most relations."""
    real_lap, real_uap = approx._lap_mask, approx._uap_mask
    monkeypatch.setattr(approx, "_lap_mask", lambda r, b: real_lap(r, b) ^ b.bit_count() % 2)
    monkeypatch.setattr(approx, "_uap_mask", lambda r, b: real_uap(r, b) ^ (b >> 1).bit_count() % 2)


def _assert_basic_laws_match_the_scans(r, singles):
    """Whole-space, single-set and descending-with-duplicates calls agree with
    the scans; returns how many laws fail with another witness in descending
    order than in ascending order."""
    n = r.poset.n
    down_twice = [ElementSet(b, n) for b in sorted(list(range(1 << n)) * 2, reverse=True)]
    relation_laws = approx._relation_laws(AuxRelation(r.poset, r.sec))
    scanned = _scanned_basic_laws(r, relation_laws)
    assert check_basic_laws(r).to_dict() == scanned, (r.poset.up, r.sec)
    for a in singles:
        scanned = _scanned_basic_laws(r, relation_laws, [a])
        assert check_basic_laws(r, sets=[a]).to_dict() == scanned, (r.poset.up, r.sec, a.bits)
    descending = check_basic_laws(r, sets=down_twice).to_dict()
    assert descending == _scanned_basic_laws(r, relation_laws, down_twice), (r.poset.up, r.sec)
    ascending = check_basic_laws(r).to_dict()
    return sum(
        d.get("witness") != a.get("witness")
        for d, a in zip(descending["verdicts"], ascending["verdicts"])
    )


@pytest.mark.parametrize("broken", [False, True])
def test_subset_law_table_matches_the_scans_on_every_small_relation(monkeypatch, broken):
    if broken:
        _break_sandwich_and_lower_sets(monkeypatch)
    reordered = 0
    for r in _relations_up_to(4):  # fresh relations, so nothing is tabulated yet
        reordered += _assert_basic_laws_match_the_scans(r, _sets(r.poset.n))
    assert (reordered > 0) == broken


@pytest.mark.parametrize("broken", [False, True])
@pytest.mark.parametrize("n", [8, 9])
def test_subset_laws_match_the_scans_on_both_sides_of_the_table_bound(monkeypatch, broken, n):
    if broken:
        _break_sandwich_and_lower_sets(monkeypatch)
    for seed in range(2):
        p = random_poset(n, 0.3, 1000 * n + seed)
        r = sample_aux(p, seed=seed)
        singles = [ElementSet(b, n) for b in range(0, 1 << n, 37)]
        reordered = _assert_basic_laws_match_the_scans(r, singles)
        assert (reordered > 0) == broken


def test_a_single_set_query_above_the_table_bound_builds_no_table(monkeypatch):
    def no_table(p):
        raise AssertionError("built a down table")

    monkeypatch.setattr(approx, "_down_table", no_table)
    p = random_poset(approx.TABLE_MAX_N + 1, 0.3, 7)
    r = sample_aux(p, seed=7)
    assert check_basic_laws(r, sets=[ElementSet(0b101, p.n)]).ok
    assert r._lap is r._uap is None
    assert leq_aux(p)._lap is None


def _first_failing_pair(sets, op, combine):
    """The first ordered pair, in a full scan, on which op does not preserve combine."""
    for b1 in sets:
        for b2 in sets:
            if op(combine(b1, b2)) != combine(op(b1), op(b2)):
                return {"set1": mask_text(b1), "set2": mask_text(b2)}
    return None


def test_half_pair_scans_find_the_full_scans_first_witness(monkeypatch):
    # Flipping bit 0 on odd-sized sets breaks both preservation laws.
    real_lap, real_uap = approx._lap_mask, approx._uap_mask
    monkeypatch.setattr(approx, "_lap_mask", lambda r, b: real_lap(r, b) ^ b.bit_count() % 2)
    monkeypatch.setattr(approx, "_uap_mask", lambda r, b: real_uap(r, b) ^ b.bit_count() % 2)
    failing = 0
    for r in _relations_up_to(4):
        p = r.poset
        rep = check_algebra(r, leq_aux(p))
        lowers = [s.bits for s in enumerate_lower_sets(p)]
        uppers = [s.bits for s in enumerate_upper_sets(p)]
        expected = {
            "algebra.uap-preserves-lower-meets": _first_failing_pair(
                lowers, lambda b: approx._uap_mask(r, b), operator.and_
            ),
            "algebra.lap-preserves-upper-joins": _first_failing_pair(
                uppers, lambda b: approx._lap_mask(r, b), operator.or_
            ),
        }
        for law, witness in expected.items():
            verdict = rep.verdict(law)
            assert (verdict.passed, verdict.witness) == (witness is None, witness), (
                law, p.up, r.sec
            )
            failing += witness is not None
    assert failing > 0
