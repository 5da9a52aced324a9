"""Lower/upper approximation operators, their adjoints, and their algebra."""

import operator
import random
from collections import Counter
from functools import partial, reduce

import pytest
from hypothesis import example, given, settings
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
from orderlab.bitset import ElementSet, iter_bits, lane_width, mask_text, unpack
from orderlab.errors import NotLower, NotUpper, PosetMismatch
from orderlab.poset import (
    Poset,
    _closed,
    _directed,
    _join,
    chain,
    diamond,
    down_closure,
    enumerate_lower_sets,
    enumerate_posets,
    enumerate_upper_sets,
    from_rows,
    random_poset,
)
from orderlab.report import CheckReport
from orderlab.topology import check_chain_of_containments, check_mu_laws


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


def _assert_no_table_per_mask(r):
    """Above the table bound a relation memoizes no 2^n table, only the
    ceil(n/8) byte slices of its hit tables, of at most 256 entries each."""
    n = r.poset.n
    assert r._lap is r._uap is None
    assert len(r._hit.slices) == -(-n // 8)
    assert all(len(entries) <= 256 for entries in r._hit.slices)


@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_operators_match_the_definitions_on_both_sides_of_the_table_bound(n):
    for seed in range(3):
        p = random_poset(n, 0.3, 1000 * n + seed)
        r = sample_aux(p, seed=seed)
        tabled = n <= 8
        _assert_operators_literal(r, range(1 << n) if tabled else range(0, 1 << n, 7))
        if tabled:
            assert r._lap is not None and r._uap is not None
        else:
            _assert_no_table_per_mask(r)


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
    _assert_no_table_per_mask(r)


def _hit_formula_lap_uap(r, bits):
    """lap and uap by the hit formula, one bit walk per union."""
    full = (1 << r.poset.n) - 1
    hit = partial(_join, r.above)
    return bits & hit(bits), full & ~hit(full & ~_join(r.poset.down, bits))


@settings(max_examples=12, deadline=None)
@given(
    st.integers(min_value=9, max_value=12),
    st.sampled_from([0.1, 0.3, 0.5]),
    st.integers(min_value=0, max_value=10**6),
)
def test_the_byte_sliced_operators_match_the_hit_formula_on_every_mask(n, density, seed):
    r = sample_aux(random_poset(n, density, seed), seed=seed, density=density)
    for bits in range(1 << n):
        assert (_lap_mask(r, bits), _uap_mask(r, bits)) == _hit_formula_lap_uap(r, bits), bits


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(st.sampled_from([8, 9, 16, 17, 24]), st.integers(min_value=1, max_value=24)),
    st.sampled_from([0.1, 0.3, 0.5]),
    st.integers(min_value=0, max_value=10**6),
    st.data(),
)
def test_each_union_gather_matches_the_per_mask_oracle_lane_by_lane(n, density, seed, data):
    """Single queries and the gathers of the union operators on sampled
    families, at every lane width (1, 2 and 4 bytes) and on both sides of
    n = 16/17, against bit walks one mask at a time."""
    p = random_poset(n, density, seed)
    r = sample_aux(p, seed=seed, density=density)
    full = (1 << n) - 1
    masks = data.draw(st.lists(st.integers(0, full), min_size=1, max_size=40))
    oracles = {
        "lap": (approx._LAP, r, lambda b: _hit_formula_lap_uap(r, b)[0]),
        "uap": (approx._UAP, r, lambda b: _hit_formula_lap_uap(r, b)[1]),
        "down": (approx._DOWN, p, partial(_join, p.down)),
        "sections' join": (approx._SEC_JOIN, r, partial(_join, r.sec)),
        "complement": (approx._COMPLEMENT, p, full.__xor__),
    }
    family = approx._pack(masks, n)
    for name, (op, arg, oracle) in oracles.items():
        lanes = approx._gather(family, n, op, arg)
        assert list(unpack(lanes, lane_width(n))) == [oracle(b) for b in masks], (name, masks)
    for bits in masks:
        assert (_lap_mask(r, bits), _uap_mask(r, bits)) == _hit_formula_lap_uap(r, bits), bits


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([1, 3, 5, 8, 9, 12]),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=10**6),
    st.booleans(),
)
def test_below_is_the_or_of_the_values_whose_key_lies_inside_each_query(n, count, seed, points):
    """``_below`` on one relation's lanes (through a zeta or unions table up
    to the table bound) and on a batch's shared lanes, against a scan of the
    (key, value) pairs of each relation; the default keys are the points."""
    rng = random.Random(seed)
    p = random_poset(n, 0.3, seed)
    rels = [sample_aux(p, seed=seed + k) for k in range(count)]
    if n > approx.TABLE_MAX_N:
        rels = rels[:1]
    lanes = approx._Single(rels[0]) if len(rels) == 1 else approx._batch_operators(p, rels)
    full = (1 << n) - 1
    sampled = lambda count: [[rng.randrange(full + 1) for _ in rels] for _ in range(count)]
    keys = [[1 << i] * len(rels) for i in range(n)] if points else sampled(1 + rng.randrange(6))
    rows, queries = sampled(len(keys)), sampled(5)  # at lanes (i, k) and (q, k)
    pack = lambda table: approx._pack([v for row in table for v in row], n)
    got = unpack(approx._below(lanes, None if points else pack(keys), pack(rows), pack(queries)),
                 lane_width(n))
    want = [
        reduce(operator.or_, (row[k] for key, row in zip(keys, rows) if key[k] & ~q[k] == 0), 0)
        for q in queries
        for k in range(len(rels))
    ]
    assert list(got) == want


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
def test_a_family_report_takes_each_law_from_its_first_failing_set(break_operators, checker):
    """A call over ``sets`` gives each law the verdict and witness of the
    first one-set report that fails it, in the order of ``sets``."""
    # errs on a relation-dependent third of the sets, so that witnesses
    # differ between sets and orders
    break_operators(
        lap=lambda r, b, v: v ^ ((sum(r.sec) + b) % 3 == 0),
        uap=lambda r, b, v: v ^ ((sum(r.sec) + b) % 3 == 1) << 1,
    )
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
def test_int_statements_on_covering_pairs_match_the_pair_scan(break_operators, mutant):
    """Every relation with n <= 4, under the real operators and under mutants
    that stay idempotent but are not monotone: lap sending the full set to the
    empty set, or uap sending the empty set to the full set."""
    if mutant == "lap":
        break_operators(lap=lambda r, b, v: 0 if b == (1 << r.poset.n) - 1 else v)
    if mutant == "uap":
        break_operators(uap=lambda r, b, v: (1 << r.poset.n) - 1 if b == 0 else v)
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
def test_basic_laws_with_the_relation_memo_match_a_fresh_relation(break_operators, max_n, perturbed):
    """Each report of a relation equals the report of a new copy of it, which
    has nothing memoized."""
    if perturbed:
        # Every real law holds everywhere, so all verdicts pass alike.  A lap
        # that errs on a relation-dependent third of the sets makes verdicts
        # and witnesses differ between subsets and relations, so that a
        # verdict memoized from another call would show.
        break_operators(lap=lambda r, b, v: v ^ ((sum(r.sec) + b) % 3 == 0))
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


def _break_sandwich_and_lower_sets(break_operators):
    """Flip element 0 in lap of odd-sized sets and in uap of sets with an odd
    number of other elements: lap leaves the set, uap drops a member or stops
    being lower, on many sets of most relations."""
    break_operators(
        lap=lambda r, b, v: v ^ b.bit_count() % 2,
        uap=lambda r, b, v: v ^ (b >> 1).bit_count() % 2,
    )


def _assert_basic_laws_match_the_scans(r, singles):
    """Whole-space, single-set and descending-with-duplicates calls agree with
    the scans; returns how many laws fail with another witness in descending
    order than in ascending order."""
    n = r.poset.n
    down_twice = [ElementSet(b, n) for b in sorted(list(range(1 << n)) * 2, reverse=True)]
    relation_laws = _scanned_relation_laws(r)
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
def test_subset_law_table_matches_the_scans_on_every_small_relation(break_operators, broken):
    if broken:
        _break_sandwich_and_lower_sets(break_operators)
    reordered = 0
    for r in _relations_up_to(4):  # fresh relations, so nothing is tabulated yet
        reordered += _assert_basic_laws_match_the_scans(r, _sets(r.poset.n))
    assert (reordered > 0) == broken


@pytest.mark.parametrize("broken", [False, True])
@pytest.mark.parametrize("n", [8, 9])
def test_subset_laws_match_the_scans_on_both_sides_of_the_table_bound(break_operators, broken, n):
    if broken:
        _break_sandwich_and_lower_sets(break_operators)
    for seed in range(2):
        p = random_poset(n, 0.3, 1000 * n + seed)
        r = sample_aux(p, seed=seed)
        singles = [ElementSet(b, n) for b in range(0, 1 << n, 37)]
        reordered = _assert_basic_laws_match_the_scans(r, singles)
        assert (reordered > 0) == broken


def test_a_single_set_query_above_the_table_bound_builds_no_table(monkeypatch):
    """No table with an entry per mask: only byte slices, ceil(n/8) tables of
    at most 256 entries for each union."""
    built = []

    def sliced(rows):
        built.append(real(rows))
        return built[-1]

    real = approx.ByteUnions
    monkeypatch.setattr(approx, "ByteUnions", sliced)
    p = random_poset(approx.TABLE_MAX_N + 1, 0.3, 7)
    r = sample_aux(p, seed=7)
    assert check_basic_laws(r, sets=[ElementSet(0b101, p.n)]).ok
    _assert_no_table_per_mask(r)
    assert leq_aux(p)._lap is None
    assert built and all(len(t.slices) == 2 and max(map(len, t.slices)) <= 256 for t in built)


def _first_failing_pair(sets, op, combine):
    """The first ordered pair, in a full scan, on which op does not preserve combine."""
    for b1 in sets:
        for b2 in sets:
            if op(combine(b1, b2)) != combine(op(b1), op(b2)):
                return {"set1": mask_text(b1), "set2": mask_text(b2)}
    return None


def test_half_pair_scans_find_the_full_scans_first_witness(break_operators):
    # Flipping bit 0 on odd-sized sets breaks both preservation laws.
    break_operators(
        lap=lambda r, b, v: v ^ b.bit_count() % 2, uap=lambda r, b, v: v ^ b.bit_count() % 2
    )
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


# -- lane laws against the per-mask scans ------------------------------------------
#
# The scans below decide each law of the five lane checkers one mask at a
# time through ``_lap_mask``/``_uap_mask`` (as broken, if they are), in the
# order the lanes must reproduce: a law's witness is its first failing set.


def _scanned_relation_laws(r):
    p = r.poset
    lap_of, uap_of = approx._lap_mask, approx._uap_mask
    full = (1 << p.n) - 1
    rep = CheckReport("", "")
    rep.law(
        "basic.principal-upper-section",
        ({"element": a} for a in range(p.n) if lap_of(r, p.up[a]) != r.above[a]),
    )
    nonempty = all(r.sec)
    three_way = nonempty == (uap_of(r, 0) == 0) == (lap_of(r, full) == full)
    rep.add(
        "basic.whole-space-equivalence",
        three_way,
        None
        if three_way
        else {
            "sections-nonempty": nonempty,
            "uap-empty": mask_text(uap_of(r, 0)),
            "lap-full": mask_text(lap_of(r, full)),
        },
    )
    rep.add("basic.lap-of-empty", lap_of(r, 0) == 0)
    rep.add("basic.uap-of-full", uap_of(r, full) == full)
    return rep.verdicts


def _scanned_partition(r, masks):
    p = r.poset
    lap_of, uap_of = approx._lap_mask, approx._uap_mask
    full = (1 << p.n) - 1
    scope = f"set={mask_text(masks[0])}" if len(masks) == 1 else f"{len(masks)} subsets"
    rep = CheckReport(f"n={p.n};rel={r.pairs()}", scope)
    rep.law(
        "partition.cover",
        (
            {"lap": mask_text(lap_of(r, b)), "uap-of-rest": mask_text(uap_of(r, b ^ full))}
            for b in masks
            if lap_of(r, b) | uap_of(r, b ^ full) != full
        ),
    )
    rep.law(
        "partition.disjoint-on-upper",
        (
            {"overlap": mask_text(lap_of(r, b) & uap_of(r, b ^ full))}
            for b in masks
            if lap_of(r, b) & uap_of(r, b ^ full) and _closed(p.up, b)
        ),
        note="" if any(_closed(p.up, b) for b in masks) else "vacuous: set not upper",
    )
    return rep


def _scanned_int_equivalences(r):
    p = r.poset
    lap_of, uap_of = approx._lap_mask, approx._uap_mask
    uppers = [u.bits for u in enumerate_upper_sets(p)]
    lowers = [l.bits for l in enumerate_lower_sets(p)]
    witnesses = {}
    for key, op, sets in (("lap-idempotent", lap_of, uppers), ("uap-idempotent", uap_of, lowers)):
        bad = next((b for b in sets if op(r, op(r, b)) != op(r, b)), None)
        if bad is not None:
            witnesses[key] = mask_text(bad)
    stmts = _statements_by_pair_scan(r)
    rep = CheckReport(f"n={p.n};rel={r.pairs()}", "all upper and lower sets")
    for name, value in zip(
        (
            "interpolation",
            "lap-idempotent-on-upper",
            "lap-kernel-on-upper-lattice",
            "uap-idempotent-on-lower",
            "uap-closure-on-lower-lattice",
        ),
        stmts,
    ):
        rep.add(f"int-char.{name}", value, informational=True)
    agree = len(set(stmts)) == 1
    rep.add("int-char.agreement", agree, None if agree else {"statements": list(stmts), **witnesses})
    return rep


def _scanned_algebra(r1, r2):
    p = r1.poset
    lap_of, uap_of = approx._lap_mask, approx._uap_mask
    masks = range(1 << p.n)
    rep = CheckReport(f"n={p.n};rel1={r1.pairs()};rel2={r2.pairs()}", f"{len(masks)} subsets")
    if auxrel.aux_subset(r1, r2):
        rep.law(
            "algebra.monotone-in-relation",
            (
                {"set": mask_text(b)}
                for b in masks
                if lap_of(r1, b) & ~lap_of(r2, b) or uap_of(r2, b) & ~uap_of(r1, b)
            ),
        )
    else:
        rep.add("algebra.monotone-in-relation", True, note="vacuous: rel1 not below rel2")
    # the operands' own tables stand for a union or intersection equal to one
    union, meet = (
        next((x for x in (r1, r2) if x.sec == combined.sec), combined)
        for combined in (auxrel.aux_union(r1, r2), auxrel.aux_intersection(r1, r2))
    )
    rep.law(
        "algebra.lap-of-union",
        ({"set": mask_text(b)} for b in masks if lap_of(union, b) != lap_of(r1, b) | lap_of(r2, b)),
    )
    rep.law(
        "algebra.uap-of-union",
        ({"set": mask_text(b)} for b in masks if uap_of(union, b) != uap_of(r1, b) & uap_of(r2, b)),
    )
    rep.law(
        "algebra.lap-of-intersection-on-filtered",
        (
            {"set": mask_text(b)}
            for b in masks
            if _directed(p.down, b) and lap_of(meet, b) != lap_of(r1, b) & lap_of(r2, b)
        ),
    )
    lowers = [l.bits for l in enumerate_lower_sets(p)]
    uppers = [u.bits for u in enumerate_upper_sets(p)]
    rep.law(
        "algebra.uap-preserves-lower-meets",
        _pair_witnesses(lowers, lambda b: uap_of(r1, b), operator.and_),
    )
    rep.law(
        "algebra.lap-preserves-upper-joins",
        _pair_witnesses(uppers, lambda b: lap_of(r1, b), operator.or_),
    )
    return rep


def _pair_witnesses(sets, op, combine):
    """Each pair i < j on which op does not preserve combine, in scan order."""
    return (
        {"set1": mask_text(b1), "set2": mask_text(b2)}
        for i, b1 in enumerate(sets)
        for b2 in sets[i + 1 :]
        if op(combine(b1, b2)) != combine(op(b1), op(b2))
    )


def _scanned_adjunction(r):
    p = r.poset
    lap_of, uap_of = approx._lap_mask, approx._uap_mask
    lowers = [l.bits for l in enumerate_lower_sets(p)]
    uppers = [u.bits for u in enumerate_upper_sets(p)]
    rep = CheckReport(f"n={p.n};rel={r.pairs()}", "all lower and upper sets")
    rep.law(
        "adjoint.lower-galois",
        (
            {"b": mask_text(b), "a": mask_text(a)}
            for b in lowers
            for a in lowers
            if (b & ~uap_of(r, a) == 0) != (_join(r.sec, b) & ~a == 0)
        ),
    )
    full = (1 << p.n) - 1
    rep.law(
        "adjoint.upper-galois",
        (
            {"b": mask_text(b), "a": mask_text(a)}
            for b in uppers
            for a in uppers
            if (lap_of(r, a) & ~b == 0) != (a & _join(r.sec, b ^ full) == 0)
        ),
    )
    return rep


def _assert_lane_laws_match_the_scans(r, partners=(), families=()):
    """Every lane checker on r gives the report of its scan: the algebra on
    (r, partner) for each partner, partition and the basic laws on every
    subset and on each family.  Returns the laws that fail."""
    p = r.poset
    pairs = [
        (check_adjunction(r), _scanned_adjunction(r)),
        (check_int_equivalences(r), _scanned_int_equivalences(r)),
    ]
    pairs += [(check_algebra(r, r2), _scanned_algebra(r, r2)) for r2 in partners]
    relation_laws = _scanned_relation_laws(r)
    for family in [None, *families]:
        masks = range(1 << p.n) if family is None else [a.bits for a in family]
        pairs.append((check_partition(r, sets=family), _scanned_partition(r, masks)))
        basic = _scanned_basic_laws(r, relation_laws, family)
        pairs.append((check_basic_laws(r, sets=family).to_dict(), basic))
    failing = set()
    for lanes, scanned in pairs:
        lanes, scanned = (x if isinstance(x, dict) else x.to_dict() for x in (lanes, scanned))
        assert lanes == scanned, (p.up, r.sec)
        failing |= {v["law"] for v in lanes["verdicts"] if not v["passed"] and not v.get("informational")}
    return failing


def test_lane_laws_match_the_scans_on_every_small_relation():
    relations = 0
    for n in range(1, 5):
        for p in enumerate_posets(n):
            rels = list(enumerate_aux(p))
            for i, r in enumerate(rels):
                partners = (leq_aux(p), rels[(i + 1) % len(rels)])
                assert not _assert_lane_laws_match_the_scans(r, partners)
                relations += 1
    assert relations == 5560


_LANE_LAWS = {
    "partition.cover",
    "partition.disjoint-on-upper",
    *(f"basic.{law}" for law in (
        "sandwich", "uap-down-invariance", "uap-lower", "lap-preserves-upper", "leq-identities",
        "membership-characterization", "principal-upper-section", "whole-space-equivalence",
        "lap-of-empty", "uap-of-full",
    )),
    *(f"algebra.{law}" for law in (
        "monotone-in-relation", "lap-of-union", "uap-of-union", "lap-of-intersection-on-filtered",
        "uap-preserves-lower-meets", "lap-preserves-upper-joins",
    )),
    "adjoint.lower-galois",
    "adjoint.upper-galois",
    "int-char.agreement",
}


def test_one_corrupted_table_byte_gives_the_scans_first_witnesses(break_operators):
    """One bit of one entry of one relation's lap or uap table flipped, for
    each entry of every relation with n <= 3: every law fails somewhere, and
    each report names the scan's first failing set."""
    corrupt = {}

    def err(which):
        def flip(r, b, v):
            hit = corrupt["sec"] == r.sec and corrupt["entry"] == (which, b)
            return v ^ (1 << corrupt["bit"] if hit else 0)

        return flip

    break_operators(lap=err("lap"), uap=err("uap"))
    failing, cases = set(), 0
    for n in range(1, 4):
        for q in enumerate_posets(n):
            for i, sec in enumerate(r.sec for r in enumerate_aux(q)):
                for which in ("lap", "uap"):
                    for b in range(1 << n):
                        # a fresh poset, so that its order relation is tabulated anew
                        p = Poset(q.up)
                        rels = [AuxRelation(p, s.sec) for s in enumerate_aux(p)]
                        r = rels[i]
                        corrupt.update(sec=sec, entry=(which, b), bit=(b + i) % n)
                        partners = (leq_aux(p), rels[(i + 1) % len(rels)])
                        failing |= _assert_lane_laws_match_the_scans(r, partners)
                        cases += 1
    assert failing == _LANE_LAWS, _LANE_LAWS - failing
    assert cases > 1000


@pytest.mark.parametrize("broken", [False, True])
def test_lane_laws_match_the_scans_on_sampled_families(break_operators, broken):
    """Unsorted families with repeats, on relations with 5 to 8 points, under
    the real operators and under ones that err on many sets."""
    if broken:
        _break_sandwich_and_lower_sets(break_operators)
    failing = set()

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=5, max_value=8),
        st.sampled_from([0.2, 0.3, 0.5]),
        st.integers(min_value=0, max_value=10**6),
        st.data(),
    )
    def check(n, density, seed, data):
        p = random_poset(n, density, seed)
        r = sample_aux(p, seed=seed, density=density)
        masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=40))
        family = [ElementSet(b, n) for b in masks + masks[::3]]
        failing.update(_assert_lane_laws_match_the_scans(r, families=[family]))

    check()
    assert bool(failing) == broken


@pytest.mark.parametrize("broken", [False, True])
@pytest.mark.parametrize("n", [9, 10])
def test_lane_laws_match_the_scans_above_the_table_bound(break_operators, broken, n):
    """One-set families on relations with 9 and 10 points, where lanes are
    two bytes wide and the operators' gathers are byte-sliced; the lattice
    laws at n = 9."""
    if broken:
        _break_sandwich_and_lower_sets(break_operators)
    for seed in range(2):
        p = random_poset(n, 0.4, 1000 * n + seed)
        r = sample_aux(p, seed=seed)
        families = [[ElementSet(b, n)] for b in range(0, 1 << n, 53)]
        for family in families:
            masks = [family[0].bits]
            assert check_partition(r, family[0]).to_dict() == _scanned_partition(r, masks).to_dict()
            basic = _scanned_basic_laws(r, _scanned_relation_laws(r), family)
            assert check_basic_laws(r, sets=family).to_dict() == basic
        if n == 9:
            assert check_algebra(r, leq_aux(p)).to_dict() == _scanned_algebra(r, leq_aux(p)).to_dict()
            assert check_adjunction(r).to_dict() == _scanned_adjunction(r).to_dict()
            assert check_int_equivalences(r).to_dict() == _scanned_int_equivalences(r).to_dict()
        _assert_no_table_per_mask(r)


@pytest.mark.parametrize("corrupt", [False, True])
def test_the_pair_laws_match_the_scans_on_sampled_posets(break_operators, corrupt):
    """``check_algebra`` with the order as second relation against its scans,
    on posets with 2 to 10 points, so on both sides of the table bound.  With
    ``corrupt``, one bit of one table entry of each relation is flipped: of
    one mask's lap and uap up to the bound, of one hit slice entry above."""
    if corrupt:

        def flip(shift):
            def err(r, b, v):
                target = 37 * sum(r.sec) % (1 << min(r.poset.n, 8))
                return v ^ (1 << (sum(r.sec) + shift) % r.poset.n if b == target else 0)

            return err

        break_operators(lap=flip(0), uap=flip(1))
    failing = set()

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=10),
        st.sampled_from([0.2, 0.3, 0.5]),
        st.integers(min_value=0, max_value=10**6),
    )
    def check(n, density, seed):
        p = random_poset(n, density, seed)
        r = sample_aux(p, seed=seed, density=density)
        report = check_algebra(r, leq_aux(p)).to_dict()
        assert report == _scanned_algebra(r, leq_aux(p)).to_dict(), (p.up, r.sec)
        failing.update(v["law"] for v in report["verdicts"] if not v["passed"])

    check()
    pair_laws = {"algebra.uap-preserves-lower-meets", "algebra.lap-preserves-upper-joins"}
    assert bool(failing & pair_laws) == corrupt


# -- relation batches against the checkers ---------------------------------------------


def _checker_failures(r, masks):
    """Per batched suite, whether a checker that the suite runs on r fails a
    law, the per-subset ones over ``masks``: none runs the chain on a relation
    that is not approximating, nor the mu laws on one that is not
    pre-approximating."""
    sets = [ElementSet(bits, r.poset.n) for bits in masks]
    cls = classify(r)
    reports = {
        "algebra": (
            check_adjunction(r),
            check_algebra(r, leq_aux(r.poset)),
            check_basic_laws(r, sets=sets),
        ),
        "chain": (check_chain_of_containments(r, sets=sets),) if cls.approximating else (),
        "int-char": (check_int_equivalences(r),),
        "mu-topology": (check_mu_laws(r),) if cls.pre_approximating else (),
        "partition": (check_partition(r, sets=sets),),
    }
    return {s: any(rep.failures or rep.findings for rep in reps) for s, reps in reports.items()}


def _cspace_verdict(r):
    """Whether the cspace checker, which runs only on a pre-approximating
    relation, fails r or raises, and else its findings as (law, witness)."""
    if not classify(r).pre_approximating:
        return False, []
    try:
        rep = topology.check_cspace_theorems(r)
    except Exception:
        return True, None
    return bool(rep.failures), [(v.law, v.witness) for v in rep.findings]


def _perturbed(p, rels, rng):
    """Three relations with arbitrary sections, and each of ``rels`` with one
    section bit flipped: mostly not auxiliary relations."""
    n = p.n
    out = [AuxRelation(p, [rng.getrandbits(n) for _ in range(n)]) for _ in range(3)]
    for r in rels:
        sec = list(r.sec)
        sec[rng.randrange(n)] ^= 1 << rng.randrange(n)
        out.append(AuxRelation(p, sec))
    return out


def _assert_batches_flag_the_checker_failures(p, rels, masks):
    """Batches of ``approx.BATCH`` relations flag exactly the relations whose
    checkers fail, suite by suite.  Counts the relations that fail, under
    "relations", and those that fail each suite."""
    flags = {s: b"" for s in approx.BATCHED_SUITES}
    for start in range(0, len(rels), approx.BATCH):
        batch = approx.batch_failures(p, rels[start : start + approx.BATCH], masks, flags)
        flags = {s: flags[s] + batch[s] for s in flags}
    failing = Counter()
    for k, r in enumerate(rels):
        # cspace's byte fails the relation in bit 0 and else says what it finds
        expected = {**_checker_failures(r, masks), "cspace": _cspace_verdict(r)[0]}
        assert {s: flags[s][k] & 1 == 1 for s in flags} == expected, (p.up, r.sec)
        assert {s: flags[s][k] for s in flags if s != "cspace"} == {
            s: int(expected[s]) for s in flags if s != "cspace"
        }
        if classify(r).pre_approximating and not expected["cspace"]:
            findings = _cspace_verdict(r)[1]
            assert topology.cspace_entries(p, flags["cspace"][k]) == findings, (p.up, r.sec)
        elif not classify(r).pre_approximating:
            assert flags["cspace"][k] == 0
        failing.update(["relations"] * any(expected.values()) + [s for s in flags if expected[s]])
    return failing


def test_batches_flag_exactly_the_failing_relations_on_every_small_poset():
    """Every relation on every labeled poset with n <= 4, three arbitrary
    relations per poset and each relation with one section bit flipped."""
    rng = random.Random(4)
    relations, failing = 0, Counter()
    for n in range(1, 5):
        for p in enumerate_posets(n):
            rels = list(enumerate_aux(p))
            rels += _perturbed(p, rels, rng)
            relations += len(rels)
            failing += _assert_batches_flag_the_checker_failures(p, rels, range(1 << n))
    assert relations == 2 * 5560 + 3 * 242 and failing["relations"] > 3000


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=10),
    st.sampled_from([0.2, 0.4, 0.6]),
    st.integers(min_value=0, max_value=10**6),
    st.booleans(),
)
@example(8, 0.4, 0, False)  # 48 upper sets: shared lanes
@example(8, 0.2, 2, False)  # 72 upper sets: each relation's tables
def test_batches_flag_exactly_the_failing_relations_on_sampled_posets(n, density, seed, sampled):
    """Up to n = 8 and ``approx.SHARED_MAX_SETS`` upper sets one byte per
    (set, relation); above either, and for a batch of one, the relations' own
    tables.  Over every subset or a sample of them."""
    rng = random.Random(seed)
    p = random_poset(n, density, seed)
    rels = list(dict.fromkeys(
        [leq_aux(p), bottom_aux(p)] + [sample_aux(p, seed=seed + k) for k in range(4)]
    ))
    rels += _perturbed(p, rels, rng)
    masks = sorted(rng.sample(range(1 << n), min(6, 1 << n))) if sampled else range(1 << n)
    _assert_batches_flag_the_checker_failures(p, rels, masks)
    _assert_batches_flag_the_checker_failures(p, rels[-1:], masks)


def test_batches_under_broken_operators_flag_exactly_the_failing_relations(break_operators):
    """The batch reads lap and uap where ``break_operators`` rewrites them."""
    break_operators(
        lap=lambda r, b, v: v ^ (b == 0b11 and sum(r.sec) % 5 == 0),
        uap=lambda r, b, v: v ^ (b == 0b1 and sum(r.sec) % 5 == 1),
    )
    failing = Counter()
    for n in range(1, 4):
        for p in enumerate_posets(n):
            failing += _assert_batches_flag_the_checker_failures(p, list(enumerate_aux(p)), range(1 << n))
    assert set(failing) == {"relations", *approx.BATCHED_SUITES}, failing


def test_batches_flag_a_broken_sections_join_that_only_the_adjunction_reads(monkeypatch):
    """Only the Galois laws read the sections' join, so a join that drops
    element 0 from g(full) on every third relation fails nothing else."""
    full_of = lambda r: (1 << r.poset.n) - 1
    broken = lambda r: sum(r.sec) % 3 == 0
    table, above = approx._SEC_JOIN

    def join_table(r):
        wrong = bytearray(table(r))
        wrong[full_of(r)] &= ~1 if broken(r) else 255
        return bytes(wrong)

    monkeypatch.setattr(approx, "_SEC_JOIN", (join_table, above))
    real_batch = approx._batch_operators

    def batch(p, rels):
        lanes, full = real_batch(p, rels), (1 << p.n) - 1
        real_join = lanes.join

        def join(x):
            out = bytearray(real_join(x))
            for i, a in enumerate(x):
                if a == full and broken(rels[i % len(rels)]):
                    out[i] &= ~1
            return bytes(out)

        lanes.join = join
        return lanes

    monkeypatch.setattr(approx, "_batch_operators", batch)
    only_adjunction = 0
    for n in range(1, 5):
        for p in enumerate_posets(n):
            rels = list(enumerate_aux(p))
            _assert_batches_flag_the_checker_failures(p, rels, range(1 << n))
            only_adjunction += sum(not check_adjunction(r).ok for r in rels)
    assert only_adjunction > 0


def _force_lane(out, bit, at=-1):
    """A lane-law result with ``bit`` set in one of its failing-lane ints: of
    a tuple of ints, the one ``at``."""
    if isinstance(out, dict):
        first = next(iter(out))
        return {**out, first: out[first] | bit}
    if isinstance(out, tuple) and isinstance(out[0], dict):  # _relation_lanes, _mu_lanes
        return (_force_lane(out[0], bit), *out[1:])
    if isinstance(out, int):
        return out | bit
    if isinstance(out, tuple):  # _partition_lanes: the overlap; _cspace_lanes: each part
        return tuple(x | bit * (i == at % len(out)) for i, x in enumerate(out))
    if isinstance(out[0], tuple):  # the pair laws: (law, first, second, bad)
        return [(*out[0][:-1], out[0][-1] | bit), *out[1:]]
    return [out[0] | bit, *out[1:]]  # _int_lanes: statement (2); _chain_lanes: Scott interior


@pytest.mark.parametrize(
    "name, suite",
    [
        ("_basic_lanes", "algebra"),
        ("_relation_lanes", "algebra"),
        ("_algebra_lanes", "algebra"),
        ("_pair_lanes", "algebra"),
        ("_adjunction_lanes", "algebra"),
        ("_partition_lanes", "partition"),
        ("_int_lanes", "int-char"),
        ("_leq_identities", "algebra"),
        ("_mu_lanes", "mu-topology"),
        ("_open_pairs", "mu-topology"),
        ("_chain_lanes", "chain"),
        ("_cspace_lanes", "cspace"),
    ],
)
def test_every_lane_law_reaches_the_batch_verdict(monkeypatch, name, suite, at=-1):
    """Forcing one failing lane into one lane law of a batch flags that lane's
    relation, and that relation alone: every law enters its suite's verdict.
    ``basic.leq-identities`` does not depend on the relation, so its failing
    lane flags every relation of the batch."""
    p = diamond()
    rels = list(enumerate_aux(p))
    k = next(k for k, r in enumerate(rels) if r.sec == p.down)  # passes every statement
    real = getattr(approx, name)
    monkeypatch.setattr(approx, name, lambda *args: _force_lane(real(*args), 1 << 8 * k, at))
    flags = approx.batch_failures(p, rels, range(1 << p.n), [suite])[suite]
    flagged = [i for i, flag in enumerate(flags) if flag & 1]  # cspace's other bits: its findings
    assert flagged == (list(range(len(rels))) if name == "_leq_identities" else [k])


@pytest.mark.parametrize("at", [0, 1])  # what the covers miss, the sections that are not open
def test_each_part_of_the_cspace_lanes_reaches_the_batch_verdict(monkeypatch, at):
    """The parts of ``_cspace_lanes`` before the last (which the test above
    forces: what the sections miss) enter the cspace verdict too."""
    test_every_lane_law_reaches_the_batch_verdict(monkeypatch, "_cspace_lanes", "cspace", at)


def test_each_batch_of_a_poset_decides_leq_identities(monkeypatch):
    """A poset with more relations than ``BATCH`` takes several batches over
    one family of subsets, and each batch decides ``basic.leq-identities``
    itself: forced to fail, it flags every relation of every batch."""
    p = from_rows((1, 3, 5, 15, 23))  # a five-point class with 198 relations
    rels, masks = list(enumerate_aux(p)), range(1 << p.n)
    assert len(rels) == 198
    real, calls = approx._leq_identities, []
    monkeypatch.setattr(
        approx, "_leq_identities", lambda *args: calls.append(args) or _force_lane(real(*args), 1)
    )
    for start in range(0, len(rels), approx.BATCH):
        flags = approx.batch_failures(p, rels[start : start + approx.BATCH], masks, ["algebra"])
        assert all(flags["algebra"])
    assert len(calls) == 4
