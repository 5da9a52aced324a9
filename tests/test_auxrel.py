"""Auxiliary relations: axioms, closure, way-below, classification, the relation lattice."""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderlab import reference
from orderlab.auxrel import (
    _leq_pairs,
    aux_closure,
    aux_intersection,
    aux_subset,
    aux_union,
    bottom_aux,
    classify,
    enumerate_aux,
    leq_aux,
    sample_aux,
    section_above,
    section_below,
    validate_aux,
    way_below,
)
from orderlab.bitset import ElementSet, iter_bits
from orderlab.closures import one_step
from orderlab.errors import AxiomViolation, PosetMismatch, SeedViolatesOrder
from orderlab.poset import (
    Poset,
    _upper_masks,
    antichain,
    bottom,
    chain,
    diamond,
    enumerate_directed_subsets,
    enumerate_posets,
    from_rows,
    is_directed,
    is_lower,
    random_poset,
    supremum,
)
from orderlab.topology import is_scott_open, scott_topology

R1_PAIRS = [(0, 0), (0, 1), (0, 2), (1, 2)]


# -- validation ---------------------------------------------------------------


def test_validate_accepts_r1(c3, r1):
    assert r1.pairs() == R1_PAIRS
    assert r1.holds(1, 2) and not r1.holds(1, 1)


def test_validate_requires_pairs_within_order(c3):
    with pytest.raises(AxiomViolation) as err:
        validate_aux(c3, [(2, 1)])
    assert err.value.kind == "aux-1"
    assert err.value.witness == (2, 1)


def test_validate_requires_saturation_under_the_order(c3):
    with pytest.raises(AxiomViolation) as err:
        validate_aux(c3, [(0, 1), (1, 2)])
    assert err.value.kind == "aux-2"
    assert err.value.witness == (0, 2)


def test_validate_requires_bottom_pairs_when_bottom_exists(c3):
    with pytest.raises(AxiomViolation) as err:
        validate_aux(c3, [(0, 1), (0, 2), (1, 2)])
    assert err.value.kind == "aux-3"
    assert err.value.witness == (0, 0)


def test_empty_relation_is_valid_without_bottom(a2):
    r = validate_aux(a2, [])
    assert r.pairs() == []


# -- closure --------------------------------------------------------------------


def test_closure_of_single_reflexive_pair(c3):
    r = aux_closure(c3, [(1, 1)])
    assert r.pairs() == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2)]


def test_closure_of_empty_seed_is_the_bottom_relation(c3, r_bot):
    assert aux_closure(c3, []).pairs() == r_bot.pairs() == [(0, 0), (0, 1), (0, 2)]


def test_closure_rejects_seed_outside_the_order(c3):
    with pytest.raises(SeedViolatesOrder):
        aux_closure(c3, [(2, 1)])


def test_closure_output_is_always_valid(c3, d4):
    for p in (c3, d4):
        for seed in ([], [(1, 1)], [(0, 3)] if p.n == 4 else [(1, 2)]):
            r = aux_closure(p, seed)
            validate_aux(p, r.pairs())


# -- way-below -------------------------------------------------------------------


def _closed_forms_match_the_reference(p):
    assert way_below(p).sec == reference.way_below(p).sec == p.down
    scott = reference.scott_masks(p)
    assert scott_topology(p).masks == scott
    for bits in range(1 << p.n):
        a = ElementSet(bits, p.n)
        assert is_scott_open(p, a) == (bits in scott)
        assert one_step(p, a).bits == reference.one_step_mask(p, bits)


def test_way_below_equals_the_order_on_small_posets():
    """The closed forms against the directed-subset sweep: every labeled
    poset with n <= 5, then hypothesis-sampled posets with n <= 12."""
    for n in range(1, 6):
        for p in enumerate_posets(n):
            _closed_forms_match_the_reference(p)

    @settings(max_examples=20, deadline=None)
    @given(
        st.builds(
            random_poset,
            n=st.integers(min_value=1, max_value=12),
            p=st.sampled_from([0.1, 0.2, 0.3, 0.5]),
            seed=st.integers(min_value=0, max_value=10**6),
        )
    )
    def sampled(p):
        _closed_forms_match_the_reference(p)

    sampled()


def test_way_below_on_singleton():
    p = from_rows((1,))
    assert way_below(p).pairs() == [(0, 0)]


def _wb_oracle(p, x, y):
    for d in enumerate_directed_subsets(p):
        sup = supremum(p, d)
        if sup is not None and p.leq(y, sup):
            if not any(p.leq(x, e) for e in d):
                return False
    return True


def test_way_below_matches_the_quantifier_oracle(d4):
    wb = way_below(d4)
    for x in range(4):
        for y in range(4):
            assert wb.holds(x, y) == _wb_oracle(d4, x, y)


# -- sections ---------------------------------------------------------------------


def test_sections_of_r1(r1):
    assert section_below(r1, 2) == ElementSet.from_indices(3, [0, 1])
    assert section_below(r1, 1) == ElementSet.single(3, 0)


def test_sections_of_leq_are_principal_down_sets(d4):
    r = leq_aux(d4)
    for x in range(4):
        assert section_below(r, x).bits == d4.down[x]


def test_section_above_bottom_relation(r_bot):
    assert section_above(r_bot, 0) == ElementSet.full(3)
    assert section_above(r_bot, 1) == ElementSet.empty(3)


def test_sections_are_lower_sets():
    for p in enumerate_posets(3):
        for r in enumerate_aux(p):
            for x in range(p.n):
                assert is_lower(p, section_below(r, x))


# -- classification ---------------------------------------------------------------


def test_classify_r1(r1):
    cls = classify(r1)
    assert cls.pre_approximating
    assert not cls.approximating
    assert not cls.has_int
    assert cls.witnesses["approximating"] == 1
    assert cls.witnesses["has_int"] == (1, 2)


def test_classify_leq_is_approximating_with_interpolation():
    for p in enumerate_posets(3):
        cls = classify(leq_aux(p))
        assert cls.approximating and cls.pre_approximating and cls.has_int


def test_classify_bottom_relation(r_bot):
    cls = classify(r_bot)
    assert cls.pre_approximating
    assert not cls.approximating
    assert cls.has_int


def test_approximating_always_implies_pre_approximating():
    for p in enumerate_posets(3):
        for r in enumerate_aux(p):
            cls = classify(r)
            assert not cls.approximating or cls.pre_approximating


# -- lattice operations -------------------------------------------------------------


def test_union_and_intersection_fixtures(c3, r1, r_bot, leq3):
    assert aux_union(r_bot, r1).pairs() == r1.pairs()
    assert aux_intersection(r1, leq3).pairs() == r1.pairs()
    assert aux_union(leq3, leq3).pairs() == leq3.pairs()
    assert aux_subset(r_bot, r1) and not aux_subset(r1, r_bot)


def test_lattice_operations_reject_mixed_posets(c3, d4):
    with pytest.raises(PosetMismatch):
        aux_union(leq_aux(c3), leq_aux(d4))


def test_lattice_operations_preserve_validity():
    p = diamond()
    rels = list(enumerate_aux(p))
    for r1 in rels[:6]:
        for r2 in rels[:6]:
            validate_aux(p, aux_union(r1, r2).pairs())
            validate_aux(p, aux_intersection(r1, r2).pairs())


def test_order_relation_tops_the_lattice_and_bottom_relation_floors_it(c3):
    for r in enumerate_aux(c3):
        assert aux_subset(r, leq_aux(c3))
        assert aux_subset(bottom_aux(c3), r)


def test_leq_aux_is_shared_per_poset_object_and_keeps_its_labels():
    p = from_rows(chain(2).up, labels=["a", "b"])
    q = from_rows(chain(2).up, labels=["x", "y"])
    assert p == q
    for poset in (p, q, p, q):
        r = leq_aux(poset)
        assert r.poset is poset and r.sec == poset.down
        assert leq_aux(poset) is r


# -- enumeration and sampling ----------------------------------------------------------


def test_enumerate_aux_on_three_chain(c3, r1, r_bot, leq3):
    rels = [r.pairs() for r in enumerate_aux(c3)]
    assert len(rels) == 5
    assert len(set(map(tuple, rels))) == 5
    for expected in (r_bot, r1, leq3):
        assert expected.pairs() in rels


def test_enumerate_aux_results_are_valid():
    for p in enumerate_posets(3):
        for r in enumerate_aux(p):
            validate_aux(p, r.pairs())


def test_enumerate_aux_without_bottom_includes_empty_relation(a2):
    rels = [r.pairs() for r in enumerate_aux(a2)]
    assert [] in rels


def _sections_by_bit_walk(p):
    """``enumerate_aux`` with each relation's sections built by walking the
    set bits of its pair encoding: pair bit b = (i, j) sets bit i of sec[j]."""
    pairs = _leq_pairs(p)
    index = {pair: b for b, pair in enumerate(pairs)}
    pair_order = Poset(
        sum(1 << index[u, z] for u in iter_bits(p.down[x]) for z in iter_bits(p.up[y]))
        for x, y in pairs
    )
    bot = bottom(p)
    start = 0 if bot is None else sum(1 << index[bot, y] for y in range(p.n))
    for mask in _upper_masks(pair_order.up, pair_order.down, start):
        sec = [0] * p.n
        for b in iter_bits(mask):
            i, j = pairs[b]
            sec[j] |= 1 << i
        yield tuple(sec)


def test_enumerate_aux_sections_match_the_bit_walk_on_every_labeled_poset():
    relations = 0
    for n in range(1, 6):
        for p in enumerate_posets(n):
            got = [r.sec for r in enumerate_aux(p)]
            assert got == list(_sections_by_bit_walk(p)), p.up
            relations += len(got)
    assert relations > 10**5


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=6, max_value=10),
    st.sampled_from([0.3, 0.5, 0.7]),
    st.integers(min_value=0, max_value=10**6),
)
def test_enumerate_aux_sections_match_the_bit_walk_on_sampled_posets(n, density, seed):
    """Lanes of one byte up to n = 8 and of two above, on the first 3,000
    relations of each poset."""
    p = random_poset(n, density, seed)
    got = [r.sec for r in islice(enumerate_aux(p), 3000)]
    assert got == list(islice(_sections_by_bit_walk(p), 3000)), p.up


def test_sample_aux_is_seed_deterministic_and_valid(c3):
    a = sample_aux(c3, seed=1)
    b = sample_aux(c3, seed=1)
    assert a.pairs() == b.pairs()
    validate_aux(c3, a.pairs())


# -- relations versus way-below ----------------------------------------------------------


def test_way_below_is_below_every_approximating_relation():
    for p in enumerate_posets(3):
        wb = way_below(p)
        approximating = [r for r in enumerate_aux(p) if classify(r).approximating]
        for r in approximating:
            assert aux_subset(wb, r)
        if approximating:
            meet = approximating[0]
            for r in approximating[1:]:
                meet = aux_intersection(meet, r)
            assert meet.pairs() == wb.pairs()


def test_way_below_basis_property():
    """Any directed witness set below x that reaches x forces the canonical one."""
    for p in enumerate_posets(3):
        wb = way_below(p)
        for x in range(p.n):
            below_x = section_below(wb, x)
            for d in enumerate_directed_subsets(p):
                if d <= below_x and supremum(p, d) == x:
                    assert is_directed(p, below_x)
                    assert supremum(p, below_x) == x
