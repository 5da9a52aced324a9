"""Induced and Scott topologies, interior/closure, specialization, c-spaces."""

import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orderlab import approx, topology
from orderlab.approx import _family_scope, _lap_mask, _subject, _uap_mask, check_partition
from orderlab.auxrel import (
    AuxRelation,
    bottom_aux,
    classify,
    enumerate_aux,
    leq_aux,
    sample_aux,
    validate_aux,
    way_below,
)
from orderlab.bitset import ElementSet, mask_text
from orderlab.closures import check_sec5_theorems
from orderlab.errors import BadParameters, BudgetExceeded, NotApproximating, NotPreApproximating
from orderlab.poset import (
    MAX_DIRECTED_UNIVERSE,
    Poset,
    _closed,
    _least,
    _upper_list,
    antichain,
    chain,
    diamond,
    enumerate_posets,
    enumerate_upper_sets,
    random_poset,
    validate_poset,
)
from orderlab.report import CheckReport
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


def test_induced_topology_is_built_once_per_relation():
    for p in enumerate_posets(3):
        for r in enumerate_aux(p):
            if classify(r).pre_approximating:
                t = mu_topology(r)
                assert mu_topology(r) is t
                assert mu_topology(AuxRelation(p, r.sec)) == t


def test_scott_topology_is_shared_while_calls_stay_on_one_poset_object():
    p = chain(3)
    q = validate_poset(3, [(0, 1), (1, 2)], "covers", labels=["a", "b", "c"])
    assert p == q
    for poset in (p, q, p, q):
        t = scott_topology(poset)
        assert t.poset is poset and scott_topology(poset) is t
        assert t.masks == tuple(s.bits for s in enumerate_upper_sets(poset))


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
        opens_completely_distributive(scott_topology(antichain(11)))


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


def test_a_one_set_chain_above_the_table_bound_builds_no_interior_table(monkeypatch):
    """Above ``TABLE_MAX_N`` the mu interior of a set is the union of the
    relation's opens inside it: no table with an entry per mask."""
    monkeypatch.setattr(approx, "submask_unions", lambda n, seeds: pytest.fail("a zeta table"))
    p = random_poset(16, 0.5, 2)
    r, a = leq_aux(p), ElementSet(12345, 16)
    rep = check_chain_of_containments(r, a)
    assert rep.ok
    assert rep.verdict("chain.values").witness["mu-interior"] == interior(mu_topology(r), a).text()


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


def test_bundled_laws_build_no_induced_topology(monkeypatch):
    """The bundle reads the lanes of approx: it builds no ``Topology``."""
    built = []
    monkeypatch.setattr(topology, "mu_topology", lambda r: built.append(r) or mu_topology(r))
    rep = check_mu_laws(leq_aux(diamond()))
    assert rep.ok and rep.verdict("mu.inaccessible-implies-open") is not None
    assert built == []


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


# -- the lane checkers against the per-open scans they replaced --------------------------


def _scanned_mu_inaccessibility(r):
    """``check_mu_inaccessibility`` as a scan over the opens and the upper sets."""
    p = r.poset
    mu = mu_topology(r)
    cls = classify(r)
    sups = [_least(p.up, sec) for sec in r.sec]

    def inaccessible(mask):
        for x in range(p.n):
            s = sups[x]
            if s is not None and mask >> s & 1 and r.sec[x] & mask == 0:
                return False
        return True

    rep = CheckReport(_subject(r), "all upper sets")
    rep.law(
        "mu.open-implies-inaccessible",
        ({"open": mask_text(u)} for u in mu.masks if not _closed(p.up, u) or not inaccessible(u)),
    )
    if cls.approximating:
        rep.law(
            "mu.inaccessible-implies-open",
            (
                {"set": mask_text(m)}
                for m in _upper_list(p)
                if inaccessible(m) and m not in mu._mask_set
            ),
        )
    else:
        rep.add("mu.inaccessible-implies-open", True, note="vacuous: relation not approximating")
    return rep


def _scanned_mu_laws(r):
    """``check_mu_laws`` from the scans of the opens: the topology's pair scan,
    the inaccessibility scan, and the specialization order of the opens."""
    p = r.poset
    cls = classify(r)
    inaccessibility = _scanned_mu_inaccessibility(r)
    mu = mu_topology(r)
    rep = CheckReport(_subject(r), "induced topology")
    rep.verdicts.extend(check_topology_invariants(mu).verdicts)
    rep.verdicts.extend(inaccessibility.verdicts)
    sigma = scott_topology(p)
    if cls.approximating:
        missing = [m for m in sigma.masks if m not in mu._mask_set]
        rep.add("mu.finer-than-scott", not missing, {"missing": missing[:1]} if missing else None)
        spec = specialization_order(mu)
        ok = spec.rows == p.up and spec.is_t0
        rep.add(
            "mu.specialization-recovers-order",
            ok,
            None if ok else {"rows": list(spec.rows), "t0": spec.is_t0},
        )
    else:
        rep.add("mu.finer-than-scott", True, note="vacuous: not approximating")
        rep.add("mu.specialization-recovers-order", True, note="vacuous: not approximating")
    return rep


def _scanned_chain(r, masks):
    """``check_chain_of_containments`` over ``masks`` as a scan: the seven
    sets of each mask from the opens, the operators and the Scott opens."""
    p = r.poset
    sigma, mu = scott_topology(p), mu_topology(r)
    rep = CheckReport(_subject(r), _family_scope(masks))
    names = topology._CHAIN_NAMES
    witnesses = [None] * (len(names) - 1)
    for b in masks:
        chain = (
            topology._interior_mask(sigma, b),
            topology._interior_mask(mu, b),
            _lap_mask(r, b),
            b,
            _uap_mask(r, b),
            topology._closure_mask(mu, b),
            topology._closure_mask(sigma, b),
        )
        if len(masks) == 1:
            values = {name: mask_text(bits) for name, bits in zip(names, chain)}
            rep.add("chain.values", True, values, informational=True)
        for k, (name1, name2) in enumerate(zip(names, names[1:])):
            if witnesses[k] is None and chain[k] & ~chain[k + 1]:
                witnesses[k] = {name1: mask_text(chain[k]), name2: mask_text(chain[k + 1])}
    for name1, name2, witness in zip(names, names[1:], witnesses):
        rep.add(f"chain.{name1}-below-{name2}", witness is None, witness)
    return rep


def _assert_mu_and_chain_match_the_scans(r, families=()):
    """The mu laws, the inaccessibility laws and, on an approximating r, the
    chain over every subset, each set alone and each of ``families`` give the
    reports of their scans.  Returns the laws that fail."""
    p = r.poset
    cls = classify(r)
    pairs = []
    if cls.pre_approximating:
        pairs += [
            (check_mu_laws(r), _scanned_mu_laws(r)),
            (check_mu_inaccessibility(r), _scanned_mu_inaccessibility(r)),
        ]
    if cls.approximating:
        pairs.append((check_chain_of_containments(r), _scanned_chain(r, range(1 << p.n))))
        for family in families:
            masks = [a.bits for a in family]
            checked = check_chain_of_containments(r, sets=family)
            pairs.append((checked, _scanned_chain(r, masks)))
            if len(family) == 1:
                pairs.append((check_chain_of_containments(r, family[0]), _scanned_chain(r, masks)))
    failing = set()
    for lanes, scanned in pairs:
        assert lanes.to_dict() == scanned.to_dict(), (p.up, r.sec)
        failing |= {v.law for v in lanes.failures}
    return failing


def _small_relations(rng):
    """Every relation on every labeled poset with n <= 4, then three with
    arbitrary sections and each relation with one section bit flipped."""
    for n in range(1, 5):
        for p in enumerate_posets(n):
            rels = list(enumerate_aux(p))
            yield from rels
            yield from (AuxRelation(p, [rng.getrandbits(n) for _ in range(n)]) for _ in range(3))
            for r in rels:
                sec = list(r.sec)
                sec[rng.randrange(n)] ^= 1 << rng.randrange(n)
                yield AuxRelation(p, sec)


def test_mu_and_chain_reports_match_the_scans_on_every_small_relation():
    rng, counts = random.Random(5), {"pre": 0, "approximating": 0}
    for r in _small_relations(rng):
        cls = classify(r)
        families = [[ElementSet(b, r.poset.n)] for b in range(1 << r.poset.n)]
        assert not _assert_mu_and_chain_match_the_scans(r, families if r.poset.n <= 3 else ())
        counts["pre"] += cls.pre_approximating
        counts["approximating"] += cls.approximating
    assert counts["pre"] > 1319 and counts["approximating"] > 242


_MU_AND_CHAIN_LAWS = {
    "topology.contains-empty",
    "topology.contains-full",
    "topology.binary-intersection",
    "topology.binary-union",
    "mu.open-implies-inaccessible",
    "mu.inaccessible-implies-open",
    "mu.finer-than-scott",
    "mu.specialization-recovers-order",
    *(f"chain.{a}-below-{b}" for a, b in zip(topology._CHAIN_NAMES, topology._CHAIN_NAMES[1:])),
}


def test_one_corrupted_table_entry_gives_the_scans_first_witnesses(break_operators):
    """One bit of one lap or uap entry of one relation flipped, for each entry
    of every relation with n <= 3: every mu law and chain link fails
    somewhere, and each report names the scan's first failing set or pair.
    But mu.open-implies-inaccessible: a finite directed section holds its
    supremum, so it meets every set that holds the supremum."""
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
                for which, b, bit in product(("lap", "uap"), range(1 << n), range(n)):
                    r = AuxRelation(Poset(q.up), sec)  # a fresh relation, tabulated anew
                    corrupt.update(sec=sec, entry=(which, b), bit=bit)
                    failing |= _assert_mu_and_chain_match_the_scans(r)
                    cases += 1
    assert failing == _MU_AND_CHAIN_LAWS - {"mu.open-implies-inaccessible"}
    assert cases > 1000


@pytest.mark.parametrize("broken", [False, True])
def test_mu_and_chain_reports_match_the_scans_on_sampled_posets(break_operators, broken):
    """Posets with 2 to 10 points, so on both sides of the table bound, with a
    sampled relation, the order and sampled families with repeats; broken,
    lap and uap err on every third mask of every relation."""
    if broken:
        break_operators(
            lap=lambda r, b, v: v ^ (b % 3 == 0) * (b & -b),
            uap=lambda r, b, v: v ^ (b % 3 == 1) * (1 << (b % r.poset.n)),
        )
    failing = set()

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=2, max_value=10),
        st.sampled_from([0.2, 0.3, 0.5]),
        st.integers(min_value=0, max_value=10**6),
        st.data(),
    )
    def check(n, density, seed, data):
        p = random_poset(n, density, seed)
        masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=12))
        families = [[ElementSet(b, n) for b in masks + masks[::3]], [ElementSet(masks[0], n)]]
        for r in (sample_aux(p, seed=seed, density=density), leq_aux(p)):
            failing.update(_assert_mu_and_chain_match_the_scans(r, families))

    check()
    assert bool(failing) == broken


def _scanned_cspace(r):
    """``check_cspace_theorems`` from scans of the opens: ``is_c_space`` in
    both readings, a scan of the sections and the opens for the base, and
    ``opens_completely_distributive``."""
    mu = mu_topology(r)
    cls = classify(r)
    rep = CheckReport(_subject(r), "induced topology")
    cs_spec, witness = is_c_space(mu, "specialization")
    sections = r.above

    def not_a_base():
        for s in sections:
            if s not in mu._mask_set:
                yield {"section": mask_text(s)}
        for u in mu.masks:
            cover = 0
            for y in range(r.poset.n):
                if u >> y & 1 and sections[y] & ~u == 0:
                    cover |= sections[y]
            if cover != u:
                yield {"open": mask_text(u)}

    vacuous = "vacuous: no interpolation"
    if cls.has_int:
        rep.add("cspace.int-implies-cspace", cs_spec, witness)
        rep.law("cspace.sections-form-base", not_a_base())
    else:
        rep.add("cspace.int-implies-cspace", True, note=vacuous)
        rep.add("cspace.sections-form-base", True, note=vacuous)
    converse_ok = not (cs_spec and not cls.approximating)
    rep.add(
        "cspace.converse-approximating",
        converse_ok,
        None if converse_ok else {
            "c-space-specialization": cs_spec,
            "c-space-underlying": is_c_space(mu, "underlying")[0],
            "approximating": cls.approximating,
        },
        finding=True,
        note="converse direction; disagreements are recorded, not failed",
    )
    if cls.has_int:
        cdl = opens_completely_distributive(mu)
        rep.add(
            "cspace.cdl-vs-approximating",
            cdl == cls.approximating,
            None if cdl == cls.approximating else {
                "completely-distributive": cdl, "approximating": cls.approximating
            },
            finding=True,
            note="corollary linkage; disagreements are recorded, not failed",
        )
    else:
        rep.add("cspace.cdl-vs-approximating", True, note=vacuous)
    cs_sigma, cont = is_c_space(scott_topology(r.poset))[0], is_continuous(r.poset)
    rep.add(
        "cspace.classical-scott",
        cs_sigma == cont,
        None if cs_sigma == cont else {"c-space": cs_sigma, "continuous": cont},
    )
    return rep


def _outcome(check, r):
    """The report of ``check(r)`` as a dict, or the exception it raises."""
    try:
        return check(r).to_dict()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_cspace_matches_the_scans(r):
    """The lane checker gives the report of the scans, or raises as they do.
    Returns the hard laws that fail, and ``BudgetExceeded`` if both raise it."""
    lanes, scanned = _outcome(check_cspace_theorems, r), _outcome(_scanned_cspace, r)
    assert lanes == scanned, (r.poset.up, r.sec)
    if isinstance(lanes, str):
        return {"BudgetExceeded"} & {lanes.split(":")[0]}
    return {v["law"] for v in lanes["verdicts"] if not v["passed"] and not v.get("finding")}


def test_cspace_reports_match_the_scans_on_every_small_relation():
    """Every relation on every labeled poset with n <= 4 passes; of those
    with arbitrary or perturbed sections, some have sections that are not
    open or do not cover an open."""
    rng, pre, failing = random.Random(6), 0, set()
    for r in _small_relations(rng):
        failing |= _assert_cspace_matches_the_scans(r)
        pre += classify(r).pre_approximating
    assert pre > 1319 and failing == {"cspace.sections-form-base"}


def test_one_corrupted_table_entry_gives_the_cspace_scans_first_witnesses(break_operators):
    """One bit of one lap entry of one relation flipped, for each entry of
    every relation with n <= 3: both hard laws fail somewhere, and each
    report names the scan's first failing open or section.  uap does not
    enter mu_R."""
    corrupt = {}

    def flip(r, b, v):
        return v ^ (1 << corrupt["bit"] if (r.sec, b) == (corrupt["sec"], corrupt["entry"]) else 0)

    break_operators(lap=flip)
    failing, cases = set(), 0
    for n in range(1, 4):
        for q in enumerate_posets(n):
            for sec in [r.sec for r in enumerate_aux(q)]:
                for b, bit in product(range(1 << n), range(n)):
                    corrupt.update(sec=sec, entry=b, bit=bit)
                    failing |= _assert_cspace_matches_the_scans(AuxRelation(Poset(q.up), sec))
                    cases += 1
    assert failing == {"cspace.int-implies-cspace", "cspace.sections-form-base"}
    assert cases > 1000


@pytest.mark.parametrize("broken", [False, True])
def test_cspace_reports_match_the_scans_on_sampled_posets(break_operators, broken):
    """Posets with 2 to 10 points, so on both sides of the table bound, with a
    sampled relation, the order and the bottom relation; broken, lap errs on
    every third mask of every relation."""
    if broken:
        break_operators(lap=lambda r, b, v: v ^ (b % 3 == 0) * (b & -b))
    failing = set()

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=2, max_value=10),
        st.sampled_from([0.2, 0.3, 0.5]),
        st.integers(min_value=0, max_value=10**6),
    )
    def check(n, density, seed):
        p = random_poset(n, density, seed)
        for r in (sample_aux(p, seed=seed, density=density), leq_aux(p), bottom_aux(p)):
            failing.update(_assert_cspace_matches_the_scans(r) - {"BudgetExceeded"})

    check()
    assert bool(failing) == broken
    # beyond the budget of complete distributivity both raise
    assert _assert_cspace_matches_the_scans(leq_aux(antichain(11))) == {"BudgetExceeded"}


def test_cspace_on_two_opens_among_many_upper_sets_stays_small():
    """The bottom relation of a bottom below a 13-antichain has interpolation,
    2 opens and 8,193 upper sets.  Complete distributivity is decided over
    pairs of opens, so neither the checker nor the batch builds a lane per
    pair of upper sets (67 million of them)."""
    n = 14
    p = Poset(((1 << n) - 1,) + tuple(1 << i for i in range(1, n)))
    r = bottom_aux(p)
    assert _assert_cspace_matches_the_scans(r) == set()
    fresh = bottom_aux(Poset(p.up))
    tracemalloc.start()
    try:
        check_cspace_theorems(fresh)
        flags = approx.batch_failures(fresh.poset, [fresh], (), ["cspace"])["cspace"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    # passes; both c-space readings, completely distributive, interpolation
    assert flags == bytes([0b101110])


def test_the_finding_laws_are_decided_alike_on_every_iso_class_up_to_five():
    """Over every relation on every iso class with n <= 5, the quantities
    that the cspace lanes compute against the scans of the opens: mu_R is a
    c-space in both readings, its opens are completely distributive, and a
    relation is approximating exactly when it is the order."""
    relations = pre = 0
    for n in range(1, 6):
        for p in enumerate_posets(n, up_to_iso=True):
            rels = list(enumerate_aux(p))
            flags = approx.batch_failures(p, rels, (), ["cspace"])["cspace"]
            relations += len(rels)
            for r, byte in zip(rels, flags):
                cls = classify(r)
                assert cls.approximating == (r.sec == p.down)
                if not cls.pre_approximating:
                    continue
                pre += 1
                mu = mu_topology(r)
                assert is_c_space(mu, "specialization")[0] and is_c_space(mu, "underlying")[0]
                assert opens_completely_distributive(mu)
                # bits 1-5: both c-space readings, complete distributivity
                # (decided where there is interpolation), approximating,
                # interpolation
                assert byte >> 1 == 0b11 | cls.has_int << 2 | cls.approximating << 3 | cls.has_int << 4
    assert (relations, pre) == (5780, 709)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.sampled_from([0.1, 0.25, 0.4]),
    st.integers(min_value=0, max_value=10**6),
)
@example(5, 1.0, 0)  # a chain: its bottom relation is pre-approximating, not the order
def test_the_finding_laws_hold_on_sampled_posets_up_to_eight(n, density, seed):
    """Above the exhaustive n <= 5, on sampled relations and the builtins:
    (a) a relation is approximating exactly when its sections are the
    down-sets (docs/finite-trivial.md), and every mu_R is (c) a c-space in
    the specialization reading, with (d) completely distributive opens."""
    p = random_poset(n, density, seed)
    sampled = [sample_aux(p, seed=seed + k, density=d) for k, d in enumerate((0.2, 0.5, 0.8))]
    for r in (*sampled, leq_aux(p), bottom_aux(p), way_below(p)):
        cls = classify(r)
        assert cls.approximating == (r.sec == p.down)
        if cls.pre_approximating:
            mu = mu_topology(r)
            assert is_c_space(mu, "specialization")[0]
            assert opens_completely_distributive(mu)


def test_only_the_directed_set_definitions_refuse_a_universe_beyond_the_directed_budget():
    """The mu laws, the chain of containments and the c-space laws are
    closed forms on lanes: alone and in the batch they decide a universe of
    any size.  The laws that read the directed subsets of ``reference``
    refuse one beyond ``MAX_DIRECTED_UNIVERSE``."""
    p = chain(MAX_DIRECTED_UNIVERSE + 1)
    sets = [ElementSet(m, p.n) for m in (0, 0b111 << 9, p.full_set().bits)]
    suites = ["chain", "cspace", "mu-topology", "partition"]
    for r, found in ((bottom_aux(p), 2), (leq_aux(p), 0)):
        cspace = check_cspace_theorems(r)
        reports = [check_mu_laws(r), check_mu_inaccessibility(r), cspace]
        reports += [check_partition(r, a) for a in sets]
        if classify(r).approximating:  # leq; bottom has no chain instance
            reports += [check_chain_of_containments(r, a) for a in sets]
        assert all(rep.ok for rep in reports)
        flags = approx.batch_failures(p, [r], [a.bits for a in sets], suites)
        assert [flags[s][0] & 1 for s in suites] == [0] * 4
        findings = [(v.law, v.witness) for v in cspace.findings]
        assert topology.cspace_entries(p, flags["cspace"][0]) == findings
        assert len(findings) == found
    for check in (check_mu_way_below_is_scott, check_continuity_characterization, check_sec5_theorems):
        with pytest.raises(BudgetExceeded, match="^universe of 21 exceeds 20$"):
            check(p)
