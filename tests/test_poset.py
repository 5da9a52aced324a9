"""Finite posets: validation, order primitives, generators, enumeration, I/O."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orderlab import poset as poset_module
from orderlab.auxrel import leq_aux
from orderlab.bitset import ElementSet, iter_bits
from orderlab.errors import AxiomViolation, BadParameters, IndexOutOfRange
from orderlab.poset import (
    _join,
    _lower_list,
    _upper_list,
    antichain,
    boolean,
    bottom,
    canonical_form,
    chain,
    diamond,
    down_closure,
    dump_poset,
    enumerate_directed_subsets,
    enumerate_lower_sets,
    enumerate_posets,
    enumerate_upper_sets,
    export_dot,
    from_rows,
    hasse,
    infimum,
    is_directed,
    is_filtered,
    is_lower,
    is_upper,
    load_poset,
    poset_from_json,
    poset_to_json,
    random_poset,
    supremum,
    top,
    up_closure,
    validate_poset,
)

DIAG3 = [(i, i) for i in range(3)]


# -- validation ------------------------------------------------------------


def test_validate_full_order_accepts_three_chain():
    p = validate_poset(3, DIAG3 + [(0, 1), (1, 2), (0, 2)], "full-order")
    assert p.up == chain(3).up


def test_validate_rejects_two_cycle_as_antisymmetry():
    with pytest.raises(AxiomViolation) as err:
        validate_poset(2, [(0, 0), (1, 1), (0, 1), (1, 0)], "full-order")
    assert err.value.kind == "antisymmetry"
    assert err.value.witness == (0, 1)


def test_validate_rejects_missing_diagonal_as_reflexivity():
    with pytest.raises(AxiomViolation) as err:
        validate_poset(2, [(0, 1), (1, 0)], "full-order")
    assert err.value.kind == "reflexivity"
    assert err.value.witness == (0, 0)


def test_validate_rejects_missing_composite_as_transitivity():
    with pytest.raises(AxiomViolation) as err:
        validate_poset(3, DIAG3 + [(0, 1), (1, 2)], "full-order")
    assert err.value.kind == "transitivity"
    assert err.value.witness == (0, 2)


def test_covers_mode_takes_reflexive_transitive_closure():
    p = validate_poset(3, [(0, 1), (1, 2)], "covers")
    assert p.up == chain(3).up
    assert p.leq(0, 2)


def test_validate_rejects_out_of_range_index():
    with pytest.raises(IndexOutOfRange):
        validate_poset(2, [(0, 5)], "covers")


def test_validate_bounds():
    with pytest.raises(BadParameters):
        validate_poset(0, [], "covers")
    with pytest.raises(BadParameters):
        validate_poset(25, [], "covers")


# -- closures, directedness, bounds ----------------------------------------


def test_up_closure_fixtures(c3, d4):
    assert up_closure(c3, ElementSet.single(3, 0)) == ElementSet.full(3)
    assert up_closure(d4, ElementSet.single(4, 1)).indices() == (1, 3)
    assert up_closure(c3, ElementSet.empty(3)) == ElementSet.empty(3)


def test_down_closure_fixtures(c3, d4):
    assert down_closure(c3, ElementSet.single(3, 2)) == ElementSet.full(3)
    assert down_closure(d4, ElementSet.single(4, 1)).indices() == (0, 1)


def test_is_directed(c3, d4):
    assert is_directed(c3, ElementSet.from_indices(3, [0, 1]))
    assert not is_directed(d4, ElementSet.from_indices(4, [1, 2]))
    assert not is_directed(c3, ElementSet.empty(3))


def test_is_filtered(d4):
    assert is_filtered(d4, ElementSet.from_indices(4, [1, 3]))
    assert not is_filtered(d4, ElementSet.from_indices(4, [1, 2]))
    assert not is_filtered(d4, ElementSet.empty(4))


def test_supremum_fixtures(c3, d4, a2):
    assert supremum(d4, ElementSet.from_indices(4, [1, 2])) == 3
    assert supremum(c3, ElementSet.single(3, 1)) == 1
    assert supremum(a2, ElementSet.full(2)) is None
    assert supremum(c3, ElementSet.empty(3)) is None


def test_infimum_fixtures(d4, a2):
    assert infimum(d4, ElementSet.from_indices(4, [1, 2])) == 0
    assert infimum(a2, ElementSet.full(2)) is None


def test_bottom_and_top(c3, a2):
    assert bottom(c3) == 0 and top(c3) == 2
    assert bottom(a2) is None and top(a2) is None


# -- enumeration of subsets -------------------------------------------------


def test_upper_sets_of_three_chain_are_exactly_the_tails(c3):
    got = [s.bits for s in enumerate_upper_sets(c3)]
    assert got == [0b000, 0b100, 0b110, 0b111]


def test_upper_set_counts(c3, d4, a2):
    assert sum(1 for _ in enumerate_upper_sets(d4)) == 6
    assert sum(1 for _ in enumerate_upper_sets(a2)) == 4


def test_upper_and_lower_counts_agree_by_complement(d4):
    uppers = list(enumerate_upper_sets(d4))
    lowers = list(enumerate_lower_sets(d4))
    assert len(uppers) == len(lowers)
    assert {u.complement().bits for u in uppers} == {s.bits for s in lowers}


def test_per_poset_lists_match_the_enumerators_while_equal_posets_alternate():
    for n in range(1, 5):
        for p in enumerate_posets(n):
            q = from_rows(p.up, labels=[f"x{i}" for i in range(n)])
            uppers = tuple(s.bits for s in enumerate_upper_sets(p))
            lowers = tuple(s.bits for s in enumerate_lower_sets(p))
            for poset in (p, q, p, q):
                got = _upper_list(poset)
                assert got == uppers and _lower_list(poset) == lowers
                assert leq_aux(poset).poset is poset
                assert _upper_list(poset) is got
                # one entry: nothing of the previous poset is kept
                assert poset_module._memo_poset is poset


def test_enumerate_directed_subsets(d4):
    ds = list(enumerate_directed_subsets(d4))
    assert all(is_directed(d4, s) for s in ds)
    assert len(ds) == len({s.bits for s in ds})
    bits = [s.bits for s in ds]
    assert bits == sorted(bits)
    assert ElementSet.from_indices(4, [1, 2]).bits not in {s.bits for s in ds}


def test_every_directed_subset_contains_its_supremum():
    for p in enumerate_posets(3):
        for s in enumerate_directed_subsets(p):
            sup = supremum(p, s)
            assert sup is not None and sup in s


# -- generators --------------------------------------------------------------


def test_generators_shapes():
    assert chain(3).n == 3 and chain(3).leq(0, 2)
    assert antichain(3).up == (1, 2, 4)
    assert diamond().n == 4
    assert boolean(2).n == 4


def test_boolean_two_is_the_diamond_up_to_relabeling():
    assert canonical_form(boolean(2)) == canonical_form(diamond())


def test_random_poset_is_seed_deterministic_and_valid():
    a = random_poset(5, 0.3, 7)
    b = random_poset(5, 0.3, 7)
    assert a.up == b.up
    validate_poset(a.n, [(i, j) for i in range(a.n) for j in range(a.n) if a.leq(i, j)])


def test_generator_bounds():
    with pytest.raises(BadParameters):
        chain(0)
    with pytest.raises(BadParameters):
        boolean(5)
    with pytest.raises(BadParameters):
        random_poset(3, 1.5, 0)


# -- enumeration of posets ----------------------------------------------------


def test_labeled_enumeration_counts_small():
    assert sum(1 for _ in enumerate_posets(1)) == 1
    assert sum(1 for _ in enumerate_posets(2)) == 3
    assert sum(1 for _ in enumerate_posets(3)) == 19


def test_enumeration_is_duplicate_free_and_validated():
    seen = set()
    for p in enumerate_posets(3):
        assert p.up not in seen
        seen.add(p.up)
        validate_poset(
            3, [(i, j) for i in range(3) for j in range(3) if p.leq(i, j)]
        )


def test_iso_enumeration_counts():
    assert [sum(1 for _ in enumerate_posets(n, up_to_iso=True)) for n in (1, 2, 3, 4)] == [1, 2, 5, 16]


def test_iso_representatives_are_canonical():
    for p in enumerate_posets(3, up_to_iso=True):
        assert canonical_form(p) == p.up


# -- hasse and rendering -------------------------------------------------------


def test_hasse_covers(c3, d4):
    assert hasse(c3) == [(0, 1), (1, 2)]
    assert len(hasse(d4)) == 4
    assert hasse(antichain(3)) == []


def test_export_dot_is_deterministic_and_bottom_up(c3):
    text = export_dot(c3)
    assert text == export_dot(c3)
    assert text.startswith("digraph")
    assert "rankdir=BT" in text
    assert "0 -> 1" in text and "1 -> 2" in text and "0 -> 2" not in text


def test_export_dot_shading(c3):
    shaded = export_dot(c3, shade=ElementSet.single(3, 1))
    assert shaded != export_dot(c3)


# -- JSON I/O -------------------------------------------------------------------


def test_json_round_trip(d4):
    doc = poset_to_json(d4)
    assert doc["n"] == 4
    assert poset_from_json(doc).up == d4.up


def test_file_round_trip(tmp_path, d4):
    path = tmp_path / "d4.json"
    dump_poset(d4, str(path))
    assert load_poset(str(path)).up == d4.up


def test_labels_survive_round_trip():
    p = validate_poset(2, [(0, 1)], "covers", labels=["lo", "hi"])
    doc = poset_to_json(p)
    q = poset_from_json(doc)
    assert q.labels == ("lo", "hi")
    assert q.label(1) == "hi"


# -- algebraic properties --------------------------------------------------------


@st.composite
def poset_and_sets(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    p = random_poset(n, 0.4, seed)
    s = ElementSet(draw(st.integers(min_value=0, max_value=(1 << n) - 1)), n)
    t = ElementSet(draw(st.integers(min_value=0, max_value=(1 << n) - 1)), n)
    return p, s, t


@given(poset_and_sets())
def test_up_closure_laws(pst):
    p, s, t = pst
    up_s = up_closure(p, s)
    assert s <= up_s
    assert up_closure(p, up_s) == up_s
    assert up_closure(p, s | t) == up_s | up_closure(p, t)


@given(poset_and_sets())
def test_upper_iff_complement_lower(pst):
    p, s, _ = pst
    assert is_upper(p, s) == is_lower(p, s.complement())


@given(poset_and_sets())
def test_supremum_is_least_upper_bound(pst):
    p, s, _ = pst
    sup = supremum(p, s)
    if sup is None:
        return
    assert all(p.leq(x, sup) for x in s)
    for ub in range(p.n):
        if all(p.leq(x, ub) for x in s):
            assert p.leq(sup, ub)


def test_from_rows_rejects_invalid_rows():
    with pytest.raises(AxiomViolation):
        from_rows((0b11, 0b11))


def _axiom_walk(rows, n):
    """The order axioms with antisymmetry decided by walking every set bit
    of every row, as ``_axiom_check`` did before it read the transpose."""
    for i in range(n):
        if not rows[i] >> i & 1:
            raise AxiomViolation("reflexivity", (i, i))
    for i in range(n):
        for j in iter_bits(rows[i]):
            if j != i and rows[j] >> i & 1:
                raise AxiomViolation("antisymmetry", (min(i, j), max(i, j)))
    for i in range(n):
        missing = _join(rows, rows[i]) & ~rows[i]
        if missing:
            raise AxiomViolation("transitivity", (i, (missing & -missing).bit_length() - 1))


def _axioms(check, rows):
    try:
        check(rows)
    except AxiomViolation as exc:
        return exc.kind, exc.witness
    return None


def test_axiom_check_on_the_transpose_matches_the_row_walk_on_corrupted_rows():
    """Every one- and two-bit flip of the rows of every labeled poset with
    n <= 5 (two-bit flips up to n = 4): the same verdict, kind and pair."""
    kinds = set()
    for n in range(1, 6):
        cells = [(i, j) for i in range(n) for j in range(n)]
        flips = [(c,) for c in cells]
        if n <= 4:
            flips += [(c, d) for k, c in enumerate(cells) for d in cells[k + 1 :]]
        for p in enumerate_posets(n):
            for flip in flips:
                rows = list(p.up)
                for i, j in flip:
                    rows[i] ^= 1 << j
                expected = _axioms(lambda r: _axiom_walk(r, n), rows)
                assert _axioms(from_rows, rows) == expected, (rows, flip)
                kinds.add(expected and expected[0])
    assert kinds == {None, "reflexivity", "antisymmetry", "transitivity"}
