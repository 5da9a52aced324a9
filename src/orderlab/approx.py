"""Lower and upper approximation operators induced by an auxiliary relation.

For a relation R on poset P and A subset of P:

  lap(A) = {x in A : section(x) meets A}      (lower approximation)
  uap(A) = {x : section(x) inside down(A)}    (upper approximation)

plus the Galois adjoints these operators have on the lattices of lower
and upper sets, and executable checks for the laws they satisfy.

One formula serves every size: hit(A), the x whose section meets A, is
the union of the sections above the members of A (``AuxRelation.above``,
the transposed relation); lap(A) = A & hit(A), and uap(A) =
full & ~hit(full & ~down(A)) since x misses uap(A) exactly when section(x)
meets the complement of down(A).  Each relation on at most ``TABLE_MAX_N``
elements tabulates both operators on first use, hit by
``bitset.row_unions`` and down(A) from the poset's table
(``poset._down_table``, the same union over ``p.down``) that serves all
its relations; larger posets apply the formula per mask, as there a 2^n
table costs more than a query.  Lower and upper sets,
filtered sets and the lower adjoint use the row-level primitives of
``poset`` on ``p.down``, ``p.up`` and the sections.

Work is done at the level it depends on.  The per-subset checks take one
set or a family of sets and scan only those, so a campaign decides each
relation's subsets in one call; a one-set report is the family report on
that set.  ``check_algebra`` reads an operand's tables for a union or
intersection equal to it.  The down table, the filtered-set table and the
upper- and lower-set lists the lattice checks scan come from the one-entry
per-poset memo of ``poset``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .auxrel import AuxRelation, aux_intersection, aux_subset, aux_union, classify, leq_aux
from .bitset import ElementSet, iter_bits, mask_text, row_unions
from .errors import NotLower, NotUpper, PosetMismatch
from .poset import (
    Poset,
    _check_universe,
    _closed,
    _directed,
    _down_table,
    _join,
    _lower_list,
    _per_poset,
    _upper_list,
)
from .report import CheckReport, LawVerdict


TABLE_MAX_N = 8


def _fill_tables(r: AuxRelation) -> tuple[list[int], list[int]]:
    p = r.poset
    full = (1 << p.n) - 1
    hit = row_unions(r.above)
    r._lap = [a & h for a, h in enumerate(hit)]
    r._uap = [full & ~hit[full ^ d] for d in _down_table(p)]
    return r._lap, r._uap


def _lap_mask(r: AuxRelation, bits: int) -> int:
    if r.poset.n <= TABLE_MAX_N:
        return (r._lap or _fill_tables(r)[0])[bits]
    return bits & _join(r.above, bits)


def _uap_mask(r: AuxRelation, bits: int) -> int:
    if r.poset.n <= TABLE_MAX_N:
        return (r._uap or _fill_tables(r)[1])[bits]
    full = (1 << r.poset.n) - 1
    return full & ~_join(r.above, full & ~_join(r.poset.down, bits))


def lap(r: AuxRelation, a: ElementSet) -> ElementSet:
    """Members of a whose section meets a."""
    _check_universe(r.poset, a)
    return ElementSet(_lap_mask(r, a.bits), r.poset.n)


def uap(r: AuxRelation, a: ElementSet) -> ElementSet:
    """Elements whose section lies inside the down closure of a."""
    _check_universe(r.poset, a)
    return ElementSet(_uap_mask(r, a.bits), r.poset.n)


# -- adjoints ---------------------------------------------------------------


def _lap_upper_adjoint_mask(r: AuxRelation, bits: int) -> int:
    full = (1 << r.poset.n) - 1
    return full & ~_join(r.sec, bits ^ full)


def uap_lower_adjoint(r: AuxRelation, b: ElementSet) -> ElementSet:
    """Least lower set whose upper approximation contains b: its sections' union."""
    p = r.poset
    _check_universe(p, b)
    if not _closed(p.down, b.bits):
        raise NotLower(f"{b!r} is not a lower set")
    return ElementSet(_join(r.sec, b.bits), p.n)


def lap_upper_adjoint(r: AuxRelation, b: ElementSet) -> ElementSet:
    """Greatest upper set whose lower approximation stays inside b.

    These are the elements whose section above lies in b, so the ones in no
    section of an element outside b.
    """
    p = r.poset
    _check_universe(p, b)
    if not _closed(p.up, b.bits):
        raise NotUpper(f"{b!r} is not an upper set")
    return ElementSet(_lap_upper_adjoint_mask(r, b.bits), p.n)


# -- report helpers ----------------------------------------------------------


def _subject(r: AuxRelation) -> str:
    if r._subject is None:
        r._subject = f"n={r.poset.n};rel={r.pairs()}"
    return r._subject


def _family_masks(
    p: Poset, a: ElementSet | None, sets: Iterable[ElementSet] | None
) -> list[int] | range:
    """The masks a per-subset check quantifies over: ``a``, else each of
    ``sets`` in order, else every subset of p."""
    if a is None and sets is None:
        return range(1 << p.n)
    family = [a] if a is not None else list(sets)
    mismatched = next((s for s in family if s.n != p.n), None)
    if mismatched is not None:
        _check_universe(p, mismatched)
    return [s.bits for s in family]


def _family_scope(masks: list[int] | range) -> str:
    """A report's scope: the set of a one-set family, else the family's size."""
    return f"set={mask_text(masks[0])}" if len(masks) == 1 else f"{len(masks)} subsets"


# -- partition ---------------------------------------------------------------


def check_partition(
    r: AuxRelation, a: ElementSet | None = None, sets: Iterable[ElementSet] | None = None
) -> CheckReport:
    """lap(A) and uap of the complement cover the space; on upper A they split it.

    Checks the set ``a``, else each of ``sets``, else every subset; a law's
    witness is that of the first failing set in the order of ``sets``.
    """
    p = r.poset
    masks = _family_masks(p, a, sets)
    rep = CheckReport(_subject(r), _family_scope(masks))
    full = (1 << p.n) - 1
    cover = disjoint = None
    for b in masks:
        lap_a = _lap_mask(r, b)
        uap_rest = _uap_mask(r, b ^ full)
        if cover is None and lap_a | uap_rest != full:
            cover = {"lap": mask_text(lap_a), "uap-of-rest": mask_text(uap_rest)}
        if disjoint is None and lap_a & uap_rest and _closed(p.up, b):
            disjoint = {"overlap": mask_text(lap_a & uap_rest)}
    rep.add("partition.cover", cover is None, cover)
    rep.add(
        "partition.disjoint-on-upper",
        disjoint is None,
        disjoint,
        note="" if any(_closed(p.up, b) for b in masks) else "vacuous: set not upper",
    )
    return rep


# -- interpolation characterization -------------------------------------------


def _not_idempotent(op, r: AuxRelation, masks: list[int]) -> Iterator[str]:
    for m in masks:
        once = op(r, m)
        if op(r, once) != once:
            yield mask_text(m)


def _monotone(op, r: AuxRelation, sets: tuple[int, ...], rows: tuple[int, ...]) -> bool:
    """Whether op is monotone on ``sets``, the sets closed under ``rows``.

    Their lattice is finite and distributive, so op is monotone exactly when
    it is on each covering pair s < s | {x}: x is outside s and its row
    leaves s only at x.
    """
    full = (1 << r.poset.n) - 1
    for s in sets:
        image = op(r, s)
        for x in iter_bits(full & ~s):
            if rows[x] & ~s == 1 << x and image & ~op(r, s | 1 << x):
                return False
    return True


def int_statements(r: AuxRelation) -> tuple[tuple[bool, bool, bool, bool, bool], dict]:
    """The five equivalent statements of the interpolation characterization.

    (1) interpolation; (2) lap idempotent on upper sets; (3) lap a kernel
    operator on the upper-set lattice; (4) uap idempotent on lower sets;
    (5) uap a closure operator on the lower-set lattice.
    """
    p = r.poset
    uppers, lowers = _upper_list(p), _lower_list(p)
    lap_bad = next(_not_idempotent(_lap_mask, r, uppers), None)
    uap_bad = next(_not_idempotent(_uap_mask, r, lowers), None)
    s2, s4 = lap_bad is None, uap_bad is None
    witnesses = {
        k: v
        for k, v in (("lap-idempotent", lap_bad), ("uap-idempotent", uap_bad))
        if v is not None
    }
    s3 = (
        s2
        and all(_lap_mask(r, u) & ~u == 0 for u in uppers)
        and _monotone(_lap_mask, r, uppers, p.up)
    )
    s5 = (
        s4
        and all(l & ~_uap_mask(r, l) == 0 for l in lowers)
        and _monotone(_uap_mask, r, lowers, p.down)
    )
    return (classify(r).has_int, s2, s3, s4, s5), witnesses


def check_int_equivalences(r: AuxRelation) -> CheckReport:
    """All five statements must agree on every relation."""
    stmts, witnesses = int_statements(r)
    rep = CheckReport(_subject(r), "all upper and lower sets")
    names = (
        "interpolation",
        "lap-idempotent-on-upper",
        "lap-kernel-on-upper-lattice",
        "uap-idempotent-on-lower",
        "uap-closure-on-lower-lattice",
    )
    for name, value in zip(names, stmts):
        rep.add(f"int-char.{name}", value, informational=True)
    agree = len(set(stmts)) == 1
    rep.add(
        "int-char.agreement",
        agree,
        None if agree else {"statements": list(stmts), **witnesses},
    )
    return rep


# -- operator algebra ----------------------------------------------------------


_SUBSET_LAWS = (
    "basic.sandwich",
    "basic.uap-down-invariance",
    "basic.uap-lower",
    "basic.lap-preserves-upper",
    "basic.leq-identities",
    "basic.membership-characterization",
)


def check_basic_laws(r: AuxRelation, sets: Iterable[ElementSet] | None = None) -> CheckReport:
    """Sandwich, invariance, upper/lower facts and the whole-space equivalence.

    Checks each of ``sets``, else every subset; a law's witness is that of
    the first failing set in the order of ``sets``.  Lower and upper sets are
    recognised through down closures: b is lower when down(b) stays in b,
    and upper when down of its complement misses b.
    """
    p = r.poset
    masks = _family_masks(p, None, sets)
    rep = CheckReport(_subject(r), f"{len(masks)} subsets")
    down = _down_table(p).__getitem__ if p.n <= TABLE_MAX_N else lambda b: _join(p.down, b)
    full = (1 << p.n) - 1
    r_leq = leq_aux(p)
    witnesses: dict[str, dict] = {}

    def fail(law: str, b: int, **extra) -> None:
        if law not in witnesses:
            witnesses[law] = {"set": mask_text(b), **extra}

    for b in masks:
        lap_b, uap_b, down_b = _lap_mask(r, b), _uap_mask(r, b), down(b)
        if lap_b & ~b or b & ~uap_b:
            fail("basic.sandwich", b)
        if uap_b != _uap_mask(r, down_b):
            fail("basic.uap-down-invariance", b)
        if down(uap_b) & ~uap_b:
            fail("basic.uap-lower", b)
        if not down(full ^ b) & b and down(full ^ lap_b) & lap_b:
            fail("basic.lap-preserves-upper", b)
        leq_lap = _lap_mask(r_leq, b)
        if leq_lap != b or _uap_mask(r_leq, b) != down_b:
            fail("basic.leq-identities", b, op="lap" if leq_lap != b else "uap")
        defined = 0
        for x in iter_bits(b):
            if r.sec[x] & b:
                defined |= 1 << x
        wrong = lap_b ^ defined
        if wrong:
            x = (wrong & -wrong).bit_length() - 1
            fail("basic.membership-characterization", b, element=x)
    for law in _SUBSET_LAWS:
        rep.add(law, law not in witnesses, witnesses.get(law))
    rep.verdicts.extend(_relation_laws(r))
    return rep


def _relation_laws(r: AuxRelation) -> list[LawVerdict]:
    """The verdicts of ``check_basic_laws`` that no subset enters."""
    p = r.poset
    full = (1 << p.n) - 1
    rep = CheckReport(_subject(r), "relation")
    rep.law(
        "basic.principal-upper-section",
        ({"element": a} for a in range(p.n) if _lap_mask(r, p.up[a]) != r.above[a]),
    )
    sections_nonempty = all(r.sec[x] for x in range(p.n))
    three_way = (
        sections_nonempty
        == (_uap_mask(r, 0) == 0)
        == (_lap_mask(r, full) == full)
    )
    rep.add(
        "basic.whole-space-equivalence",
        three_way,
        None
        if three_way
        else {
            "sections-nonempty": sections_nonempty,
            "uap-empty": mask_text(_uap_mask(r, 0)),
            "lap-full": mask_text(_lap_mask(r, full)),
        },
    )
    rep.add("basic.lap-of-empty", _lap_mask(r, 0) == 0)
    rep.add("basic.uap-of-full", _uap_mask(r, full) == full)
    return rep.verdicts


def _operand_or(r: AuxRelation, r1: AuxRelation, r2: AuxRelation) -> AuxRelation:
    """The operand with r's sections, whose tables are filled once, else r."""
    return r1 if r1.sec == r.sec else r2 if r2.sec == r.sec else r


@_per_poset
def _filtered_table(p: Poset) -> tuple[bool, ...]:
    """Whether each mask of p is filtered, indexed by mask."""
    return tuple(_directed(p.down, b) for b in range(1 << p.n))


def check_algebra(r1: AuxRelation, r2: AuxRelation) -> CheckReport:
    """How the operators respond to union/intersection of relations, on every subset."""
    if r1.poset != r2.poset:
        raise PosetMismatch("relations live on different posets")
    p = r1.poset
    masks = range(1 << p.n)
    rep = CheckReport(
        f"n={p.n};rel1={r1.pairs()};rel2={r2.pairs()}", f"{len(masks)} subsets"
    )

    if aux_subset(r1, r2):
        rep.law(
            "algebra.monotone-in-relation",
            (
                {"set": mask_text(b)}
                for b in masks
                if _lap_mask(r1, b) & ~_lap_mask(r2, b)
                or _uap_mask(r2, b) & ~_uap_mask(r1, b)
            ),
        )
    else:
        rep.add(
            "algebra.monotone-in-relation", True, note="vacuous: rel1 not below rel2"
        )

    # A result equal to an operand reads that operand's tables: with the
    # order as r2, the union is r2 and the intersection r1.
    union = _operand_or(aux_union(r1, r2), r1, r2)
    meet = _operand_or(aux_intersection(r1, r2), r1, r2)
    filtered = (
        _filtered_table(p).__getitem__
        if p.n <= TABLE_MAX_N
        else lambda b: _directed(p.down, b)
    )
    rep.law(
        "algebra.lap-of-union",
        (
            {"set": mask_text(b)}
            for b in masks
            if _lap_mask(union, b) != _lap_mask(r1, b) | _lap_mask(r2, b)
        ),
    )
    rep.law(
        "algebra.uap-of-union",
        (
            {"set": mask_text(b)}
            for b in masks
            if _uap_mask(union, b) != _uap_mask(r1, b) & _uap_mask(r2, b)
        ),
    )
    rep.law(
        "algebra.lap-of-intersection-on-filtered",
        (
            {"set": mask_text(b)}
            for b in masks
            if filtered(b)
            and _lap_mask(meet, b) != _lap_mask(r1, b) & _lap_mask(r2, b)
        ),
    )

    # Both laws are symmetric and hold on the diagonal, so the first failing
    # ordered pair has i < j and the scans visit only those.
    lowers = _lower_list(p)
    rep.law(
        "algebra.uap-preserves-lower-meets",
        (
            {"set1": mask_text(b1), "set2": mask_text(b2)}
            for i, b1 in enumerate(lowers)
            for b2 in lowers[i + 1 :]
            if _uap_mask(r1, b1 & b2) != _uap_mask(r1, b1) & _uap_mask(r1, b2)
        ),
    )
    uppers = _upper_list(p)
    rep.law(
        "algebra.lap-preserves-upper-joins",
        (
            {"set1": mask_text(u1), "set2": mask_text(u2)}
            for i, u1 in enumerate(uppers)
            for u2 in uppers[i + 1 :]
            if _lap_mask(r1, u1 | u2) != _lap_mask(r1, u1) | _lap_mask(r1, u2)
        ),
    )
    return rep


def check_adjunction(r: AuxRelation) -> CheckReport:
    """Both Galois laws, quantified over the full lattices."""
    p = r.poset
    rep = CheckReport(_subject(r), "all lower and upper sets")
    lowers, uppers = _lower_list(p), _upper_list(p)
    g = [(b, _join(r.sec, b)) for b in lowers]
    h = [(b, _lap_upper_adjoint_mask(r, b)) for b in uppers]
    uap_of = [(a, _uap_mask(r, a)) for a in lowers]
    lap_of = [(a, _lap_mask(r, a)) for a in uppers]
    rep.law(
        "adjoint.lower-galois",
        (
            {"b": mask_text(b), "a": mask_text(a)}
            for b, g_b in g
            for a, uap_a in uap_of
            if (b & ~uap_a == 0) != (g_b & ~a == 0)
        ),
    )
    rep.law(
        "adjoint.upper-galois",
        (
            {"b": mask_text(b), "a": mask_text(a)}
            for b, h_b in h
            for a, lap_a in lap_of
            if (lap_a & ~b == 0) != (a & ~h_b == 0)
        ),
    )
    return rep
