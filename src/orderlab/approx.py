"""Lower and upper approximation operators induced by an auxiliary relation.

For a relation R on poset P and A subset of P:

  lap(A) = {x in A : section(x) meets A}      (lower approximation)
  uap(A) = {x : section(x) inside down(A)}    (upper approximation)

plus the Galois adjoints these operators have on the lattices of lower
and upper sets, and executable checks for the laws they satisfy.

Each relation on at most ``TABLE_MAX_N`` elements tabulates both operators
on first use: one low-bit sweep fills down(A) and hit(A), the x whose section
meets A.  lap(A) = A & hit(A), and uap(A) = full & ~hit(full ^ down(A)) since
x misses uap(A) exactly when section(x) meets the complement of down(A).
Larger posets keep the loops: there a 2^n table costs more than a query.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .auxrel import (
    AuxRelation,
    _above_mask,
    aux_intersection,
    aux_subset,
    aux_union,
    classify,
    leq_aux,
)
from .bitset import ElementSet, iter_bits, mask_text
from .errors import NotLower, NotUpper, PosetMismatch
from .poset import (
    _check_universe,
    _down_mask,
    _is_filtered_mask,
    _is_lower_mask,
    _is_upper_mask,
    _upper_masks,
)
from .report import CheckReport


TABLE_MAX_N = 8


def _fill_tables(r: AuxRelation) -> tuple[list[int], list[int]]:
    p = r.poset
    full = (1 << p.n) - 1
    above = [_above_mask(r, x) for x in range(p.n)]
    hit = [0] * (full + 1)
    down = [0] * (full + 1)
    for a in range(1, full + 1):
        x, rest = (a & -a).bit_length() - 1, a & (a - 1)
        hit[a] = hit[rest] | above[x]
        down[a] = down[rest] | p.down[x]
    r._lap = [a & h for a, h in enumerate(hit)]
    r._uap = [full & ~hit[full ^ d] for d in down]
    return r._lap, r._uap


def _lap_mask(r: AuxRelation, bits: int) -> int:
    if r.poset.n <= TABLE_MAX_N:
        return (r._lap or _fill_tables(r)[0])[bits]
    out = 0
    for x in iter_bits(bits):
        if r.sec[x] & bits:
            out |= 1 << x
    return out


def _uap_mask(r: AuxRelation, bits: int) -> int:
    if r.poset.n <= TABLE_MAX_N:
        return (r._uap or _fill_tables(r)[1])[bits]
    p = r.poset
    down_a = _down_mask(p, bits)
    out = 0
    for x in range(p.n):
        if r.sec[x] & ~down_a == 0:
            out |= 1 << x
    return out


def lap(r: AuxRelation, a: ElementSet) -> ElementSet:
    """Members of a whose section meets a."""
    _check_universe(r.poset, a)
    return ElementSet(_lap_mask(r, a.bits), r.poset.n)


def uap(r: AuxRelation, a: ElementSet) -> ElementSet:
    """Elements whose section lies inside the down closure of a."""
    _check_universe(r.poset, a)
    return ElementSet(_uap_mask(r, a.bits), r.poset.n)


# -- adjoints ---------------------------------------------------------------


def _uap_lower_adjoint_mask(r: AuxRelation, bits: int) -> int:
    out = 0
    for x in iter_bits(bits):
        out |= r.sec[x]
    return out


def _lap_upper_adjoint_mask(r: AuxRelation, bits: int) -> int:
    full = (1 << r.poset.n) - 1
    return full & ~_uap_lower_adjoint_mask(r, bits ^ full)


def uap_lower_adjoint(r: AuxRelation, b: ElementSet) -> ElementSet:
    """Least lower set whose upper approximation contains b: its sections' union."""
    p = r.poset
    _check_universe(p, b)
    if not _is_lower_mask(p, b.bits):
        raise NotLower(f"{b!r} is not a lower set")
    return ElementSet(_uap_lower_adjoint_mask(r, b.bits), p.n)


def lap_upper_adjoint(r: AuxRelation, b: ElementSet) -> ElementSet:
    """Greatest upper set whose lower approximation stays inside b.

    These are the elements whose section above lies in b, so the ones in no
    section of an element outside b.
    """
    p = r.poset
    _check_universe(p, b)
    if not _is_upper_mask(p, b.bits):
        raise NotUpper(f"{b!r} is not an upper set")
    return ElementSet(_lap_upper_adjoint_mask(r, b.bits), p.n)


# -- report helpers ----------------------------------------------------------


def _subject(r: AuxRelation) -> str:
    if r._subject is None:
        r._subject = f"n={r.poset.n};rel={r.pairs()}"
    return r._subject


# -- partition ---------------------------------------------------------------


def check_partition(r: AuxRelation, a: ElementSet) -> CheckReport:
    """lap(A) and uap of the complement cover the space; on upper A they split it."""
    p = r.poset
    _check_universe(p, a)
    rep = CheckReport(_subject(r), f"set={a.text()}")
    full = (1 << p.n) - 1
    lap_a = _lap_mask(r, a.bits)
    uap_rest = _uap_mask(r, a.bits ^ full)
    rep.add(
        "partition.cover",
        lap_a | uap_rest == full,
        None
        if lap_a | uap_rest == full
        else {"lap": mask_text(lap_a), "uap-of-rest": mask_text(uap_rest)},
    )
    if _is_upper_mask(p, a.bits):
        rep.add(
            "partition.disjoint-on-upper",
            lap_a & uap_rest == 0,
            None if lap_a & uap_rest == 0 else {"overlap": mask_text(lap_a & uap_rest)},
        )
    else:
        rep.add("partition.disjoint-on-upper", True, note="vacuous: set not upper")
    return rep


# -- interpolation characterization -------------------------------------------


def _not_idempotent(op, r: AuxRelation, masks: list[int]) -> Iterator[str]:
    for m in masks:
        once = op(r, m)
        if op(r, once) != once:
            yield mask_text(m)


def int_statements(r: AuxRelation) -> tuple[tuple[bool, bool, bool, bool, bool], dict]:
    """The five equivalent statements of the interpolation characterization.

    (1) interpolation; (2) lap idempotent on upper sets; (3) lap a kernel
    operator on the upper-set lattice; (4) uap idempotent on lower sets;
    (5) uap a closure operator on the lower-set lattice.
    """
    p = r.poset
    uppers = list(_upper_masks(p.up, p.down))
    lowers = list(_upper_masks(p.down, p.up))
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
        and not any(
            u & ~v == 0 and _lap_mask(r, u) & ~_lap_mask(r, v)
            for u in uppers
            for v in uppers
        )
    )
    s5 = (
        s4
        and all(l & ~_uap_mask(r, l) == 0 for l in lowers)
        and not any(
            l & ~m == 0 and _uap_mask(r, l) & ~_uap_mask(r, m)
            for l in lowers
            for m in lowers
        )
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


def check_basic_laws(r: AuxRelation, sets: Iterable[ElementSet] | None = None) -> CheckReport:
    """Sandwich, invariance, upper/lower facts and the whole-space equivalence."""
    p = r.poset
    masks = [s.bits for s in sets] if sets is not None else range(1 << p.n)
    rep = CheckReport(_subject(r), f"{len(masks)} subsets")
    full = (1 << p.n) - 1
    r_leq = leq_aux(p)

    rep.law(
        "basic.sandwich",
        ({"set": mask_text(b)} for b in masks if _lap_mask(r, b) & ~b or b & ~_uap_mask(r, b)),
    )
    rep.law(
        "basic.uap-down-invariance",
        (
            {"set": mask_text(b)}
            for b in masks
            if _uap_mask(r, b) != _uap_mask(r, _down_mask(p, b))
        ),
    )
    rep.law(
        "basic.uap-lower",
        ({"set": mask_text(b)} for b in masks if not _is_lower_mask(p, _uap_mask(r, b))),
    )
    rep.law(
        "basic.lap-preserves-upper",
        (
            {"set": mask_text(b)}
            for b in masks
            if _is_upper_mask(p, b) and not _is_upper_mask(p, _lap_mask(r, b))
        ),
    )
    rep.law(
        "basic.leq-identities",
        (
            {"set": mask_text(b), "op": "lap" if _lap_mask(r_leq, b) != b else "uap"}
            for b in masks
            if _lap_mask(r_leq, b) != b or _uap_mask(r_leq, b) != _down_mask(p, b)
        ),
    )
    rep.law(
        "basic.membership-characterization",
        (
            {"set": mask_text(b), "element": x}
            for b in masks
            for la in [_lap_mask(r, b)]
            for x in range(p.n)
            if bool(la >> x & 1) != (bool(b >> x & 1) and bool(r.sec[x] & b))
        ),
    )
    rep.law(
        "basic.principal-upper-section",
        ({"element": a} for a in range(p.n) if _lap_mask(r, p.up[a]) != _above_mask(r, a)),
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
    return rep


def check_algebra(
    r1: AuxRelation,
    r2: AuxRelation,
    sets: Iterable[ElementSet] | None = None,
) -> CheckReport:
    """How the operators respond to union/intersection of relations."""
    if r1.poset != r2.poset:
        raise PosetMismatch("relations live on different posets")
    p = r1.poset
    masks = [s.bits for s in sets] if sets is not None else range(1 << p.n)
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

    union = aux_union(r1, r2)
    meet = aux_intersection(r1, r2)
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
            if _is_filtered_mask(p, b)
            and _lap_mask(meet, b) != _lap_mask(r1, b) & _lap_mask(r2, b)
        ),
    )

    lowers = list(_upper_masks(p.down, p.up))
    rep.law(
        "algebra.uap-preserves-lower-meets",
        (
            {"set1": mask_text(b1), "set2": mask_text(b2)}
            for b1 in lowers
            for b2 in lowers
            if _uap_mask(r1, b1 & b2) != _uap_mask(r1, b1) & _uap_mask(r1, b2)
        ),
    )
    uppers = list(_upper_masks(p.up, p.down))
    rep.law(
        "algebra.lap-preserves-upper-joins",
        (
            {"set1": mask_text(u1), "set2": mask_text(u2)}
            for u1 in uppers
            for u2 in uppers
            if _lap_mask(r1, u1 | u2) != _lap_mask(r1, u1) | _lap_mask(r1, u2)
        ),
    )
    return rep


def check_adjunction(r: AuxRelation) -> CheckReport:
    """Both Galois laws, quantified over the full lattices."""
    p = r.poset
    rep = CheckReport(_subject(r), "all lower and upper sets")
    lowers = list(_upper_masks(p.down, p.up))
    uppers = list(_upper_masks(p.up, p.down))
    g = [(b, _uap_lower_adjoint_mask(r, b)) for b in lowers]
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
