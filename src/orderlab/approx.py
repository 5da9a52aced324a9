"""Lower and upper approximation operators induced by an auxiliary relation.

For a relation R on poset P and A subset of P:

  lap(A) = {x in A : section(x) meets A}      (lower approximation)
  uap(A) = {x : section(x) inside down(A)}    (upper approximation)

plus the Galois adjoints these operators have on the lattices of lower
and upper sets, and executable checks for the laws they satisfy.
"""

from __future__ import annotations

from typing import Iterable

from .auxrel import (
    AuxRelation,
    aux_intersection,
    aux_subset,
    aux_union,
    classify,
    leq_aux,
    section_above,
)
from .bitset import ElementSet, iter_bits
from .errors import NotLower, NotUpper, PosetMismatch
from .poset import (
    _check_universe,
    _down_mask,
    _is_filtered_mask,
    _is_lower_mask,
    _is_upper_mask,
    enumerate_lower_sets,
    enumerate_upper_sets,
)
from .report import CheckReport


def _lap_mask(r: AuxRelation, bits: int) -> int:
    out = 0
    for x in iter_bits(bits):
        if r.sec[x] & bits:
            out |= 1 << x
    return out


def _uap_mask(r: AuxRelation, bits: int) -> int:
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


def uap_lower_adjoint(r: AuxRelation, b: ElementSet) -> ElementSet:
    """Least lower set whose upper approximation contains b: its sections' union."""
    p = r.poset
    _check_universe(p, b)
    if not _is_lower_mask(p, b.bits):
        raise NotLower(f"{b!r} is not a lower set")
    out = 0
    for x in iter_bits(b.bits):
        out |= r.sec[x]
    return ElementSet(out, p.n)


def lap_upper_adjoint(r: AuxRelation, b: ElementSet) -> ElementSet:
    """Greatest upper set whose lower approximation stays inside b.

    These are the elements whose section above lies in b, so the ones in no
    section of an element outside b.
    """
    p = r.poset
    _check_universe(p, b)
    if not _is_upper_mask(p, b.bits):
        raise NotUpper(f"{b!r} is not an upper set")
    full = (1 << p.n) - 1
    outside = 0
    for y in iter_bits(b.bits ^ full):
        outside |= r.sec[y]
    return ElementSet(full & ~outside, p.n)


# -- report helpers ----------------------------------------------------------


def _subject(r: AuxRelation) -> str:
    return f"n={r.poset.n};rel={r.pairs()}"


def _set_text(p, bits: int) -> str:
    return ",".join(str(i) for i in iter_bits(bits))


def _default_sets(p) -> list[int]:
    return list(range(1 << p.n))


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
        else {"lap": _set_text(p, lap_a), "uap-of-rest": _set_text(p, uap_rest)},
    )
    if _is_upper_mask(p, a.bits):
        rep.add(
            "partition.disjoint-on-upper",
            lap_a & uap_rest == 0,
            None
            if lap_a & uap_rest == 0
            else {"overlap": _set_text(p, lap_a & uap_rest)},
        )
    else:
        rep.add("partition.disjoint-on-upper", True, note="vacuous: set not upper")
    return rep


# -- interpolation characterization -------------------------------------------


def int_statements(r: AuxRelation) -> tuple[tuple[bool, bool, bool, bool, bool], dict]:
    """The five equivalent statements of the interpolation characterization.

    (1) interpolation; (2) lap idempotent on upper sets; (3) lap a kernel
    operator on the upper-set lattice; (4) uap idempotent on lower sets;
    (5) uap a closure operator on the lower-set lattice.
    """
    p = r.poset
    witnesses: dict = {}
    s1 = classify(r).has_int

    uppers = [u.bits for u in enumerate_upper_sets(p)]
    lowers = [l.bits for l in enumerate_lower_sets(p)]

    s2 = True
    for u in uppers:
        one = _lap_mask(r, u)
        if _lap_mask(r, one) != one:
            s2 = False
            witnesses["lap-idempotent"] = _set_text(p, u)
            break

    deflationary = all(_lap_mask(r, u) & ~u == 0 for u in uppers)
    monotone_l = True
    for u in uppers:
        for v in uppers:
            if u & ~v == 0 and _lap_mask(r, u) & ~_lap_mask(r, v):
                monotone_l = False
                break
        if not monotone_l:
            break
    s3 = deflationary and monotone_l and s2

    s4 = True
    for l in lowers:
        one = _uap_mask(r, l)
        if _uap_mask(r, one) != one:
            s4 = False
            witnesses["uap-idempotent"] = _set_text(p, l)
            break

    inflationary = all(l & ~_uap_mask(r, l) == 0 for l in lowers)
    monotone_u = True
    for l in lowers:
        for m in lowers:
            if l & ~m == 0 and _uap_mask(r, l) & ~_uap_mask(r, m):
                monotone_u = False
                break
        if not monotone_u:
            break
    s5 = inflationary and monotone_u and s4

    return (s1, s2, s3, s4, s5), witnesses


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
    masks = (
        [s.bits for s in sets] if sets is not None else _default_sets(p)
    )
    rep = CheckReport(_subject(r), f"{len(masks)} subsets")
    full = (1 << p.n) - 1
    r_leq = leq_aux(p)

    def law(name, pred_and_witness):
        ok, witness = True, None
        for bits in masks:
            failed = pred_and_witness(bits)
            if failed is not None:
                ok, witness = False, failed
                break
        rep.add(name, ok, witness)

    def sandwich(bits):
        la, ua = _lap_mask(r, bits), _uap_mask(r, bits)
        if la & ~bits or bits & ~ua:
            return {"set": _set_text(p, bits)}
        return None

    law("basic.sandwich", sandwich)

    def down_invariance(bits):
        if _uap_mask(r, bits) != _uap_mask(r, _down_mask(p, bits)):
            return {"set": _set_text(p, bits)}
        return None

    law("basic.uap-down-invariance", down_invariance)

    def uap_lower(bits):
        if not _is_lower_mask(p, _uap_mask(r, bits)):
            return {"set": _set_text(p, bits)}
        return None

    law("basic.uap-lower", uap_lower)

    def lap_upper(bits):
        if _is_upper_mask(p, bits) and not _is_upper_mask(p, _lap_mask(r, bits)):
            return {"set": _set_text(p, bits)}
        return None

    law("basic.lap-preserves-upper", lap_upper)

    def leq_identities(bits):
        if _lap_mask(r_leq, bits) != bits:
            return {"set": _set_text(p, bits), "op": "lap"}
        if _uap_mask(r_leq, bits) != _down_mask(p, bits):
            return {"set": _set_text(p, bits), "op": "uap"}
        return None

    law("basic.leq-identities", leq_identities)

    def membership(bits):
        la = _lap_mask(r, bits)
        for x in range(p.n):
            stated = bool(bits >> x & 1) and bool(r.sec[x] & bits)
            if bool(la >> x & 1) != stated:
                return {"set": _set_text(p, bits), "element": x}
        return None

    law("basic.membership-characterization", membership)

    principal_ok, principal_witness = True, None
    for a in range(p.n):
        if _lap_mask(r, p.up[a]) != section_above(r, a).bits:
            principal_ok, principal_witness = False, {"element": a}
            break
    rep.add("basic.principal-upper-section", principal_ok, principal_witness)

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
            "uap-empty": _set_text(p, _uap_mask(r, 0)),
            "lap-full": _set_text(p, _lap_mask(r, full)),
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
    masks = [s.bits for s in sets] if sets is not None else _default_sets(p)
    rep = CheckReport(
        f"n={p.n};rel1={r1.pairs()};rel2={r2.pairs()}", f"{len(masks)} subsets"
    )

    if aux_subset(r1, r2):
        ok, witness = True, None
        for bits in masks:
            if _lap_mask(r1, bits) & ~_lap_mask(r2, bits) or _uap_mask(
                r2, bits
            ) & ~_uap_mask(r1, bits):
                ok, witness = False, {"set": _set_text(p, bits)}
                break
        rep.add("algebra.monotone-in-relation", ok, witness)
    else:
        rep.add(
            "algebra.monotone-in-relation", True, note="vacuous: rel1 not below rel2"
        )

    union = aux_union(r1, r2)
    meet = aux_intersection(r1, r2)

    ok, witness = True, None
    for bits in masks:
        if _lap_mask(union, bits) != _lap_mask(r1, bits) | _lap_mask(r2, bits):
            ok, witness = False, {"set": _set_text(p, bits)}
            break
    rep.add("algebra.lap-of-union", ok, witness)

    ok, witness = True, None
    for bits in masks:
        if _uap_mask(union, bits) != _uap_mask(r1, bits) & _uap_mask(r2, bits):
            ok, witness = False, {"set": _set_text(p, bits)}
            break
    rep.add("algebra.uap-of-union", ok, witness)

    ok, witness = True, None
    for bits in masks:
        if not _is_filtered_mask(p, bits):
            continue
        if _lap_mask(meet, bits) != _lap_mask(r1, bits) & _lap_mask(r2, bits):
            ok, witness = False, {"set": _set_text(p, bits)}
            break
    rep.add("algebra.lap-of-intersection-on-filtered", ok, witness)

    lowers = [l.bits for l in enumerate_lower_sets(p)]
    ok, witness = True, None
    for b1 in lowers:
        for b2 in lowers:
            if _uap_mask(r1, b1 & b2) != _uap_mask(r1, b1) & _uap_mask(r1, b2):
                ok, witness = False, {
                    "set1": _set_text(p, b1),
                    "set2": _set_text(p, b2),
                }
                break
        if not ok:
            break
    rep.add("algebra.uap-preserves-lower-meets", ok, witness)

    uppers = [u.bits for u in enumerate_upper_sets(p)]
    ok, witness = True, None
    for u1 in uppers:
        for u2 in uppers:
            if _lap_mask(r1, u1 | u2) != _lap_mask(r1, u1) | _lap_mask(r1, u2):
                ok, witness = False, {
                    "set1": _set_text(p, u1),
                    "set2": _set_text(p, u2),
                }
                break
        if not ok:
            break
    rep.add("algebra.lap-preserves-upper-joins", ok, witness)
    return rep


def check_adjunction(r: AuxRelation) -> CheckReport:
    """Both Galois laws, quantified over the full lattices."""
    p = r.poset
    rep = CheckReport(_subject(r), "all lower and upper sets")
    lowers = [l.bits for l in enumerate_lower_sets(p)]
    uppers = [u.bits for u in enumerate_upper_sets(p)]

    ok, witness = True, None
    for b in lowers:
        g_b = uap_lower_adjoint(r, ElementSet(b, p.n)).bits
        for a in lowers:
            left = b & ~_uap_mask(r, a) == 0
            right = g_b & ~a == 0
            if left != right:
                ok, witness = False, {"b": _set_text(p, b), "a": _set_text(p, a)}
                break
        if not ok:
            break
    rep.add("adjoint.lower-galois", ok, witness)

    ok, witness = True, None
    for b in uppers:
        h_b = lap_upper_adjoint(r, ElementSet(b, p.n)).bits
        for a in uppers:
            left = _lap_mask(r, a) & ~b == 0
            right = a & ~h_b == 0
            if left != right:
                ok, witness = False, {"b": _set_text(p, b), "a": _set_text(p, a)}
                break
        if not ok:
            break
    rep.add("adjoint.upper-galois", ok, witness)
    return rep
