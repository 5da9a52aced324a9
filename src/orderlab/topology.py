"""Topologies induced by auxiliary relations, and the Scott topology.

The opens of the induced topology are the upper sets fixed by the lower
approximation operator.  The module also provides interior/closure,
specialization order, the c-space property (with both readings of the
up-set used in its definition), complete distributivity of the open-set
lattice, and executable checks for the theorems tying these together.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .approx import _lap_mask, _uap_mask
from .auxrel import AuxRelation, classify, leq_aux, section_above, way_below, enumerate_aux
from .bitset import ElementSet, iter_bits
from .errors import (
    BadParameters,
    BudgetExceeded,
    NotApproximating,
    NotPreApproximating,
)
from .poset import (
    MAX_DIRECTED_UNIVERSE,
    Poset,
    _check_universe,
    _down_mask,
    _is_directed_mask,
    _is_upper_mask,
    _supremum_mask,
    _upper_masks,
)
from .report import CheckReport


class Topology:
    """A finite topology: a poset plus its sorted tuple of open masks."""

    __slots__ = ("poset", "masks", "_mask_set")

    def __init__(self, poset: Poset, masks: Iterable[int]):
        self.poset = poset
        self.masks = tuple(sorted(set(masks)))
        self._mask_set = frozenset(self.masks)

    @property
    def opens(self) -> tuple[ElementSet, ...]:
        return tuple(ElementSet(m, self.poset.n) for m in self.masks)

    def is_open(self, s: ElementSet) -> bool:
        _check_universe(self.poset, s)
        return s.bits in self._mask_set

    def __eq__(self, other):
        return (
            isinstance(other, Topology)
            and self.poset == other.poset
            and self.masks == other.masks
        )

    def __hash__(self):
        return hash((self.poset.up, self.masks))

    def __repr__(self):
        return f"Topology(n={self.poset.n}, opens={len(self.masks)})"


def check_topology_invariants(t: Topology) -> CheckReport:
    """Empty and full sets present; closed under pairwise meets and joins."""
    p = t.poset
    full = (1 << p.n) - 1
    rep = CheckReport(f"topology on n={p.n}", f"{len(t.masks)} opens")
    rep.add("topology.contains-empty", 0 in t._mask_set)
    rep.add("topology.contains-full", full in t._mask_set)
    inter_ok, inter_witness = True, None
    union_ok, union_witness = True, None
    for u in t.masks:
        for v in t.masks:
            if u & v not in t._mask_set and inter_ok:
                inter_ok, inter_witness = False, {"u": u, "v": v}
            if u | v not in t._mask_set and union_ok:
                union_ok, union_witness = False, {"u": u, "v": v}
    rep.add("topology.binary-intersection", inter_ok, inter_witness)
    rep.add("topology.binary-union", union_ok, union_witness)
    return rep


# -- construction -----------------------------------------------------------


def mu_topology(r: AuxRelation) -> Topology:
    """Upper sets fixed by lap; a topology whenever all sections are directed."""
    p = r.poset
    cls = classify(r)
    if not cls.pre_approximating:
        raise NotPreApproximating(cls.witnesses.get("pre_approximating"))
    return Topology(p, [m for m in _upper_masks(p.up, p.down) if _lap_mask(r, m) == m])


@lru_cache(maxsize=2048)
def _directed_sups(p: Poset) -> tuple[tuple[int, int], ...]:
    """Every nonempty directed mask paired with its supremum."""
    out = []
    for mask in range(1, 1 << p.n):
        if _is_directed_mask(p, mask):
            s = _supremum_mask(p, mask)
            if s is not None:
                out.append((mask, s))
    return tuple(out)


def is_scott_open(p: Poset, u: ElementSet) -> bool:
    """Upper, and inaccessible by suprema of directed sets."""
    _check_universe(p, u)
    if p.n > MAX_DIRECTED_UNIVERSE:
        raise BudgetExceeded(f"universe of {p.n} exceeds {MAX_DIRECTED_UNIVERSE}")
    if not _is_upper_mask(p, u.bits):
        return False
    for mask, s in _directed_sups(p):
        if u.bits >> s & 1 and mask & u.bits == 0:
            return False
    return True


@lru_cache(maxsize=2048)
def _scott_masks(p: Poset) -> tuple[int, ...]:
    pairs = _directed_sups(p)
    masks = []
    for mask in _upper_masks(p.up, p.down):
        ok = True
        for d, s in pairs:
            if mask >> s & 1 and d & mask == 0:
                ok = False
                break
        if ok:
            masks.append(mask)
    return tuple(masks)


def scott_topology(p: Poset) -> Topology:
    """All Scott-open sets, computed literally from the definition."""
    if p.n > MAX_DIRECTED_UNIVERSE:
        raise BudgetExceeded(f"universe of {p.n} exceeds {MAX_DIRECTED_UNIVERSE}")
    return Topology(p, _scott_masks(p))


# -- interior / closure -------------------------------------------------------


def _interior_mask(t: Topology, bits: int) -> int:
    out = 0
    for m in t.masks:
        if m & ~bits == 0:
            out |= m
    return out


def interior(t: Topology, a: ElementSet) -> ElementSet:
    """Largest open inside a."""
    _check_universe(t.poset, a)
    return ElementSet(_interior_mask(t, a.bits), t.poset.n)


def closure(t: Topology, a: ElementSet) -> ElementSet:
    """Smallest closed set containing a."""
    _check_universe(t.poset, a)
    full = (1 << t.poset.n) - 1
    return ElementSet(full ^ _interior_mask(t, a.bits ^ full), t.poset.n)


# -- specialization and c-spaces ----------------------------------------------


@dataclass(frozen=True)
class SpecializationOrder:
    rows: tuple[int, ...]
    is_t0: bool


def specialization_order(t: Topology) -> SpecializationOrder:
    """x below y when every open containing x contains y."""
    p = t.poset
    full = (1 << p.n) - 1
    rows = []
    for x in range(p.n):
        acc = full
        for m in t.masks:
            if m >> x & 1:
                acc &= m
        rows.append(acc)
    t0 = True
    for x in range(p.n):
        for y in range(x + 1, p.n):
            if rows[x] >> y & 1 and rows[y] >> x & 1:
                t0 = False
                break
        if not t0:
            break
    return SpecializationOrder(tuple(rows), t0)


def is_c_space(
    t: Topology, upset_mode: str = "specialization"
) -> tuple[bool, dict | None]:
    """Every point of every open sits in the interior of some member's up-set.

    upset_mode selects whether the up-set is taken in the topology's
    specialization preorder (the classical reading) or in the underlying
    order of the poset.
    """
    p = t.poset
    if upset_mode == "specialization":
        rows = specialization_order(t).rows
    elif upset_mode == "underlying":
        rows = p.up
    else:
        raise BadParameters(f"unknown upset mode {upset_mode!r}")
    for u in t.masks:
        if not u:
            continue
        for x in iter_bits(u):
            if not any(
                _interior_mask(t, rows[y]) >> x & 1 for y in iter_bits(u)
            ):
                return False, {"element": x, "open": u, "mode": upset_mode}
    return True, None


def opens_completely_distributive(t: Topology) -> bool:
    """Distributivity of the open-set lattice, checked on all triples.

    Meets and joins of opens are literal intersection and union, so on a
    finite topology this scan is the whole story (finite distributive
    lattices are completely distributive).
    """
    if len(t.masks) > 128:
        raise BudgetExceeded(f"{len(t.masks)} opens is beyond the triple scan")
    for u in t.masks:
        for v in t.masks:
            if u & v not in t._mask_set or u | v not in t._mask_set:
                return False
    for u in t.masks:
        for v in t.masks:
            for w in t.masks:
                if u & (v | w) != (u & v) | (u & w):
                    return False
    return True


def is_continuous(p: Poset) -> bool:
    """Every element is the directed supremum of what is way below it."""
    return classify(way_below(p)).approximating


# -- theorem checkers ----------------------------------------------------------


def _set_text(bits: int) -> str:
    return ",".join(str(i) for i in iter_bits(bits))


def check_chain_of_containments(r: AuxRelation, a: ElementSet) -> CheckReport:
    """Scott interior up to Scott closure, with the approximations between."""
    p = r.poset
    _check_universe(p, a)
    cls = classify(r)
    if not cls.pre_approximating:
        raise NotPreApproximating(cls.witnesses.get("pre_approximating"))
    if not cls.approximating:
        raise NotApproximating(cls.witnesses.get("approximating"))
    sigma = scott_topology(p)
    mu = mu_topology(r)
    chain = [
        ("scott-interior", _interior_mask(sigma, a.bits)),
        ("mu-interior", _interior_mask(mu, a.bits)),
        ("lap", _lap_mask(r, a.bits)),
        ("set", a.bits),
        ("uap", _uap_mask(r, a.bits)),
        ("mu-closure", closure(mu, a).bits),
        ("scott-closure", closure(sigma, a).bits),
    ]
    rep = CheckReport(f"n={p.n};rel={r.pairs()}", f"set={a.text()}")
    rep.add(
        "chain.values",
        True,
        {name: _set_text(bits) for name, bits in chain},
        informational=True,
    )
    for (name1, bits1), (name2, bits2) in zip(chain, chain[1:]):
        rep.add(
            f"chain.{name1}-below-{name2}",
            bits1 & ~bits2 == 0,
            None
            if bits1 & ~bits2 == 0
            else {name1: _set_text(bits1), name2: _set_text(bits2)},
        )
    return rep


def check_mu_way_below_is_scott(p: Poset) -> CheckReport:
    """The topology induced by way-below coincides with the Scott topology."""
    rep = CheckReport(f"poset n={p.n}", "whole topology")
    mu = mu_topology(way_below(p))
    sigma = scott_topology(p)
    rep.add(
        "chain.mu-of-way-below-equals-scott",
        mu.masks == sigma.masks,
        None
        if mu.masks == sigma.masks
        else {"mu-opens": len(mu.masks), "scott-opens": len(sigma.masks)},
    )
    uppers = tuple(_upper_masks(p.up, p.down))
    rep.add(
        "chain.scott-is-all-upper-sets",
        sigma.masks == uppers,
        None
        if sigma.masks == uppers
        else {"scott-opens": len(sigma.masks), "upper-sets": len(uppers)},
        note="on a finite universe every directed set attains its supremum",
    )
    return rep


def check_continuity_characterization(
    p: Poset, r_opt: AuxRelation | None = None, budget: int | None = 100000
) -> CheckReport:
    """Five equivalent statements of continuity, plus the closure criterion.

    The two existential statements are searched over the order itself
    first and then over enumerated auxiliary relations within budget.
    """
    wb = way_below(p)
    sigma = scott_topology(p)
    full = (1 << p.n) - 1
    uppers = list(_upper_masks(p.up, p.down))
    lowers = [full ^ m for m in uppers]

    s1 = is_continuous(p)
    s2 = all(_lap_mask(wb, u) == _interior_mask(sigma, u) for u in uppers)
    s4 = all(
        _uap_mask(wb, l) == (full ^ _interior_mask(sigma, full ^ l)) for l in lowers
    )

    def lap_matches(r: AuxRelation) -> bool:
        return all(_lap_mask(r, u) == _interior_mask(sigma, u) for u in uppers)

    def uap_matches(r: AuxRelation) -> bool:
        return all(
            _uap_mask(r, l) == (full ^ _interior_mask(sigma, full ^ l)) for l in lowers
        )

    s3 = s5 = False
    s3_exhausted = s5_exhausted = False

    def consider(r: AuxRelation) -> None:
        nonlocal s3, s5
        if not classify(r).approximating:
            return
        if not s3 and lap_matches(r):
            s3 = True
        if not s5 and uap_matches(r):
            s5 = True

    consider(leq_aux(p))
    consider(wb)
    if not (s3 and s5):
        try:
            for r in enumerate_aux(p, budget=budget):
                consider(r)
                if s3 and s5:
                    break
        except BudgetExceeded:
            s3_exhausted = not s3
            s5_exhausted = not s5

    rep = CheckReport(f"poset n={p.n}", "all upper and lower sets")
    names = (
        "continuous",
        "way-below-lap-is-scott-interior",
        "some-approximating-lap-is-scott-interior",
        "way-below-uap-is-scott-closure",
        "some-approximating-uap-is-scott-closure",
    )
    notes = {
        2: "budget exhausted" if s3_exhausted else "",
        4: "budget exhausted" if s5_exhausted else "",
    }
    for idx, (name, value) in enumerate(zip(names, (s1, s2, s3, s4, s5))):
        rep.add(
            f"continuity.{name}", value, informational=True, note=notes.get(idx, "")
        )
    stmts = (s1, s2, s3, s4, s5)
    rep.add(
        "continuity.agreement",
        len(set(stmts)) == 1,
        None if len(set(stmts)) == 1 else {"statements": list(stmts)},
    )

    if r_opt is not None:
        inst_app = classify(r_opt).approximating
        inst = inst_app and lap_matches(r_opt) and uap_matches(r_opt)
        rep.add(
            "continuity.instance-check",
            inst,
            {"approximating": inst_app},
            informational=True,
            note="given relation only; does not affect the theorem verdict",
        )

    ok, witness = True, None
    for bits in range(1 << p.n):
        cl = closure(sigma, ElementSet(bits, p.n)).bits
        down_a = _down_mask(p, bits)
        for x in range(p.n):
            stated = wb.sec[x] & ~down_a == 0
            if bool(cl >> x & 1) != stated:
                ok, witness = False, {"set": _set_text(bits), "element": x}
                break
        if not ok:
            break
    rep.add("continuity.scott-closure-criterion", ok, witness)
    return rep


def check_cspace_theorems(r: AuxRelation) -> CheckReport:
    """Interpolation forces a c-space; the converse directions are findings."""
    p = r.poset
    cls = classify(r)
    if not cls.pre_approximating:
        raise NotPreApproximating(cls.witnesses.get("pre_approximating"))
    mu = mu_topology(r)
    rep = CheckReport(f"n={p.n};rel={r.pairs()}", "induced topology")

    if cls.has_int:
        cs, witness = is_c_space(mu)
        rep.add("cspace.int-implies-cspace", cs, witness)

        base_ok, base_witness = True, None
        sections = [section_above(r, x).bits for x in range(p.n)]
        for s in sections:
            if s not in mu._mask_set:
                base_ok, base_witness = False, {"section": _set_text(s)}
                break
        if base_ok:
            for u in mu.masks:
                cover = 0
                for y in iter_bits(u):
                    if sections[y] & ~u == 0:
                        cover |= sections[y]
                if cover != u:
                    base_ok, base_witness = False, {"open": _set_text(u)}
                    break
        rep.add("cspace.sections-form-base", base_ok, base_witness)
    else:
        rep.add(
            "cspace.int-implies-cspace", True, note="vacuous: no interpolation"
        )
        rep.add(
            "cspace.sections-form-base", True, note="vacuous: no interpolation"
        )

    cs_spec, _ = is_c_space(mu, "specialization")
    cs_under, _ = is_c_space(mu, "underlying")
    converse_ok = not (cs_spec and not cls.approximating)
    rep.add(
        "cspace.converse-approximating",
        converse_ok,
        None
        if converse_ok
        else {
            "c-space-specialization": cs_spec,
            "c-space-underlying": cs_under,
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
            None
            if cdl == cls.approximating
            else {"completely-distributive": cdl, "approximating": cls.approximating},
            finding=True,
            note="corollary linkage; disagreements are recorded, not failed",
        )
    else:
        rep.add(
            "cspace.cdl-vs-approximating", True, note="vacuous: no interpolation"
        )

    sigma = scott_topology(p)
    cs_sigma, _ = is_c_space(sigma)
    cont = is_continuous(p)
    rep.add(
        "cspace.classical-scott",
        cs_sigma == cont,
        None if cs_sigma == cont else {"c-space": cs_sigma, "continuous": cont},
    )
    return rep


def check_mu_inaccessibility(r: AuxRelation) -> CheckReport:
    """Opens are exactly the upper sets no section-supremum can sneak into."""
    p = r.poset
    cls = classify(r)
    if not cls.pre_approximating:
        raise NotPreApproximating(cls.witnesses.get("pre_approximating"))
    mu = mu_topology(r)
    sups = [_supremum_mask(p, r.sec[x]) for x in range(p.n)]

    def inaccessible(mask: int) -> bool:
        for x in range(p.n):
            s = sups[x]
            if s is not None and mask >> s & 1 and r.sec[x] & mask == 0:
                return False
        return True

    rep = CheckReport(f"n={p.n};rel={r.pairs()}", "all upper sets")
    ok, witness = True, None
    for u in mu.masks:
        if not _is_upper_mask(p, u) or not inaccessible(u):
            ok, witness = False, {"open": _set_text(u)}
            break
    rep.add("mu.open-implies-inaccessible", ok, witness)

    if cls.approximating:
        ok, witness = True, None
        for mask in _upper_masks(p.up, p.down):
            if inaccessible(mask) and mask not in mu._mask_set:
                ok, witness = False, {"set": _set_text(mask)}
                break
        rep.add("mu.inaccessible-implies-open", ok, witness)
    else:
        rep.add(
            "mu.inaccessible-implies-open",
            True,
            note="vacuous: relation not approximating",
        )
    return rep


def check_mu_laws(r: AuxRelation) -> CheckReport:
    """Bundle of structural laws for the induced topology."""
    p = r.poset
    cls = classify(r)
    mu = mu_topology(r)
    rep = CheckReport(f"n={p.n};rel={r.pairs()}", "induced topology")
    for v in check_topology_invariants(mu).verdicts:
        rep.verdicts.append(v)
    for v in check_mu_inaccessibility(r).verdicts:
        rep.verdicts.append(v)
    sigma = scott_topology(p)
    if cls.approximating:
        finer = all(m in mu._mask_set for m in sigma.masks)
        rep.add(
            "mu.finer-than-scott",
            finer,
            None
            if finer
            else {"missing": [m for m in sigma.masks if m not in mu._mask_set][:1]},
        )
        spec = specialization_order(mu)
        rep.add(
            "mu.specialization-recovers-order",
            spec.rows == p.up and spec.is_t0,
            None
            if spec.rows == p.up and spec.is_t0
            else {"rows": list(spec.rows), "t0": spec.is_t0},
        )
    else:
        rep.add("mu.finer-than-scott", True, note="vacuous: not approximating")
        rep.add(
            "mu.specialization-recovers-order",
            True,
            note="vacuous: not approximating",
        )
    return rep
