"""Topologies induced by auxiliary relations, and the Scott topology.

The opens of the induced topology are the upper sets fixed by the lower
approximation operator.  The module also provides interior/closure,
specialization order, the c-space property (with both readings of the
up-set used in its definition), complete distributivity of the open-set
lattice, and executable checks for the theorems tying these together.
On a finite poset the Scott opens are exactly the upper sets, which is
what ``scott_topology`` and ``is_scott_open`` return; the laws that
exercise the directed-subset definition read ``reference.scott_masks``
and ``reference.scott_interiors``, each built once per poset.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import and_, or_
from typing import Callable, Iterable, Iterator

from . import reference
from .approx import (
    _COMPLEMENT,
    _LAP,
    _TABLE,
    _UAP,
    _family_masks,
    _family_scope,
    _first_lane,
    _gather,
    _int,
    _lane_constants,
    _lap_mask,
    _nonzero,
    _pack,
    _set_witness,
    _subject,
    _uap_mask,
    _upper_lanes,
)
from .auxrel import AuxRelation, classify, leq_aux, way_below
from .bitset import ElementSet, iter_bits, lane_width, mask_text
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
    _closed,
    _join,
    _least,
    _per_poset,
    _upper_list,
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
    for law, op in (("intersection", and_), ("union", or_)):
        rep.law(f"topology.binary-{law}", ({"u": u, "v": v} for u, v in _unclosed_pairs(t, op)))
    return rep


def _unclosed_pairs(t: Topology, op: Callable[[int, int], int]) -> Iterator[tuple[int, int]]:
    """The pairs (u, v) of opens, u-major, whose ``op(u, v)`` is not open."""
    return ((u, v) for u in t.masks for v in t.masks if op(u, v) not in t._mask_set)


# -- construction -----------------------------------------------------------


def mu_topology(r: AuxRelation) -> Topology:
    """Upper sets fixed by lap; a topology whenever all sections are directed.

    Built once per relation: the relation keeps it.
    """
    p = r.poset
    cls = classify(r)
    if not cls.pre_approximating:
        raise NotPreApproximating(cls.witnesses.get("pre_approximating"))
    if r._mu is None:
        n, w = p.n, lane_width(p.n)
        uppers = _upper_lanes(p)
        moved = _int(_gather(uppers, n, _LAP, r)) ^ _int(uppers)
        _, low, high = _lane_constants(len(uppers) // w, w)
        # 1 in the lowest byte of each lane that lap fixes, 0 in the others
        fixed = (_nonzero(moved, low, high) ^ high) >> 8 * w - 1
        r._mu = Topology(p, compress(_upper_list(p), fixed.to_bytes(len(uppers), "little")[::w]))
    return r._mu


def is_scott_open(p: Poset, u: ElementSet) -> bool:
    """Upper, and inaccessible by suprema of directed sets.

    On a finite poset every directed set contains its supremum, so
    inaccessibility is automatic and the test is upper-ness.
    """
    _check_universe(p, u)
    return _closed(p.up, u.bits)


@_per_poset
def scott_topology(p: Poset) -> Topology:
    """All Scott-open sets: on a finite poset, exactly the upper sets.

    ``reference.scott_masks`` keeps the directed-subset definition.  Calls
    in a row on p share one topology.
    """
    if p.n > MAX_DIRECTED_UNIVERSE:
        raise BudgetExceeded(f"universe of {p.n} exceeds {MAX_DIRECTED_UNIVERSE}")
    return Topology(p, _upper_list(p))


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


def _closure_mask(t: Topology, bits: int) -> int:
    full = (1 << t.poset.n) - 1
    return full ^ _interior_mask(t, bits ^ full)


def closure(t: Topology, a: ElementSet) -> ElementSet:
    """Smallest closed set containing a."""
    _check_universe(t.poset, a)
    return ElementSet(_closure_mask(t, a.bits), t.poset.n)


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
    t0 = not any(
        rows[x] >> y & 1 and rows[y] >> x & 1 for x in range(p.n) for y in range(x + 1, p.n)
    )
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
    inner = [_interior_mask(t, row) for row in rows]
    for u in t.masks:
        missing = u & ~_join(inner, u)
        if missing:
            x = (missing & -missing).bit_length() - 1
            return False, {"element": x, "open": u, "mode": upset_mode}
    return True, None


def opens_completely_distributive(t: Topology) -> bool:
    """Whether the opens, ordered by inclusion, form a completely distributive lattice.

    u & (v | w) == (u & v) | (u & w) holds for all sets.  So once the opens
    are closed under pairwise intersection and union, which are then the
    lattice's meet and join, the lattice is distributive, and a finite
    distributive lattice is completely distributive.  Only that closure
    can fail, so only it is checked.  More than 128 opens raise
    ``BudgetExceeded``.
    """
    if len(t.masks) > 128:
        raise BudgetExceeded(f"{len(t.masks)} opens is beyond the triple scan")
    return not any(next(_unclosed_pairs(t, op), None) for op in (and_, or_))


def is_continuous(p: Poset) -> bool:
    """Every element is the directed supremum of what is way below it."""
    return classify(way_below(p)).approximating


# -- theorem checkers ----------------------------------------------------------


_CHAIN_NAMES = ("scott-interior", "mu-interior", "lap", "set", "uap", "mu-closure", "scott-closure")
_CHAIN_LINKS = tuple(zip(_CHAIN_NAMES, _CHAIN_NAMES[1:]))


def check_chain_of_containments(
    r: AuxRelation, a: ElementSet | None = None, sets: Iterable[ElementSet] | None = None
) -> CheckReport:
    """Scott interior up to Scott closure, with the approximations between.

    Checks the set ``a``, else each of ``sets``, else every subset; a link's
    witness is that of the first failing set in the order of ``sets``.  A
    one-set report also lists the chain's values, as an informational verdict.
    """
    p = r.poset
    masks = _family_masks(p, a, sets)
    cls = classify(r)
    if not cls.pre_approximating:
        raise NotPreApproximating(cls.witnesses.get("pre_approximating"))
    if not cls.approximating:
        raise NotApproximating(cls.witnesses.get("approximating"))
    sigma = scott_topology(p)
    mu = mu_topology(r)
    rep = CheckReport(_subject(r), _family_scope(masks))
    witnesses: list[dict | None] = [None] * len(_CHAIN_LINKS)
    for b in masks:
        chain = (
            _interior_mask(sigma, b),
            _interior_mask(mu, b),
            _lap_mask(r, b),
            b,
            _uap_mask(r, b),
            _closure_mask(mu, b),
            _closure_mask(sigma, b),
        )
        if len(masks) == 1:
            values = {name: mask_text(bits) for name, bits in zip(_CHAIN_NAMES, chain)}
            rep.add("chain.values", True, values, informational=True)
        for k, (name1, name2) in enumerate(_CHAIN_LINKS):
            if witnesses[k] is None and chain[k] & ~chain[k + 1]:
                witnesses[k] = {name1: mask_text(chain[k]), name2: mask_text(chain[k + 1])}
    for (name1, name2), witness in zip(_CHAIN_LINKS, witnesses):
        rep.add(f"chain.{name1}-below-{name2}", witness is None, witness)
    return rep


def check_mu_way_below_is_scott(p: Poset) -> CheckReport:
    """The topology induced by way-below coincides with the Scott topology.

    Both sides come from the directed-subset definitions in ``reference``.
    """
    rep = CheckReport(f"poset n={p.n}", "whole topology")
    mu = mu_topology(reference.way_below(p))
    sigma = reference.scott_masks(p)
    rep.add(
        "chain.mu-of-way-below-equals-scott",
        mu.masks == sigma,
        None
        if mu.masks == sigma
        else {"mu-opens": len(mu.masks), "scott-opens": len(sigma)},
    )
    uppers = _upper_list(p)
    rep.add(
        "chain.scott-is-all-upper-sets",
        sigma == uppers,
        None
        if sigma == uppers
        else {"scott-opens": len(sigma), "upper-sets": len(uppers)},
        note="on a finite universe every directed set attains its supremum",
    )
    return rep


def check_continuity_characterization(p: Poset) -> CheckReport:
    """Five equivalent statements of continuity, plus the closure criterion.

    Way-below and the Scott topology come from the directed-subset
    definitions in ``reference``.  The two existential statements are
    searched over the order itself and way-below; the order always
    settles them, since it is approximating and fixes every upper and
    lower set.  Each is decided on one lane per upper set or per mask.
    """
    wb = reference.way_below(p)
    n, w = p.n, lane_width(p.n)
    uppers = _upper_lanes(p)
    lowers = _gather(uppers, n, _COMPLEMENT, p)  # lane by lane, the complements
    interiors = _gather(uppers, n, _TABLE, reference.scott_interiors(p))
    closures = _gather(interiors, n, _COMPLEMENT, p)  # of the lowers

    def lap_matches(r: AuxRelation) -> bool:
        return _gather(uppers, n, _LAP, r) == interiors

    def uap_matches(r: AuxRelation) -> bool:
        return _gather(lowers, n, _UAP, r) == closures

    s1 = is_continuous(p)
    s2 = lap_matches(wb)
    s4 = uap_matches(wb)
    candidates = [r for r in (leq_aux(p), wb) if classify(r).approximating]
    s3 = any(lap_matches(r) for r in candidates)
    s5 = any(uap_matches(r) for r in candidates)

    rep = CheckReport(f"poset n={p.n}", "all upper and lower sets")
    names = (
        "continuous",
        "way-below-lap-is-scott-interior",
        "some-approximating-lap-is-scott-interior",
        "way-below-uap-is-scott-closure",
        "some-approximating-uap-is-scott-closure",
    )
    for name, value in zip(names, (s1, s2, s3, s4, s5)):
        rep.add(f"continuity.{name}", value, informational=True)
    stmts = (s1, s2, s3, s4, s5)
    rep.add(
        "continuity.agreement",
        len(set(stmts)) == 1,
        None if len(set(stmts)) == 1 else {"statements": list(stmts)},
    )

    masks = range(1 << n)
    diff = reference.scott_closure_lanes(p) ^ _int(_gather(_pack(masks, n), n, _UAP, wb))
    witness = _set_witness(diff, masks, w)
    if diff:
        witness["element"] = (diff & -diff).bit_length() - 1 - 8 * w * _first_lane(diff, w)
    rep.add("continuity.scott-closure-criterion", not diff, witness)
    return rep


def check_cspace_theorems(r: AuxRelation) -> CheckReport:
    """Interpolation forces a c-space; the converse directions are findings."""
    p = r.poset
    mu = mu_topology(r)
    cls = classify(r)
    rep = CheckReport(_subject(r), "induced topology")
    cs_spec, witness = is_c_space(mu, "specialization")

    if cls.has_int:
        rep.add("cspace.int-implies-cspace", cs_spec, witness)

        sections = r.above

        def not_a_base():
            for s in sections:
                if s not in mu._mask_set:
                    yield {"section": mask_text(s)}
            for u in mu.masks:
                cover = 0
                for y in iter_bits(u):
                    if sections[y] & ~u == 0:
                        cover |= sections[y]
                if cover != u:
                    yield {"open": mask_text(u)}

        rep.law("cspace.sections-form-base", not_a_base())
    else:
        rep.add(
            "cspace.int-implies-cspace", True, note="vacuous: no interpolation"
        )
        rep.add(
            "cspace.sections-form-base", True, note="vacuous: no interpolation"
        )

    converse_ok = not (cs_spec and not cls.approximating)
    rep.add(
        "cspace.converse-approximating",
        converse_ok,
        None
        if converse_ok
        else {
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
    mu = mu_topology(r)
    cls = classify(r)
    sups = [_least(p.up, sec) for sec in r.sec]

    def inaccessible(mask: int) -> bool:
        for x in range(p.n):
            s = sups[x]
            if s is not None and mask >> s & 1 and r.sec[x] & mask == 0:
                return False
        return True

    rep = CheckReport(_subject(r), "all upper sets")
    rep.law(
        "mu.open-implies-inaccessible",
        (
            {"open": mask_text(u)}
            for u in mu.masks
            if not _closed(p.up, u) or not inaccessible(u)
        ),
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
    inaccessibility = check_mu_inaccessibility(r)
    mu = r._mu  # built and kept on the relation by the check above
    rep = CheckReport(_subject(r), "induced topology")
    rep.verdicts.extend(check_topology_invariants(mu).verdicts)
    rep.verdicts.extend(inaccessibility.verdicts)
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
