"""Topologies induced by auxiliary relations, and the Scott topology.

The opens of the induced topology are the upper sets fixed by the lower
approximation operator, read off the lanes of ``approx`` (``_open_masks``).
The module also provides interior/closure, specialization order, the
c-space property (with both readings of the up-set used in its
definition), complete distributivity of the open-set lattice, and
executable checks for the theorems tying these together.
On a finite poset the Scott opens are exactly the upper sets, which is
what ``scott_topology`` and ``is_scott_open`` return; the laws that
exercise the directed-subset definition read ``reference.scott_masks``
and ``reference.scott_interiors``, each built once per poset.
``check_mu_laws``, ``check_mu_inaccessibility``,
``check_chain_of_containments`` and ``check_cspace_theorems`` decide their
laws on the lanes of ``approx``, which a campaign's relation batch shares,
and only turn the first failing lane of each law into its witness: the
first failing open, section, upper set, pair of opens or subset of a scan
in ascending order.  ``is_c_space`` and ``opens_completely_distributive``
scan the opens of any topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, or_
from typing import Callable, Iterable, Iterator

from . import reference
from .approx import (
    _COMPLEMENT,
    _LAP,
    _Single,
    _TABLE,
    _UAP,
    _add_pair_laws,
    _binary_lanes,
    _chain_lanes,
    _cspace_lanes,
    _family_masks,
    _family_scope,
    _first_lane,
    _gather,
    _int,
    _lane,
    _lap_mask,
    _mu_lanes,
    _open_masks,
    _opens,
    _pack,
    _set_witness,
    _spec_rows,
    _subject,
    _upper_lanes,
)
from .auxrel import AuxRelation, classify, leq_aux, way_below
from .bitset import ElementSet, lane_width, mask_text
from .errors import (
    BadParameters,
    BudgetExceeded,
    NotApproximating,
    NotPreApproximating,
)
from .poset import (
    Poset,
    _check_universe,
    _closed,
    _join,
    _per_poset,
    _upper_list,
)
from .report import CheckReport


MAX_CDL_OPENS = 1024  # the most opens whose pairs opens_completely_distributive scans


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
        r._mu = Topology(p, _open_masks(_Single(r)))
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
    return Topology(p, _upper_list(p))


# -- interior / closure -------------------------------------------------------


def _interior_mask(t: Topology, bits: int) -> int:
    return reduce(or_, (s for s in t.masks if s & ~bits == 0), 0)


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
    can fail, so only it is checked.  More than ``MAX_CDL_OPENS`` opens
    raise ``BudgetExceeded``.
    """
    if len(t.masks) > MAX_CDL_OPENS:
        raise BudgetExceeded(f"{len(t.masks)} opens is beyond the pair scan")
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
    n, w = p.n, lane_width(p.n)
    masks = _family_masks(p, a, sets)
    cls = classify(r)
    if not cls.pre_approximating:
        raise NotPreApproximating(cls.witnesses.get("pre_approximating"))
    if not cls.approximating:
        raise NotApproximating(cls.witnesses.get("approximating"))
    rep = CheckReport(_subject(r), _family_scope(masks))
    chain = _chain_lanes(_Single(r), _pack(masks, n), _pack(mu_topology(r).masks, n))
    if len(masks) == 1:
        values = {name: mask_text(bits) for name, bits in zip(_CHAIN_NAMES, chain)}
        rep.add("chain.values", True, values, informational=True)
    for names, below, above in zip(_CHAIN_LINKS, chain, chain[1:]):
        link = ("chain.{}-below-{}".format(*names), below, above, below & ~above)
        _add_pair_laws(rep, [link], names, w)
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


@_per_poset
def _classical_scott(p: Poset) -> tuple[bool, bool]:
    """Whether the Scott topology of p is a c-space, and whether p is continuous."""
    return is_c_space(scott_topology(p))[0], is_continuous(p)


def _cspace_findings(spec, under, cdl, approximating, has_int) -> dict[str, dict]:
    """The finding laws of ``check_cspace_theorems`` that fail, with their
    witnesses, from whether mu_R is a c-space in the specialization and in
    the underlying reading, whether its opens are completely distributive,
    and whether the relation is approximating and has interpolation."""
    out = {}
    if spec and not approximating:
        keys = ("c-space-specialization", "c-space-underlying", "approximating")
        out["cspace.converse-approximating"] = dict(zip(keys, (spec, under, approximating)))
    if has_int and cdl != approximating:
        keys = ("completely-distributive", "approximating")
        out["cspace.cdl-vs-approximating"] = dict(zip(keys, (cdl, approximating)))
    return out


def cspace_entries(p: Poset, flags: int) -> list[tuple[str, dict]] | None:
    """The findings, as (law, witness), of the cspace instance of a relation
    on p whose byte of ``approx.batch_failures`` is ``flags``, or None where
    it fails a hard law: bit 0 of the byte says so, or
    ``cspace.classical-scott``, which depends on p alone, fails."""
    if flags & 1 or len(set(_classical_scott(p))) > 1:
        return None
    return list(_cspace_findings(*(flags >> b & 1 == 1 for b in range(1, 6))).items())


def check_cspace_theorems(r: AuxRelation) -> CheckReport:
    """Interpolation forces a c-space; the converse directions are findings.

    Decided on the lanes of ``approx`` that a campaign's batch shares
    (``_cspace_lanes``): a hard law's witness is the first failing open, in
    ascending order, or the first section that is not open.
    """
    p, w, cls = r.poset, lane_width(r.poset.n), classify(r)
    if not cls.pre_approximating:
        raise NotPreApproximating(cls.witnesses.get("pre_approximating"))
    lanes = _Single(r)
    opened, _ = opens = _opens(lanes)
    missing, unopened, base = _cspace_lanes(lanes, opened, _spec_rows(lanes, opens), cls.has_int)
    cdl = cls.has_int and not any(_binary_lanes(lanes, opens))
    uppers, block = _upper_list(p), 8 * len(opened)
    spec, under = missing & (1 << block) - 1, missing >> block
    rep = CheckReport(_subject(r), "induced topology")
    vacuous = "vacuous: no interpolation"
    if cls.has_int:
        witness = None
        if spec:  # the first open that its cover misses, and the least point it misses
            k = _first_lane(spec, w)
            element = (spec & -spec).bit_length() - 1 - 8 * w * k
            witness = {"element": element, "open": uppers[k], "mode": "specialization"}
        rep.add("cspace.int-implies-cspace", not spec, witness)
        witness = {"section": mask_text(r.above[_first_lane(unopened, w)])} if unopened else None
        if base and not unopened:
            witness = {"open": mask_text(uppers[_first_lane(base, w)])}
        rep.add("cspace.sections-form-base", witness is None, witness)
    else:
        rep.add("cspace.int-implies-cspace", True, note=vacuous)
        rep.add("cspace.sections-form-base", True, note=vacuous)
    findings = _cspace_findings(not spec, not under, cdl, cls.approximating, cls.has_int)

    def finding(law: str, note: str) -> None:
        note += "; disagreements are recorded, not failed"
        rep.add(law, law not in findings, findings.get(law), finding=True, note=note)

    finding("cspace.converse-approximating", "converse direction")
    if cls.has_int:
        finding("cspace.cdl-vs-approximating", "corollary linkage")
    else:
        rep.add("cspace.cdl-vs-approximating", True, note=vacuous)
    cs_sigma, cont = _classical_scott(p)
    rep.add(
        "cspace.classical-scott",
        cs_sigma == cont,
        None if cs_sigma == cont else {"c-space": cs_sigma, "continuous": cont},
    )
    return rep


# the laws of _mu_lanes that only an approximating relation must satisfy, and
# the note each takes on any other
_MU_VACUOUS = {
    "mu.inaccessible-implies-open": "vacuous: relation not approximating",
    "mu.finer-than-scott": "vacuous: not approximating",
    "mu.specialization-recovers-order": "vacuous: not approximating",
}


def _mu_report(r: AuxRelation, scope: str, every: bool) -> CheckReport:
    """The laws of ``approx._mu_lanes`` on the lanes of r, ``every`` one or laws 4-5:
    a law over the opens or the upper sets names the first failing one, a law
    over pairs of opens the first failing pair."""
    p = r.poset
    n, w = p.n, lane_width(p.n)
    cls = classify(r)
    if not cls.pre_approximating:
        raise NotPreApproximating(cls.witnesses.get("pre_approximating"))
    approximating = cls.approximating
    lanes = _Single(r)
    opens = _opens(lanes)
    lanes_of_rows = _spec_rows(lanes, opens) if approximating and every else 0
    binary = _binary_lanes(lanes, opens) if every else (0, 0)
    failing = _mu_lanes(lanes, opens, lanes_of_rows, binary)
    rows = [_lane(lanes_of_rows, x, w) for x in range(n)]
    uppers = _upper_list(p)
    rep = CheckReport(_subject(r), scope)
    for law, bad in list(failing.items())[slice(None) if every else slice(4, 6)]:
        if law in _MU_VACUOUS and not approximating:
            rep.add(law, True, note=_MU_VACUOUS[law])
            continue
        k = _first_lane(bad, w)
        if not bad or law.startswith("topology.contains"):
            witness = None
        elif law.startswith("topology.binary"):  # the first pair of opens that fails
            op, listed = and_ if law.endswith("intersection") else or_, _open_masks(lanes, opens)
            pairs = ((u, v, op(u, v)) for u in listed for v in listed)
            witness = next({"u": u, "v": v} for u, v, b in pairs if _lap_mask(r, b) != b)
        elif law == "mu.specialization-recovers-order":
            twins = (rows[x] >> y & rows[y] >> x & 1 for x in range(n) for y in range(x + 1, n))
            witness = {"rows": rows, "t0": not any(twins)}
        elif law == "mu.finer-than-scott":
            witness = {"missing": [uppers[k]]}
        else:
            witness = {"open" if law.endswith("inaccessible") else "set": mask_text(uppers[k])}
        rep.add(law, not bad, witness)
    return rep


def check_mu_inaccessibility(r: AuxRelation) -> CheckReport:
    """Opens are exactly the upper sets no section-supremum can sneak into."""
    return _mu_report(r, "all upper sets", False)


def check_mu_laws(r: AuxRelation) -> CheckReport:
    """Bundle of structural laws for the induced topology."""
    return _mu_report(r, "induced topology", True)
