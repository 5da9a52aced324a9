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
meets the complement of down(A).  Both unions come from one kernel,
``bitset.ByteUnions``: one 256-entry table per byte of a mask.  Each
relation on at most ``TABLE_MAX_N`` elements, the most whose masks fit in a
byte, tabulates both operators on first use as ``bytes`` indexed by mask:
lap as one int AND and uap as three chained ``bytes.translate`` calls
through the complement, hit and the poset's down table.  Above the bound a
2^n table costs more than a query, so each relation keeps its hit tables
and each poset its down tables instead, ceil(n/8) of at most 256 entries,
and a union costs one lookup per byte.  Lower and upper sets, filtered
sets and the lower adjoint use the row-level primitives of ``poset`` on
``p.down``, ``p.up`` and the sections.

The laws over a family of sets are decided on lanes, SIMD within a
register (Lamport, *CACM* 18(8), 1975; Knuth, *TAOCP* 4A, §7.1.3): lane k
of an int holds a value at the k-th set of the family, ``bitset.lane_width``
bytes wide: one while n <= ``TABLE_MAX_N``, then two or four, so that
``array`` packs and unpacks the lanes at C level.  ``_gather`` maps each
lane through an operator: a C-level translate through its table up to the
bound, and above it ceil(n/8)^2 byte-sliced translates and big-int ORs for
the unions (lap, uap, down, the sections' join), an XOR for the
complement, and one call per lane for the flag tables.  A composition such
as uap(down(A)) is one more gather.  A law is then a few big-int operations
whose nonzero lanes are its failing sets, and its witness is the set at
the lowest one, the first failing set in family order.  Whether a set is
upper or filtered is a per-poset flag table, full where it holds and 0
elsewhere.  A one-set report is the family report on that set.  The down
tables, the flag tables and the lanes of the upper- and lower-set lists
and of their covering pairs come from the one-entry per-poset memo of
``poset``.
"""

from __future__ import annotations

from functools import lru_cache
from operator import and_, or_
from typing import Callable, Iterable

from .auxrel import AuxRelation, aux_intersection, aux_subset, aux_union, classify, leq_aux
from .bitset import ByteUnions, ElementSet, lane_width, mask_text, pack, unpack
from .errors import NotLower, NotUpper, PosetMismatch
from .poset import (
    Poset,
    _check_universe,
    _closed,
    _directed,
    _join,
    _lower_list,
    _per_poset,
    _upper_list,
)
from .report import CheckReport, LawVerdict


TABLE_MAX_N = 8


def _fill_tables(r: AuxRelation) -> tuple[bytes, bytes]:
    p = r.poset
    hit, comp = ByteUnions.byte_table(r.above), _complements(p.n)
    r._lap = (_int(hit) & _identity(p.n)).to_bytes(256, "little")
    uap = _down_bytes(p).translate(comp).translate(hit).translate(comp)
    r._uap = uap[: 1 << p.n].ljust(256, b"\0")
    return r._lap, r._uap


def _hit(r: AuxRelation) -> ByteUnions:
    """hit(A) for a relation above ``TABLE_MAX_N``, kept by the relation."""
    if r._hit is None:
        r._hit = ByteUnions(r.above)
    return r._hit


@_per_poset
def _down_bytes(p: Poset) -> bytes:
    """down(A) for every mask A of p up to ``TABLE_MAX_N``, indexed by A."""
    return ByteUnions.byte_table(p.down)


@_per_poset
def _down(p: Poset) -> ByteUnions:
    """down(A) for every mask A of p above ``TABLE_MAX_N``."""
    return ByteUnions(p.down)


def _lap_mask(r: AuxRelation, bits: int) -> int:
    if r.poset.n <= TABLE_MAX_N:
        return (r._lap or _fill_tables(r)[0])[bits]
    return bits & _hit(r)(bits)


def _uap_mask(r: AuxRelation, bits: int) -> int:
    if r.poset.n <= TABLE_MAX_N:
        return (r._uap or _fill_tables(r)[1])[bits]
    full = (1 << r.poset.n) - 1
    return full ^ _hit(r)(full ^ _down(r.poset)(bits))


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


# -- lanes ---------------------------------------------------------------------


def _pack(masks: Iterable[int], n: int) -> bytes:
    """The masks as lanes, little-endian on every host."""
    w = lane_width(n)
    return bytes(masks) if w == 1 else pack(masks, w)


# A lane operator: (its translate table of one argument, a relation or a
# poset, zero past the 2^n masks; above the table bound, the lane int of its
# values at (argument, lanes, n)).
_Op = tuple[Callable[..., bytes], Callable[..., int]]


def _gather(lanes: bytes, n: int, op: _Op, arg) -> bytes:
    """The operator at every lane: one translate through its table up to the
    table bound, else its lanes above it."""
    table, above = op
    if n <= TABLE_MAX_N:
        return lanes.translate(table(arg))
    return above(arg, lanes, n).to_bytes(len(lanes), "little")


_from_bytes = int.from_bytes


def _int(lanes: bytes) -> int:
    return _from_bytes(lanes, "little")


@lru_cache(maxsize=None)
def _complements(n: int) -> bytes:
    """The complement of each mask of n <= TABLE_MAX_N bits, as a translate table."""
    return bytes(v ^ ((1 << n) - 1) for v in range(256))


@lru_cache(maxsize=None)
def _identity(n: int) -> int:
    """Lane m holds m, for every mask m of n <= TABLE_MAX_N bits."""
    return _int(bytes(range(1 << n)))


@lru_cache(maxsize=64)
def _lane_constants(count: int, w: int) -> tuple[int, int, int]:
    """1, the low 8w - 1 bits and the top bit in each of ``count`` lanes."""
    ones = _int((b"\1" + bytes(w - 1)) * count)
    top = 8 * w - 1
    return ones, ones * ((1 << top) - 1), ones << top


def _nonzero(x: int, low: int, high: int) -> int:
    """The top bit of every lane of x that is not 0: adding the low bits
    carries into it exactly when they are not all 0."""
    return (((x & low) + low) | x) & high


def _first_lane(e: int, w: int) -> int:
    """The index of the lowest lane of e that is not 0."""
    return ((e & -e).bit_length() - 1) // (8 * w)


def _lane(x: int, k: int, w: int) -> int:
    return x >> 8 * w * k & ((1 << 8 * w) - 1)


def _fulls(lanes: bytes, n: int) -> int:
    """The full set in every lane of ``lanes``."""
    w = lane_width(n)
    return ((1 << n) - 1) * _lane_constants(len(lanes) // w, w)[0]


@_per_poset
def _upper_flags(p: Poset) -> bytes:
    """Whether each mask of p is an upper set: full or 0, indexed by mask."""
    flags = bytearray(256)
    for u in _upper_list(p):
        flags[u] = (1 << p.n) - 1
    return bytes(flags)


@_per_poset
def _filtered_flags(p: Poset) -> bytes:
    """Whether each mask of p is filtered: full or 0, indexed by mask."""
    full = (1 << p.n) - 1
    return bytes(full * _directed(p.down, b) for b in range(1 << p.n)).ljust(256, b"\0")


@_per_poset
def _upper_lanes(p: Poset) -> bytes:
    return _pack(_upper_list(p), p.n)


@_per_poset
def _lower_lanes(p: Poset) -> bytes:
    return _pack(_lower_list(p), p.n)


def _covers(p: Poset, sets: tuple[int, ...], rows: tuple[int, ...]) -> tuple[bytes, bytes]:
    """The covering pairs s < s | {x} of ``sets``, the sets closed under
    ``rows``, as the lanes of each s and of each s | {x}: x is outside s and
    its row leaves s only at x."""
    full = (1 << p.n) - 1
    pairs = []
    for s in sets:
        rest = full & ~s
        while rest:
            bit = rest & -rest
            if rows[bit.bit_length() - 1] & ~s == bit:
                pairs.append((s, s | bit))
            rest ^= bit
    return _pack((s for s, _ in pairs), p.n), _pack((t for _, t in pairs), p.n)


@_per_poset
def _upper_covers(p: Poset) -> tuple[bytes, bytes]:
    return _covers(p, _upper_list(p), p.up)


@_per_poset
def _lower_covers(p: Poset) -> tuple[bytes, bytes]:
    return _covers(p, _lower_list(p), p.down)


def _rows(lanes: bytes, n: int) -> bytes:
    """Each lane repeated once per lane: lane (i, j) of the result, i-major,
    holds lane i, where it holds lane j in ``lanes`` repeated as a whole.
    One-byte lanes are at most 256, so a translate of the row indices reads
    them."""
    w = lane_width(n)
    m = len(lanes) // w
    if w == 1:
        return _row_indices(m).translate(lanes.ljust(256, b"\0"))
    return b"".join(lanes[i : i + w] * m for i in range(0, len(lanes), w))


@lru_cache(maxsize=64)
def _row_indices(m: int) -> bytes:
    return b"".join(bytes([i]) * m for i in range(m))


def _per_mask(at: Callable[..., Callable[[int], int]]) -> Callable[..., int]:
    """The lanes of ``at(arg)``, a function of one mask: one call per lane."""
    return lambda arg, lanes, n: _int(_pack(map(at(arg), unpack(lanes, lane_width(n))), n))


def _uap_lanes(r: AuxRelation, lanes: bytes, n: int) -> int:
    full = _fulls(lanes, n)
    rest = _down(r.poset).gather(lanes) ^ full
    return _hit(r).gather(rest.to_bytes(len(lanes), "little")) ^ full


_LAP: _Op = (
    lambda r: r._lap or _fill_tables(r)[0], lambda r, lanes, n: _int(lanes) & _hit(r).gather(lanes)
)
_UAP: _Op = (lambda r: r._uap or _fill_tables(r)[1], _uap_lanes)
_DOWN: _Op = (_down_bytes, lambda p, lanes, n: _down(p).gather(lanes))
_COMPLEMENT: _Op = (lambda p: _complements(p.n), lambda p, lanes, n: _int(lanes) ^ _fulls(lanes, n))
_UPPER: _Op = (_upper_flags, _per_mask(lambda p: lambda b: ((1 << p.n) - 1) * _closed(p.up, b)))
_FILTERED: _Op = (
    _filtered_flags, _per_mask(lambda p: lambda b: ((1 << p.n) - 1) * _directed(p.down, b))
)
_SEC_JOIN: _Op = (
    lambda r: ByteUnions.byte_table(r.sec), lambda r, lanes, n: ByteUnions(r.sec).gather(lanes)
)


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


def _set_witness(e: int, masks, w: int) -> dict | None:
    """The witness of a law whose failing lanes are those of e: the first failing set."""
    return {"set": mask_text(masks[_first_lane(e, w)])} if e else None


# -- partition ---------------------------------------------------------------


def check_partition(
    r: AuxRelation, a: ElementSet | None = None, sets: Iterable[ElementSet] | None = None
) -> CheckReport:
    """lap(A) and uap of the complement cover the space; on upper A they split it.

    Checks the set ``a``, else each of ``sets``, else every subset; a law's
    witness is that of the first failing set in the order of ``sets``.
    """
    p = r.poset
    n, w = p.n, lane_width(p.n)
    masks = _family_masks(p, a, sets)
    rep = CheckReport(_subject(r), _family_scope(masks))
    family = _pack(masks, n)
    lap_a = _int(_gather(family, n, _LAP, r))
    uap_rest = _int(_gather(_gather(family, n, _COMPLEMENT, p), n, _UAP, r))
    upper = _int(_gather(family, n, _UPPER, p))
    uncovered = (lap_a | uap_rest) ^ ((1 << n) - 1) * _lane_constants(len(masks), w)[0]
    overlap = lap_a & uap_rest & upper
    k, j = _first_lane(uncovered, w), _first_lane(overlap, w)
    rep.add(
        "partition.cover",
        not uncovered,
        {"lap": mask_text(_lane(lap_a, k, w)), "uap-of-rest": mask_text(_lane(uap_rest, k, w))}
        if uncovered
        else None,
    )
    rep.add(
        "partition.disjoint-on-upper",
        not overlap,
        {"overlap": mask_text(_lane(overlap, j, w))} if overlap else None,
        note="" if upper else "vacuous: set not upper",
    )
    return rep


# -- interpolation characterization -------------------------------------------


def int_statements(r: AuxRelation) -> tuple[tuple[bool, bool, bool, bool, bool], dict]:
    """The five equivalent statements of the interpolation characterization.

    (1) interpolation; (2) lap idempotent on upper sets; (3) lap a kernel
    operator on the upper-set lattice; (4) uap idempotent on lower sets;
    (5) uap a closure operator on the lower-set lattice.  The lattices are
    finite and distributive, so an operator is monotone on one exactly when
    it is on each covering pair s < s | {x}.
    """
    p = r.poset
    n, w = p.n, lane_width(p.n)
    uppers, lowers = _upper_lanes(p), _lower_lanes(p)
    lap_u, uap_l = _gather(uppers, n, _LAP, r), _gather(lowers, n, _UAP, r)
    lap_bad = _int(_gather(lap_u, n, _LAP, r)) ^ _int(lap_u)
    uap_bad = _int(_gather(uap_l, n, _UAP, r)) ^ _int(uap_l)
    witnesses = {
        k: mask_text(sets[_first_lane(bad, w)])
        for k, bad, sets in (
            ("lap-idempotent", lap_bad, _upper_list(p)),
            ("uap-idempotent", uap_bad, _lower_list(p)),
        )
        if bad
    }

    def monotone(op: _Op, covers: tuple[bytes, bytes]) -> bool:
        below, above = (_int(_gather(c, n, op, r)) for c in covers)
        return not below & ~above

    s2, s4 = not lap_bad, not uap_bad
    s3 = s2 and not _int(lap_u) & ~_int(uppers) and monotone(_LAP, _upper_covers(p))
    s5 = s4 and not _int(lowers) & ~_int(uap_l) and monotone(_UAP, _lower_covers(p))
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
    """Sandwich, invariance, upper/lower facts and the whole-space equivalence.

    Checks each of ``sets``, else every subset; a law's witness is that of
    the first failing set in the order of ``sets``.  Membership is checked
    against "section(x) meets A" read off the sections themselves.
    """
    p = r.poset
    n, w = p.n, lane_width(p.n)
    masks = _family_masks(p, None, sets)
    rep = CheckReport(_subject(r), f"{len(masks)} subsets")
    family = _pack(masks, n)
    lap_v, uap_v, down_v = (
        _gather(family, n, op, arg) for op, arg in ((_LAP, r), (_UAP, r), (_DOWN, p))
    )
    b, lap_b, uap_b, down_b = map(_int, (family, lap_v, uap_v, down_v))
    r_leq = leq_aux(p)
    leq_lap = _int(_gather(family, n, _LAP, r_leq)) ^ b
    leq_uap = _int(_gather(family, n, _UAP, r_leq)) ^ down_b
    ones, low, high = _lane_constants(len(masks), w)
    defined = 0
    for x, sec in enumerate(r.sec):
        defined |= _nonzero(b & sec * ones, low, high) >> 8 * w - 1 - x
    failing = {
        "basic.sandwich": (lap_b & ~b) | (b & ~uap_b),
        "basic.uap-down-invariance": uap_b ^ _int(_gather(down_v, n, _UAP, r)),
        "basic.uap-lower": _int(_gather(uap_v, n, _DOWN, p)) & ~uap_b,
        "basic.lap-preserves-upper": (
            _int(_gather(family, n, _UPPER, p)) & ~_int(_gather(lap_v, n, _UPPER, p))
        ),
        "basic.leq-identities": leq_lap | leq_uap,
        "basic.membership-characterization": lap_b ^ (b & defined),
    }
    for law, e in failing.items():
        witness = _set_witness(e, masks, w)
        if law == "basic.leq-identities" and e:
            witness["op"] = "lap" if _lane(leq_lap, _first_lane(e, w), w) else "uap"
        elif law == "basic.membership-characterization" and e:
            witness["element"] = (e & -e).bit_length() - 1 - 8 * w * _first_lane(e, w)
        rep.add(law, not e, witness)
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


def check_algebra(r1: AuxRelation, r2: AuxRelation) -> CheckReport:
    """How the operators respond to union/intersection of relations, on every subset."""
    if r1.poset != r2.poset:
        raise PosetMismatch("relations live on different posets")
    p = r1.poset
    n, w = p.n, lane_width(p.n)
    masks = range(1 << n)
    rep = CheckReport(
        f"n={n};rel1={r1.pairs()};rel2={r2.pairs()}", f"{len(masks)} subsets"
    )
    family = _pack(masks, n)
    # A result equal to an operand reads that operand's tables: with the
    # order as r2, the union is r2 and the intersection r1.
    union = _operand_or(aux_union(r1, r2), r1, r2)
    meet = _operand_or(aux_intersection(r1, r2), r1, r2)
    lap1, uap1, lap2, uap2, lap_union, uap_union, lap_meet = (
        _int(_gather(family, n, op, r))
        for op, r in (
            (_LAP, r1), (_UAP, r1), (_LAP, r2), (_UAP, r2), (_LAP, union), (_UAP, union), (_LAP, meet)
        )
    )
    if aux_subset(r1, r2):
        bad = (lap1 & ~lap2) | (uap2 & ~uap1)
        rep.add("algebra.monotone-in-relation", not bad, _set_witness(bad, masks, w))
    else:
        rep.add(
            "algebra.monotone-in-relation", True, note="vacuous: rel1 not below rel2"
        )
    filtered = _int(_gather(family, n, _FILTERED, p))
    for law, bad in (
        ("algebra.lap-of-union", lap_union ^ (lap1 | lap2)),
        ("algebra.uap-of-union", uap_union ^ (uap1 & uap2)),
        ("algebra.lap-of-intersection-on-filtered", filtered & (lap_meet ^ (lap1 & lap2))),
    ):
        rep.add(law, not bad, _set_witness(bad, masks, w))

    # The pair laws: one lane per pair (i, j) of lower (upper) sets, i-major,
    # where b1 & b2 (b1 | b2) is _rows(sets) & (|) sets * m.  Both laws are
    # symmetric and hold on the diagonal, and lane (i, j) comes before (j, i)
    # for i < j, so the first failing lane is the first failing pair i < j.
    for law, sets, lanes, op, combine in (
        ("algebra.uap-preserves-lower-meets", _lower_list(p), _lower_lanes(p), _UAP, and_),
        ("algebra.lap-preserves-upper-joins", _upper_list(p), _upper_lanes(p), _LAP, or_),
    ):
        m = len(sets)
        pairs = combine(_int(_rows(lanes, n)), _int(lanes * m)).to_bytes(m * len(lanes), "little")
        values = _gather(lanes, n, op, r1)
        bad = _int(_gather(pairs, n, op, r1)) ^ combine(_int(_rows(values, n)), _int(values * m))
        i, j = divmod(_first_lane(bad, w), m)
        rep.add(law, not bad, {"set1": mask_text(sets[i]), "set2": mask_text(sets[j])} if bad else None)
    return rep


def check_adjunction(r: AuxRelation) -> CheckReport:
    """Both Galois laws, quantified over the full lattices.

    Each law is decided on one lane per ordered pair (b, a), b-major, so its
    witness is the first failing pair of a scan over b and then a.
    """
    p = r.poset
    n, w = p.n, lane_width(p.n)
    rep = CheckReport(_subject(r), "all lower and upper sets")
    low_sets, up_sets = _lower_list(p), _upper_list(p)
    lowers, uppers = _lower_lanes(p), _upper_lanes(p)
    # g(b), the union of b's sections, and h(b) = full ^ g(full ^ b), from one table
    joins = _gather(lowers + _gather(uppers, n, _COMPLEMENT, p), n, _SEC_JOIN, r)
    g, h = joins[: len(lowers)], _gather(joins[len(lowers) :], n, _COMPLEMENT, p)
    # lane (b, a) of _rows(x) holds x(b), and of x * m holds x(a)
    m, k = len(low_sets), len(up_sets)
    lower = (  # b inside uap(a), against g(b) inside a
        _int(_rows(lowers, n)) & ~_int(_gather(lowers, n, _UAP, r) * m),
        _int(_rows(g, n)) & ~_int(lowers * m),
    )
    upper = (  # lap(a) inside b, against a inside h(b)
        _int(_gather(uppers, n, _LAP, r) * k) & ~_int(_rows(uppers, n)),
        _int(uppers * k) & ~_int(_rows(h, n)),
    )
    for law, sets, outside in (
        ("adjoint.lower-galois", low_sets, lower),
        ("adjoint.upper-galois", up_sets, upper),
    ):
        _, low, high = _lane_constants(len(sets) ** 2, w)
        bad = _nonzero(outside[0], low, high) ^ _nonzero(outside[1], low, high)
        i, j = divmod(_first_lane(bad, w), len(sets))
        rep.add(law, not bad, {"b": mask_text(sets[i]), "a": mask_text(sets[j])} if bad else None)
    return rep
