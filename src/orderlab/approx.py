"""Lower and upper approximation operators induced by an auxiliary relation.

For a relation R on poset P and A subset of P:

  lap(A) = {x in A : section(x) meets A}      (lower approximation)
  uap(A) = {x : section(x) inside down(A)}    (upper approximation)

plus the Galois adjoints these operators have on the lattices of lower
and upper sets, and executable checks for the laws they satisfy.

One formula serves every size: hit(A), the x whose section meets A, is
the union of the sections above the members of A (``AuxRelation.above``);
lap(A) = A & hit(A), and uap(A) = full & ~hit(full & ~down(A)), since x
misses uap(A) exactly when section(x) meets the complement of down(A).  A
relation on at most ``TABLE_MAX_N`` elements, the most whose masks fit in a
byte, tabulates both on first use as ``bytes`` indexed by mask, from chained
``bytes.translate`` calls; above the bound it keeps the byte-sliced hit tables
of ``bitset.ByteUnions``, one lookup per byte of a mask.

The laws over a family of sets are decided on lanes, SIMD within a register
(Lamport, *CACM* 18(8), 1975; Knuth, *TAOCP* 4A, §7.1.3).  Lane j * count + k
of an int holds set j of the family for relation k, in ``bitset.lane_width``
bytes.  A checker's lanes hold one relation, and ``_gather`` maps them
through its tables, or through byte-sliced translates above the bound.  A
batch's lanes hold up to ``BATCH`` relations of a small poset at one byte per
(set, relation), bitsliced across relations (Biham, FSE 1997): a union (hit,
the sections' join) is n rounds of acc |= (x >> i & ones) * 255 & row_i over
the whole family, row_i tiling row i of every relation, while down, the
complement and the upper and filtered flags stay one translate each.  Each
law is a few big-int operations, shared by its checker and
``batch_failures``, whose nonzero lanes are its failing sets: a checker's
witness is the set at the lowest one, and a batch folds them to one lane per
relation in halving ORs; ``basic.leq-identities``, which does not depend on
the relation, is decided once per batch.  The laws of the induced topology
mu_R live here too, for ``topology`` to report: its opens are the upper-set
lanes that lap fixes (``mu_topology`` lists them from the same lanes), and
they are closed under binary intersection (union) exactly when, for every
upper set T, the intersection of the opens that hold T is full or open (the
union of those inside T empty or open), one lap per T for one relation as
for a batch.  A specialization row, such an intersection or union, an
interior and a c-space cover are each the OR of the values whose key lies
inside a set (``_below``): for one relation one zeta transform, up to the
table bound or where its table is the smaller.  The per-poset tables and
set lists come from the one-entry memo of ``poset``.  Only this module knows
the table bound and the tables behind the lanes: other modules pack lanes
with ``_pack`` and map them with ``_gather`` through an operator ``_Op``, and
a table indexed by mask, such as a reference table, is its own
(``_TABLE``).
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import compress
from operator import and_, or_, xor
from typing import Callable, Iterable, Sequence

from .auxrel import AuxRelation, aux_subset, classify, leq_aux
from .bitset import ByteUnions, ElementSet, lane_width, mask_text, pack, submask_unions, unpack
from .errors import NotLower, NotUpper, PosetMismatch
from .poset import (
    Poset,
    _check_universe,
    _closed,
    _directed,
    _join,
    _least,
    _lower_list,
    _per_poset,
    _upper_list,
)
from .report import CheckReport


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
    full = (1 << p.n) - 1
    return ElementSet(full & ~_join(r.sec, b.bits ^ full), p.n)


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
    ``rows``, as the lanes of each s and of each s | {x}: x's row leaves s
    only at x."""
    pairs = [(s, s | 1 << x) for x, row in enumerate(rows) for s in sets if row & ~s == 1 << x]
    return _pack((s for s, _ in pairs), p.n), _pack((t for _, t in pairs), p.n)


@_per_poset
def _upper_covers(p: Poset) -> tuple[bytes, bytes]:
    return _covers(p, _upper_list(p), p.up)


@_per_poset
def _lower_covers(p: Poset) -> tuple[bytes, bytes]:
    return _covers(p, _lower_list(p), p.down)


def _spread(lanes: bytes, m: int, size: int) -> bytes:
    """Each block of ``size`` bytes of ``lanes`` repeated m times in place."""
    if m == 1:
        return lanes
    return b"".join(lanes[i : i + size] * m for i in range(0, len(lanes), size))


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
# A table of one mask per mask, such as a reference table, as its own operator.
_TABLE: _Op = (lambda table: table.ljust(256, b"\0"), _per_mask(lambda table: table.__getitem__))


# -- lanes of several relations ------------------------------------------------


class _Lanes:
    """``lap``, ``uap`` and ``join`` (the sections' join) of ``count`` relations
    on p, on lanes j * count + k that hold set j for relation k; ``secs[x]``
    and ``aboves[x]`` hold sec(x) and above(x) of each relation as lanes."""

    def __init__(self, p: Poset, count: int, secs, aboves, lap, uap, join):
        self.p, self.count, self.secs, self.aboves = p, count, secs, aboves
        self.lap, self.uap, self.join = lap, uap, join

    def tile(self, lanes: bytes, m: int = 0) -> bytes:
        """Each lane once per relation; with m, each block of them m times."""
        w = lane_width(self.p.n)
        return _spread(lanes, m, self.count * w) if m else _spread(lanes, self.count, w)


class _Single(_Lanes):
    """A checker's lanes: one relation, through its tables."""

    def __init__(self, r: AuxRelation):
        self.p, self.count, self.secs, self.aboves, self.r = r.poset, 1, r.sec, r.above, r

    def lap(self, lanes: bytes) -> bytes:
        return _gather(lanes, self.p.n, _LAP, self.r)

    def uap(self, lanes: bytes) -> bytes:
        return _gather(lanes, self.p.n, _UAP, self.r)

    def join(self, lanes: bytes) -> bytes:
        return _gather(lanes, self.p.n, _SEC_JOIN, self.r)


def _repeat(value: int, block: int, size: int) -> int:
    """The ``block`` bytes of value repeated to fill ``size`` bytes."""
    return _int(value.to_bytes(block, "little") * (size // block))


def _unions(rows: list[int], count: int) -> Callable[[bytes], bytes]:
    """The OR of rows[i] over the members i of each one-byte lane, rows[i]
    holding element i's row of each of ``count`` relations, kept for each
    argument: n rounds of acc |= (x >> i & ones) * 255 & row_i over the lanes."""
    tiles: dict = {}

    @lru_cache(maxsize=None)
    def union(lanes: bytes) -> bytes:
        size = len(lanes)
        if size not in tiles:
            tiles[size] = _int(b"\1" * size), [_repeat(row, count, size) for row in rows]
        ones, tiled = tiles[size]
        x, acc = _int(lanes), 0
        for row in tiled:
            acc |= (x & ones) * 255 & row
            x >>= 1
        return acc.to_bytes(size, "little")

    return union


def _batch_operators(p: Poset, rels: Sequence[AuxRelation]) -> _Lanes:
    """The lanes of several relations on p, n <= ``TABLE_MAX_N``, where a batch
    reads lap and uap: one byte per (set, relation), with lap(x) = x & hit(x),
    uap(x) = comp(hit(comp(down(x)))), the unions from ``_unions`` and down
    and comp a translate each."""
    comp, down, ones = _complements(p.n), _down_bytes(p), _int(b"\1" * len(rels))
    secs = [_int(bytes(row)) for row in zip(*(r.sec for r in rels))]
    # the sections transposed on lanes: bit j of above(i) is bit i of sec(j)
    aboves = [sum((s >> i & ones) << j for j, s in enumerate(secs)) for i in range(p.n)]
    hit = _unions(aboves, len(rels))
    return _Lanes(
        p, len(rels), secs, aboves,
        lambda x: (_int(x) & _int(hit(x))).to_bytes(len(x), "little"),
        lambda x: hit(x.translate(down).translate(comp)).translate(comp),
        _unions(secs, len(rels)),
    )


def _fold(e: int, size: int) -> int:
    """The OR of the blocks of ``size`` bits of e, in halving steps."""
    while e >> size:
        half = -(-e.bit_length() // (2 * size)) * size
        e = (e & ((1 << half) - 1)) | e >> half
    return e


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


def _add_pair_laws(rep: CheckReport, laws: list, keys: tuple[str, str], w: int) -> None:
    """Each (law, first sets, second sets, failing lanes): its witness is the
    pair at the first failing lane."""
    for law, first, second, bad in laws:
        k = _first_lane(bad, w)
        pair = (mask_text(_lane(x, k, w)) for x in (first, second)) if bad else ()
        rep.add(law, not bad, dict(zip(keys, pair)) or None)


# -- partition ---------------------------------------------------------------


def _partition_lanes(lanes: _Lanes, family: bytes) -> tuple[int, int, int, int, int]:
    """lap(A), uap of A's complement, the upper flags, and the lanes where the
    two miss a point and where they meet on an upper A."""
    p, n = lanes.p, lanes.p.n
    lap_a = _int(lanes.lap(family))
    uap_rest = _int(lanes.uap(_gather(family, n, _COMPLEMENT, p)))
    upper = _int(_gather(family, n, _UPPER, p))
    return lap_a, uap_rest, upper, (lap_a | uap_rest) ^ _fulls(family, n), lap_a & uap_rest & upper


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
    lap_a, uap_rest, upper, uncovered, overlap = _partition_lanes(_Single(r), _pack(masks, n))
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


def _int_lanes(lanes: _Lanes) -> list[int]:
    """The failing lanes of statements (2)-(5) of ``int_statements``: lap not
    idempotent on an upper set; that, or lap(U) not inside U, or lap not
    monotone on a covering pair (lanes after the sets'); the same of uap on
    lower sets, with L not inside uap(L)."""
    p = lanes.p
    out = []
    for sets, covers, op, outside in (
        (_upper_lanes(p), _upper_covers, lanes.lap, lambda value, s: value & ~s),
        (_lower_lanes(p), _lower_covers, lanes.uap, lambda value, s: s & ~value),
    ):
        tiled = lanes.tile(sets)
        values = op(tiled)
        moved = _int(op(values)) ^ _int(values)
        order = outside(_int(values), _int(tiled))
        if not moved or lanes.count > 1:  # one relation that moves a set fails (3) anyway
            below, above = (_int(op(lanes.tile(c))) for c in covers(p))
            order |= (below & ~above) << 8 * len(tiled)
        out += [moved, moved | order]
    return out


def int_statements(r: AuxRelation) -> tuple[tuple[bool, bool, bool, bool, bool], dict]:
    """The five equivalent statements of the interpolation characterization.

    (1) interpolation; (2) lap idempotent on upper sets; (3) lap a kernel
    operator on the upper-set lattice; (4) uap idempotent on lower sets;
    (5) uap a closure operator on the lower-set lattice.  The lattices are
    finite and distributive, so an operator is monotone on one exactly when
    it is on each covering pair s < s | {x}.
    """
    p = r.poset
    w = lane_width(p.n)
    lap_bad, s3_bad, uap_bad, s5_bad = _int_lanes(_Single(r))
    witnesses = {
        k: mask_text(sets[_first_lane(bad, w)])
        for k, bad, sets in (
            ("lap-idempotent", lap_bad, _upper_list(p)),
            ("uap-idempotent", uap_bad, _lower_list(p)),
        )
        if bad
    }
    return (classify(r).has_int, not lap_bad, not s3_bad, not uap_bad, not s5_bad), witnesses


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


def _basic_lanes(lanes: _Lanes, family: bytes) -> dict[str, int]:
    """The failing lanes of the subset laws of ``check_basic_laws`` but
    ``basic.leq-identities``, which does not depend on the relation."""
    p, n, w = lanes.p, lanes.p.n, lane_width(lanes.p.n)
    lap_v, uap_v, down_v = lanes.lap(family), lanes.uap(family), _gather(family, n, _DOWN, p)
    b, lap_b, uap_b = map(_int, (family, lap_v, uap_v))
    _, low, high = _lane_constants(len(family) // w, w)
    defined = 0  # at each lane, the x whose section meets its set, read off the sections
    for x, sec in enumerate(lanes.secs):
        at = _nonzero(b & _repeat(sec, w * lanes.count, len(family)), low, high)
        defined |= at >> 8 * w - 1 - x
    return {
        "basic.sandwich": (lap_b & ~b) | (b & ~uap_b),
        "basic.uap-down-invariance": uap_b ^ _int(lanes.uap(down_v)),
        "basic.uap-lower": _int(_gather(uap_v, n, _DOWN, p)) & ~uap_b,
        "basic.lap-preserves-upper": (
            _int(_gather(family, n, _UPPER, p)) & ~_int(_gather(lap_v, n, _UPPER, p))
        ),
        "basic.membership-characterization": lap_b ^ (b & defined),
    }


def _leq_identities(p: Poset, family: bytes) -> tuple[int, int]:
    """The lanes where lap of the order is not the identity, and where its uap
    is not the down closure."""
    n, leq = p.n, leq_aux(p)
    return (
        _int(_gather(family, n, _LAP, leq)) ^ _int(family),
        _int(_gather(family, n, _UAP, leq)) ^ _int(_gather(family, n, _DOWN, p)),
    )


def _relation_lanes(lanes: _Lanes) -> tuple[dict[str, int], tuple[int, int, int]]:
    """The failing lanes of the laws of ``check_basic_laws`` that no subset
    enters, and the lanes behind the whole-space equivalence: "some section
    is empty" (top bit), uap of the empty set and lap of the full set."""
    p, n, w = lanes.p, lanes.p.n, lane_width(lanes.p.n)
    full, size = (1 << n) - 1, 8 * w * lanes.count
    probes = lanes.tile(_pack(p.up + (0, full), n))
    lap_p, uap_p = _int(lanes.lap(probes)), _int(lanes.uap(probes))
    ones, low, high = _lane_constants(lanes.count, w)
    lap_empty, lap_full = lap_p >> size * n & (1 << size) - 1, lap_p >> size * (n + 1)
    uap_empty, uap_full = uap_p >> size * n & (1 << size) - 1, uap_p >> size * (n + 1)
    empty = high ^ reduce(and_, (_nonzero(sec, low, high) for sec in lanes.secs), high)
    uap_bad, lap_bad = _nonzero(uap_empty, low, high), _nonzero(lap_full ^ full * ones, low, high)
    aboves = sum(above << size * x for x, above in enumerate(lanes.aboves))
    return {
        "basic.principal-upper-section": (lap_p & (1 << size * n) - 1) ^ aboves,
        "basic.whole-space-equivalence": (empty ^ uap_bad) | (uap_bad ^ lap_bad),
        "basic.lap-of-empty": lap_empty,
        "basic.uap-of-full": uap_full ^ full * ones,
    }, (empty, uap_empty, lap_full)


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
    family, lanes = _pack(masks, n), _Single(r)
    leq_lap, leq_uap = _leq_identities(p, family)
    failing = list(_basic_lanes(lanes, family).items())
    failing.insert(4, ("basic.leq-identities", leq_lap | leq_uap))
    for law, e in failing:
        witness = _set_witness(e, masks, w)
        if law == "basic.leq-identities" and e:
            witness["op"] = "lap" if _lane(leq_lap, _first_lane(e, w), w) else "uap"
        elif law == "basic.membership-characterization" and e:
            witness["element"] = (e & -e).bit_length() - 1 - 8 * w * _first_lane(e, w)
        rep.add(law, not e, witness)
    relation, (empty, uap_empty, lap_full) = _relation_lanes(lanes)
    whole = {"sections-nonempty": not empty, "uap-empty": mask_text(uap_empty)}
    for law, e in relation.items():
        witness = {"element": _first_lane(e, w)} if law.endswith("section") else None
        if law.endswith("equivalence"):
            witness = {**whole, "lap-full": mask_text(lap_full)}
        rep.add(law, not e, witness if e else None)
    return rep


def _combined(r1: AuxRelation, r2: AuxRelation, op: Callable[[int, int], int]) -> AuxRelation:
    """The relation with sections op(r1's, r2's): an operand if it has them."""
    sec = tuple(map(op, r1.sec, r2.sec))
    return r1 if sec == r1.sec else r2 if sec == r2.sec else AuxRelation(r1.poset, sec)


def _algebra_lanes(one, two, union, meet, family: bytes) -> dict[str, int]:
    """The failing lanes of the subset laws of ``check_algebra``, from the lanes
    of its operands and of their union and intersection.  Monotonicity is
    read only where the first operand lies inside the second."""
    p, n = one.p, one.p.n
    lap1, uap1, lap2, uap2, lap_union, uap_union, lap_meet = (
        _int(op(family))
        for op in (one.lap, one.uap, two.lap, two.uap, union.lap, union.uap, meet.lap)
    )
    filtered = _int(_gather(family, n, _FILTERED, p))
    return {
        "algebra.monotone-in-relation": (lap1 & ~lap2) | (uap2 & ~uap1),
        "algebra.lap-of-union": lap_union ^ (lap1 | lap2),
        "algebra.uap-of-union": uap_union ^ (uap1 & uap2),
        "algebra.lap-of-intersection-on-filtered": filtered & (lap_meet ^ (lap1 & lap2)),
    }


def _pair_lanes(lanes: _Lanes) -> list[tuple[str, int, int, int]]:
    """The pair laws of ``check_algebra``, each with the lanes of both sets at
    each pair (i, j) of lower (upper) sets, i-major, and its failing lanes.
    Both are symmetric and hold on i = j: the first failing pair has i < j."""
    p = lanes.p
    out = []
    for law, packed, op, combine in (
        ("algebra.uap-preserves-lower-meets", _lower_lanes(p), lanes.uap, and_),
        ("algebra.lap-preserves-upper-joins", _upper_lanes(p), lanes.lap, or_),
    ):
        tiled, m = lanes.tile(packed), len(packed) // lane_width(p.n)
        firsts, seconds = _int(lanes.tile(tiled, m)), _int(tiled * m)
        values = op(tiled)
        pairs = combine(firsts, seconds).to_bytes(m * len(tiled), "little")
        bad = _int(op(pairs)) ^ combine(_int(lanes.tile(values, m)), _int(values * m))
        out.append((law, firsts, seconds, bad))
    return out


def check_algebra(r1: AuxRelation, r2: AuxRelation) -> CheckReport:
    """How the operators respond to union/intersection of relations, on every subset."""
    if r1.poset != r2.poset:
        raise PosetMismatch("relations live on different posets")
    p = r1.poset
    n, w = p.n, lane_width(p.n)
    masks = range(1 << n)
    rep = CheckReport(f"n={n};rel1={r1.pairs()};rel2={r2.pairs()}", f"{len(masks)} subsets")
    below = aux_subset(r1, r2)
    one, union, meet = (_Single(r) for r in (r1, _combined(r1, r2, or_), _combined(r1, r2, and_)))
    for law, bad in _algebra_lanes(one, _Single(r2), union, meet, _pack(masks, n)).items():
        if law == "algebra.monotone-in-relation" and not below:
            rep.add(law, True, note="vacuous: rel1 not below rel2")
        else:
            rep.add(law, not bad, _set_witness(bad, masks, w))
    _add_pair_laws(rep, _pair_lanes(one), ("set1", "set2"), w)
    return rep


def _adjunction_lanes(lanes: _Lanes) -> list[tuple[str, int, int, int]]:
    """Both Galois laws, each with the lanes of b and of a at each ordered
    pair (b, a) of lower (upper) sets, b-major, and its failing lanes."""
    p, n, w = lanes.p, lanes.p.n, lane_width(lanes.p.n)
    lowers, uppers = lanes.tile(_lower_lanes(p)), lanes.tile(_upper_lanes(p))
    # g(b), the union of b's sections, and h(b) = full ^ g(full ^ b), from one join
    joins = lanes.join(lowers + _gather(uppers, n, _COMPLEMENT, p))
    g, h = joins[: len(lowers)], _gather(joins[len(lowers) :], n, _COMPLEMENT, p)
    # lane (b, a) of tile(x, m) holds x(b), and of x * m holds x(a)
    m, k = len(_lower_list(p)), len(_upper_list(p))
    low_b, low_a, up_b, up_a = (
        _int(lanes.tile(lowers, m)), _int(lowers * m), _int(lanes.tile(uppers, k)), _int(uppers * k)
    )
    out = []
    for law, b, a, outside, count in (  # b inside uap(a), against g(b) inside a
        ("adjoint.lower-galois", low_b, low_a, (
            low_b & ~_int(lanes.uap(lowers) * m), _int(lanes.tile(g, m)) & ~low_a
        ), m),
        ("adjoint.upper-galois", up_b, up_a, (  # lap(a) inside b, against a inside h(b)
            _int(lanes.lap(uppers) * k) & ~up_b, up_a & ~_int(lanes.tile(h, k))
        ), k),
    ):
        _, low, high = _lane_constants(count * count * lanes.count, w)
        out.append((law, b, a, _nonzero(outside[0], low, high) ^ _nonzero(outside[1], low, high)))
    return out


def check_adjunction(r: AuxRelation) -> CheckReport:
    """Both Galois laws, quantified over the full lattices: a law's witness is
    the first failing pair (b, a) of a scan over b and then a."""
    rep = CheckReport(_subject(r), "all lower and upper sets")
    _add_pair_laws(rep, _adjunction_lanes(_Single(r)), ("b", "a"), lane_width(r.poset.n))
    return rep


# -- the induced topology ----------------------------------------------------------
#
# The opens of mu_R are the upper sets that lap fixes; ``topology`` builds its
# reports from these lanes.


def _sup_bit(p: Poset, b: int) -> int:
    """The supremum of the mask b as a one-bit mask, 0 where there is none."""
    s = _least(p.up, b)
    return 0 if s is None else 1 << s


def _fixed(lanes: _Lanes) -> tuple[bytes, int]:
    """The upper sets on lanes, and the top bit of each lane whose set lap fixes."""
    p, w = lanes.p, lane_width(lanes.p.n)
    tiled = lanes.tile(_upper_lanes(p))
    _, low, high = _lane_constants(len(tiled) // w, w)
    return tiled, _nonzero(_int(lanes.lap(tiled)) ^ _int(tiled), low, high) ^ high


def _opens(lanes: _Lanes) -> tuple[bytes, int]:
    """The upper sets on lanes that lap fixes, the others 0, and the top bits
    of ``_fixed``."""
    (tiled, fixed), w = _fixed(lanes), lane_width(lanes.p.n)
    opened = _int(tiled) & (fixed >> 8 * w - 1) * ((1 << lanes.p.n) - 1)
    return opened.to_bytes(len(tiled), "little"), fixed


def _open_masks(lanes: _Lanes, opens: tuple[bytes, int] | None = None) -> list[int]:
    """The opens of the one relation of ``lanes``, ascending, from its ``opens``
    of ``_opens`` if given."""
    sets, fixed = opens or _fixed(lanes)
    w = lane_width(lanes.p.n)
    is_open = (fixed >> 8 * w - 1).to_bytes(len(sets), "little")[::w]
    return list(compress(_upper_list(lanes.p), is_open))


@lru_cache(maxsize=None)
def _points(n: int) -> tuple[bytes, bytes]:
    """The one-point sets {x} at lane x, and their complements."""
    return _pack([1 << x for x in range(n)], n), _pack([(1 << n) - 1 ^ 1 << x for x in range(n)], n)


@lru_cache(maxsize=4)  # one relation's laws share a few tables of 256 bytes
def _zeta(n: int, keys: bytes, values: bytes) -> bytes:
    """``submask_unions`` of one-byte lanes as a translate table."""
    return submask_unions(n, zip(keys, values)).ljust(256, b"\0")


def _below(lanes: _Lanes, keys: bytes | None, values: bytes, queries: bytes) -> bytes:
    """At lane (q, k) of ``queries``, the OR of the values at the lanes (i, k)
    whose key lies inside query q of relation k; by default the keys are the
    points.  One relation reads the zeta table of its (key, value) pairs, or
    for the points the table of the values' unions, up to the table bound,
    and above it where the table has fewer lanes than the tests; otherwise
    each lane (i, q, k) is tested."""
    p, n, w, count = lanes.p, lanes.p.n, lane_width(lanes.p.n), lanes.count
    if count == 1 and n <= TABLE_MAX_N:
        return queries.translate(_zeta(n, keys, values) if keys else ByteUnions.byte_table(values))
    keys = keys or lanes.tile(_points(n)[0])
    if count == 1:  # a lane without a value adds nothing
        kept = unpack(values, w)
        keys, values = list(compress(unpack(keys, w), kept)), list(compress(kept, kept))
        if len(keys) * len(queries) // w >= 1 << n:
            table = submask_unions(n, zip(keys, values))
            return _pack(map(table.__getitem__, unpack(queries, w)), n)
        keys, values = _pack(keys, n), _pack(values, n)
    m, q = len(keys) // (w * count), len(queries) // (w * count)
    _, low, high = _lane_constants(m * q * count, w)
    inside = _nonzero(_int(lanes.tile(keys, q)) & ~_int(queries * m), low, high) ^ high
    found = _int(lanes.tile(values, q)) & (inside >> 8 * w - 1) * ((1 << n) - 1)
    return _fold(found, 8 * len(queries)).to_bytes(len(queries), "little")


def _shut(opens: tuple[bytes, int], n: int) -> bytes:
    """Each open's complement at its lane of the ``opens`` of ``_opens``, 0 elsewhere."""
    opened, fixed = opens
    full = (fixed >> 8 * lane_width(n) - 1) * ((1 << n) - 1)
    return (_int(opened) ^ full).to_bytes(len(opened), "little")


def _spec_rows(lanes: _Lanes, opens: tuple[bytes, int]) -> int:
    """Row x of the specialization order of mu_R at lane x for each relation,
    from the ``opens`` of ``_opens``: the AND of the opens that hold x, full
    ^ the OR of their complements, which lie inside full ^ {x}."""
    p, n, shut = lanes.p, lanes.p.n, _shut(opens, lanes.p.n)
    return _int(_gather(_below(lanes, shut, shut, lanes.tile(_points(n)[1])), n, _COMPLEMENT, p))


def _cspace_lanes(lanes: _Lanes, opened: bytes, rows: int, base: bool) -> tuple[int, int, int]:
    """At lane (t, j, k) of an open U_j, the points of U_j that the union over
    its points of the interiors of their up-sets misses, in the
    specialization order, whose ``rows`` are given (t = 0), and in p (1).
    If ``base``, also lane (y, k) not 0 where the section above(y) of
    relation k is not open, and at lane (j, k) the points of U_j that the
    sections above its points that lie inside U_j miss; else 0, 0."""
    p, n, step = lanes.p, lanes.p.n, lane_width(lanes.p.n) * lanes.count
    ups = rows.to_bytes(n * step, "little") + lanes.tile(_pack(p.up, n))
    # the union of the opens inside each up-set, then of those of an open's points
    inner = _below(lanes, opened, opened, ups)
    covers = (_below(lanes, None, inner[t : t + n * step], opened) for t in (0, n * step))
    missing = _int(opened * 2) & ~_int(b"".join(covers))
    if not base:
        return missing, 0, 0
    sections = b"".join(a.to_bytes(step, "little") for a in lanes.aboves)
    keys = (_int(sections) | _int(lanes.tile(_points(n)[0]))).to_bytes(n * step, "little")
    moved = _int(lanes.lap(sections)) ^ _int(sections)
    lower = _gather(_gather(sections, n, _UPPER, p), n, _COMPLEMENT, p)  # full where not upper
    return missing, moved | _int(lower), _int(opened) & ~_int(_below(lanes, keys, sections, opened))


def _binary_lanes(lanes: _Lanes, opens: tuple[bytes, int]) -> tuple[int, int]:
    """The failing lanes of the binary intersection and union laws of mu_R,
    from the ``opens`` of ``_opens``, one per upper set T: where M(T), the
    intersection of the opens that hold T, is neither full nor open, and
    where J(T), the union of the opens inside T, is neither empty nor open.
    The opens are closed under binary intersection (union) exactly when no
    lane fails (docs/closure-lemma.md).  M(T) and J(T) are upper sets, so
    they are open where lap fixes them."""
    p, n, w = lanes.p, lanes.p.n, lane_width(lanes.p.n)
    opened, shut, tiled = opens[0], _shut(opens, n), lanes.tile(_upper_lanes(p))
    size = len(tiled)
    # full ^ M(T) is the union of the complements of the opens that hold T
    outside = _below(lanes, shut, shut, _gather(tiled, n, _COMPLEMENT, p))
    joins = _below(lanes, opened, opened, tiled)
    values = (_int(outside) ^ _fulls(tiled, n)).to_bytes(size, "little") + joins
    _, low, high = _lane_constants(2 * size // w, w)
    moved = _nonzero(_int(lanes.lap(values)) ^ _int(values), low, high)
    bad = moved & _nonzero(_int(outside + joins), low, high)
    return bad & (1 << 8 * size) - 1, bad >> 8 * size


def _mu_lanes(
    lanes: _Lanes, opens: tuple[bytes, int], rows: int, binary: tuple[int, int]
) -> dict[str, int]:
    """The failing lanes of the laws of ``check_mu_laws`` in report order, the
    last three those of approximating relations, from the ``opens`` of
    ``_opens``, the ``rows`` of ``_spec_rows``, 0 if no relation is
    approximating, and the ``binary`` lanes of ``_binary_lanes``."""
    p, n, w, count = lanes.p, lanes.p.n, lane_width(lanes.p.n), lanes.count
    fixed, tiled = opens[1], lanes.tile(_upper_lanes(p))
    size, step = len(tiled), w * count  # the bytes of all sets, of one
    m, block = size // step, 8 * step
    # the constants of the (element, set) lanes: a narrower family's are their low lanes
    _, low, high = _lane_constants(n * m * count, w)
    shut = fixed ^ high & (1 << 8 * size) - 1
    meet, join = binary
    # lanes (x, set): sup(sec x) lies in the set, and sec x misses it
    secs = b"".join(sec.to_bytes(step, "little") for sec in lanes.secs)
    masks = unpack(secs, w)
    sup = {s: _sup_bit(p, s) for s in set(masks)}  # the relations of a batch share sections
    sups = _pack(map(sup.__getitem__, masks), n)
    every = _int(tiled * n)
    inside = _nonzero(every & _int(lanes.tile(sups, m)), low, high)
    reached = _fold(inside & ~_nonzero(every & _int(lanes.tile(secs, m)), low, high), 8 * size)
    wrong = _fold(rows ^ _int(lanes.tile(_pack(p.up, n))), block) if rows else 0
    return {
        "topology.contains-empty": shut & (1 << block) - 1,
        "topology.contains-full": shut >> block * (m - 1),
        "topology.binary-intersection": meet,
        "topology.binary-union": join,
        "mu.open-implies-inaccessible": fixed & reached,
        "mu.inaccessible-implies-open": shut & ~reached,
        "mu.finer-than-scott": shut,
        "mu.specialization-recovers-order": wrong,
    }


def _chain_fails(lanes: _Lanes, family: bytes) -> bool:
    """Whether a link of the chain of the one relation of ``lanes`` fails at
    some lane of ``family``."""
    chain = _chain_lanes(lanes, family, _opens(lanes)[0])
    return any(below & ~above for below, above in zip(chain, chain[1:]))


def _chain_lanes(lanes: _Lanes, family: bytes, opened: bytes) -> list[int]:
    """Scott interior, mu interior, lap, the set, uap, mu closure and Scott
    closure at each lane of ``family``, on the lanes of one relation with
    the ``opened`` sets: the Scott interior is full ^ down(full ^ b), the
    closure down(b), and the mu interior the union of the opens inside b
    (``_below``)."""
    p, n = lanes.p, lanes.p.n
    h, fulls = len(family), _fulls(family, n)
    both = family + _gather(family, n, _COMPLEMENT, p)
    mu = _int(_below(lanes, opened, opened, both))
    down = _int(_gather(both, n, _DOWN, p))
    return [
        down >> 8 * h ^ fulls,
        mu & (1 << 8 * h) - 1,
        _int(lanes.lap(family)),
        _int(family),
        _int(lanes.uap(family)),
        mu >> 8 * h ^ fulls,
        down & (1 << 8 * h) - 1,
    ]


# -- every relation of a batch at once -------------------------------------------

BATCH = 64  # relations per batch
SHARED_MAX_SETS = 48  # the most upper sets of a poset whose relations share lanes


def batch_failures(
    p: Poset, rels: Sequence[AuxRelation], masks: Sequence[int], suites: Iterable[str]
) -> dict[str, bytes]:
    """Per relation suite of ``suites``, one byte per relation of
    ``rels``, bit 0 set exactly where a checker that the suite runs on it (the
    per-subset ones over ``masks``) fails a law, but cspace.classical-scott;
    cspace's bits 1-5 hold what it finds (``topology.cspace_entries``).
    No suite reads a directed subset, so each is decided at every n, as its
    checkers decide it.  Relations
    share lanes up to ``TABLE_MAX_N`` and ``SHARED_MAX_SETS``, above which
    the m^2 lanes of the pair laws (m upper sets) make shared unions slower
    than their tables; a lone relation has its own."""
    if len(rels) == 1 or p.n > TABLE_MAX_N or len(_upper_list(p)) > SHARED_MAX_SETS:
        each = [_group_failures(p, [r], _Single(r), masks, suites) for r in rels]
        return dict(zip(each[0], map(b"".join, zip(*(f.values() for f in each)))))
    return _group_failures(p, rels, _batch_operators(p, rels), masks, suites)


def _group_failures(p: Poset, rels, lanes: _Lanes, masks, suites) -> dict[str, bytes]:
    """``batch_failures`` of relations on the ``lanes`` they share.  All of a
    suite's failing lanes fold to one lane per relation together, since every
    family's lanes are blocks of one lane per relation."""
    n, w, size = p.n, lane_width(p.n), 8 * lane_width(p.n) * len(rels)
    ones, low, high = _lane_constants(len(rels), w)

    def flag(e: int) -> int:  # bit 0 of the lane of each relation that e fails
        return _nonzero(_fold(e, size), low, high) >> 8 * w - 1 if len(rels) > 1 else int(e != 0)

    packed = _pack(masks, n)
    family = lanes.tile(packed)
    fails = {}
    pre = app = has_int = 0  # bit 0 of the lane of each relation of the class
    for k, r in enumerate(rels if {"cspace", "int-char", "mu-topology"} & set(suites) else ()):
        cls, bit = classify(r), 1 << 8 * w * k
        pre, app = pre | bit * cls.pre_approximating, app | bit * cls.approximating
        has_int |= bit * cls.has_int
    # a relation that is not pre-approximating has no mu-topology or cspace instance
    if pre and ("mu-topology" in suites or "cspace" in suites):
        opens = _opens(lanes)
        rows = _spec_rows(lanes, opens) if app or "cspace" in suites else 0
        # mu's binary laws, which cdl reads for a relation with interpolation
        binary = _binary_lanes(lanes, opens) if "mu-topology" in suites or has_int else (0, 0)
    if "mu-topology" in suites:
        laws = list(_mu_lanes(lanes, opens, rows, binary).values()) if pre else ()
        fails["mu-topology"] = pre and pre & (
            flag(reduce(or_, laws[:5])) | app & flag(reduce(or_, laws[5:]))
        )
    if "cspace" in suites:
        fails["cspace"] = 0
        if pre:  # bits 1-5: both c-space readings, cdl, approximating, interpolation
            missing, unopened, base = _cspace_lanes(lanes, opens[0], rows, has_int != 0)
            block = 8 * len(opens[0])
            spec, under = flag(missing & (1 << block) - 1), flag(missing >> block)
            hard = has_int & (spec | flag(unopened | base))
            cdl = has_int & (flag(reduce(or_, binary)) ^ ones)
            bits = (hard, spec ^ ones, under ^ ones, cdl, app, has_int)
            fails["cspace"] = pre * 63 & sum(e << b for b, e in enumerate(bits))
    if "chain" in suites:
        # nor has one that is not approximating a chain instance.  On a finite
        # poset the order is the one approximating auxiliary relation, so a
        # batch holds few, and each is decided on its own lanes.
        fails["chain"] = sum(
            1 << 8 * w * k
            for k, r in enumerate(rels)
            if classify(r).approximating and _chain_fails(_Single(r), packed)
        )
    if "partition" in suites:
        fails["partition"] = flag(reduce(or_, _partition_lanes(lanes, family)[3:]))
    if "int-char" in suites:  # flags where a statement is false
        stmts = [has_int ^ ones, *map(flag, _int_lanes(lanes))]
        fails["int-char"] = reduce(or_, map(xor, stmts, stmts[1:]))
    if "algebra" in suites:
        # A relation inside the order has it as its union with the order and
        # itself as the intersection.  One that is not fails
        # basic.principal-upper-section: above(y) leaves up(y), lap(up(y)) not.
        leq, everything = _Single(leq_aux(p)), lanes.tile(_pack(range(1 << n), n))
        laws = [
            *_basic_lanes(lanes, family).values(),
            *_relation_lanes(lanes)[0].values(),
            *_algebra_lanes(lanes, leq, leq, lanes, everything).values(),
            *(bad for *_, bad in _pair_lanes(lanes) + _adjunction_lanes(lanes)),
        ]
        # basic.leq-identities does not depend on the relation: all fail it or none
        fails["algebra"] = flag(reduce(or_, laws)) | ones * any(_leq_identities(p, packed))
    return {s: e.to_bytes(size // 8, "little")[::w] for s, e in fails.items()}
