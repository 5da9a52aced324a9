"""Symbolic countably-infinite posets with decidable order rules.

Two built-in families, ``FAMILIES`` by name:

* ladder -- columns of chains a(i,0) < a(i,1) < ... whose declared suprema
  form a second chain b(0) < b(1) < ... with declared supremum top.  The
  distinguished set A of all a's has its down closure equal to itself, a
  one-step image of A union the b's, and Scott closure everything, so the
  closure of A genuinely takes two steps.  Its way-below relation is
  deliberately out of scope.
* omega -- a chain nat(0) < nat(1) < ... with declared supremum omega.
  Way-below is answered analytically: omega is not way below itself, so
  the set of elements with omega way below them is empty even though the
  up-set of omega is not.

Finite windows are real Poset values.  Each family gives its window's size
and up-rows in closed form (``window_size``, ``window_rows``), so an
oversized window is refused before anything is built, and
``window.order-embedding`` checks those rows against ``leq`` on every
pair.  Window verification checks that the analytic answers and the
computed finite answers never disagree on the window, completing declared
chains by their declared suprema instead of ever computing an infinite
supremum: the window's one step is ``reference.one_step_mask`` with the
declared chains as its directed sets, and ``window.one-step-consistency``
asks it to agree with ``Aprime`` on every element of the window.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import compress
from typing import Callable

from . import reference
from .bitset import iter_bits
from .errors import (
    BadParameters,
    BudgetExceeded,
    ForeignElement,
    UnknownSet,
    WindowTooLarge,
)
from .poset import Poset, from_rows
from .report import CheckReport

MAX_WINDOW = 240

_TERM_RE = re.compile(
    r"^(?:(a)\((\d+),(\d+)\)|(b)\((\d+)\)|(top)|(nat)\((\d+)\)|(omega))$"
)


@dataclass(frozen=True, slots=True)
class FamilyElement:
    """A term of a family signature: a(i,j), b(i), top, nat(k), or omega."""

    kind: str
    i: int = 0
    j: int = 0

    def __post_init__(self):
        if self.kind not in ("a", "b", "top", "nat", "omega"):
            raise BadParameters(f"unknown element constructor {self.kind!r}")
        if self.i < 0 or self.j < 0:
            raise BadParameters("element indices must be nonnegative")

    def __str__(self):
        if self.kind == "a":
            return f"a({self.i},{self.j})"
        if self.kind == "b":
            return f"b({self.i})"
        if self.kind == "nat":
            return f"nat({self.i})"
        return self.kind

    @classmethod
    def parse(cls, text: str) -> "FamilyElement":
        m = _TERM_RE.match(text.strip())
        if not m:
            raise BadParameters(f"cannot parse family element {text!r}")
        if m.group(1):
            return cls("a", int(m.group(2)), int(m.group(3)))
        if m.group(4):
            return cls("b", int(m.group(5)))
        if m.group(6):
            return cls("top")
        if m.group(7):
            return cls("nat", int(m.group(8)))
        return cls("omega")


@dataclass(frozen=True, eq=False)
class DeclaredChain:
    """A symbolic directed chain with a declared supremum.

    contains decides chain membership; is_upper_bound decides, from the
    order rules alone, whether an element bounds the whole infinite chain.
    """

    name: str
    sup: FamilyElement
    contains: Callable[[FamilyElement], bool]
    is_upper_bound: Callable[[FamilyElement], bool]


class LadderFamily:
    name = "ladder"
    signature = ("a", "b", "top")

    def leq(self, x: FamilyElement, y: FamilyElement) -> bool:
        if x.kind == y.kind == "a":
            return x.i == y.i and x.j <= y.j
        if x.kind == "a" and y.kind == "b":
            return x.i <= y.i
        if x.kind == y.kind == "b":
            return x.i <= y.i
        if y.kind == "top":
            return True
        return False

    def member(self, set_name: str, x: FamilyElement) -> bool:
        if set_name in ("A", "downA"):
            return x.kind == "a"
        if set_name == "Aprime":
            return x.kind in ("a", "b")
        if set_name == "scott_closure_A":
            return True
        raise UnknownSet(set_name)

    def window_size(self, m: int, n: int) -> int:
        return (m + 1) * (n + 1) + m + 2

    def window_elements(self, m: int, n: int) -> list[FamilyElement]:
        out = [
            FamilyElement("a", i, j) for i in range(m + 1) for j in range(n + 1)
        ]
        out.extend(FamilyElement("b", i) for i in range(m + 1))
        out.append(FamilyElement("top"))
        return out

    def window_rows(self, m: int, n: int) -> list[int]:
        """The up-rows in ``window_elements`` order: a(i,j) has a(i,j..n),
        b(i..m) and top above it, b(i) has b(i..m) and top."""
        grid = (m + 1) * (n + 1)
        top = 1 << (grid + m + 1)
        bs = [((1 << (m + 1 - i)) - 1) << (grid + i) | top for i in range(m + 1)]
        rows = [
            ((1 << (n + 1 - j)) - 1) << (i * (n + 1) + j) | bs[i]
            for i in range(m + 1)
            for j in range(n + 1)
        ]
        return rows + bs + [top]

    def chains(self, m: int, n: int) -> list[DeclaredChain]:
        cols = [
            DeclaredChain(
                f"column-{i}",
                FamilyElement("b", i),
                lambda e, i=i: e.kind == "a" and e.i == i,
                lambda e, i=i: (e.kind == "b" and e.i >= i) or e.kind == "top",
            )
            for i in range(m + 1)
        ]
        cols.append(
            DeclaredChain(
                "b-chain",
                FamilyElement("top"),
                lambda e: e.kind == "b",
                lambda e: e.kind == "top",
            )
        )
        return cols


class OmegaFamily:
    name = "omega"
    signature = ("nat", "omega")

    def leq(self, x: FamilyElement, y: FamilyElement) -> bool:
        if x.kind == y.kind == "nat":
            return x.i <= y.i
        if x.kind == "nat" and y.kind == "omega":
            return True
        return x.kind == y.kind == "omega"

    def way_below(self, x: FamilyElement, y: FamilyElement) -> bool:
        if x.kind == y.kind == "nat":
            return x.i <= y.i
        if x.kind == "nat" and y.kind == "omega":
            return True
        return False

    def window_size(self, m: int, n: int) -> int:
        return n + 2

    def window_elements(self, m: int, n: int) -> list[FamilyElement]:
        out = [FamilyElement("nat", k) for k in range(n + 1)]
        out.append(FamilyElement("omega"))
        return out

    def window_rows(self, m: int, n: int) -> list[int]:
        """The up-rows in ``window_elements`` order: nat(k) has nat(k..n) and
        omega above it."""
        return [((1 << (n + 2 - k)) - 1) << k for k in range(n + 2)]

    def chains(self, m: int, n: int) -> list[DeclaredChain]:
        return [
            DeclaredChain(
                "nat-chain",
                FamilyElement("omega"),
                lambda e: e.kind == "nat",
                lambda e: e.kind == "omega",
            )
        ]


LADDER = LadderFamily()
OMEGA = OmegaFamily()
FAMILIES = {f.name: f for f in (LADDER, OMEGA)}

Family = LadderFamily | OmegaFamily


def get_family(name: str) -> Family:
    try:
        return FAMILIES[name]
    except KeyError:
        raise BadParameters(f"unknown family {name!r}") from None


def _admit(f: Family, *elements: FamilyElement) -> None:
    for e in elements:
        if e.kind not in f.signature:
            raise ForeignElement(f"{e} is not a {f.name}-family element")


def family_order(f: Family, x: FamilyElement, y: FamilyElement) -> bool:
    _admit(f, x, y)
    return f.leq(x, y)


def family_membership(f: Family, set_name: str, x: FamilyElement) -> bool:
    if not isinstance(f, LadderFamily):
        raise BadParameters("membership sets are defined for the ladder family")
    _admit(f, x)
    return f.member(set_name, x)


def family_way_below(f: Family, x: FamilyElement, y: FamilyElement) -> bool:
    if not isinstance(f, OmegaFamily):
        raise BadParameters("way-below is answered only for the omega family")
    _admit(f, x, y)
    return f.way_below(x, y)


@dataclass(frozen=True, eq=False)
class Window:
    """A finite restriction of a family, as a validated Poset."""

    family: Family
    poset: Poset
    elements: tuple[FamilyElement, ...]
    m: int
    n: int

    @cached_property
    def _positions(self) -> dict[FamilyElement, int]:
        return {e: k for k, e in enumerate(self.elements)}

    @cached_property
    def declared(self) -> tuple[tuple[DeclaredChain, int], ...]:
        """Each declared chain of the window with the mask of its members."""
        return tuple((c, self.mask(c.contains)) for c in self.family.chains(self.m, self.n))

    def index(self, e: FamilyElement) -> int:
        try:
            return self._positions[e]
        except KeyError:
            raise ForeignElement(f"{e} is outside this window") from None

    def mask(self, holds: Callable[[FamilyElement], bool]) -> int:
        return sum(1 << k for k, e in enumerate(self.elements) if holds(e))


def window(f: Family, m: int, n: int) -> Window:
    if m < 0 or n < 0:
        raise BadParameters("window parameters must be nonnegative")
    size = f.window_size(m, n)
    if size > MAX_WINDOW:
        raise WindowTooLarge(f"window of {size} elements exceeds the cap of {MAX_WINDOW}")
    elements = f.window_elements(m, n)
    p = from_rows(f.window_rows(m, n), labels=[str(e) for e in elements])
    return Window(f, p, tuple(elements), m, n)


def verify_window_soundness(f: Family, m: int, n: int) -> CheckReport:
    """Check the analytic family answers against a computed finite window."""
    w = window(f, m, n)
    p = w.poset
    rep = CheckReport(f"{f.name} window m={m},n={n}", f"{p.n} elements")

    rep.add("window.order-axioms", True, note="validated at construction")

    def misplaced_pairs():
        # each row against f.leq, built in one pass; the lowest differing bit
        # is the first (x, y) of a pair scan
        powers = [1 << k for k in range(p.n)]
        for row, x in zip(p.up, w.elements):
            wrong = row ^ sum(compress(powers, map(partial(f.leq, x), w.elements)))
            if wrong:
                y = w.elements[(wrong & -wrong).bit_length() - 1]
                yield {"x": str(x), "y": str(y)}

    rep.law("window.order-embedding", misplaced_pairs())

    def unsound_suprema():
        # in element order: members not below the supremum, and every bound
        for chain, members in w.declared:
            si = w.index(chain.sup)
            bounds = w.mask(chain.is_upper_bound)
            for k in iter_bits(members & ~p.down[si] | bounds):
                e = w.elements[k]
                if members >> k & 1 and not p.up[k] >> si & 1:
                    yield {"chain": chain.name, "member": str(e)}
                if bounds >> k & 1:
                    if not p.up[si] >> k & 1:
                        yield {"chain": chain.name, "bound": str(e)}
                    for ci in iter_bits(members & ~p.down[k]):
                        yield {"chain": chain.name, "bound": str(e), "member": str(w.elements[ci])}

    rep.law("window.declared-suprema", unsound_suprema())

    if isinstance(f, LadderFamily):
        sups = [(members, w.index(c.sup)) for c, members in w.declared if members]
        step = reference.one_step_mask(p, w.mask(lambda e: f.member("A", e)), sups)
        rep.law(
            "window.one-step-consistency",
            (
                {"element": str(e)}
                for k, e in enumerate(w.elements)
                if step >> k & 1 != f.member("Aprime", e)
            ),
        )

        top = FamilyElement("top")
        rep.add(
            "family.top-in-scott-closure", f.member("scott_closure_A", top)
        )
        rep.add("family.top-not-in-one-step", not f.member("Aprime", top))
        rep.add(
            "family.down-closure-of-a-fixed",
            all(
                f.member("downA", e) == f.member("A", e) for e in w.elements
            ),
        )
        rep.add(
            "family.column-suprema-in-one-step",
            all(f.member("Aprime", FamilyElement("b", i)) for i in range(m + 1)),
        )

    if isinstance(f, OmegaFamily):
        omega_el = FamilyElement("omega")
        try:
            wb = reference.way_below(p)
        except BudgetExceeded:
            rep.add(
                "window.way-below-agreement",
                True,
                note="window too large for the computed relation; skipped",
            )
        else:
            rep.law(
                "window.way-below-agreement",
                (
                    {"x": str(x), "y": str(y)}
                    for xi, x in enumerate(w.elements)
                    for yi, y in enumerate(w.elements)
                    if not x.kind == y.kind == "omega"
                    and f.way_below(x, y) != wb.holds(xi, yi)
                ),
            )

        chain = f.chains(m, n)[0]
        witness_ok = chain.sup == omega_el and not any(
            chain.contains(e) and f.leq(omega_el, e) for e in w.elements
        )
        rep.add(
            "window.omega-not-compact",
            witness_ok,
            None if witness_ok else {"chain": chain.name},
            note="the declared chain reaches omega without entering its up-set",
        )
        rep.add(
            "window.way-up-of-omega-empty",
            not any(f.way_below(omega_el, e) for e in w.elements),
        )
        rep.add(
            "window.scott-interior-of-up-omega-empty",
            witness_ok,
            None if witness_ok else {"chain": chain.name},
            note="any open inside the up-set of omega would have to meet the chain",
        )
        rep.add(
            "window.up-of-omega-is-singleton",
            all((e == omega_el) == f.leq(omega_el, e) for e in w.elements),
        )
        rep.add(
            "window.family-continuity",
            chain.sup == omega_el
            and all(f.way_below(e, e) for e in w.elements if e.kind == "nat")
            and all(f.way_below(e, omega_el) for e in w.elements if chain.contains(e)),
            note="finite stages compact; omega reached by its declared chain",
        )

    return rep
