"""Campaign runner: law suites over (poset x relation x subset) scopes.

Instances are generated in a fixed order and run serially in that order,
so two runs with the same scope and seed produce byte-identical reports.
The order is relation-major: posets in scope order; on each poset first
its poset-level instances (``chain``, ``continuity``, ``sec5``, in suite
order), then the relations in enumeration order, each generated and
axiom-checked once; on each relation every suite in alphabetical order;
within a suite its instances that no subset enters, then its subsets
ascending.  Each suite keeps its own failures and findings, and the report
joins them in suite order, so a run of one suite keeps the order it had
alone.  A campaign hands the objects it generates (poset, relation,
subset, second relation) straight to the checkers.

The relations of a poset are taken in batches of ``approx.BATCH``.  One
call of ``approx.batch_failures`` per batch decides, for every relation
(together on a small poset), whether the checkers of each relation suite
pass on it.  A (suite, relation) that passes is tallied as passed, all its
instances at once, with no report built; the findings of a passing
``cspace`` instance are built from its batch byte
(``topology.cspace_entries``), and a tally that the cap cuts or that starts
past the deadline stops the run.  Only one that fails and a batch that raises
run per instance, so their entries are exactly those of a per-instance run,
and a capped run counts its first instances in the order above.

Each failure or finding carries a fingerprint that reconstructs the
instance exactly; replay is the only code that decodes one, and it
re-validates what it decodes before re-executing the instance in isolation.
One table, ``_SHAPES``, maps each instance shape (the suite, and whether a
relation, a subset and a second relation are given) to its checker: the
campaign dispatches through it, its keys give the suite lists, and replay
accepts exactly its shapes.

A counterexample search is a query over one campaign.  Each property of
``PROPERTIES`` is a law of one suite, and ``search_counterexample`` runs
that suite's campaign (``_campaign``, the generator that ``run_suite``
collects) up to its first entry of the law that the property accepts.  The
witness's ``property:`` fingerprint names the same instance, and replay
re-checks it with the suite's checker and reads the law's verdict, so a
``property:`` fingerprint has a shape exactly when its suite's shape does.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator

from .approx import (
    BATCH,
    batch_failures,
    check_adjunction,
    check_algebra,
    check_basic_laws,
    check_int_equivalences,
    check_partition,
)
from .auxrel import (
    AuxRelation,
    _axiom_check_aux,
    bottom_aux,
    classify,
    enumerate_aux,
    leq_aux,
    sample_aux,
    validate_aux,
    way_below,
)
from .bitset import ElementSet, transpose
from .closures import check_sec5_theorems
from .errors import BadParameters, BudgetExceeded, OrderlabError
from .poset import (
    MAX_UNIVERSE,
    Poset,
    _axiom_check,
    enumerate_posets,
    poset_to_json,
)
from .report import CheckReport, exit_code_of
from .topology import (
    check_chain_of_containments,
    check_continuity_characterization,
    check_cspace_theorems,
    check_mu_laws,
    check_mu_way_below_is_scott,
    cspace_entries,
)

VERSION = "0.1.0"

# (suite, has relation, has subset, has second relation) -> the checker of
# every instance of that shape, called as check(p, r, subset, second relation)
_SHAPES: dict[tuple[str, bool, bool, bool], Callable[..., CheckReport]] = {
    ("algebra", True, False, False): lambda p, r, *_: check_adjunction(r),
    ("algebra", True, True, False): lambda p, r, a, _: check_basic_laws(r, sets=[a]),
    ("algebra", True, False, True): lambda p, r, _, r2: check_algebra(r, r2),
    ("chain", False, False, False): lambda p, *_: check_mu_way_below_is_scott(p),
    ("chain", True, True, False): lambda p, r, a, _: check_chain_of_containments(r, a),
    ("continuity", False, False, False): lambda p, *_: check_continuity_characterization(p),
    ("cspace", True, False, False): lambda p, r, *_: check_cspace_theorems(r),
    ("int-char", True, False, False): lambda p, r, *_: check_int_equivalences(r),
    ("mu-topology", True, False, False): lambda p, r, *_: check_mu_laws(r),
    ("partition", True, True, False): lambda p, r, a, _: check_partition(r, a),
    ("sec5", False, False, False): lambda p, *_: check_sec5_theorems(p),
}
SUITES = tuple(sorted({suite for suite, *_ in _SHAPES}))
_POSET_SUITES = tuple(suite for suite, rel, *_ in _SHAPES if not rel)  # one instance per poset
_REL_SUITES = tuple(sorted({suite for suite, rel, *_ in _SHAPES if rel}))
_REL_MODES = ("enumerate", "sample", "builtins")
_SUBSET_MODES = ("all", "sample")
_BUILTIN_RELS = {"leq": leq_aux, "bottom": bottom_aux, "way-below": way_below}


@dataclass(frozen=True)
class Scope:
    """What to quantify over: posets, relations on them, subsets of them."""

    max_n: int = 3
    up_to_iso: bool = False
    posets: tuple[Poset, ...] | None = None
    rel_mode: str = "enumerate"
    rel_sample: int = 5
    rel_builtins: tuple[str, ...] = ("leq",)
    subset_mode: str = "all"
    subset_sample: int = 8
    seed: int = 0
    max_instances: int | None = None
    wall_time_s: float | None = None

    def __post_init__(self):
        if self.posets is None and self.max_n < 1:
            raise BadParameters("max_n must be at least 1")
        if self.rel_mode not in _REL_MODES:
            raise BadParameters(f"rel_mode must be one of {_REL_MODES}")
        if self.subset_mode not in _SUBSET_MODES:
            raise BadParameters(f"subset_mode must be one of {_SUBSET_MODES}")
        if self.rel_mode == "sample" and self.rel_sample < 1:
            raise BadParameters("rel_sample must be positive")
        if self.subset_mode == "sample" and self.subset_sample < 1:
            raise BadParameters("subset_sample must be positive")
        for name in self.rel_builtins:
            if name not in _BUILTIN_RELS:
                raise BadParameters(f"unknown builtin relation {name!r}")
        if self.max_instances is not None and self.max_instances < 1:
            raise BadParameters("max_instances must be positive")
        if self.wall_time_s is not None and not self.wall_time_s > 0:
            raise BadParameters("wall_time_s must be positive")


def _scope_posets(scope: Scope) -> list[Poset]:
    if scope.posets is not None:
        return list(scope.posets)
    out = []
    for n in range(1, scope.max_n + 1):
        out.extend(enumerate_posets(n, up_to_iso=scope.up_to_iso))
    return out


def _scope_relations(scope: Scope, p: Poset, pi: int) -> Iterator[AuxRelation]:
    """The scope's distinct relations on p, each checked against the axioms
    once: here, or by ``aux_closure`` for a sampled one.

    Lazy, and only their sections are kept to drop repeats, so a caller that
    holds ``approx.BATCH`` relations at a time holds their memoized tables."""
    if scope.rel_mode == "enumerate":
        rels = enumerate_aux(p)
    elif scope.rel_mode == "builtins":
        rels = (_BUILTIN_RELS[name](p) for name in scope.rel_builtins)
    else:
        seeds = (scope.seed * 1000003 + pi * 1009 + k for k in range(scope.rel_sample))
        rels = (sample_aux(p, seed=seed) for seed in seeds)
    seen: set[tuple[int, ...]] = set()
    for r in rels:
        if scope.rel_mode != "sample":
            _axiom_check_aux(p, r.sec)
        if r.sec not in seen:
            seen.add(r.sec)
            yield r


def _scope_subsets(scope: Scope, p: Poset, pi: int) -> list[int]:
    total = 1 << p.n
    if scope.subset_mode == "all" or scope.subset_sample >= total:
        return list(range(total))
    import random

    rng = random.Random(scope.seed * 69069 + pi * 40503 + 7)
    return sorted(rng.sample(range(total), scope.subset_sample))


@dataclass(frozen=True)
class Instance:
    """One checker execution, fully determined by plain data."""

    suite: str
    rows: tuple[int, ...]
    rel: tuple[tuple[int, int], ...] | None = None
    subset: int | None = None
    rel2: tuple[tuple[int, int], ...] | None = None


def fingerprint(inst: Instance) -> str:
    doc = [inst.suite, inst.rows, inst.rel, inst.subset, inst.rel2]  # tuples dump as arrays
    return json.dumps(doc, separators=(",", ":")).encode("ascii").hex()


def parse_fingerprint(fp: str) -> Instance:
    try:
        suite, rows, rel, subset, rel2 = json.loads(bytes.fromhex(fp).decode("ascii"))
        if type(suite) is not str or type(subset) not in (int, type(None)):
            raise ValueError("suite must be a string and subset an integer or null")
        if not 1 <= len(rows) <= MAX_UNIVERSE:
            raise ValueError(f"rows must have 1..{MAX_UNIVERSE} entries")
        if not all(type(r) is int and 0 <= r < 1 << len(rows) for r in rows):
            raise ValueError("rows do not fit the universe")
        if subset is not None and not 0 <= subset < 1 << len(rows):
            raise ValueError("subset does not fit the universe")
        _axiom_check(rows, transpose(rows))
        for pairs in (rel, rel2):
            if type(pairs) not in (list, type(None)) or any(
                list(map(type, pr)) != [int, int] for pr in pairs or ()
            ):
                raise ValueError("relation is not a list of integer pairs")
        shape = (suite, rel is not None, subset is not None, rel2 is not None)
        runs = _property(suite[9:])[0] if suite.startswith("property:") else suite
        if (runs, *shape[1:]) not in _SHAPES:
            raise ValueError(f"no checker for the instance shape {shape}")
    except (ValueError, TypeError) as exc:
        raise BadParameters(f"malformed fingerprint: {exc}") from exc
    rel, rel2 = (tuple(map(tuple, x)) if x is not None else None for x in (rel, rel2))
    return Instance(suite, tuple(rows), rel, subset, rel2)


def _fingerprint_of(
    suite: str, p: Poset, r: AuxRelation | None, bits: int | None, r2: AuxRelation | None
) -> str:
    """The fingerprint of an instance given by its live objects."""
    rel, rel2 = (tuple(x.pairs()) if x is not None else None for x in (r, r2))
    return fingerprint(Instance(suite, p.up, rel, bits, rel2))


def _check(
    suite: str, p: Poset, r: AuxRelation | None, bits: int | None, r2: AuxRelation | None
) -> CheckReport:
    """Run one instance's suite on live objects: the one check dispatcher."""
    if suite.startswith("property:"):  # the verdict of the property's law
        name = suite[9:]
        prop_suite, law, test = _property(name)
        v = _check(prop_suite, p, r, bits, r2).verdict(law)
        detail = None if v.passed or not test(v.witness) else _jsonable(v.witness)
        return CheckReport(f"property {name}", "single instance").add(
            f"property.{name}", detail is not None, detail, finding=True,
            note="passed means the counterexample reproduces",
        )
    shape = (suite, r is not None, bits is not None, r2 is not None)
    if shape not in _SHAPES:
        raise BadParameters(f"no checker for the instance shape {shape}")
    return _SHAPES[shape](p, r, ElementSet(bits, p.n) if bits is not None else None, r2)


def _relation_plan(suite: str, p: Poset, r: AuxRelation) -> tuple[tuple[tuple, ...], bool]:
    """The instances of a relation suite on r that no subset enters, as
    (relation, subset, second relation), and whether one instance per
    subset of the scope follows them."""
    if suite == "algebra":
        return ((r, None, None), (r, None, leq_aux(p))), True
    if suite == "partition":
        return (), True
    if suite == "chain":
        return (), classify(r).approximating
    if suite == "int-char" or classify(r).pre_approximating:  # cspace, mu-topology
        return ((r, None, None),), False
    return (), False


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


@dataclass
class RunReport:
    suites: tuple[str, ...]
    attempted: int
    passed: int
    failures: list[dict]
    findings: list[dict]
    seed: int
    incomplete: bool = False
    elapsed_s: float = 0.0
    version: str = VERSION
    schema: int = 1

    def to_dict(self, include_timing: bool = False) -> dict:
        doc = {
            "schema": self.schema,
            "version": self.version,
            "suites": list(self.suites),
            "attempted": self.attempted,
            "passed": self.passed,
            "failures": self.failures,
            "findings": self.findings,
            "seed": self.seed,
            "incomplete": self.incomplete,
        }
        if include_timing:
            doc["elapsed_s"] = self.elapsed_s
        return doc

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(
            self.to_dict(include_timing), indent=2, sort_keys=True
        )

    @property
    def exit_code(self) -> int:
        return exit_code_of(self.failures, self.findings)


def _campaign(
    scope: Scope, suites: tuple[str, ...], tally: RunReport
) -> Iterator[tuple[str, int, dict]]:
    """The failures (kind 0) and findings (kind 1) of a campaign as
    (suite, kind, entry), in run order, tallying its instances on ``tally``.

    The cap and the deadline (which starts before generation) are checked
    before each instance and each tally of a passing (suite, relation).  An
    exception a checker raises fails the hard law ``internal.error`` of its
    instance, with ``"<Type>: <message>"`` as the witness, and the run goes on.
    """
    deadline = time.monotonic() + scope.wall_time_s if scope.wall_time_s else None
    cap = scope.max_instances
    poset_suites = [s for s in suites if s in _POSET_SUITES]
    rel_suites = [s for s in suites if s in _REL_SUITES]

    def stopped() -> bool:
        late = deadline is not None and time.monotonic() > deadline
        tally.incomplete = tally.attempted == cap or late
        return tally.incomplete

    def checked(inst: tuple) -> Iterator[tuple[str, int, dict]]:
        try:
            rep = _check(*inst)
        except Exception as exc:  # an engine fault fails its instance, not the run
            rep = CheckReport("", "").add("internal.error", False, f"{type(exc).__name__}: {exc}")
        tally.attempted += 1
        bad, flagged = rep.failures, rep.findings
        tally.passed += not bad
        if bad or flagged:
            fp = _fingerprint_of(*inst)
            for kind, verdicts in enumerate((bad, flagged)):
                for v in verdicts:
                    entry = {"law": v.law, "fingerprint": fp, "witness": _jsonable(v.witness)}
                    yield inst[0], kind, entry

    for pi, p in enumerate(_scope_posets(scope)):
        for suite in poset_suites:
            if stopped():
                return
            yield from checked((suite, p, None, None, None))
        if not rel_suites:
            continue
        subsets = _scope_subsets(scope, p, pi)
        rels = _scope_relations(scope, p, pi)
        while chunk := list(islice(rels, BATCH)):
            bad = dict.fromkeys(rel_suites, b"\1" * len(chunk))
            try:  # a batch that raises leaves its relations to run per instance
                bad.update(batch_failures(p, chunk, subsets, rel_suites))
            except Exception:
                pass
            for k, r in enumerate(chunk):
                for suite in rel_suites:
                    singles, per_subset = _relation_plan(suite, p, r)
                    count = len(singles) + per_subset * len(subsets)
                    flags = bad[suite][k]  # cspace's byte also holds what it finds
                    cspace = suite == "cspace" and count
                    entries = cspace_entries(p, flags) if cspace else None if flags else ()
                    if count and entries is not None:  # it passes: tallied, never run
                        if stopped():
                            return
                        taken = count if cap is None else min(count, cap - tally.attempted)
                        tally.attempted += taken
                        tally.passed += taken
                        if taken < count and stopped():  # where a per-instance run stops
                            return
                        fp = entries and _fingerprint_of(suite, p, r, None, None)
                        for law, w in entries:
                            yield suite, 1, {"law": law, "fingerprint": fp, "witness": w}
                        continue
                    for inst in (*singles, *((r, bits, None) for bits in subsets * per_subset)):
                        if stopped():
                            return
                        yield from checked((suite, p, *inst))


def run_suite(scope: Scope, suites: Iterable[str], jobs: int = 1) -> RunReport:
    """Run and tally each instance as it is generated, in one serial pass
    (``_campaign``), and join the entries of each suite in suite order.
    ``jobs`` is accepted for compatibility and ignored."""
    suite_list = tuple(sorted(set(suites)))
    for s in suite_list:
        if s not in SUITES:
            raise BadParameters(f"unknown suite {s!r}")
    start = time.monotonic()
    run = RunReport(suite_list, 0, 0, [], [], scope.seed)
    found = {suite: ([], []) for suite in suite_list}  # failures, findings
    for suite, kind, entry in _campaign(scope, suite_list, run):
        found[suite][kind].append(entry)
    run.failures, run.findings = (
        [e for suite in suite_list for e in found[suite][kind]] for kind in (0, 1)
    )
    run.elapsed_s = time.monotonic() - start
    return run


def replay(entry: dict | str) -> CheckReport:
    """Re-execute the instance behind a failure/finding in isolation."""
    fp = entry["fingerprint"] if isinstance(entry, dict) else entry
    inst = parse_fingerprint(fp)
    p = Poset(inst.rows)
    r, r2 = (
        validate_aux(p, pairs) if pairs is not None else None
        for pairs in (inst.rel, inst.rel2)
    )
    return _check(inst.suite, p, r, inst.subset, r2)


# -- counterexample search -----------------------------------------------------


# property -> (suite, law, test of a witness): a counterexample is an entry of
# the suite's campaign whose law fails with a witness that passes the test
# (``bool`` passes any, as every witness of these laws is a nonempty dict)
PROPERTIES: dict[str, tuple[str, str, Callable[[dict], bool]]] = {
    "cspace-implies-approximating": ("cspace", "cspace.converse-approximating", bool),
    "cdl-implies-approximating": (
        "cspace", "cspace.cdl-vs-approximating", lambda w: w["completely-distributive"]
    ),
    "int-equivalence-break": ("int-char", "int-char.agreement", bool),
    "one-step-without-continuity": ("sec5", "onestep.one-step-implies-continuity", bool),
}


def _property(name: str) -> tuple[str, str, Callable[[dict], bool]]:
    prop = PROPERTIES.get(name)
    if prop is None:
        raise BadParameters(f"unknown property {name!r}")
    return prop


def search_counterexample(property_id: str, scope: Scope) -> dict | None:
    """The first counterexample to a property in the run order of its suite's
    campaign over scope, or None when the campaign completes without one.

    The cap counts the suite's instances, as in ``run_suite``.  A run that
    stops before a counterexample raises ``BudgetExceeded``, and an
    ``internal.error`` before one raises ``OrderlabError``.
    """
    suite, law, test = _property(property_id)
    tally = RunReport((suite,), 0, 0, [], [], scope.seed)
    for _, _, entry in _campaign(scope, (suite,), tally):
        if entry["law"] == "internal.error":
            raise OrderlabError(f"search stopped at an internal error: {entry['witness']}")
        if entry["law"] == law and test(entry["witness"]):
            inst = parse_fingerprint(entry["fingerprint"])
            as_property = Instance(f"property:{property_id}", inst.rows, inst.rel)
            return {
                "property": property_id,
                "fingerprint": fingerprint(as_property),
                "poset": poset_to_json(Poset(inst.rows)),
                "relation": _jsonable(inst.rel),
                "detail": entry["witness"],
            }
    if tally.incomplete:
        if tally.attempted == scope.max_instances:
            raise BudgetExceeded("instance cap reached during search")
        raise BudgetExceeded("wall time exhausted during search")
    return None
