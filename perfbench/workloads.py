"""The three workloads: how each builds its inputs, runs and is checked.

Every workload runs in one process and one thread, as a closed loop with
one client: the next request starts when the previous one returns.  A
request is one orderlab call the way a user makes it: a whole law
campaign for the two campaign workloads, one single-structure query for
``queries-large``.  Library functions are always looked up through their
module at call time, so the traced run sees every call.  Durations are read
from the ``clock`` passed in, a ``hostclock.HostClock``: ``clock.now()``
in reference seconds for the metrics, ``clock.wall()`` for the window.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import oracles

LIBRARY_MODULES = (
    "errors", "bitset", "report", "poset", "auxrel", "approx",
    "topology", "closures", "families", "harness", "cli",
)


class Library:
    """orderlab's modules, freshly imported from the checkout's sources."""

    def __init__(self, src: Path):
        for name in [m for m in sys.modules if m == "orderlab" or m.startswith("orderlab.")]:
            del sys.modules[name]
        package = importlib.import_module("orderlab")
        origin = Path(package.__file__).resolve()
        if Path(src).resolve() not in origin.parents:
            raise ImportError(f"orderlab imported from {origin}, not from {src}")
        self.package = package
        for name in LIBRARY_MODULES:
            setattr(self, name, importlib.import_module(f"orderlab.{name}"))

    def modules(self):
        return [self.package] + [getattr(self, name) for name in LIBRARY_MODULES]


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)  # reference seconds, one per request
    wall_s: float = 0.0                              # wall time of the requests
    peak_rss_mb: float = 0.0                         # after the first fixed unit of work
    items_per_s: float = 0.0                         # see the measure methods
    wall_items_per_s: float = 0.0                    # the same from wall time
    records: list = field(default_factory=list)      # what the correctness gates read
    notes: list = field(default_factory=list)        # lines for the stderr summary


def room_for_another(out, last_wall_s, seconds) -> bool:
    """Whether one more request like the last still ends within the window.

    The window is in wall seconds, so that a run's length does not depend
    on the host's speed by more than the variation between two requests.
    """
    return out.wall_s + last_wall_s <= seconds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Campaign:
    code: int
    attempted: int
    failures: int      # instances that failed a hard law
    incomplete: bool
    digest: str        # of the report bytes


def run_campaigns(run_once, at_least, seconds, clock, tracer) -> Outcome:
    """Whole campaigns, at least ``at_least`` of them; items_per_s is the
    median over campaigns of instances decided per second."""
    out = Outcome()
    rates, wall_rates = [], []
    wall_s = 0.0
    while len(rates) < at_least or room_for_another(out, wall_s, seconds):
        if tracer is not None:
            tracer.current_item = len(out.latencies)
        w0, t0 = clock.wall(), clock.now()
        campaign = run_once()
        dt = clock.now() - t0
        wall_s = clock.wall() - w0
        out.latencies.append(dt)
        out.wall_s += wall_s
        out.attempted += campaign.attempted
        out.failed += campaign.failures
        rates.append(campaign.attempted / dt)
        wall_rates.append(campaign.attempted / wall_s)
        out.records.append(campaign)
        out.peak_rss_mb = out.peak_rss_mb or peak_rss_mb()
    out.items_per_s = statistics.median(rates)
    out.wall_items_per_s = statistics.median(wall_rates)
    return out


def check_campaigns(out) -> list[str]:
    errors = []
    for c in out.records:
        if c.failures:
            errors.append(f"{c.failures} instances failed a hard law")
        if c.incomplete:
            errors.append("campaign reported itself incomplete")
    if len({c.digest for c in out.records}) != 1:
        errors.append("report bytes differ between campaigns in one run")
    return errors


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _code_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((Path(src) / "orderlab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# -- campaign-exhaustive -------------------------------------------------------


class CampaignExhaustive:
    """``orderlab verify --max-n 4 --suite all --jobs 1 --format json``.

    The scope is every labeled poset on at most four points with every
    auxiliary relation and every subset, so the seed chooses nothing; the
    campaign is passed ``--seed 0`` so its report bytes never depend on it.
    """

    ARGV = ["verify", "--max-n", "4", "--suite", "all", "--jobs", "1",
            "--format", "json", "--seed", "0"]
    KNOWN = (242, 5560, 199030)  # labeled posets, relations, instances

    def build(self, lib, seed):
        return list(self.ARGV)

    def measure(self, lib, argv, seconds, clock, tracer=None):
        def run_once():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = lib.cli.main(argv)
            text = buf.getvalue()
            doc = json.loads(text)
            failures = len({f["fingerprint"] for f in doc["failures"]})
            return Campaign(code, doc["attempted"], failures, doc["incomplete"], _digest(text))

        # One campaign fills most of a run.
        return run_campaigns(run_once, 1, seconds, clock, tracer)

    def check(self, lib, argv, out, root):
        errors = check_campaigns(out)
        oracle = oracles.exhaustive_campaign(4)
        if oracle != self.KNOWN:
            errors.append(f"reference campaign count {oracle} != {self.KNOWN}")
        for c in out.records:
            if c.code not in (0, 3):
                errors.append(f"verify exited {c.code}")
            if c.attempted != oracle[2]:
                errors.append(f"verify attempted {c.attempted} instances, expected {oracle[2]}")
        # One campaign fills most of a run, so the report must also match
        # every earlier run of the same source code in this checkout.
        state = Path(root) / ".perfbench"
        state.mkdir(exist_ok=True)
        ref = state / f"exhaustive-{_code_digest(Path(root) / 'src')[:20]}.sha256"
        digest = out.records[0].digest
        if ref.exists():
            out.notes.append(f"report digest compared with an earlier run ({ref.name})")
            if ref.read_text().strip() != digest:
                errors.append("report bytes differ from an earlier run of the same code")
        else:
            # The first run in a checkout has nothing to compare with.
            out.notes.append(f"report digest only recorded, first run of this code ({ref.name})")
            tmp = ref.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(digest + "\n")
            os.replace(tmp, ref)
        return errors


# -- campaign-sampled ----------------------------------------------------------


class CampaignSampled:
    """``run_suite`` at n <= 5 with one sampled relation and four sampled
    subsets per poset, every suite but algebra, one job."""

    def build(self, lib, seed):
        scope = lib.harness.Scope(
            max_n=5, rel_mode="sample", rel_sample=1,
            subset_mode="sample", subset_sample=4, seed=seed,
        )
        suites = tuple(s for s in lib.harness.SUITES if s != "algebra")
        return scope, suites

    def measure(self, lib, inputs, seconds, clock, tracer=None):
        scope, suites = inputs

        def run_once():
            rep = lib.harness.run_suite(scope, suites, jobs=1)
            failures = len({f["fingerprint"] for f in rep.failures})
            return Campaign(rep.exit_code, rep.attempted, failures, rep.incomplete,
                            _digest(rep.to_json()))

        # Two campaigns, so that their reports can be compared.
        return run_campaigns(run_once, 2, seconds, clock, tracer)

    def check(self, lib, inputs, out, root):
        return check_campaigns(out)


# -- queries-large -------------------------------------------------------------

# One round is 256 queries, 32 of each kind.  Within a kind the sizes
# cycle through the kind's range, so every size is asked equally often,
# give or take one where the range's length does not divide 32.  A few
# slots hold a structure whose answer size is known in closed form
# instead of a random poset of the same size (see _fixed).
PER_KIND = 32


def _spread(lo, hi, count=PER_KIND):
    return [lo + i % (hi - lo + 1) for i in range(count)]


UPPER_NS = _spread(10, 18)       # enumerate_upper_sets, and mu_topology(leq)
SCOTT_NS = _spread(8, 14)        # scott_topology, and way_below
AUX_PAIRS = _spread(1, 16)       # enumerate_aux: order pairs, the diagonal included
ONE_STEP_NS = _spread(6, 10)
LAP_UAP_NS = _spread(10, 20)
WINDOW_MS = _spread(1, 12, PER_KIND // 2)  # for each of omega and ladder
LAP_UAP_SETS = 128  # each set gets one lap and one uap call
MIN_ROUNDS = 4      # at least 1,024 queries, so p99 has ten beyond it
FAILED_LATENCY_S = 3600.0  # a failed query misses any latency limit
ROUND = 8 * PER_KIND


def _fixed(lib, kind, size):
    """(structure, known answer size) for the first slot of a kind and size, or None."""
    P = lib.poset
    if kind in ("upper_sets", "mu_leq"):
        if size == 16:
            return P.boolean(4), 168  # Dedekind number M(4)
        if size in (10, 11, 12):
            return P.antichain(size), 1 << size
    if kind == "aux":
        for m in range(1, 6):  # chain(m) has m(m+1)/2 order pairs
            if size == m * (m + 1) // 2:
                return P.chain(m), oracles.catalan(m)
    return None


def _random_poset(lib, rng, n):
    return lib.poset.random_poset(n, rng.uniform(0.2, 0.4), rng.randrange(1 << 30))


def _poset_with_pairs(lib, rng, k):
    lo = next(n for n in range(1, k + 1) if n * (n + 1) // 2 >= k)
    while True:
        p = _random_poset(lib, rng, rng.randint(lo, min(k, 9)))
        if sum(bin(row).count("1") for row in p.up) == k:
            return p


def _round(lib, seed, index):
    """The queries of one round, in a seeded order, each with fresh inputs."""
    rng = random.Random(f"{seed}:{index}")
    make = {"upper_sets": _random_poset, "mu_leq": _random_poset, "scott": _random_poset,
            "way_below": _random_poset, "aux": _poset_with_pairs, "one_step": _random_poset}
    sizes = {"upper_sets": UPPER_NS, "mu_leq": UPPER_NS, "scott": SCOTT_NS,
             "way_below": SCOTT_NS, "aux": AUX_PAIRS, "one_step": ONE_STEP_NS}
    qs = []  # (kind, input, known answer size or None)
    for kind, ns in sizes.items():
        for i, n in enumerate(ns):
            fixed = _fixed(lib, kind, n) if n not in ns[:i] else None
            qs.append((kind, *(fixed or (make[kind](lib, rng, n), None))))
    for n in LAP_UAP_NS:
        p = _random_poset(lib, rng, n)
        rel = lib.auxrel.sample_aux(p, rng.randrange(1 << 30))
        sets = [lib.bitset.ElementSet(rng.getrandbits(n), n) for _ in range(LAP_UAP_SETS)]
        qs.append(("lap_uap", (rel, sets), None))
    qs += [("window", (fam, m), None) for fam in ("omega", "ladder") for m in WINDOW_MS]
    assert len(qs) == ROUND, len(qs)
    # The slot number names the same kind and size in every round.
    qs = [(slot, *q) for slot, q in enumerate(qs)]
    rng.shuffle(qs)
    return qs


def _ask(lib, kind, arg):
    if kind == "upper_sets":
        return [s.bits for s in lib.poset.enumerate_upper_sets(arg)]
    if kind == "mu_leq":
        return lib.topology.mu_topology(lib.auxrel.leq_aux(arg)).masks
    if kind == "scott":
        return lib.topology.scott_topology(arg).masks
    if kind == "way_below":
        return lib.auxrel.way_below(arg).sec
    if kind == "aux":
        return [r.sec for r in lib.auxrel.enumerate_aux(arg)]
    if kind == "one_step":
        return lib.closures.has_one_step_closure(arg)[0]
    if kind == "lap_uap":
        rel, sets = arg
        lap, uap = lib.approx.lap, lib.approx.uap
        return [(lap(rel, a).bits, uap(rel, a).bits) for a in sets]
    fam, m = arg
    rep = lib.families.verify_window_soundness(lib.families.get_family(fam), m, m)
    return rep.ok and not rep.failures and len(rep.verdicts) > 0


def _summary(kind, answer):
    """(size or None, digest) of an answer, so that the answer itself can go."""
    if isinstance(answer, Exception):
        return None, f"raised {type(answer).__name__}"
    if isinstance(answer, bool):
        return None, repr(answer)
    rows = [tuple(x) if isinstance(x, (list, tuple)) else x
            for x in (sorted(answer) if kind == "aux" else answer)]
    return len(rows), _digest(repr(rows))


def _reference(kind, arg):
    """The benchmark's own answer to a query, shaped like orderlab's."""
    if kind in ("upper_sets", "mu_leq", "scott"):
        # On a finite poset every Scott-open set and every open of
        # mu(<=) is just an upper set, and every upper set is both.
        return oracles.upper_sets(arg.up)
    if kind == "way_below":
        # Finite: every directed set has a greatest element, so << is <=.
        return oracles.down_rows(arg.up)
    if kind == "aux":
        return oracles.aux_relations(arg.up)
    if kind == "lap_uap":
        rel, sets = arg
        up = rel.poset.up
        sec = oracles.sections(len(up), rel.pairs())
        return [(oracles.lap(sec, a.bits), oracles.uap(up, sec, a.bits)) for a in sets]
    # one_step: finite, so one step of directed suprema from the down
    # closure of A is that down closure, which is already Scott-closed.
    # window: every window is sound.
    return True


def _disagreement(kind, arg, known, summary):
    """Why an answer is wrong, or None.  ``known`` is the answer's size
    where it is known in closed form; the reference must reproduce it too."""
    size, digest = summary
    if size is None and digest.startswith("raised "):
        return digest
    expected = _summary(kind, _reference(kind, arg))
    if summary != expected or (known is not None and size != known):
        return f"{kind} disagrees with the reference"
    return None


class QueriesLarge:
    """A seeded stream of single-structure queries over large posets."""

    def build(self, lib, seed):
        return seed, _round(lib, seed, 0)

    def measure(self, lib, inputs, seconds, clock, tracer=None):
        """Run whole rounds; each round's inputs are built, and its answers
        checked, outside the timed part.

        Each answer is reduced to a digest as soon as its query returns.
        The first MIN_ROUNDS rounds are checked only after peak memory is
        read, so that the reading holds no reference answers.

        items_per_s is 256 queries over the sum, across the slots of a
        round, of each slot's median latency over the rounds.  A slot has
        the same kind and size in every round, so its median shrugs off
        the rounds that the host slowed down.
        """
        seed, queries = inputs
        out = Outcome()
        slot_times = [[] for _ in range(ROUND)]
        slot_walls = [[] for _ in range(ROUND)]
        unchecked = []  # (index of the round's first latency, queries, summaries)
        index = 0
        round_wall_s = 0.0
        while index < MIN_ROUNDS or room_for_another(out, round_wall_s, seconds):
            if index > 0:
                queries = _round(lib, seed, index)
            summaries = []
            w_round = clock.wall()
            for slot, kind, arg, known in queries:
                if tracer is not None:
                    tracer.current_item = len(out.latencies)
                w0, t0 = clock.wall(), clock.now()
                try:
                    answer = _ask(lib, kind, arg)
                except Exception as exc:  # a refusal or crash fails the query, not the run
                    answer = exc
                dt = clock.now() - t0
                slot_walls[slot].append(clock.wall() - w0)
                out.latencies.append(dt)
                slot_times[slot].append(dt)
                summaries.append(_summary(kind, answer))
                del answer
            round_wall_s = clock.wall() - w_round
            out.wall_s += round_wall_s
            unchecked.append((len(out.latencies) - len(queries), queries, summaries))
            index += 1
            if index == MIN_ROUNDS:
                out.peak_rss_mb = peak_rss_mb()
            if index >= MIN_ROUNDS:
                for first, qs, sums in unchecked:
                    self._check_round(out, first, qs, sums)
                unchecked = []
        out.attempted = len(out.latencies)
        out.items_per_s = ROUND / sum(statistics.median(t) for t in slot_times)
        out.wall_items_per_s = ROUND / sum(statistics.median(t) for t in slot_walls)
        return out

    @staticmethod
    def _check_round(out, first, queries, summaries):
        for k, ((_, kind, arg, known), summary) in enumerate(zip(queries, summaries)):
            why = _disagreement(kind, arg, known, summary)
            if why is not None:
                out.records.append(why)
                out.failed += 1
                out.latencies[first + k] = FAILED_LATENCY_S

    def check(self, lib, inputs, out, root):
        return [f"{count} queries: {what}" for what, count in sorted(Counter(out.records).items())]


WORKLOADS = {
    "campaign-exhaustive": CampaignExhaustive(),
    "campaign-sampled": CampaignSampled(),
    "queries-large": QueriesLarge(),
}
