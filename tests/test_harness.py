"""Campaign runner: scopes, suites, determinism, replay, counterexample search."""

import functools
import json
import types

import pytest

from orderlab import approx, auxrel, cli, closures, harness, reference, topology
from orderlab.auxrel import AuxRelation, enumerate_aux
from orderlab.errors import AxiomViolation, BadParameters, NotUpper
from orderlab.harness import (
    PROPERTIES,
    SUITES,
    Instance,
    Scope,
    _POSET_SUITES,
    _SHAPES,
    _check,
    _fingerprint_of,
    _relation_plan,
    _scope_posets,
    _scope_relations,
    _scope_subsets,
    fingerprint,
    parse_fingerprint,
    register_property,
    replay,
    run_suite,
    search_counterexample,
)
from orderlab.poset import chain, diamond
from orderlab.report import CheckReport


def _instances_for(suite, scope, p, pi):
    """The (relation, subset, second relation) of each instance of a suite on p."""
    if suite in _POSET_SUITES:
        yield None, None, None
        if suite != "chain":
            return
    subsets = _scope_subsets(scope, p, pi)
    for r in _scope_relations(scope, p, pi):
        singles, per_subset = _relation_plan(suite, p, r)
        yield from singles
        if per_subset:
            for bits in subsets:
                yield r, bits, None


# -- scope validation ---------------------------------------------------------


def test_scope_rejects_bad_parameters():
    with pytest.raises(BadParameters):
        Scope(max_n=0)
    with pytest.raises(BadParameters):
        Scope(rel_mode="sideways")
    with pytest.raises(BadParameters):
        Scope(subset_mode="sideways")
    with pytest.raises(BadParameters):
        Scope(rel_mode="sample", rel_sample=0)
    with pytest.raises(BadParameters):
        Scope(subset_mode="sample", subset_sample=0)
    with pytest.raises(BadParameters):
        Scope(rel_mode="builtins", rel_builtins=("nope",))
    with pytest.raises(BadParameters):
        Scope(max_instances=0)
    with pytest.raises(BadParameters):
        Scope(wall_time_s=0.0)


def test_scope_rejects_a_nan_wall_time():
    with pytest.raises(BadParameters):
        Scope(max_n=2, wall_time_s=float("nan"))


def test_sample_counts_are_ignored_when_not_sampling():
    Scope(rel_sample=0, subset_sample=0)


# -- running suites --------------------------------------------------------------


def test_exhaustive_small_run_is_clean():
    rep = run_suite(Scope(max_n=3), ["int-char", "partition"])
    assert rep.attempted == rep.passed
    assert rep.failures == []
    assert rep.exit_code in (0, 3)


def test_fixture_scope_reports_the_known_findings():
    rep = run_suite(
        Scope(posets=(chain(3),), rel_mode="builtins", rel_builtins=("bottom",)),
        ["cspace"],
    )
    assert rep.failures == []
    assert rep.exit_code == 3
    laws = {entry["law"] for entry in rep.findings}
    assert "cspace.converse-approximating" in laws
    witness = next(
        e for e in rep.findings if e["law"] == "cspace.converse-approximating"
    )["witness"]
    assert witness["approximating"] is False
    assert witness["c-space-specialization"] is True


def test_empty_scope_passes_with_nothing_attempted():
    rep = run_suite(Scope(posets=()), ["partition", "sec5"])
    assert rep.attempted == 0 and rep.passed == 0
    assert rep.exit_code == 0


def test_instance_cap_marks_the_report_incomplete():
    rep = run_suite(Scope(max_n=2, max_instances=3), ["partition"])
    assert rep.incomplete
    assert rep.attempted == 3


def test_wall_time_cap_marks_the_report_incomplete():
    rep = run_suite(Scope(max_n=3, wall_time_s=1e-6), ["partition"])
    assert rep.incomplete
    assert rep.attempted < run_suite(Scope(max_n=3), ["partition"]).attempted


def test_an_invalid_generated_relation_stops_the_campaign(monkeypatch):
    # The empty relation on a chain lacks bottom-to-everything (aux-3); it is
    # not pre-approximating either, so the cspace suite yields no instance on it.
    monkeypatch.setitem(harness._BUILTIN_RELS, "leq", lambda p: AuxRelation(p, (0,) * p.n))
    scope = Scope(posets=(chain(2),), rel_mode="builtins", rel_builtins=("leq",))
    with pytest.raises(AxiomViolation):
        run_suite(scope, ["cspace"])


@pytest.mark.parametrize("error", [NotUpper("planted"), RuntimeError("planted")])
def test_a_raising_checker_fails_its_instances_and_the_run_goes_on(monkeypatch, capsys, error):
    scope = Scope(max_n=2)
    clean = run_suite(scope, ["partition"])
    real = harness.check_partition

    def broken(r, a):
        if a.bits == 1:
            raise error
        return real(r, a)

    monkeypatch.setattr(harness, "check_partition", broken)
    # the batch decides partition without the checker; when it raises, every
    # relation runs per instance, through the checker
    _batches_raise(monkeypatch)
    rep = run_suite(scope, ["partition"])
    raising = [
        _fingerprint_of("partition", p, r, bits, r2)
        for pi, p in enumerate(_scope_posets(scope))
        for r, bits, r2 in _instances_for("partition", scope, p, pi)
        if bits == 1
    ]
    assert len(raising) == 9
    witness = f"{type(error).__name__}: planted"
    assert rep.failures == [
        {"law": "internal.error", "fingerprint": fp, "witness": witness} for fp in raising
    ]
    assert rep.attempted == clean.attempted and not rep.incomplete
    assert rep.passed == clean.passed - len(raising)
    assert rep.exit_code == 1
    assert cli.main(["verify", "--max-n", "2", "--suite", "partition"]) == 1
    assert json.loads(capsys.readouterr().out)["failures"] == rep.failures


def test_each_sec5_instance_builds_the_scott_opens_once(monkeypatch):
    built = []
    real = reference.scott_masks
    monkeypatch.setattr(reference, "scott_masks", lambda p: built.append(p.up) or real(p))
    scope = Scope(max_n=3)
    rep = run_suite(scope, ["sec5"])
    assert built == [p.up for p in _scope_posets(scope)]
    assert rep.attempted == len(built) and rep.exit_code == 0


def test_each_generated_relation_is_axiom_checked_once(monkeypatch):
    checked, sampled = [], []
    real_check, real_sample = auxrel._axiom_check_aux, harness.sample_aux

    def check(p, sec):
        checked.append(sec)
        return real_check(p, sec)

    def sample(p, seed):
        sampled.append(real_sample(p, seed=seed))
        return sampled[-1]

    monkeypatch.setattr(auxrel, "_axiom_check_aux", check)
    monkeypatch.setattr(harness, "_axiom_check_aux", check)
    monkeypatch.setattr(harness, "sample_aux", sample)
    # aux_closure checks what sample_aux builds, and the campaign does not again
    scope = Scope(max_n=3, rel_mode="sample", rel_sample=3, seed=5)
    run_suite(scope, ["int-char", "partition"])
    assert checked == [r.sec for r in sampled]
    assert len(sampled) == 3 * len(_scope_posets(scope))
    # enumerated relations are checked where the campaign generates them
    checked.clear()
    scope = Scope(max_n=3)
    run_suite(scope, ["int-char"])
    assert checked == [r.sec for p in _scope_posets(scope) for r in enumerate_aux(p)]


def test_report_json_shape_and_timing_flag():
    rep = run_suite(Scope(max_n=2), ["algebra"])
    doc = json.loads(rep.to_json())
    assert doc["schema"] == 1
    assert "elapsed_s" not in doc
    timed = rep.to_dict(include_timing=True)
    assert "elapsed_s" in timed


def test_sampled_relations_keep_runs_deterministic():
    scope = Scope(max_n=3, rel_mode="sample", rel_sample=3, seed=11)
    a = run_suite(scope, ["mu-topology"])
    b = run_suite(scope, ["mu-topology"])
    assert a.to_json() == b.to_json()


# -- determinism ------------------------------------------------------------------


def test_double_run_is_byte_identical():
    scope = Scope(max_n=2)
    suites = ["int-char", "partition", "cspace", "sec5"]
    assert run_suite(scope, suites).to_json() == run_suite(scope, suites).to_json()


def test_parallel_run_matches_serial():
    scope = Scope(max_n=2)
    suites = ["chain", "algebra"]
    serial = run_suite(scope, suites, jobs=1)
    parallel = run_suite(scope, suites, jobs=4)
    assert serial.to_json() == parallel.to_json()


# -- relation-major order and relation batches -----------------------------------------


def _batches_raise(monkeypatch):
    """Make the relation batch raise, so that every relation of the batched
    suites runs per instance."""

    def batch(*args):
        raise RuntimeError("batch")

    monkeypatch.setattr(harness, "batch_failures", batch)


def _family_calls_raise(monkeypatch):
    """Make the relation batch raise, and the chain checker when asked about
    more than one set, so that every batch runs per instance."""
    _batches_raise(monkeypatch)
    real = harness.check_chain_of_containments

    def one_set(r, a=None, sets=None):
        if sets is not None and len(sets) > 1:
            raise RuntimeError("family call")
        return real(r, a) if a is not None else real(r, sets=sets)

    monkeypatch.setattr(harness, "check_chain_of_containments", one_set)


def _break_lap_and_uap(break_operators):
    """Flip element 0 of lap({0,1}) on a fifth of the relations and of
    uap({0}) on another fifth, in the tables that every module reads the
    operators from: those relations fail laws of all four per-relation
    suites that the batch and the chain checker decide, and the others pass."""
    break_operators(
        lap=lambda r, b, v: v ^ (b == 0b11 and sum(r.sec) % 5 == 0),
        uap=lambda r, b, v: v ^ (b == 0b1 and sum(r.sec) % 5 == 1),
    )


@pytest.mark.parametrize(
    "scope, broken",
    [
        (Scope(max_n=4), False),
        (Scope(max_n=4), True),
        (
            Scope(max_n=5, up_to_iso=True, rel_mode="sample", rel_sample=4,
                  subset_mode="sample", subset_sample=5, seed=3),
            True,
        ),
    ],
    ids=["max-n-4", "max-n-4-broken", "sampled-n-5-broken"],
)
def test_batched_and_per_instance_runs_give_the_same_report(
    monkeypatch, break_operators, scope, broken
):
    # The algebra instances that no subset enters run alike on both paths;
    # empty reports stand in for them, to keep the test fast.
    for name in ("check_adjunction", "check_algebra"):
        monkeypatch.setattr(harness, name, lambda *args: CheckReport("", ""))
    if broken:
        _break_lap_and_uap(break_operators)
    checked = []
    real_check = harness._check
    monkeypatch.setattr(harness, "_check", lambda *inst: checked.append(inst) or real_check(*inst))
    suites = ["algebra", "chain", "int-char", "partition"]
    batched = run_suite(scope, suites)
    per_subset_checked = sum(bits is not None for _, _, _, bits, _ in checked)
    _family_calls_raise(monkeypatch)
    checked.clear()
    per_instance = run_suite(scope, suites)
    per_subset = sum(bits is not None for _, _, _, bits, _ in checked)
    assert batched.to_dict() == per_instance.to_dict()
    assert batched.attempted == len(checked) and not batched.incomplete
    if broken:
        # the relations that fail go per instance, the others pass as batches
        assert {e["law"].split(".")[0] for e in batched.failures} == {
            "basic", "chain", "int-char", "partition"
        }
        assert 0 < per_subset_checked < per_subset
    else:
        assert batched.failures == [] and per_subset_checked == 0 < per_subset


def _relation_major(scope, suites):
    """Every instance of ``suites`` in the documented run order: on each
    poset its poset-level instances, then for each relation the instances
    of each suite in suite order."""
    for pi, p in enumerate(_scope_posets(scope)):
        per_suite = {s: list(_instances_for(s, scope, p, pi)) for s in suites}
        for s in suites:
            yield from ((s, p, *i) for i in per_suite[s] if i[0] is None)
        for r in harness._scope_relations(scope, p, pi):
            for s in suites:
                yield from ((s, p, *i) for i in per_suite[s] if i[0] is not None and i[0].sec == r.sec)


_CUT_SUITES = ("algebra", "chain", "continuity", "int-char", "partition")


def _prefix_reports(order):
    """For each k up to len(order), the (passed, failures, findings) of running
    the first k instances of ``order`` one at a time."""
    found = {s: ([], []) for s in _CUT_SUITES}
    passed = 0
    for inst in [*order, None]:
        yield passed, *([e for s in _CUT_SUITES for e in found[s][i]] for i in (0, 1))
        if inst is None:
            return
        verdicts = _check(*inst)
        passed += not verdicts.failures
        fp = _fingerprint_of(*inst)
        for out, bad in zip(found[inst[0]], (verdicts.failures, verdicts.findings)):
            out.extend({"law": v.law, "fingerprint": fp, "witness": v.witness} for v in bad)


def _inside_a_batch(order, cap):
    """Whether the first ``cap`` instances end inside one relation's instances
    of a suite, or between two relations of one poset."""
    (suite, p, r), (last_suite, last_p, last_r) = order[cap][:3], order[cap - 1][:3]
    return r is not None and p is last_p and (suite, r) != (last_suite, last_r) or (
        (suite, r) == (last_suite, last_r) and order[cap][3] is not None
    )


def test_a_cap_inside_a_batch_stops_where_the_per_instance_loop_does(break_operators):
    _break_lap_and_uap(break_operators)
    order = list(_relation_major(Scope(max_n=3), _CUT_SUITES))
    inside = [cap for cap in range(1, len(order)) if _inside_a_batch(order, cap)]
    between = [cap for cap in inside if order[cap][2] is not order[cap - 1][2]]
    caps = set(inside[:: len(inside) // 12] + between[:: len(between) // 6])
    prefixes = list(_prefix_reports(order))
    for cap in sorted(caps):
        rep = run_suite(Scope(max_n=3, max_instances=cap), _CUT_SUITES)
        passed, failures, findings = prefixes[cap]
        assert (rep.attempted, rep.passed, rep.incomplete) == (cap, passed, True)
        assert (rep.failures, rep.findings) == (failures, findings), cap
    # the broken operators fail laws of every batched suite, so the caps are
    # compared on failing tallies too
    failing = {parse_fingerprint(e["fingerprint"]).suite for e in prefixes[-1][1]}
    assert failing >= {"algebra", "int-char", "partition"}
    assert {order[cap][0] for cap in caps} >= {"algebra", "int-char", "partition"}


def test_a_deadline_inside_a_batch_stops_at_an_instance_boundary(monkeypatch, break_operators):
    """The clock passes the deadline after a given number of readings; the run
    then holds exactly its first ``attempted`` instances in run order."""
    _break_lap_and_uap(break_operators)
    order = list(_relation_major(Scope(max_n=3), _CUT_SUITES))
    prefixes = list(_prefix_reports(order))
    readings = []
    monkeypatch.setattr(
        harness, "time", types.SimpleNamespace(monotonic=lambda: readings.append(0) or 0.0)
    )
    run_suite(Scope(max_n=3, wall_time_s=1.0), _CUT_SUITES)
    cuts = set()
    for count in range(1, len(readings) + 2, len(readings) // 40):
        clock = iter(range(count))
        monkeypatch.setattr(
            harness, "time", types.SimpleNamespace(monotonic=lambda: next(clock, 1e10) * 1e-9)
        )
        rep = run_suite(Scope(max_n=3, wall_time_s=1.0), _CUT_SUITES)
        passed, failures, findings = prefixes[rep.attempted]
        assert (rep.passed, rep.failures, rep.findings) == (passed, failures, findings)
        cuts.add(rep.attempted)
    assert len(cuts) > 30
    assert sum(_inside_a_batch(order, cut) for cut in cuts if 0 < cut < len(order)) >= 10


def test_a_campaign_tabulates_each_relation_and_sweeps_each_poset_once(monkeypatch):
    filled = []
    real_fill = approx._fill_tables
    monkeypatch.setattr(approx, "_fill_tables", lambda r: filled.append(r) or real_fill(r))
    # a one-entry cache misses again whenever a poset's sweep is asked for
    # after another poset's
    sweeps = functools.lru_cache(maxsize=1)(reference.directed_sups.__wrapped__)
    monkeypatch.setattr(reference, "directed_sups", sweeps)
    scope = Scope(max_n=4)
    rep = run_suite(scope, SUITES)
    posets = _scope_posets(scope)
    relations = sum(len(list(enumerate_aux(p))) for p in posets)
    assert rep.attempted == 199030 and (len(posets), relations) == (242, 5560)
    assert len({id(r) for r in filled}) == len(filled) <= relations + 2 * len(posets)
    assert sweeps.cache_info().misses == len(posets)


def test_the_poset_suites_build_each_reference_value_once_per_poset(monkeypatch):
    way_below, scott = [], []
    real_aux, real_upper = reference.AuxRelation, reference._upper_list
    monkeypatch.setattr(
        reference, "AuxRelation", lambda p, rows: way_below.append(p) or real_aux(p, rows)
    )
    monkeypatch.setattr(reference, "_upper_list", lambda p: scott.append(p.up) or real_upper(p))
    scope = Scope(
        max_n=5, rel_mode="sample", rel_sample=1, subset_mode="sample", subset_sample=4, seed=1
    )
    rep = run_suite(scope, ["chain", "continuity", "sec5"])
    posets = _scope_posets(scope)
    assert rep.exit_code == 0 and len(posets) == 4473
    assert way_below == posets and scott == [p.up for p in posets]


def test_each_poset_tabulates_its_scott_closures_and_one_step_images_once(monkeypatch):
    builds = {"reference": 0}
    per_mask, inside = [], []
    real_sweep = reference.submask_unions

    def sweep(n, seeds):
        builds["reference"] += 1
        return real_sweep(n, seeds)

    monkeypatch.setattr(reference, "submask_unions", sweep)
    for module in (topology, reference):
        for name in ("_closure_mask", "_interior_mask"):
            real = getattr(module, name, None)
            if real is not None:

                def oracle(t, bits, _name=name, _real=real):
                    if inside:
                        per_mask.append(_name)
                    return _real(t, bits)

                monkeypatch.setattr(module, name, oracle)
    for name in ("check_continuity_characterization", "check_sec5_theorems"):

        def flagged(p, _real=getattr(harness, name)):
            inside.append(p)
            try:
                return _real(p)
            finally:
                inside.pop()

        monkeypatch.setattr(harness, name, flagged)
    scope = Scope(
        max_n=5, rel_mode="sample", rel_sample=1, subset_mode="sample", subset_sample=4, seed=1
    )
    rep = run_suite(scope, [s for s in SUITES if s != "algebra"])
    assert not rep.failures and len(_scope_posets(scope)) == 4473
    assert builds == {"reference": 2 * 4473}
    assert per_mask == []


# -- fingerprints and replay ---------------------------------------------------------


def test_fingerprint_round_trip():
    inst = Instance(
        suite="partition", rows=(1, 3, 7), rel=((0, 0), (0, 1)), subset=5, rel2=None
    )
    assert parse_fingerprint(fingerprint(inst)) == inst


def test_fingerprint_rejects_garbage():
    with pytest.raises(BadParameters):
        parse_fingerprint("zzzz")
    with pytest.raises(BadParameters):
        parse_fingerprint("ff00")


def test_replay_rejects_a_fingerprint_whose_rows_are_not_an_order():
    loop = ((0, 0), (0, 1), (1, 0), (1, 1))
    cyclic = fingerprint(Instance("int-char", (0b11, 0b11), loop, None, None))
    with pytest.raises(AxiomViolation):
        replay(cyclic)
    with pytest.raises(BadParameters):
        parse_fingerprint(fingerprint(Instance("int-char", (0b101,))))


def _encode(doc) -> str:
    return json.dumps(doc, separators=(",", ":")).encode("ascii").hex()


def test_fingerprint_rejects_a_ragged_relation_pair():
    with pytest.raises(BadParameters):
        parse_fingerprint(_encode(["partition", [1], [[0]], 0, None]))


def test_fingerprint_rejects_a_string_subset():
    with pytest.raises(BadParameters):
        parse_fingerprint(_encode(["partition", [1], [[0, 0]], "x", None]))


def test_fingerprint_rejects_a_non_string_suite():
    with pytest.raises(BadParameters):
        parse_fingerprint(_encode([5, [1], [[0, 0]], 0, None]))


def test_fingerprint_rejects_a_boolean_subset():
    with pytest.raises(BadParameters):
        parse_fingerprint(_encode(["partition", [1], [[0, 0]], True, None]))


@pytest.mark.parametrize(
    "doc",
    [
        ["int-char", [1], None, None, None],
        ["partition", [1], None, 0, None],
        ["algebra", [1], None, None, [[0, 0]]],
        ["cspace", [1], None, None, None],
        ["mu-topology", [1], None, None, None],
        ["property:cspace-implies-approximating", [1], None, None, None],
        ["partition", [1], [[0, 0]], None, None],
        ["chain", [1], [[0, 0]], None, None],
        ["chain", [], None, None, None],
        ["chain", [1 << i for i in range(25)], None, None, None],
        ["partition", [1], [[0, 0]], 2, None],
        ["partition", [1], [[0, 0]], -1, None],
    ],
)
def test_replay_rejects_an_under_specified_fingerprint(doc):
    with pytest.raises(BadParameters):
        replay(_encode(doc))


@pytest.mark.parametrize(
    "doc",
    [
        ["algebra", [1], [[0, 0]], 0, [[0, 0]]],
        ["partition", [1], [[0, 0]], 0, [[0, 0]]],
        ["sec5", [1], None, None, [[0, 0]]],
        ["sec5", [1], [[0, 0]], None, None],
        ["continuity", [1], None, 0, None],
        ["chain", [1], None, 0, None],
        ["int-char", [1], [[0, 0]], 0, None],
        ["property:one-step-without-continuity", [1], [[0, 0]], None, None],
        ["nosuch", [1], None, None, None],
    ],
    ids=[
        "subset-and-second-relation",
        "second-relation-outside-algebra",
        "second-relation-on-a-poset-suite",
        "relation-on-a-poset-suite",
        "subset-on-a-poset-suite",
        "subset-without-relation-on-chain",
        "subset-on-a-relation-suite",
        "relation-on-a-poset-property",
        "unknown-suite",
    ],
)
def test_replay_rejects_a_field_its_suite_does_not_read(doc):
    """The harness never emits these shapes, and replay would drop the field."""
    with pytest.raises(BadParameters, match="malformed fingerprint"):
        replay(_encode(doc))


@pytest.mark.parametrize("suite", SUITES + tuple(f"property:{p}" for p in sorted(PROPERTIES)))
@pytest.mark.parametrize("has_rel", [False, True])
@pytest.mark.parametrize("has_subset", [False, True])
@pytest.mark.parametrize("has_rel2", [False, True])
def test_a_fingerprint_parses_exactly_when_the_table_has_its_shape(
    suite, has_rel, has_subset, has_rel2
):
    doc = [
        suite, [1], [[0, 0]] if has_rel else None, 0 if has_subset else None,
        [[0, 0]] if has_rel2 else None,
    ]
    if suite.startswith("property:"):
        needs_rel = PROPERTIES[suite[9:]].needs_relation
        known = (has_rel, has_subset, has_rel2) == (needs_rel, False, False)
    else:
        known = (suite, has_rel, has_subset, has_rel2) in _SHAPES
    if known:
        assert parse_fingerprint(_encode(doc)) == Instance(
            suite, (1,), ((0, 0),) if has_rel else None, doc[3], ((0, 0),) if has_rel2 else None
        )
    else:
        with pytest.raises(BadParameters, match="malformed fingerprint"):
            parse_fingerprint(_encode(doc))


def test_the_shape_table_covers_every_instance_a_campaign_runs_alone(monkeypatch, break_operators):
    """Under broken operators every suite has failing relations, so every
    shape runs one instance at a time somewhere in the n <= 3 campaign."""
    _break_lap_and_uap(break_operators)
    shapes = []
    real_check = harness._check

    def check(suite, p, r, bits, r2):
        shapes.append((suite, r is not None, bits is not None, r2 is not None))
        return real_check(suite, p, r, bits, r2)

    monkeypatch.setattr(harness, "_check", check)
    rep = run_suite(Scope(max_n=3), SUITES)
    assert rep.failures and not any(e["law"] == "internal.error" for e in rep.failures)
    assert set(shapes) == set(_SHAPES)


def test_the_underlying_c_space_is_computed_only_for_a_converse_finding(monkeypatch):
    calls = []
    real = topology.is_c_space

    def counted(t, upset_mode="specialization"):
        calls.append(upset_mode)
        return real(t, upset_mode)

    monkeypatch.setattr(topology, "is_c_space", counted)
    rep = run_suite(Scope(max_n=4), ["cspace"])
    converse = [e for e in rep.findings if e["law"] == "cspace.converse-approximating"]
    assert calls.count("underlying") == len(converse) == 1077
    assert all("c-space-underlying" in e["witness"] for e in converse)


def test_findings_replay_to_the_same_verdict():
    rep = run_suite(
        Scope(posets=(chain(3),), rel_mode="builtins", rel_builtins=("bottom",)),
        ["cspace"],
    )
    entry = rep.findings[0]
    replayed = replay(entry)
    verdict = replayed.verdict(entry["law"])
    assert verdict.finding and not verdict.passed
    assert replay(entry["fingerprint"]).verdict(entry["law"]).passed == verdict.passed


def test_live_instances_and_their_replays_give_the_same_reports():
    scope = Scope(max_n=3)
    checked = 0
    for suite in SUITES:
        for pi, p in enumerate(_scope_posets(scope)):
            for r, bits, r2 in _instances_for(suite, scope, p, pi):
                live = _check(suite, p, r, bits, r2).to_dict()
                replayed = replay(_fingerprint_of(suite, p, r, bits, r2)).to_dict()
                assert replayed == live, (suite, p.up, bits)
                checked += 1
    assert checked == 3289


# -- counterexample search --------------------------------------------------------------


def test_search_finds_the_earliest_pre_approximating_c_space_gap():
    witness = search_counterexample("cspace-implies-approximating", Scope(max_n=3))
    assert witness is not None
    inst = parse_fingerprint(witness["fingerprint"])
    assert inst.rows == (1, 3)
    assert inst.rel == ((1, 0), (1, 1))
    assert witness["detail"]["approximating"] is False
    assert witness["detail"]["c-space-specialization"] is True
    assert witness["detail"]["c-space-underlying"] is True


def test_search_confirms_the_three_chain_bottom_relation_witness():
    witness = search_counterexample(
        "cspace-implies-approximating", Scope(posets=(chain(3),))
    )
    assert witness is not None
    assert witness["poset"]["n"] == 3
    assert witness["relation"] == [[0, 0], [0, 1], [0, 2]]


def test_search_replays_via_its_fingerprint():
    witness = search_counterexample(
        "cspace-implies-approximating", Scope(posets=(chain(3),))
    )
    rep = replay(witness["fingerprint"])
    verdict = rep.verdicts[0]
    assert verdict.law == "property.cspace-implies-approximating"
    assert verdict.passed


def test_search_exhausts_cleanly_when_no_counterexample_exists():
    assert search_counterexample("int-equivalence-break", Scope(max_n=3)) is None
    assert (
        search_counterexample("one-step-without-continuity", Scope(max_n=3)) is None
    )


def test_search_rejects_unknown_properties():
    with pytest.raises(BadParameters):
        search_counterexample("nope", Scope(max_n=2))


def test_registered_properties_extend_the_search():
    def has_four_elements(p):
        return {"n": p.n} if p.n == 4 else None

    register_property("poset-of-four", needs_relation=False, test=has_four_elements)
    try:
        with pytest.raises(BadParameters):
            register_property("poset-of-four", needs_relation=False, test=has_four_elements)
        assert search_counterexample("poset-of-four", Scope(max_n=3)) is None
        witness = search_counterexample("poset-of-four", Scope(posets=(diamond(),)))
        assert witness is not None and witness["detail"] == {"n": 4}
    finally:
        PROPERTIES.pop("poset-of-four", None)
