"""Campaign runner: scopes, suites, determinism, replay, counterexample search."""

import functools
import json
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orderlab import approx, auxrel, cli, closures, harness, reference, topology
from orderlab.auxrel import AuxRelation, classify, enumerate_aux, leq_aux, validate_aux
from orderlab.errors import AxiomViolation, BadParameters, BudgetExceeded, NotUpper, OrderlabError
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
    replay,
    run_suite,
    search_counterexample,
)
from orderlab.poset import (
    Poset,
    _upper_list,
    antichain,
    chain,
    diamond,
    poset_to_json,
    random_poset,
)
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


def _break_lap_and_uap(break_operators):
    """Flip element 0 of lap({0,1}) on a fifth of the relations and of
    uap({0}) on another fifth, in the tables that every module reads the
    operators from: those relations fail laws of all five suites that the
    batch decides, and the others pass."""
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
    suites = ["algebra", "chain", "cspace", "int-char", "mu-topology", "partition"]
    batched = run_suite(scope, suites)
    per_subset_checked = sum(bits is not None for _, _, _, bits, _ in checked)
    cspace_checked = sum(suite == "cspace" for suite, *_ in checked)
    batched_checks = len(checked)
    _batches_raise(monkeypatch)
    checked.clear()
    per_instance = run_suite(scope, suites)
    per_subset = sum(bits is not None for _, _, _, bits, _ in checked)
    cspace = sum(suite == "cspace" for suite, *_ in checked)
    assert batched.to_dict() == per_instance.to_dict()
    # per instance every instance is checked; a batch checks only the
    # relations that fail, and builds the findings of the others itself
    assert per_instance.attempted == len(checked) > batched_checks and not batched.incomplete
    assert batched.findings and 0 < cspace
    if broken:
        # the relations that fail go per instance, the others pass as batches
        assert {e["law"].split(".")[0] for e in batched.failures} == {
            "basic", "chain", "cspace", "int-char", "mu", "partition", "topology"
        }
        assert 0 < per_subset_checked < per_subset and 0 < cspace_checked < cspace
    else:
        assert batched.failures == [] and per_subset_checked == 0 < per_subset
        assert cspace_checked == 0


def test_cspace_batches_give_the_per_instance_report_on_sampled_posets(monkeypatch):
    """Posets up to n = 8, with more than ``approx.SHARED_MAX_SETS`` upper sets
    (the relations' own lanes) or fewer (shared lanes), their sampled and
    builtin relations.  The order on the 11-antichain has 2,048 opens, more
    than the pair scan of ``opens_completely_distributive`` takes: both paths
    decide it from the closure lanes, and it passes."""
    sizes = set()

    def both(scope):
        batched = run_suite(scope, ["cspace", "mu-topology"])
        with monkeypatch.context() as patched:
            _batches_raise(patched)
            per_instance = run_suite(scope, ["cspace", "mu-topology"])
        assert batched.to_dict() == per_instance.to_dict(), [p.up for p in scope.posets]
        return batched

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.sampled_from([0.1, 0.25, 0.4]),
        st.integers(min_value=0, max_value=10**6),
    )
    @example(3, 0.4, 0)  # 8 upper sets
    @example(8, 0.1, 0)  # 256 upper sets
    def check(n, density, seed):
        p = random_poset(n, density, seed)
        sizes.add(len(_upper_list(p)) > approx.SHARED_MAX_SETS)
        both(Scope(posets=(p,), rel_mode="sample", rel_sample=12, seed=seed))
        both(Scope(posets=(p,), rel_mode="builtins", rel_builtins=("leq", "bottom", "way-below")))

    check()
    assert sizes == {False, True}
    for k in (8, 10, 11):  # 256, 1,024 and 2,048 opens
        rep = both(Scope(posets=(antichain(k),), rel_mode="builtins"))
        assert rep.exit_code == 0 and rep.failures == []


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


_CUT_SUITES = ("algebra", "chain", "continuity", "cspace", "int-char", "mu-topology", "partition")


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
    caps |= {next(cap for cap in inside if order[cap][0] == s) for s in harness._REL_SUITES}
    prefixes = list(_prefix_reports(order))
    for cap in sorted(caps):
        rep = run_suite(Scope(max_n=3, max_instances=cap), _CUT_SUITES)
        passed, failures, findings = prefixes[cap]
        assert (rep.attempted, rep.passed, rep.incomplete) == (cap, passed, True)
        assert (rep.failures, rep.findings) == (failures, findings), cap
    # the broken operators fail laws of every batched suite, so the caps are
    # compared on failing tallies too
    failing = {parse_fingerprint(e["fingerprint"]).suite for e in prefixes[-1][1]}
    assert failing >= set(harness._REL_SUITES)
    assert {order[cap][0] for cap in caps} >= set(harness._REL_SUITES)


def test_a_cap_inside_a_passing_relation_runs_none_of_its_instances(monkeypatch):
    """With unbroken operators every relation passes, and the batch decides
    them all: a cap that cuts a relation's instances counts their prefix and
    stops the run without checking one of them."""
    suites = ("mu-topology", "partition")
    order = list(_relation_major(Scope(max_n=3), suites))
    caps = [cap for cap in range(1, len(order)) if order[cap][:3] == order[cap - 1][:3]]
    checked = []
    real_check = harness._check
    monkeypatch.setattr(harness, "_check", lambda *inst: checked.append(inst) or real_check(*inst))
    for cap in caps[:: len(caps) // 8]:
        rep = run_suite(Scope(max_n=3, max_instances=cap), suites)
        assert order[cap][0] == "partition" and order[cap][3] is not None
        assert (rep.attempted, rep.passed, rep.incomplete, rep.failures) == (cap, cap, True, [])
    assert checked == []


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


def test_a_max_n_4_campaign_runs_no_mu_or_relation_chain_checker(monkeypatch):
    """The batch decides the mu laws and the c-space laws of all 1,319
    pre-approximating relations and the chains of the 242 approximating ones,
    so the reports a campaign builds are those of the poset-level instances
    (3,872 verdicts before sec5 took ``onestep.one-step-implies-continuity``,
    one more on each of the 242 posets; 10,467 when the cspace checker still
    ran on each of the 1,319, 22,471 when the mu and chain checkers did too)."""
    calls = {"mu": 0, "chain": 0, "cspace": 0, "add": 0}

    def counted(key, real):
        def call(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr(harness, "check_mu_laws", counted("mu", harness.check_mu_laws))
    monkeypatch.setattr(
        harness, "check_chain_of_containments", counted("chain", harness.check_chain_of_containments)
    )
    monkeypatch.setattr(
        harness, "check_cspace_theorems", counted("cspace", harness.check_cspace_theorems)
    )
    monkeypatch.setattr(CheckReport, "add", counted("add", CheckReport.add))
    rep = run_suite(Scope(max_n=4), SUITES)
    assert rep.attempted == 199030 and rep.exit_code == 3 and len(rep.findings) == 1848
    assert calls == {"mu": 0, "chain": 0, "cspace": 0, "add": 4114}


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


def test_fingerprint_matches_the_jsonable_encoding_on_every_shape():
    """``json`` writes tuples as arrays, so the fingerprint of every instance
    shape, and of a property search, is the one of its lists, and parses back."""
    p = diamond()
    r = leq_aux(p)
    rel = tuple(r.pairs())
    instances = [
        Instance(suite, p.up, rel if has_rel else None, 0b0110 if has_set else None,
                 rel if has_rel2 else None)
        for suite, has_rel, has_set, has_rel2 in _SHAPES
    ]
    instances.append(Instance("property:cspace-implies-approximating", p.up, rel, None, None))
    for inst in instances:
        doc = harness._jsonable([inst.suite, inst.rows, inst.rel, inst.subset, inst.rel2])
        assert fingerprint(inst) == _encode(doc)
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
    runs = PROPERTIES[suite[9:]][0] if suite.startswith("property:") else suite
    known = (runs, has_rel, has_subset, has_rel2) in _SHAPES
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


def test_each_converse_finding_carries_the_underlying_c_space(monkeypatch):
    """The batch reads both c-space readings of mu_R off its lanes, so no
    converse finding scans the opens (1,077 ``is_c_space`` calls in the
    underlying reading when the checker built them)."""
    calls = []
    real = topology.is_c_space

    def counted(t, upset_mode="specialization"):
        calls.append(upset_mode)
        return real(t, upset_mode)

    monkeypatch.setattr(topology, "is_c_space", counted)
    rep = run_suite(Scope(max_n=4), ["cspace"])
    converse = [e for e in rep.findings if e["law"] == "cspace.converse-approximating"]
    assert calls.count("underlying") == 0 and len(converse) == 1077
    assert all(
        e["witness"] == {
            "c-space-specialization": True, "c-space-underlying": True, "approximating": False
        }
        for e in converse
    )


def test_the_classical_scott_law_is_decided_once_per_poset(monkeypatch):
    """Once per poset, and never the relation checker: 1,319 checker runs and
    1,319 and 1,077 ``is_c_space`` calls on mu_R when cspace ran per instance."""
    calls = []
    real = topology.is_c_space

    def counted(t, upset_mode="specialization"):
        calls.append("scott" if t is topology.scott_topology(t.poset) else upset_mode)
        return real(t, upset_mode)

    monkeypatch.setattr(topology, "is_c_space", counted)
    checks = []
    real_check = harness.check_cspace_theorems
    monkeypatch.setattr(
        harness, "check_cspace_theorems", lambda r: checks.append(r) or real_check(r)
    )
    run_suite(Scope(max_n=4), ["cspace"])
    assert calls.count("scott") == 242  # one per labeled poset with 1 <= n <= 4
    assert calls.count("specialization") == calls.count("underlying") == len(checks) == 0


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


# The property tests and the scan loop that search ran before it read the
# campaign, kept as its literal oracle: one direct test per (poset, relation)
# in scope order, the cap counting relations.


def _prop_cspace_implies_approximating(p, r):
    cls = classify(r)
    if not cls.pre_approximating or cls.approximating:
        return None
    mu = topology.mu_topology(r)
    spec_mode, _ = topology.is_c_space(mu, "specialization")
    if not spec_mode:
        return None
    under_mode, _ = topology.is_c_space(mu, "underlying")
    return {
        "c-space-specialization": True,
        "c-space-underlying": under_mode,
        "approximating": False,
    }


def _prop_cdl_implies_approximating(p, r):
    cls = classify(r)
    if not cls.pre_approximating or not cls.has_int or cls.approximating:
        return None
    if not topology.opens_completely_distributive(topology.mu_topology(r)):
        return None
    return {"completely-distributive": True, "approximating": False}


def _prop_one_step_without_continuity(p):
    one_step_ok, _ = closures.has_one_step_closure(p)
    if one_step_ok and not topology.is_continuous(p):
        return {"one-step-closure": True, "continuous": False}
    return None


def _prop_int_equivalence_break(p, r):
    rep = approx.check_int_equivalences(r)
    v = rep.verdict("int-char.agreement")
    if not v.passed:
        return harness._jsonable(v.witness) or {"agreement": False}
    return None


_SCANNED = {  # property -> (needs a relation, test)
    "cspace-implies-approximating": (True, _prop_cspace_implies_approximating),
    "cdl-implies-approximating": (True, _prop_cdl_implies_approximating),
    "one-step-without-continuity": (False, _prop_one_step_without_continuity),
    "int-equivalence-break": (True, _prop_int_equivalence_break),
}


def _detail(property_id, p, r):
    needs_relation, test = _SCANNED[property_id]
    return test(p, r) if needs_relation else test(p)


def _scanned_search(property_id, scope):
    needs_relation = _SCANNED[property_id][0]
    tested = 0
    for pi, p in enumerate(_scope_posets(scope)):
        for r in _scope_relations(scope, p, pi) if needs_relation else (None,):
            tested += 1
            if scope.max_instances is not None and tested > scope.max_instances:
                raise BudgetExceeded("instance cap reached during search")
            detail = _detail(property_id, p, r)
            if detail is not None:
                fp = _fingerprint_of(f"property:{property_id}", p, r, None, None)
                return {
                    "property": property_id,
                    "fingerprint": fp,
                    "poset": poset_to_json(p),
                    "relation": harness._jsonable(r.pairs()) if r is not None else None,
                    "detail": harness._jsonable(detail),
                }
    return None


def _scanned_replay(fp):
    """The property report the scan's replay built for a witness."""
    inst = parse_fingerprint(fp)
    p = Poset(inst.rows)
    r = validate_aux(p, inst.rel) if inst.rel is not None else None
    name = inst.suite[9:]
    detail = _detail(name, p, r)
    rep = CheckReport(f"property {name}", "single instance").add(
        f"property.{name}", detail is not None, detail, finding=True,
        note="passed means the counterexample reproduces",
    )
    return rep.to_dict()


def _outcome(search, property_id, scope):
    try:
        return search(property_id, scope)
    except BudgetExceeded as exc:
        return str(exc)


_SEARCH_SCOPES = {
    "max-n-3": Scope(max_n=3),
    "max-n-4": Scope(max_n=4),
    "iso-5": Scope(max_n=5, up_to_iso=True),
    "sampled-5": Scope(
        max_n=5, rel_mode="sample", rel_sample=1, subset_mode="sample", subset_sample=4, seed=1
    ),
    "builtins-5": Scope(max_n=5, rel_mode="builtins", rel_builtins=("bottom", "leq")),
}


@pytest.mark.parametrize("broken", [False, True], ids=["sound", "broken"])
@pytest.mark.parametrize("scope", _SEARCH_SCOPES.values(), ids=_SEARCH_SCOPES)
def test_search_finds_the_scans_witness_and_replays_to_its_report(break_operators, scope, broken):
    if broken:
        _break_lap_and_uap(break_operators)
    found = {}
    for name in sorted(PROPERTIES):
        found[name] = witness = search_counterexample(name, scope)
        assert witness == _scanned_search(name, scope), name
        if witness is not None:
            assert replay(witness["fingerprint"]).to_dict() == _scanned_replay(witness["fingerprint"])
    assert found["cspace-implies-approximating"] and found["cdl-implies-approximating"]
    assert found["one-step-without-continuity"] is None
    if broken:
        detail = found["int-equivalence-break"]["detail"]
        assert detail == {"statements": [True, True, True, True, False]}
    else:
        assert found["int-equivalence-break"] is None


@pytest.mark.parametrize("broken", [False, True], ids=["sound", "broken"])
def test_the_search_cap_counts_the_instances_of_the_propertys_suite(break_operators, broken):
    """As ``verify --suite S --max-instances N`` does.  The scan counted
    relations: the same count for int-char and sec5, one instance per
    relation and per poset, but cspace runs on pre-approximating relations
    only, so a cap of 3 that stopped the scan lets search reach the witness."""
    if broken:
        _break_lap_and_uap(break_operators)
    for cap in range(1, 13):
        scope = Scope(max_n=3, max_instances=cap)
        for name in ("int-equivalence-break", "one-step-without-continuity"):
            assert _outcome(search_counterexample, name, scope) == _outcome(
                _scanned_search, name, scope
            )
    capped, whole = Scope(max_n=4, max_instances=3), Scope(max_n=4)
    for name in ("cspace-implies-approximating", "cdl-implies-approximating"):
        assert _outcome(_scanned_search, name, capped) == "instance cap reached during search"
        assert search_counterexample(name, capped) == search_counterexample(name, whole)
    with pytest.raises(BudgetExceeded, match="instance cap"):
        search_counterexample("cspace-implies-approximating", Scope(max_n=4, max_instances=1))


def test_a_cdl_finding_on_opens_that_are_not_completely_distributive_is_skipped(monkeypatch):
    """The cdl law is flagged either way round; only completely distributive
    opens without approximation refute the property.  No relation in these
    scopes gives the other way, so a campaign that does is planted."""
    real = harness._campaign
    other = {"completely-distributive": False, "approximating": True}

    def campaign(scope, suites, tally):
        for suite, kind, entry in real(scope, suites, tally):
            if entry["law"] == "cspace.cdl-vs-approximating":
                yield suite, kind, {**entry, "witness": other}
            yield suite, kind, entry

    scope = Scope(max_n=3)
    expected = search_counterexample("cdl-implies-approximating", scope)
    monkeypatch.setattr(harness, "_campaign", campaign)
    assert search_counterexample("cdl-implies-approximating", scope) == expected


def test_an_internal_error_before_the_first_match_stops_the_search(monkeypatch, capsys):
    def raising(r):
        raise RuntimeError("planted")

    monkeypatch.setattr(harness, "check_cspace_theorems", raising)
    _batches_raise(monkeypatch)
    with pytest.raises(OrderlabError, match="RuntimeError: planted"):
        search_counterexample("cspace-implies-approximating", Scope(max_n=2))
    code = cli.main(["search", "--property", "cspace-implies-approximating", "--max-n", "2"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "orderlab: error: search stopped at an internal error: RuntimeError: planted\n"


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 40) | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=2), kids, max_size=2),
    max_leaves=8,
)
# posets up to n = 3 with each of their relations, and the instance shapes,
# so that half the documents pass the parser and reach a checker
_VALID = [(p.up, [list(pr) for pr in r.pairs()]) for p in _scope_posets(Scope(max_n=3))
          for r in enumerate_aux(p)]
_KNOWN_SHAPES = list(_SHAPES) + [
    (f"property:{name}", *shape[1:])
    for name, (suite, *_) in sorted(PROPERTIES.items())
    for shape in _SHAPES if shape[0] == suite
]
_PAIRS = st.lists(st.lists(st.integers(-1, 4), min_size=2, max_size=2), max_size=6)


@st.composite
def _known_documents(draw):
    rows, rel = draw(st.sampled_from(_VALID))
    suite, has_rel, has_subset, has_rel2 = draw(st.sampled_from(_KNOWN_SHAPES))
    subset = draw(st.integers(0, (1 << len(rows)) - 1)) if has_subset else None
    return [suite, rows, rel if has_rel else None, subset, rel if has_rel2 else None]


@st.composite
def _other_documents(draw):
    rows, rel = draw(st.sampled_from(_VALID))
    suite = draw(st.sampled_from([shape[0] for shape in _KNOWN_SHAPES] + ["nosuch"]) | _JSON)
    rows = draw(st.just(rows) | st.lists(st.integers(-1, 16), max_size=5) | _JSON)
    rel, rel2 = (draw(st.sampled_from([rel, None]) | _PAIRS | _JSON) for _ in range(2))
    return [suite, rows, rel, draw(st.none() | st.integers(-1, 16) | _JSON), rel2]


@given(doc=_known_documents() | _other_documents())
@settings(max_examples=400, deadline=None)
def test_replay_of_any_five_field_document_returns_a_report_or_raises_an_orderlab_error(doc):
    try:
        rep = replay(_encode(doc))
    except OrderlabError:
        return
    assert isinstance(rep, CheckReport)
