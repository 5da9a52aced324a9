"""Campaign runner: scopes, suites, determinism, replay, counterexample search."""

import json

import pytest

from orderlab import harness
from orderlab.auxrel import AuxRelation
from orderlab.errors import AxiomViolation, BadParameters
from orderlab.harness import (
    PROPERTIES,
    SUITES,
    Instance,
    Scope,
    _check,
    _fingerprint_of,
    _instances_for,
    _scope_posets,
    fingerprint,
    parse_fingerprint,
    register_property,
    replay,
    run_suite,
    search_counterexample,
)
from orderlab.poset import chain, diamond


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
    ],
)
def test_replay_rejects_an_under_specified_fingerprint(doc):
    with pytest.raises(BadParameters):
        replay(_encode(doc))


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
