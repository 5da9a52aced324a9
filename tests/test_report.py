"""Witness reporting: which counterexample a failing law reports."""

import hashlib
import json
import random

import pytest

from orderlab.approx import (
    check_adjunction,
    check_algebra,
    check_basic_laws,
    check_int_equivalences,
    check_partition,
)
from orderlab.auxrel import AuxRelation, classify, enumerate_aux
from orderlab.bitset import ElementSet
from orderlab.closures import check_sec5_theorems
from orderlab.poset import Poset, antichain, chain, diamond
from orderlab.report import CheckReport
from orderlab.topology import (
    Topology,
    check_continuity_characterization,
    check_cspace_theorems,
    check_mu_inaccessibility,
    check_topology_invariants,
)

def test_law_passes_on_no_counterexamples():
    v = CheckReport("s", "scope").law("x", iter(())).verdict("x")
    assert v.passed and v.witness is None


def test_law_keeps_the_first_counterexample_and_stops_there():
    def counterexamples():
        yield {"set": "0"}
        yield {"set": "1"}
        pytest.fail("advanced past the first counterexample")

    v = CheckReport("s", "scope").law("x", counterexamples()).verdict("x")
    assert not v.passed and v.witness == {"set": "0"}


def test_law_forwards_the_verdict_kind():
    rep = CheckReport("s", "scope")
    rep.law("f", [{"a": 1}], finding=True, note="recorded")
    rep.law("i", [{"a": 2}], informational=True)
    assert rep.verdict("f").to_dict() == {
        "law": "f", "passed": False, "witness": {"a": 1}, "finding": True, "note": "recorded"
    }
    assert rep.verdict("i").informational
    assert rep.ok and rep.findings == [rep.verdict("f")]


# Row tuples that are reflexive but not transitive, so not orders; built
# with Poset() directly, which skips the axiom check.
_NON_ORDERS = ((0b011, 0b110, 0b100), (0b111, 0b010, 0b110), (0b0011, 0b0110, 0b1100, 0b1000))


def _witness_reports():
    """Reports on axiom-violating inputs, which fail laws with witnesses,
    and on valid relations, which pass them."""
    rng = random.Random(0)
    reports = []
    for p in (chain(2), antichain(2), chain(3), diamond()):
        full = (1 << p.n) - 1
        valid = list(enumerate_aux(p))
        broken = [AuxRelation(p, [rng.randrange(full + 1) for _ in range(p.n)]) for _ in range(30)]
        # union and intersection validate, so the algebra takes valid pairs only
        reports += [check_algebra(r, rng.choice(valid)) for r in valid]
        for r in valid + broken:
            reports += [
                check_basic_laws(r),
                check_adjunction(r),
                check_int_equivalences(r),
                check_partition(r, ElementSet(rng.randrange(full + 1), p.n)),
            ]
            if classify(r).pre_approximating:
                reports += [check_mu_inaccessibility(r), check_cspace_theorems(r)]
        for _ in range(20):
            masks = rng.sample(range(full + 1), rng.randrange(1, full + 2))
            reports.append(check_topology_invariants(Topology(p, masks)))
    for rows in _NON_ORDERS:
        p = Poset(rows)
        reports += [
            check_sec5_theorems(p),
            check_continuity_characterization(p),
            check_basic_laws(AuxRelation(p, p.down)),
        ]
    return reports


def test_witnesses_match_the_golden_digest():
    """Every verdict and witness of the reports above, pinned, so that a
    change to which counterexample a law reports shows up."""
    reports = _witness_reports()
    failed = {v.law for rep in reports for v in rep.verdicts if not v.passed and v.witness}
    assert {"basic.sandwich", "adjoint.upper-galois", "onestep.sandwich",
            "topology.binary-union", "cspace.sections-form-base"} <= failed
    doc = json.dumps([rep.to_dict() for rep in reports], sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "59628fde7a5c9a8b8a00948abbab2ac77c6126a5bec6baa15f6f4d0aff5a727c"
    )


def test_a_swapped_diamond_relation_fails_with_witnesses():
    r = AuxRelation(diamond(), (0b0010, 0b0001, 0b1000, 0b0100))
    for rep, law in (
        (check_basic_laws(r), "basic.sandwich"),
        (check_adjunction(r), "adjoint.upper-galois"),
        (check_int_equivalences(r), "int-char.agreement"),
    ):
        v = rep.verdict(law)
        assert not v.passed and v.witness
