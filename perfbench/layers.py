"""Which orderlab functions the traced run wraps, and the per-layer metrics.

A layer is one orderlab module.  Each gets ``<module>.calls``,
``<module>.self_s`` and ``<module>.failed``; the named metrics below add
the time of particular public functions and counts read off their
arguments and results.  ``report`` defines no public functions, so its
three metrics count the verdicts of the check reports that reach the
benchmark or the harness.
"""

from __future__ import annotations

MODULES = ("cli", "harness", "poset", "auxrel", "approx", "topology", "closures", "families")

# metric -> public functions whose inclusive time it adds up
TIMED = {
    "approx.adjunction_s": {"approx.check_adjunction"},
    "approx.algebra_s": {"approx.check_algebra"},
    "approx.basic_laws_s": {"approx.check_basic_laws"},
    "approx.partition_s": {"approx.check_partition"},
    "approx.int_char_s": {"approx.check_int_equivalences"},
    "auxrel.enumerate_aux_s": {"auxrel.enumerate_aux"},
    "auxrel.way_below_s": {"auxrel.way_below"},
    "poset.upper_sets_s": {"poset.enumerate_upper_sets"},
    "poset.enumerate_posets_s": {"poset.enumerate_posets"},
    "topology.mu_s": {"topology.mu_topology"},
    "topology.scott_s": {"topology.scott_topology"},
    "topology.laws_s": set(),  # every topology.check_*, filled in from the trace
    "closures.sec5_s": {"closures.check_sec5_theorems"},
    "closures.one_step_closure_s": {"closures.has_one_step_closure"},
    "families.window_s": {"families.verify_window_soundness", "families.window"},
}


def _popcount(x: int) -> int:
    return bin(x).count("1")


def _upper_sets(tracer, sid, args, yielded):
    tracer.counters["upper_swept"] += 1 << args[0].n
    tracer.counters["upper_sets"] += yielded


def _enumerate_aux(tracer, sid, args, yielded):
    pairs = sum(_popcount(row) for row in args[0].up)
    if pairs <= 16:
        tracer.counters["aux_swept"] += 1 << pairs
    tracer.counters["relations"] += yielded


def _validate_aux(tracer, sid, args, rel):
    tracer.distinct_relations.add((rel.poset.up, rel.sec))


def _opens(tracer, sid, args, topo):
    tracer.counters["opens"] += len(topo.masks)


def _run_suite(tracer, sid, args, run_report):
    tracer.counters["instances"] += run_report.attempted


def _check_report(tracer, sid, args, rep):
    tracer.reports[sid] = (len(rep.verdicts), len(rep.findings), len(rep.failures))


HOOKS = {
    "poset.enumerate_upper_sets": _upper_sets,
    "auxrel.enumerate_aux": _enumerate_aux,
    "auxrel.validate_aux": _validate_aux,
    "topology.mu_topology": _opens,
    "topology.scott_topology": _opens,
    "harness.run_suite": _run_suite,
}


def hook_for(name: str):
    hook = HOOKS.get(name)
    if hook is None and name.split(".", 1)[1].startswith(("check_", "verify_")):
        return _check_report
    return hook


# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {}
for _m in MODULES:
    PER_LAYER[f"{_m}.calls"] = ("count", "lower")
    PER_LAYER[f"{_m}.self_s"] = ("s", "lower")
    PER_LAYER[f"{_m}.failed"] = ("count", "lower")
for _name in TIMED:
    PER_LAYER[_name] = ("s", "lower")
PER_LAYER.update({
    "auxrel.relations": ("count", "lower"),
    "auxrel.aux_yield": ("ratio", "higher"),
    "auxrel.classify_calls": ("count", "lower"),
    "auxrel.validate_calls": ("count", "lower"),
    "poset.upper_yield": ("ratio", "higher"),
    "topology.opens": ("count", "lower"),
    "harness.instances": ("count", "higher"),
    "harness.rebuilds_per_relation": ("ratio", "lower"),
    "report.verdicts": ("count", "higher"),
    "report.findings": ("count", "lower"),
    "report.failures": ("count", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.items_per_s": ("1/s", "higher"),
    "trace.overhead_items_per_s": ("1/s", "higher"),
})


def metrics(tracer, items_per_s: float, untraced_items_per_s: float) -> dict:
    """Every per-layer metric as {name: (value, unit)}."""
    groups = {k: set(v) for k, v in TIMED.items()}
    groups["topology.laws_s"] = {n for n in tracer.names if n.startswith("topology.check_")}
    tot = tracer.totals(groups)
    values: dict[str, float] = {}
    for m in MODULES:
        prefix = m + "."
        values[f"{m}.calls"] = sum(v for k, v in tot["calls"].items() if k.startswith(prefix))
        values[f"{m}.self_s"] = sum(v for k, v in tot["self_s"].items() if k.startswith(prefix))
        values[f"{m}.failed"] = sum(v for k, v in tot["failed"].items() if k.startswith(prefix))
    values.update(tot["group_s"])
    c = tracer.counters
    validate_calls = tot["calls"].get("auxrel.validate_aux", 0)
    values.update({
        "auxrel.relations": c["relations"],
        "auxrel.aux_yield": c["relations"] / c["aux_swept"] if c["aux_swept"] else 0.0,
        "auxrel.classify_calls": tot["calls"].get("auxrel.classify", 0),
        "auxrel.validate_calls": validate_calls,
        "poset.upper_yield": c["upper_sets"] / c["upper_swept"] if c["upper_swept"] else 0.0,
        "topology.opens": c["opens"],
        "harness.instances": c["instances"],
        "harness.rebuilds_per_relation": (
            validate_calls / len(tracer.distinct_relations) if tracer.distinct_relations else 0.0
        ),
        "report.verdicts": tot["report"][0],
        "report.findings": tot["report"][1],
        "report.failures": tot["report"][2],
        "trace.spans": len(tracer.flags),
        "trace.items_per_s": items_per_s,
        "trace.overhead_items_per_s": items_per_s - untraced_items_per_s,
    })
    return {name: (values[name], unit) for name, (unit, _) in PER_LAYER.items()}
