"""Command-line entry point.

Git-style subcommands over the whole library.  Machine output goes to
stdout, diagnostics to stderr; exit codes: 0 pass, 3 pass-with-findings,
1 law failures, 2 usage or malformed input.  All output is deterministic;
timing is only included when explicitly requested.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .approx import lap, lap_upper_adjoint, uap, uap_lower_adjoint
from .bitset import mask_text
from .auxrel import (
    AuxRelation,
    aux_closure,
    classify,
    enumerate_aux,
    validate_aux,
    way_below,
)
from .closures import is_meet_continuous, one_step
from .errors import BadParameters, BudgetExceeded, OrderlabError
from .families import (
    FamilyElement,
    family_membership,
    family_order,
    family_way_below,
    get_family,
    verify_window_soundness,
    window,
)
from .harness import (
    PROPERTIES,
    SUITES,
    Scope,
    _BUILTIN_RELS,
    run_suite,
    search_counterexample,
)
from .poset import (
    Poset,
    antichain,
    boolean,
    chain,
    diamond,
    enumerate_posets,
    export_dot,
    hasse,
    poset_from_json,
    poset_to_json,
    random_poset,
)
from .report import CheckReport
from .topology import (
    Topology,
    closure as topo_closure,
    interior as topo_interior,
    is_c_space,
    mu_topology,
    scott_topology,
)


def _default_seed() -> int:
    raw = os.environ.get("ORDERLAB_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise BadParameters(f"ORDERLAB_SEED must be an integer, got {raw!r}")


def _jobs(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _read_json(path: str, what: str):
    """The JSON document at path; a missing, non-UTF-8 or malformed file is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise BadParameters(f"{what}: file not found")
    except UnicodeDecodeError:
        raise BadParameters(f"{what}: not UTF-8 text")
    except json.JSONDecodeError as exc:
        raise BadParameters(f"{what}: invalid JSON ({exc.msg})")


def _load_poset_arg(path: str) -> Poset:
    doc = _read_json(path, f"--poset {path}")
    try:
        return poset_from_json(doc)
    except OrderlabError as exc:
        raise BadParameters(f"--poset {path}: {exc}")


def _read_pairs(path: str, what: str) -> list[tuple[int, int]]:
    doc = _read_json(path, what)
    if isinstance(doc, dict):
        doc = doc.get("pairs")
    if not isinstance(doc, list):
        raise BadParameters(f"{what}: expected a pair list or {{\"pairs\": ...}}")
    pairs = []
    for item in doc:
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not all(type(x) is int for x in item)
        ):
            raise BadParameters(f"{what}: malformed pair {item!r}")
        pairs.append((item[0], item[1]))
    return pairs


def _load_rel(p: Poset, spec: str) -> AuxRelation:
    if spec.startswith("builtin:"):
        name = spec[8:]
        make = _BUILTIN_RELS.get("way-below" if name == "wb" else name)
        if make is None:
            raise BadParameters(f"--rel {spec}: unknown builtin relation")
        return make(p)
    path = spec[5:] if spec.startswith("file:") else spec
    pairs = _read_pairs(path, f"--rel {path}")
    try:
        return validate_aux(p, pairs)
    except OrderlabError as exc:
        raise BadParameters(f"--rel {path}: {exc}")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _emit_set(s, fmt: str, out: str | None = None) -> None:
    if fmt == "json":
        _emit(_dump({"set": list(s.indices())}), out)
    else:
        _emit(s.text(), out)


def _emit_report(rep: CheckReport, fmt: str) -> int:
    if fmt == "json":
        print(_dump(rep.to_dict()))
    else:
        for v in rep.verdicts:
            status = "PASS" if v.passed else ("FINDING" if v.finding else "FAIL")
            tail = f"  # {v.note}" if v.note else ""
            print(f"{status:7s} {v.law}{tail}")
        bad = len(rep.failures)
        print(f"failures={bad} findings={len(rep.findings)}")
    if rep.failures:
        return 1
    if rep.findings:
        return 3
    return 0


def _opens_dot(t: Topology) -> str:
    """Hasse diagram of the opens ordered by inclusion, as DOT."""
    masks = t.masks
    if len(masks) > 128:
        raise BudgetExceeded(f"{len(masks)} opens is too many to render")
    up = [sum(1 << k for k, mb in enumerate(masks) if not ma & ~mb) for ma in masks]
    return export_dot(Poset(up, [f"{{{mask_text(m)}}}" for m in masks]), name="opens")


def _emit_topology(t: Topology, fmt: str, out: str | None) -> None:
    if fmt == "dot":
        _emit(_opens_dot(t), out)
    elif fmt == "json":
        _emit(
            _dump({"n": t.poset.n, "opens": [list(o.indices()) for o in t.opens]}),
            out,
        )
    else:
        _emit("\n".join(o.text() for o in t.opens), out)


# -- poset ---------------------------------------------------------------------


def _cmd_poset_validate(args) -> int:
    p = _load_poset_arg(args.poset)
    print(_dump({"n": p.n, "ok": True, "covers": [list(c) for c in hasse(p)]}))
    return 0


def _cmd_poset_gen(args) -> int:
    kind = args.kind
    if kind == "chain":
        p = chain(args.n)
    elif kind == "antichain":
        p = antichain(args.n)
    elif kind == "diamond":
        p = diamond()
    elif kind == "boolean":
        p = boolean(args.k)
    elif kind == "random":
        p = random_poset(args.n, args.p, args.seed)
    else:
        raise BadParameters(f"unknown kind {kind!r}")
    if args.format == "dot":
        _emit(export_dot(p), args.out)
    elif args.format == "text":
        _emit(
            "\n".join(f"{a} < {b}" for a, b in hasse(p)) or f"antichain of {p.n}",
            args.out,
        )
    else:
        _emit(_dump(poset_to_json(p)), args.out)
    return 0


def _cmd_poset_enumerate(args) -> int:
    rows_list = [list(q.up) for q in enumerate_posets(
        args.n, up_to_iso=args.up_to_iso, budget=args.budget
    )]
    if args.format == "text":
        for rows in rows_list:
            print(",".join(str(r) for r in rows))
    else:
        print(_dump({"n": args.n, "count": len(rows_list), "posets": rows_list}))
    return 0


def _cmd_poset_hasse(args) -> int:
    p = _load_poset_arg(args.poset)
    pairs = hasse(p)
    if args.format == "dot":
        _emit(export_dot(p), args.out)
    elif args.format == "json":
        _emit(_dump({"n": p.n, "covers": [list(c) for c in pairs]}), args.out)
    else:
        _emit("\n".join(f"{a} < {b}" for a, b in pairs), args.out)
    return 0


# -- aux -----------------------------------------------------------------------


def _cmd_aux_validate(args) -> int:
    p = _load_poset_arg(args.poset)
    r = _load_rel(p, args.rel)
    print(_dump({"ok": True, "pairs": [list(pr) for pr in r.pairs()]}))
    return 0


def _cmd_aux_close(args) -> int:
    p = _load_poset_arg(args.poset)
    r = aux_closure(p, _read_pairs(args.seed_rel, f"--seed-rel {args.seed_rel}"))
    print(_dump({"pairs": [list(pr) for pr in r.pairs()]}))
    return 0


def _cmd_aux_classify(args) -> int:
    p = _load_poset_arg(args.poset)
    cls = classify(_load_rel(p, args.rel))
    print(
        _dump(
            {
                "pre_approximating": cls.pre_approximating,
                "approximating": cls.approximating,
                "has_int": cls.has_int,
                "witnesses": {k: list(v) if isinstance(v, tuple) else v
                              for k, v in cls.witnesses.items()},
            }
        )
    )
    return 0


def _cmd_aux_way_below(args) -> int:
    p = _load_poset_arg(args.poset)
    r = way_below(p)
    print(_dump({"pairs": [list(pr) for pr in r.pairs()]}))
    return 0


def _cmd_aux_enumerate(args) -> int:
    p = _load_poset_arg(args.poset)
    rels = [[list(pr) for pr in r.pairs()] for r in enumerate_aux(p, budget=args.budget)]
    print(_dump({"count": len(rels), "relations": rels}))
    return 0


# -- approx --------------------------------------------------------------------


def _cmd_approx(args) -> int:
    p = _load_poset_arg(args.poset)
    r = _load_rel(p, args.rel)
    a = p.parse_subset(args.set)
    if args.sub == "lap":
        result = lap(r, a)
    elif args.sub == "uap":
        result = uap(r, a)
    elif args.which == "lower":
        result = uap_lower_adjoint(r, a)
    else:
        result = lap_upper_adjoint(r, a)
    _emit_set(result, args.format)
    return 0


# -- topology ------------------------------------------------------------------


def _topology_for(args, p: Poset) -> Topology:
    if args.topology == "mu":
        if args.rel is None:
            raise BadParameters("--topology mu requires --rel")
        return mu_topology(_load_rel(p, args.rel))
    return scott_topology(p)


def _cmd_topology(args) -> int:
    p = _load_poset_arg(args.poset)
    _emit_topology(_topology_for(args, p), args.format, args.out)
    return 0


def _cmd_topology_interior(args) -> int:
    p = _load_poset_arg(args.poset)
    t = _topology_for(args, p)
    a = p.parse_subset(args.set)
    result = topo_interior(t, a) if args.sub == "interior" else topo_closure(t, a)
    _emit_set(result, args.format)
    return 0


def _cmd_topology_cspace(args) -> int:
    p = _load_poset_arg(args.poset)
    t = _topology_for(args, p)
    ok, witness = is_c_space(t, args.upset)
    print(_dump({"c_space": ok, "upset_mode": args.upset, "witness": witness}))
    return 0


# -- closure -------------------------------------------------------------------


def _cmd_closure_one_step(args) -> int:
    p = _load_poset_arg(args.poset)
    _emit_set(one_step(p, p.parse_subset(args.set)), args.format)
    return 0


def _cmd_closure_meet_continuous(args) -> int:
    p = _load_poset_arg(args.poset)
    value = is_meet_continuous(p)
    if args.format == "json":
        print(_dump({"meet_continuous": value}))
    else:
        print("true" if value else "false")
    return 0


# -- family --------------------------------------------------------------------


def _cmd_family(args) -> int:
    fam = get_family(args.family)
    sub = args.sub
    if sub == "order":
        value = family_order(
            fam, FamilyElement.parse(args.x), FamilyElement.parse(args.y)
        )
        print("true" if value else "false")
        return 0
    if sub == "member":
        value = family_membership(fam, args.set_name, FamilyElement.parse(args.x))
        print("true" if value else "false")
        return 0
    if sub == "wb":
        value = family_way_below(
            fam, FamilyElement.parse(args.x), FamilyElement.parse(args.y)
        )
        print("true" if value else "false")
        return 0
    if sub == "window":
        w = window(fam, args.m, args.n)
        if args.format == "dot":
            _emit(export_dot(w.poset), args.out)
        elif args.format == "text":
            _emit(
                "\n".join(
                    f"{w.poset.label(a)} < {w.poset.label(b)}"
                    for a, b in hasse(w.poset)
                ),
                args.out,
            )
        else:
            _emit(_dump(poset_to_json(w.poset)), args.out)
        return 0
    rep = verify_window_soundness(fam, args.m, args.n)
    return _emit_report(rep, args.format)


# -- check / search / verify ----------------------------------------------------


def _scope_from_args(args) -> Scope:
    return Scope(
        max_n=args.max_n,
        up_to_iso=args.up_to_iso,
        rel_mode=args.rel_mode,
        rel_sample=args.rel_sample,
        rel_builtins=tuple(
            s.strip() for s in args.rel_builtins.split(",") if s.strip()
        ),
        subset_mode=args.subset_mode,
        subset_sample=args.subset_sample,
        seed=args.seed if args.seed is not None else _default_seed(),
        max_instances=args.max_instances,
        wall_time_s=args.wall_time,
    )


def _cmd_check(args) -> int:
    suites = SUITES if args.suite == "all" else (args.suite,)
    report = run_suite(_scope_from_args(args), suites, jobs=args.jobs)
    if args.format == "text":
        print(
            f"suites={','.join(report.suites)} attempted={report.attempted} "
            f"passed={report.passed} failures={len(report.failures)} "
            f"findings={len(report.findings)}"
        )
        for entry in report.failures:
            print(f"FAIL    {entry['law']} {entry['fingerprint']}")
        for entry in report.findings:
            print(f"FINDING {entry['law']} {entry['fingerprint']}")
    else:
        print(report.to_json(include_timing=args.timing))
    return report.exit_code


def _cmd_search(args) -> int:
    witness = search_counterexample(args.property, _scope_from_args(args))
    if args.format == "text":
        if witness is None:
            print("none")
        else:
            print(f"witness {witness['fingerprint']}")
            print(_dump(witness["detail"]))
    else:
        print(_dump(witness))
    return 0 if witness is None else 3


def _add_scope_flags(sp) -> None:
    sp.add_argument("--max-n", type=int, default=3, dest="max_n")
    sp.add_argument("--up-to-iso", action="store_true", dest="up_to_iso")
    sp.add_argument(
        "--rel-mode",
        choices=("enumerate", "sample", "builtins"),
        default="enumerate",
        dest="rel_mode",
    )
    sp.add_argument("--rel-sample", type=int, default=5, dest="rel_sample")
    sp.add_argument(
        "--rel-builtins", default="leq", dest="rel_builtins",
        help="comma-separated: leq,bottom,way-below",
    )
    sp.add_argument(
        "--subset-mode",
        choices=("all", "sample"),
        default="all",
        dest="subset_mode",
    )
    sp.add_argument("--subset-sample", type=int, default=8, dest="subset_sample")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--max-instances", type=int, default=None, dest="max_instances")
    sp.add_argument("--wall-time", type=float, default=None, dest="wall_time")


def _fmt(sp, choices=("text", "json"), default="text") -> None:
    sp.add_argument("--format", choices=choices, default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orderlab",
        description="Approximation operators, induced topologies, and law "
        "suites on finite posets and symbolic infinite families.",
    )
    top = parser.add_subparsers(dest="cmd", required=True)

    # poset
    poset_p = top.add_parser("poset", help="build, validate, and render posets")
    psub = poset_p.add_subparsers(dest="sub", required=True)
    sp = psub.add_parser("validate")
    sp.add_argument("--poset", required=True)
    sp.set_defaults(func=_cmd_poset_validate)
    sp = psub.add_parser("gen")
    sp.add_argument(
        "--kind",
        required=True,
        choices=("chain", "antichain", "diamond", "boolean", "random"),
    )
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--p", type=float, default=0.3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    _fmt(sp, ("json", "dot", "text"), "json")
    sp.set_defaults(func=_cmd_poset_gen)
    sp = psub.add_parser("enumerate")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--up-to-iso", action="store_true", dest="up_to_iso")
    sp.add_argument("--budget", type=int, default=None)
    _fmt(sp, ("json", "text"), "json")
    sp.set_defaults(func=_cmd_poset_enumerate)
    sp = psub.add_parser("hasse")
    sp.add_argument("--poset", required=True)
    sp.add_argument("--out", default=None)
    _fmt(sp, ("text", "json", "dot"), "text")
    sp.set_defaults(func=_cmd_poset_hasse)

    # aux
    aux_p = top.add_parser("aux", help="auxiliary relations on a poset")
    asub = aux_p.add_subparsers(dest="sub", required=True)
    sp = asub.add_parser("validate")
    sp.add_argument("--poset", required=True)
    sp.add_argument("--rel", required=True)
    sp.set_defaults(func=_cmd_aux_validate)
    sp = asub.add_parser("close")
    sp.add_argument("--poset", required=True)
    sp.add_argument("--seed-rel", required=True, dest="seed_rel")
    sp.set_defaults(func=_cmd_aux_close)
    sp = asub.add_parser("classify")
    sp.add_argument("--poset", required=True)
    sp.add_argument("--rel", required=True)
    sp.set_defaults(func=_cmd_aux_classify)
    sp = asub.add_parser("way-below")
    sp.add_argument("--poset", required=True)
    sp.set_defaults(func=_cmd_aux_way_below)
    sp = asub.add_parser("enumerate")
    sp.add_argument("--poset", required=True)
    sp.add_argument("--budget", type=int, default=None)
    sp.set_defaults(func=_cmd_aux_enumerate)

    # approx
    approx_p = top.add_parser("approx", help="lower/upper approximations")
    apsub = approx_p.add_subparsers(dest="sub", required=True)
    for name in ("lap", "uap"):
        sp = apsub.add_parser(name)
        sp.add_argument("--poset", required=True)
        sp.add_argument("--rel", required=True)
        sp.add_argument("--set", required=True)
        _fmt(sp)
        sp.set_defaults(func=_cmd_approx)
    sp = apsub.add_parser("adjoint")
    sp.add_argument("--poset", required=True)
    sp.add_argument("--rel", required=True)
    sp.add_argument("--set", required=True)
    sp.add_argument("--which", choices=("lower", "upper"), required=True)
    _fmt(sp)
    sp.set_defaults(func=_cmd_approx)

    # topology
    topo_p = top.add_parser("topology", help="induced and Scott topologies")
    tsub = topo_p.add_subparsers(dest="sub", required=True)
    for name in ("mu", "scott"):
        sp = tsub.add_parser(name)
        sp.add_argument("--poset", required=True)
        if name == "mu":
            sp.add_argument("--rel", required=True)
        sp.add_argument("--out", default=None)
        _fmt(sp, ("json", "text", "dot"), "json")
        sp.set_defaults(func=_cmd_topology, topology=name)
    for name in ("interior", "closure"):
        sp = tsub.add_parser(name)
        sp.add_argument("--poset", required=True)
        sp.add_argument("--set", required=True)
        sp.add_argument("--topology", choices=("scott", "mu"), default="scott")
        sp.add_argument("--rel", default=None)
        _fmt(sp)
        sp.set_defaults(func=_cmd_topology_interior)
    sp = tsub.add_parser("cspace")
    sp.add_argument("--poset", required=True)
    sp.add_argument("--topology", choices=("scott", "mu"), default="scott")
    sp.add_argument("--rel", default=None)
    sp.add_argument(
        "--upset", choices=("specialization", "underlying"), default="specialization"
    )
    sp.set_defaults(func=_cmd_topology_cspace)

    # closure
    clo_p = top.add_parser("closure", help="one-step closure operator")
    csub = clo_p.add_subparsers(dest="sub", required=True)
    sp = csub.add_parser("one-step")
    sp.add_argument("--poset", required=True)
    sp.add_argument("--set", required=True)
    _fmt(sp)
    sp.set_defaults(func=_cmd_closure_one_step)
    sp = csub.add_parser("meet-continuous")
    sp.add_argument("--poset", required=True)
    _fmt(sp)
    sp.set_defaults(func=_cmd_closure_meet_continuous)

    # family
    fam_p = top.add_parser("family", help="symbolic infinite poset families")
    fam_p.add_argument("family", choices=("ladder", "omega"))
    fsub = fam_p.add_subparsers(dest="sub", required=True)
    sp = fsub.add_parser("order")
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.set_defaults(func=_cmd_family)
    sp = fsub.add_parser("member")
    sp.add_argument(
        "--set-name",
        required=True,
        choices=("A", "downA", "Aprime", "scott_closure_A"),
        dest="set_name",
    )
    sp.add_argument("--x", required=True)
    sp.set_defaults(func=_cmd_family)
    sp = fsub.add_parser("wb")
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.set_defaults(func=_cmd_family)
    sp = fsub.add_parser("window")
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--out", default=None)
    _fmt(sp, ("json", "dot", "text"), "json")
    sp.set_defaults(func=_cmd_family)
    sp = fsub.add_parser("verify")
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--n", type=int, required=True)
    _fmt(sp, ("json", "text"), "json")
    sp.set_defaults(func=_cmd_family)

    # check / search / verify
    for name, help_text in (
        ("check", "run law suites over a scope"),
        ("verify", "run every suite; alias for check"),
    ):
        sp = top.add_parser(name, help=help_text)
        sp.add_argument("--suite", choices=("all",) + SUITES, default="all")
        _add_scope_flags(sp)
        sp.add_argument(
            "--jobs", type=_jobs, default=1,
            help="accepted for compatibility; has no effect (campaigns run serially)",
        )
        sp.add_argument("--timing", action="store_true")
        _fmt(sp, ("json", "text"), "json")
        sp.set_defaults(func=_cmd_check)

    sp = top.add_parser("search", help="first counterexample in scope order")
    sp.add_argument("--property", required=True, choices=tuple(sorted(PROPERTIES)))
    _add_scope_flags(sp)
    _fmt(sp, ("json", "text"), "json")
    sp.set_defaults(func=_cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (OrderlabError, OSError) as exc:
        message = str(exc)
    except Exception as exc:
        message = f"internal: {type(exc).__name__}: {exc}"
    print(f"orderlab: error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
