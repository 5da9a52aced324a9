"""Command-line entry point.

Git-style subcommands over the whole library.  Machine output goes to
stdout, diagnostics to stderr; exit codes: 0 pass, 3 pass-with-findings,
1 law failures, 2 usage or malformed input.  All output is deterministic;
timing is only included when explicitly requested.

Each subcommand is one row of ``_COMMANDS``: its handler, its arguments
(shared flags by their name in ``_ARGS``) and its --format choices, the
first the default.  Before any handler runs, ``_load`` reads its inputs
in this order: --poset into a poset, --rel into a relation on it (not
for a Scott topology), the topology, --seed-rel into pairs and --set
into a subset of the poset.  So no handler reads a file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

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
    FAMILIES,
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
    _REL_MODES,
    _SUBSET_MODES,
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
from .report import exit_code_of
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


def _load_poset(path: str) -> Poset:
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
    """text, ending in one newline, to stdout or to the file out: the same bytes."""
    text = text if text.endswith("\n") else text + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _emit_poset(p: Poset, fmt: str, out: str | None, label=str, empty: str = "") -> None:
    """p as DOT, as its JSON document or as one ``a < b`` line per cover."""
    if fmt == "dot":
        text = export_dot(p)
    elif fmt == "json":
        text = _dump(poset_to_json(p))
    else:
        text = "\n".join(f"{label(a)} < {label(b)}" for a, b in hasse(p)) or empty
    _emit(text, out)


def _emit_set(s, fmt: str) -> None:
    print(_dump({"set": list(s.indices())}) if fmt == "json" else s.text())


def _opens_dot(t: Topology) -> str:
    """Hasse diagram of the opens ordered by inclusion, as DOT."""
    masks = t.masks
    if len(masks) > 128:
        raise BudgetExceeded(f"{len(masks)} opens is too many to render")
    up = [sum(1 << k for k, mb in enumerate(masks) if not ma & ~mb) for ma in masks]
    return export_dot(Poset(up, [f"{{{mask_text(m)}}}" for m in masks]), name="opens")


def _load(args) -> argparse.Namespace:
    """A copy of the parsed arguments with the inputs read, in the order of
    the module docstring."""
    loaded = vars(args).copy()
    if "poset" in loaded:
        p = loaded["poset"] = _load_poset(args.poset)
    if loaded.get("topology") == "scott":
        loaded["topology"] = scott_topology(p)
    elif "rel" in loaded:
        if args.rel is None:
            raise BadParameters("--topology mu requires --rel")
        r = loaded["rel"] = _load_rel(p, args.rel)
        if "topology" in loaded:
            loaded["topology"] = mu_topology(r)
    if "seed_rel" in loaded:
        loaded["seed_rel"] = _read_pairs(args.seed_rel, f"--seed-rel {args.seed_rel}")
    if "set" in loaded:
        loaded["set"] = p.parse_subset(args.set)
    return argparse.Namespace(**loaded)


def _loading(handler):
    """The function a subcommand runs: its handler on the loaded arguments,
    a handler that returns nothing exiting 0."""
    def run(args) -> int:
        code = handler(_load(args))
        return 0 if code is None else code

    return run


# -- poset ---------------------------------------------------------------------


def _cmd_poset_validate(args) -> None:
    p = args.poset
    print(_dump({"n": p.n, "ok": True, "covers": [list(c) for c in hasse(p)]}))


# the --kind choices, each with the poset it builds from the parsed arguments
_GENERATORS = {
    "chain": lambda args: chain(args.n),
    "antichain": lambda args: antichain(args.n),
    "diamond": lambda args: diamond(),
    "boolean": lambda args: boolean(args.k),
    "random": lambda args: random_poset(args.n, args.p, args.seed),
}


def _cmd_poset_gen(args) -> None:
    p = _GENERATORS[args.kind](args)
    _emit_poset(p, args.format, args.out, empty=f"antichain of {p.n}")


def _cmd_poset_enumerate(args) -> None:
    posets = enumerate_posets(args.n, up_to_iso=args.up_to_iso, budget=args.budget)
    rows_list = [list(q.up) for q in posets]
    if args.format == "text":
        for rows in rows_list:
            print(",".join(str(r) for r in rows))
    else:
        print(_dump({"n": args.n, "count": len(rows_list), "posets": rows_list}))


def _cmd_poset_hasse(args) -> None:
    p = args.poset
    if args.format == "json":
        _emit(_dump({"n": p.n, "covers": [list(c) for c in hasse(p)]}), args.out)
    else:
        _emit_poset(p, args.format, args.out)


# -- aux -----------------------------------------------------------------------


def _cmd_aux_pairs(args) -> None:
    """The pairs of --rel, of the closure of --seed-rel or of way-below."""
    if args.sub == "validate":
        r, doc = args.rel, {"ok": True}
    else:
        r = aux_closure(args.poset, args.seed_rel) if args.sub == "close" else way_below(args.poset)
        doc = {}
    doc["pairs"] = [list(pr) for pr in r.pairs()]
    print(_dump(doc))


def _cmd_aux_classify(args) -> None:
    cls = classify(args.rel)
    witnesses = {k: list(v) if isinstance(v, tuple) else v for k, v in cls.witnesses.items()}
    print(_dump({
        "pre_approximating": cls.pre_approximating,
        "approximating": cls.approximating,
        "has_int": cls.has_int,
        "witnesses": witnesses,
    }))


def _cmd_aux_enumerate(args) -> None:
    rels = enumerate_aux(args.poset, budget=args.budget)
    rels = [[list(pr) for pr in r.pairs()] for r in rels]
    print(_dump({"count": len(rels), "relations": rels}))


# -- approx, topology, closure -------------------------------------------------

# approx lap and uap by name, adjoint by --which
_APPROX = {"lap": lap, "uap": uap, "lower": uap_lower_adjoint, "upper": lap_upper_adjoint}


def _cmd_approx(args) -> None:
    _emit_set(_APPROX[getattr(args, "which", args.sub)](args.rel, args.set), args.format)


def _cmd_topology(args) -> None:
    t = args.topology
    if args.sub == "interior":
        _emit_set(topo_interior(t, args.set), args.format)
    elif args.sub == "closure":
        _emit_set(topo_closure(t, args.set), args.format)
    elif args.sub == "cspace":
        ok, witness = is_c_space(t, args.upset)
        print(_dump({"c_space": ok, "upset_mode": args.upset, "witness": witness}))
    elif args.format == "dot":
        _emit(_opens_dot(t), args.out)
    elif args.format == "json":
        _emit(_dump({"n": t.poset.n, "opens": [list(o.indices()) for o in t.opens]}), args.out)
    else:
        _emit("\n".join(o.text() for o in t.opens), args.out)


def _cmd_closure_one_step(args) -> None:
    _emit_set(one_step(args.poset, args.set), args.format)


def _cmd_closure_meet_continuous(args) -> None:
    value = is_meet_continuous(args.poset)
    print(_dump({"meet_continuous": value}) if args.format == "json" else str(value).lower())


# -- family --------------------------------------------------------------------


def _cmd_family(args) -> int | None:
    fam = get_family(args.family)
    if args.sub in ("order", "member", "wb"):
        x = FamilyElement.parse(args.x)
        operands = (args.set_name, x) if args.sub == "member" else (x, FamilyElement.parse(args.y))
        print("true" if args.query(fam, *operands) else "false")
    elif args.sub == "window":
        p = window(fam, args.m, args.n).poset
        _emit_poset(p, args.format, args.out, p.label)
    else:
        rep = verify_window_soundness(fam, args.m, args.n)
        if args.format == "json":
            print(_dump(rep.to_dict()))
        else:
            for v in rep.verdicts:
                status = "PASS" if v.passed else ("FINDING" if v.finding else "FAIL")
                tail = f"  # {v.note}" if v.note else ""
                print(f"{status:7s} {v.law}{tail}")
            print(f"failures={len(rep.failures)} findings={len(rep.findings)}")
        return rep.exit_code


# -- check / search / verify ---------------------------------------------------


def _scope_from_args(args) -> Scope:
    return Scope(
        max_n=args.max_n,
        up_to_iso=args.up_to_iso,
        rel_mode=args.rel_mode,
        rel_sample=args.rel_sample,
        rel_builtins=tuple(s.strip() for s in args.rel_builtins.split(",") if s.strip()),
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
    return exit_code_of(False, witness is not None)  # a witness is a finding


# -- the parser ----------------------------------------------------------------

# the flags that several subcommands share, by name
_ARGS = {
    "poset": ("--poset", {"required": True}),
    "rel": ("--rel", {"required": True}),
    "rel?": ("--rel", {"default": None}),
    "set": ("--set", {"required": True}),
    "out": ("--out", {"default": None}),
    "budget": ("--budget", {"type": int, "default": None}),
    "topology": ("--topology", {"choices": ("scott", "mu"), "default": "scott"}),
    "x": ("--x", {"required": True}),
    "y": ("--y", {"required": True}),
    "m": ("--m", {"type": int, "default": 0}),
    "n": ("--n", {"type": int, "required": True}),
    "up-to-iso": ("--up-to-iso", {"action": "store_true"}),
}

# the scope of check, verify and search
_SCOPE = (
    ("--max-n", {"type": int, "default": 3}),
    "up-to-iso",
    ("--rel-mode", {"choices": _REL_MODES, "default": "enumerate"}),
    ("--rel-sample", {"type": int, "default": 5}),
    ("--rel-builtins", {"default": "leq", "help": f"comma-separated: {','.join(_BUILTIN_RELS)}"}),
    ("--subset-mode", {"choices": _SUBSET_MODES, "default": "all"}),
    ("--subset-sample", {"type": int, "default": 8}),
    ("--seed", {"type": int, "default": None}),
    ("--max-instances", {"type": int, "default": None}),
    ("--wall-time", {"type": float, "default": None}),
)

# --format choices, the first the default
_TEXT, _JSON, _OPENS = ("text", "json"), ("json", "text"), ("json", "text", "dot")


def _row(handler, *args, formats=(), **defaults):
    """One subcommand: its handler, its arguments in order, each a name of
    ``_ARGS`` or a (flag, keywords) pair, its --format choices and the
    values that it sets without a flag."""
    return handler, args, formats, defaults


_CHECK = _row(
    _cmd_check,
    ("--suite", {"choices": ("all",) + SUITES, "default": "all"}),
    *_SCOPE,
    ("--jobs", {
        "type": _jobs, "default": 1,
        "help": "accepted for compatibility; has no effect (campaigns run serially)",
    }),
    ("--timing", {"action": "store_true"}),
    formats=_JSON,
)


# command -> (help, its subcommands' rows by name or its own row, and the
# positional arguments that come before a subcommand)
_COMMANDS = {
    "poset": ("build, validate, and render posets", {
        "validate": _row(_cmd_poset_validate, "poset"),
        "gen": _row(
            _cmd_poset_gen,
            ("--kind", {"required": True, "choices": _GENERATORS}),
            ("--n", {"type": int, "default": 2}),
            ("--k", {"type": int, "default": 2}),
            ("--p", {"type": float, "default": 0.3}),
            ("--seed", {"type": int, "default": 0}),
            "out",
            formats=("json", "dot", "text"),
        ),
        "enumerate": _row(_cmd_poset_enumerate, "n", "up-to-iso", "budget", formats=_JSON),
        "hasse": _row(_cmd_poset_hasse, "poset", "out", formats=("text", "json", "dot")),
    }),
    "aux": ("auxiliary relations on a poset", {
        "validate": _row(_cmd_aux_pairs, "poset", "rel"),
        "close": _row(_cmd_aux_pairs, "poset", ("--seed-rel", {"required": True})),
        "classify": _row(_cmd_aux_classify, "poset", "rel"),
        "way-below": _row(_cmd_aux_pairs, "poset"),
        "enumerate": _row(_cmd_aux_enumerate, "poset", "budget"),
    }),
    "approx": ("lower/upper approximations", {
        "lap": _row(_cmd_approx, "poset", "rel", "set", formats=_TEXT),
        "uap": _row(_cmd_approx, "poset", "rel", "set", formats=_TEXT),
        "adjoint": _row(
            _cmd_approx, "poset", "rel", "set",
            ("--which", {"choices": ("lower", "upper"), "required": True}),
            formats=_TEXT,
        ),
    }),
    "topology": ("induced and Scott topologies", {
        "mu": _row(_cmd_topology, "poset", "rel", "out", formats=_OPENS, topology="mu"),
        "scott": _row(_cmd_topology, "poset", "out", formats=_OPENS, topology="scott"),
        "interior": _row(_cmd_topology, "poset", "set", "topology", "rel?", formats=_TEXT),
        "closure": _row(_cmd_topology, "poset", "set", "topology", "rel?", formats=_TEXT),
        "cspace": _row(
            _cmd_topology, "poset", "topology", "rel?",
            ("--upset", {"choices": ("specialization", "underlying"), "default": "specialization"}),
        ),
    }),
    "closure": ("one-step closure operator", {
        "one-step": _row(_cmd_closure_one_step, "poset", "set", formats=_TEXT),
        "meet-continuous": _row(_cmd_closure_meet_continuous, "poset", formats=_TEXT),
    }),
    "family": ("symbolic infinite poset families", {
        "order": _row(_cmd_family, "x", "y", query=family_order),
        "member": _row(
            _cmd_family,
            ("--set-name", {
                "required": True, "choices": ("A", "downA", "Aprime", "scott_closure_A"),
            }),
            "x",
            query=family_membership,
        ),
        "wb": _row(_cmd_family, "x", "y", query=family_way_below),
        "window": _row(_cmd_family, "m", "n", "out", formats=("json", "dot", "text")),
        "verify": _row(_cmd_family, "m", "n", formats=_JSON),
    }, ("family", {"choices": FAMILIES})),
    "check": ("run law suites over a scope", _CHECK),
    "verify": ("run every suite; alias for check", _CHECK),
    "search": ("first counterexample in scope order", _row(
        _cmd_search,
        ("--property", {"required": True, "choices": tuple(sorted(PROPERTIES))}),
        *_SCOPE,
        formats=_JSON,
    )),
}


def _add_row(sp, row) -> None:
    handler, args, formats, defaults = row
    for arg in args:
        flag, keywords = _ARGS[arg] if isinstance(arg, str) else arg
        sp.add_argument(flag, **keywords)
    if formats:
        sp.add_argument("--format", choices=formats, default=formats[0])
    sp.set_defaults(func=_loading(handler), **defaults)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orderlab",
        description="Approximation operators, induced topologies, and law "
        "suites on finite posets and symbolic infinite families.",
    )
    top = parser.add_subparsers(dest="cmd", required=True)
    for name, (help_text, rows, *positionals) in _COMMANDS.items():
        sp = top.add_parser(name, help=help_text)
        if not isinstance(rows, dict):
            _add_row(sp, rows)
            continue
        for flag, keywords in positionals:
            sp.add_argument(flag, **keywords)
        sub = sp.add_subparsers(dest="sub", required=True)
        for sub_name, row in rows.items():
            _add_row(sub.add_parser(sub_name), row)
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once: building it costs more than many a command."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
