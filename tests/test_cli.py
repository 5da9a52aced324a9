"""End-to-end command-line tests, run in process through main()."""

import argparse
import contextlib
import hashlib
import io
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderlab import cli
from orderlab.approx import lap_upper_adjoint
from orderlab.auxrel import classify, enumerate_aux, validate_aux
from orderlab.bitset import mask_text
from orderlab.cli import main
from orderlab.closures import is_meet_continuous
from orderlab.errors import BudgetExceeded, OrderlabError
from orderlab.families import FAMILIES, get_family, window
from orderlab.harness import (
    SUITES,
    _BUILTIN_RELS,
    _REL_MODES,
    _SUBSET_MODES,
    Scope,
    run_suite,
    search_counterexample,
)
from orderlab.poset import (
    antichain,
    chain,
    diamond,
    enumerate_posets,
    enumerate_upper_sets,
    export_dot,
    hasse,
    poset_to_json,
)
from orderlab.report import CheckReport
from orderlab.topology import mu_topology, scott_topology


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Fixture files shared by the CLI tests: posets, relations, junk."""
    d = tmp_path_factory.mktemp("cli")
    paths = {
        "c3": d / "c3.json",
        "d4": d / "d4.json",
        "r1": d / "r1.json",
        "seed": d / "seed.json",
        "bad": d / "bad.json",
        "dir": d,
    }
    assert main(["poset", "gen", "--kind", "chain", "--n", "3",
                 "--out", str(paths["c3"])]) == 0
    assert main(["poset", "gen", "--kind", "diamond",
                 "--out", str(paths["d4"])]) == 0
    paths["r1"].write_text(
        json.dumps({"pairs": [[0, 0], [0, 1], [0, 2], [1, 2]]}), encoding="utf-8"
    )
    paths["seed"].write_text(json.dumps([[1, 1]]), encoding="utf-8")
    paths["bad"].write_text("{not json", encoding="utf-8")
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# -- poset ------------------------------------------------------------------


def test_poset_gen_validate_round_trip(files, capsys):
    code, out, _ = run(capsys, "poset", "validate", "--poset", str(files["c3"]))
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["n"] == 3
    assert doc["covers"] == [[0, 1], [1, 2]]


def test_poset_gen_dot_output(capsys):
    code, out, _ = run(capsys, "poset", "gen", "--kind", "diamond",
                       "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert "rankdir=BT" in out
    assert "0 -> 1" in out


def test_poset_gen_writes_out_file(files, capsys):
    target = files["dir"] / "b2.json"
    code, out, _ = run(capsys, "poset", "gen", "--kind", "boolean", "--k", "2",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["n"] == 4


@pytest.mark.parametrize("argv", [
    ("poset", "gen", "--kind", "diamond"),
    ("poset", "gen", "--kind", "boolean", "--k", "2"),
    ("poset", "gen", "--kind", "antichain", "--n", "2"),
    ("poset", "hasse", "--poset", "{d4}"),
    ("topology", "scott", "--poset", "{c3}"),
    ("topology", "mu", "--poset", "{d4}", "--rel", "builtin:leq"),
    ("family", "ladder", "window", "--m", "1", "--n", "2"),
])
@pytest.mark.parametrize("fmt", ["json", "text", "dot"])
def test_stdout_gets_the_bytes_that_out_writes(files, capsys, argv, fmt):
    argv = [arg.format(c3=files["c3"], d4=files["d4"]) for arg in argv] + ["--format", fmt]
    code, out, _ = run(capsys, *argv)
    target = files["dir"] / "same.txt"
    assert code == 0 and run(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_text(encoding="utf-8") == out and out.endswith("\n")
    assert not out.endswith("\n\n") or out == "\n"


def test_poset_enumerate_counts(capsys):
    code, out, _ = run(capsys, "poset", "enumerate", "--n", "2")
    assert code == 0 and json.loads(out)["count"] == 3
    code, out, _ = run(capsys, "poset", "enumerate", "--n", "2", "--up-to-iso")
    assert code == 0 and json.loads(out)["count"] == 2


def test_poset_hasse_text(files, capsys):
    code, out, _ = run(capsys, "poset", "hasse", "--poset", str(files["d4"]))
    assert code == 0
    assert out.splitlines() == ["0 < 1", "0 < 2", "1 < 3", "2 < 3"]


def test_poset_gen_text_lists_the_covers(capsys):
    code, out, _ = run(capsys, "poset", "gen", "--kind", "diamond", "--format", "text")
    assert code == 0
    assert out.splitlines() == [f"{a} < {b}" for a, b in hasse(diamond())]
    code, out, _ = run(capsys, "poset", "gen", "--kind", "antichain", "--n", "3",
                       "--format", "text")
    assert code == 0 and hasse(antichain(3)) == [] and out == "antichain of 3\n"


def test_poset_enumerate_text_gives_one_row_list_per_line(capsys):
    code, out, _ = run(capsys, "poset", "enumerate", "--n", "3", "--format", "text")
    assert code == 0
    assert out.splitlines() == [",".join(map(str, q.up)) for q in enumerate_posets(3)]


def test_poset_hasse_json_and_dot(files, capsys):
    code, out, _ = run(capsys, "poset", "hasse", "--poset", str(files["d4"]),
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 4, "covers": [list(c) for c in hasse(diamond())]}
    code, out, _ = run(capsys, "poset", "hasse", "--poset", str(files["d4"]),
                       "--format", "dot")
    assert code == 0 and out == export_dot(diamond())


# -- aux ------------------------------------------------------------------------


def test_aux_validate_builtin(files, capsys):
    code, out, _ = run(capsys, "aux", "validate", "--poset", str(files["c3"]),
                       "--rel", "builtin:leq")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and len(doc["pairs"]) == 6


@pytest.mark.parametrize("name", ["way-below", "wb"])
def test_aux_validate_builtin_way_below_is_the_order(files, capsys, name):
    code, out, _ = run(capsys, "aux", "validate", "--poset", str(files["d4"]),
                       "--rel", f"builtin:{name}")
    assert code == 0
    assert json.loads(out)["pairs"] == [
        [0, 0], [0, 1], [0, 2], [0, 3], [1, 1], [1, 3], [2, 2], [2, 3], [3, 3]
    ]


def test_unknown_builtin_relation_is_a_usage_error(files, capsys):
    code, out, err = run(capsys, "aux", "validate", "--poset", str(files["c3"]),
                         "--rel", "builtin:nope")
    assert code == 2 and out == ""
    assert err.startswith("orderlab: error: ") and err.count("\n") == 1
    assert err.count("orderlab: error:") == 1


def test_aux_close_seed(files, capsys):
    code, out, _ = run(capsys, "aux", "close", "--poset", str(files["c3"]),
                       "--seed-rel", str(files["seed"]))
    assert code == 0
    pairs = json.loads(out)["pairs"]
    assert pairs == [[0, 0], [0, 1], [0, 2], [1, 1], [1, 2]]


def test_aux_classify_fields(files, capsys):
    code, out, _ = run(capsys, "aux", "classify", "--poset", str(files["c3"]),
                       "--rel", "builtin:leq")
    assert code == 0
    doc = json.loads(out)
    assert doc["pre_approximating"] and doc["approximating"] and doc["has_int"]
    assert doc["witnesses"] == {}


def test_aux_enumerate_lists_every_relation(files, capsys):
    code, out, _ = run(capsys, "aux", "enumerate", "--poset", str(files["c3"]))
    assert code == 0
    rels = [[list(pr) for pr in r.pairs()] for r in enumerate_aux(chain(3))]
    assert json.loads(out) == {"count": len(rels), "relations": rels}
    assert len(rels) > 1


def test_aux_enumerate_beyond_its_budget_is_a_usage_error(files, capsys):
    code, out, err = run(capsys, "aux", "enumerate", "--poset", str(files["c3"]),
                         "--budget", "1")
    assert code == 2 and out == ""
    assert err.startswith("orderlab: error: ") and err.count("\n") == 1
    assert "internal:" not in err


def test_aux_way_below_on_a_chain_is_leq(files, capsys):
    code, out, _ = run(capsys, "aux", "way-below", "--poset", str(files["c3"]))
    assert code == 0
    assert json.loads(out)["pairs"] == [
        [0, 0], [0, 1], [0, 2], [1, 1], [1, 2], [2, 2]
    ]


# -- approx ------------------------------------------------------------------


def test_approx_lap_text(files, capsys):
    code, out, _ = run(capsys, "approx", "lap", "--poset", str(files["c3"]),
                       "--rel", str(files["r1"]), "--set", "1,2")
    assert code == 0 and out == "2\n"


def test_approx_uap_json(files, capsys):
    code, out, _ = run(capsys, "approx", "uap", "--poset", str(files["c3"]),
                       "--rel", str(files["r1"]), "--set", "0",
                       "--format", "json")
    assert code == 0 and json.loads(out) == {"set": [0, 1]}


def test_approx_adjoint(files, capsys):
    code, out, _ = run(capsys, "approx", "adjoint", "--poset", str(files["c3"]),
                       "--rel", str(files["r1"]), "--set", "0,1",
                       "--which", "lower")
    assert code == 0 and out == "0\n"


def test_approx_adjoint_upper(files, capsys):
    r1 = validate_aux(chain(3), [(0, 0), (0, 1), (0, 2), (1, 2)])
    for text in ("", "2", "1,2", "0,1,2"):
        code, out, _ = run(capsys, "approx", "adjoint", "--poset", str(files["c3"]),
                           "--rel", str(files["r1"]), "--set", text,
                           "--which", "upper", "--format", "json")
        expected = lap_upper_adjoint(r1, chain(3).parse_subset(text))
        assert code == 0 and json.loads(out) == {"set": list(expected.indices())}, text
    code, out, err = run(capsys, "approx", "adjoint", "--poset", str(files["c3"]),
                         "--rel", str(files["r1"]), "--set", "0", "--which", "upper")
    assert (code, out) == (2, "")
    assert err == "orderlab: error: ElementSet([0], n=3) is not an upper set\n"


# -- topology ---------------------------------------------------------------------


def test_topology_mu_opens(files, capsys):
    code, out, _ = run(capsys, "topology", "mu", "--poset", str(files["c3"]),
                       "--rel", str(files["r1"]))
    assert code == 0
    assert json.loads(out) == {"n": 3, "opens": [[], [0, 1, 2]]}


def test_topology_scott_text_to_file(files, capsys):
    target = files["dir"] / "scott.txt"
    code, out, _ = run(capsys, "topology", "scott", "--poset", str(files["c3"]),
                       "--format", "text", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == "\n2\n1,2\n0,1,2\n"


def test_topology_opens_lattice_dot(files, capsys):
    code, out, _ = run(capsys, "topology", "scott", "--poset", str(files["c3"]),
                       "--format", "dot")
    assert code == 0
    assert out.startswith("digraph opens {")
    assert '0 [label="{}"];' in out
    assert '3 [label="{0,1,2}"];' in out
    assert out.count("->") == 3


def _opens_dot_by_scan(masks) -> str:
    """The Hasse diagram of the opens as DOT, from a scan of every triple."""
    lines = ["digraph opens {", "  rankdir=BT;"]
    for k, m in enumerate(masks):
        lines.append(f'  {k} [label="{{{mask_text(m)}}}"];')
    for a, ma in enumerate(masks):
        for b, mb in enumerate(masks):
            if ma == mb or ma & ~mb:
                continue
            covered = any(
                mc not in (ma, mb) and not ma & ~mc and not mc & ~mb
                for mc in masks
            )
            if not covered:
                lines.append(f"  {a} -> {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_opens_dot_matches_the_triple_scan_on_every_small_topology(tmp_path, capsys):
    # one parser for all runs: building it is most of the cost of main()
    parser = cli.build_parser()

    def dot(*argv):
        args = parser.parse_args(["topology", *argv, "--format", "dot"])
        assert args.func(args) == 0
        return capsys.readouterr().out

    poset_file, rel_file = tmp_path / "p.json", tmp_path / "r.json"
    rendered = 0
    for n in range(1, 5):
        for p in enumerate_posets(n):
            poset_file.write_text(json.dumps(poset_to_json(p)), encoding="utf-8")
            out = dot("scott", "--poset", str(poset_file))
            assert out == _opens_dot_by_scan(scott_topology(p).masks), p.up
            for r in enumerate_aux(p):
                if not classify(r).pre_approximating:
                    continue
                rel_file.write_text(json.dumps([list(pr) for pr in r.pairs()]), encoding="utf-8")
                out = dot("mu", "--poset", str(poset_file), "--rel", str(rel_file))
                assert out == _opens_dot_by_scan(mu_topology(r).masks), r.sec
                rendered += 1
    assert rendered == 1319


def test_topologies_with_more_upper_sets_than_the_listed_budget_exit_2(tmp_path, capsys):
    """The 21-antichain has 2^21 upper sets, twice the 2^20 that any
    universe of ``MAX_DIRECTED_UNIVERSE`` points can have: both topologies
    stop at that bound, and the lazy enumerator keeps its own budget."""
    path = tmp_path / "a21.json"
    assert main(["poset", "gen", "--kind", "antichain", "--n", "21", "--out", str(path)]) == 0
    for argv in (("mu", "--rel", "builtin:leq"), ("scott",)):
        code, out, err = run(capsys, "topology", argv[0], "--poset", str(path), *argv[1:])
        assert (code, out, err) == (2, "", "orderlab: error: more than 1048576 upper sets\n")
    got = []
    with pytest.raises(BudgetExceeded, match="^more than 5 upper sets$"):
        got.extend(enumerate_upper_sets(antichain(21), budget=5))
    assert len(got) == 5


def test_opens_dot_renders_128_opens_and_refuses_more(tmp_path, capsys):
    for n, opens in ((7, 128), (8, 256)):
        path = tmp_path / f"a{n}.json"
        assert main(["poset", "gen", "--kind", "antichain", "--n", str(n), "--out", str(path)]) == 0
        code, out, err = run(capsys, "topology", "scott", "--poset", str(path), "--format", "dot")
        if opens <= 128:
            assert code == 0 and out.count("[label=") == opens and out.count("->") == opens * n // 2
        else:
            assert (code, out) == (2, "")
            assert err == f"orderlab: error: {opens} opens is too many to render\n"


def test_topology_interior_and_closure(files, capsys):
    code, out, _ = run(capsys, "topology", "interior", "--poset", str(files["c3"]),
                       "--set", "1,2", "--topology", "mu", "--rel", str(files["r1"]))
    assert code == 0 and out == "\n"
    code, out, _ = run(capsys, "topology", "closure", "--poset", str(files["c3"]),
                       "--set", "1", "--topology", "scott")
    assert code == 0 and out == "0,1\n"


def test_topology_mu_requires_rel(files, capsys):
    code, out, err = run(capsys, "topology", "interior", "--poset", str(files["c3"]),
                         "--set", "1", "--topology", "mu")
    assert code == 2 and out == ""
    assert err == "orderlab: error: --topology mu requires --rel\n"


def test_topology_cspace(files, capsys):
    code, out, _ = run(capsys, "topology", "cspace", "--poset", str(files["d4"]))
    assert code == 0
    doc = json.loads(out)
    assert doc == {"c_space": True, "upset_mode": "specialization", "witness": None}
    code, out, _ = run(capsys, "topology", "cspace", "--poset", str(files["c3"]),
                       "--topology", "mu", "--rel", "builtin:bottom",
                       "--upset", "underlying")
    assert code == 0 and json.loads(out)["c_space"] is True


# -- closure ---------------------------------------------------------------


def test_closure_one_step(files, capsys):
    code, out, _ = run(capsys, "closure", "one-step", "--poset", str(files["c3"]),
                       "--set", "2")
    assert code == 0 and out == "0,1,2\n"


def test_closure_one_step_beyond_the_directed_sweep(tmp_path, capsys):
    """One step is the down closure, so it needs no directed-subset sweep."""
    path = tmp_path / "a21.json"
    assert main(["poset", "gen", "--kind", "antichain", "--n", "21",
                 "--out", str(path)]) == 0
    code, out, _ = run(capsys, "closure", "one-step", "--poset", str(path),
                       "--set", "0,20")
    assert code == 0 and out == "0,20\n"


def test_closure_meet_continuous(files, capsys):
    code, out, _ = run(capsys, "closure", "meet-continuous",
                       "--poset", str(files["d4"]))
    assert code == 0 and out == "true\n"


def test_closure_meet_continuous_json(files, capsys):
    code, out, _ = run(capsys, "closure", "meet-continuous", "--poset", str(files["c3"]),
                       "--format", "json")
    assert code == 0 and json.loads(out) == {"meet_continuous": is_meet_continuous(chain(3))}


# -- family -----------------------------------------------------------------------


def test_family_order_member_wb(capsys):
    code, out, _ = run(capsys, "family", "ladder", "order",
                       "--x", "a(0,1)", "--y", "top")
    assert code == 0 and out == "true\n"
    code, out, _ = run(capsys, "family", "ladder", "member",
                       "--set-name", "Aprime", "--x", "b(3)")
    assert code == 0 and out == "true\n"
    code, out, _ = run(capsys, "family", "ladder", "member",
                       "--set-name", "Aprime", "--x", "top")
    assert code == 0 and out == "false\n"
    code, out, _ = run(capsys, "family", "omega", "wb",
                       "--x", "nat(3)", "--y", "omega")
    assert code == 0 and out == "true\n"
    code, out, _ = run(capsys, "family", "omega", "wb",
                       "--x", "omega", "--y", "omega")
    assert code == 0 and out == "false\n"


@pytest.mark.parametrize("m,n", [(0, 0), (2, 3), (3, 2)])
def test_family_ladder_verify_passes(capsys, m, n):
    code, out, _ = run(capsys, "family", "ladder", "verify", "--m", str(m), "--n", str(n))
    assert code == 0 and json.loads(out)["ok"] is True


@pytest.mark.parametrize("finding,code", [(False, 1), (True, 3)])
def test_family_verify_exits_by_the_report(capsys, monkeypatch, finding, code):
    def verify(f, m, n):
        return CheckReport(f.name, "window").add("law", False, finding=finding)

    monkeypatch.setattr(cli, "verify_window_soundness", verify)
    assert run(capsys, "family", "ladder", "verify", "--n", "1", "--format", "text")[0] == code


def test_family_window_json(capsys):
    code, out, _ = run(capsys, "family", "ladder", "window",
                       "--m", "1", "--n", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 7
    assert "top" in doc["labels"]


def test_family_window_dot_and_text(capsys):
    w = window(get_family("ladder"), 1, 2)
    code, out, _ = run(capsys, "family", "ladder", "window", "--m", "1", "--n", "2",
                       "--format", "dot")
    assert code == 0 and out == export_dot(w.poset)
    code, out, _ = run(capsys, "family", "ladder", "window", "--m", "1", "--n", "2",
                       "--format", "text")
    assert code == 0
    assert out.splitlines() == [
        f"{w.poset.label(a)} < {w.poset.label(b)}" for a, b in hasse(w.poset)
    ]


def test_family_verify_passes(capsys):
    code, out, _ = run(capsys, "family", "omega", "verify", "--n", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True


# -- check / verify / search ---------------------------------------------------


def _argument(parser, *path, dest):
    """The action of ``dest`` in the subcommand that ``path`` names."""
    for name in path:
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = subparsers.choices[name]
    return next(a for a in parser._actions if a.dest == dest)


def test_the_cli_choices_are_the_library_tables():
    parser = cli.build_parser()
    assert list(_argument(parser, "poset", "gen", dest="kind").choices) == list(cli._GENERATORS)
    assert list(_argument(parser, "family", dest="family").choices) == list(FAMILIES)
    for command in ("check", "verify", "search"):
        assert tuple(_argument(parser, command, dest="rel_mode").choices) == _REL_MODES
        assert tuple(_argument(parser, command, dest="subset_mode").choices) == _SUBSET_MODES
        help_text = _argument(parser, command, dest="rel_builtins").help
        assert help_text == "comma-separated: " + ",".join(_BUILTIN_RELS)


def test_main_builds_its_parser_once_and_answers_alike_with_it(capsys, monkeypatch):
    builds = []
    real = cli.build_parser
    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    argv = ["verify", "--max-n", "2", "--suite", "all", "--seed", "0", "--format", "json"]
    runs = [(main(argv), capsys.readouterr()) for _ in range(2)]
    assert runs[0] == runs[1] and runs[0][0] == 3  # cspace findings at n = 2
    fresh = real()
    for path in ([], ["verify"], ["poset", "gen"]):
        helps = []
        for _ in range(2):
            with pytest.raises(SystemExit) as stop:
                main([*path, "--help"])
            helps.append((stop.value.code, capsys.readouterr().out))
        parser = fresh
        for name in path:
            subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            parser = subparsers.choices[name]
        assert helps == [(0, parser.format_help())] * 2
    assert len(builds) == 1


def test_check_single_suite(capsys):
    code, out, _ = run(capsys, "check", "--suite", "int-char", "--max-n", "2",
                       "--format", "text")
    assert code == 0
    assert out.startswith("suites=int-char attempted=9 passed=9")


def test_check_text_lists_the_findings(capsys):
    code, out, _ = run(capsys, "check", "--suite", "cspace", "--max-n", "2",
                       "--format", "text")
    report = run_suite(Scope(max_n=2), ["cspace"])
    assert report.findings and not report.failures
    assert code == 3
    assert out.splitlines()[1:] == [
        f"FINDING {e['law']} {e['fingerprint']}" for e in report.findings
    ]


def test_check_text_lists_the_failures_before_the_findings(capsys, break_operators):
    break_operators(lap=lambda r, b, v: v ^ (b & -b))
    code, out, _ = run(capsys, "check", "--suite", "all", "--max-n", "2",
                       "--format", "text")
    report = run_suite(Scope(max_n=2), SUITES)
    assert report.failures and report.findings
    assert code == 1
    assert out.splitlines()[1:] == [
        f"FAIL    {e['law']} {e['fingerprint']}" for e in report.failures
    ] + [f"FINDING {e['law']} {e['fingerprint']}" for e in report.findings]


def test_verify_never_reports_failures_and_is_reproducible(capsys):
    argv = ("verify", "--max-n", "2", "--jobs", "1")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 and code1 in (0, 3)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["failures"] == []
    code3, out3, _ = run(capsys, "verify", "--max-n", "2", "--jobs", "8")
    assert code3 == code1 and out3 == out1


def test_verify_report_matches_the_golden_digest(capsys):
    """The whole ``--max-n 3`` report, pinned so that any drift in a law,
    a witness or the report layout shows up."""
    _, out, _ = run(capsys, "verify", "--max-n", "3", "--suite", "all",
                    "--seed", "0", "--format", "json")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6ea2495dd310ef7545c67675e280384871c207e40aa86e381714b350779bec9d"
    )


def test_search_reports_a_witness_with_exit_3(capsys):
    code, out, _ = run(capsys, "search",
                       "--property", "cspace-implies-approximating",
                       "--max-n", "3")
    assert code == 3
    doc = json.loads(out)
    assert doc["property"] == "cspace-implies-approximating"
    assert doc["poset"]["n"] == 2
    assert doc["detail"]["approximating"] is False


def test_search_text_prints_the_witness(capsys):
    code, out, _ = run(capsys, "search", "--property", "cspace-implies-approximating",
                       "--max-n", "3", "--format", "text")
    witness = search_counterexample("cspace-implies-approximating", Scope(max_n=3))
    assert code == 3
    assert out == f"witness {witness['fingerprint']}\n" + json.dumps(
        witness["detail"], indent=2, sort_keys=True) + "\n"


def test_search_clean_property_exits_0(capsys):
    code, out, _ = run(capsys, "search", "--property", "int-equivalence-break",
                       "--max-n", "2")
    assert code == 0 and json.loads(out) is None
    code, out, _ = run(capsys, "search", "--property", "int-equivalence-break",
                       "--max-n", "2", "--format", "text")
    assert code == 0 and out == "none\n"


# -- diagnostics and environment --------------------------------------------------


def test_missing_poset_file_is_a_usage_error(files, capsys):
    code, out, err = run(capsys, "poset", "validate", "--poset",
                         str(files["dir"] / "ghost.json"))
    assert code == 2 and out == ""
    assert err.startswith("orderlab: error: ")
    assert err.count("\n") == 1
    assert "file not found" in err


def test_malformed_json_is_a_usage_error(files, capsys):
    code, _, err = run(capsys, "poset", "validate", "--poset", str(files["bad"]))
    assert code == 2
    assert err.startswith("orderlab: error: ") and "invalid JSON" in err


@pytest.mark.parametrize("field, value", [("labels", 5), ("labels", [0]), ("n", True)])
def test_bad_poset_field_is_a_usage_error(files, capsys, field, value):
    doc = {"n": 1, "relation": {"mode": "covers", "pairs": []}, field: value}
    bad = files["dir"] / "bad_field.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "poset", "validate", "--poset", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("orderlab: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("pairs", [[[0, True], [True, 2]], [[False, 1]], [[0, 1.0]]])
def test_non_integer_poset_pair_is_a_usage_error(files, capsys, pairs):
    doc = {"n": 3, "relation": {"mode": "covers", "pairs": pairs}}
    bad = files["dir"] / "bad_pair.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "poset", "validate", "--poset", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("orderlab: error: ") and err.count("\n") == 1
    assert "malformed pair" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("poset", "validate", "--poset", "{dir}"),
        ("aux", "validate", "--poset", "{c3}", "--rel", "{dir}"),
        ("poset", "gen", "--kind", "chain", "--out", "{dir}"),
        ("poset", "validate", "--poset", "{latin1}"),
        ("aux", "validate", "--poset", "{c3}", "--rel", "{latin1}"),
    ],
    ids=["poset-dir", "rel-dir", "out-dir", "poset-latin1", "rel-latin1"],
)
def test_unreadable_file_is_a_usage_error(files, capsys, argv):
    latin1 = files["dir"] / "latin1.json"
    latin1.write_bytes(b'{"pairs": [], "note": "caf\xe9"}')
    paths = {"dir": str(files["dir"]), "c3": str(files["c3"]), "latin1": str(latin1)}
    argv = [arg.format(**paths) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("orderlab: error: ") and err.count("\n") == 1
    assert argv[-1] in err


@pytest.mark.parametrize("content", [None, b"{not json", b'{"pairs": [], "x": "caf\xe9"}'],
                         ids=["missing", "invalid-json", "latin1"])
def test_unreadable_relation_file_names_its_path_once(files, capsys, content):
    rel = files["dir"] / "unreadable-rel.json"
    rel.unlink(missing_ok=True)
    if content is not None:
        rel.write_bytes(content)
    code, out, err = run(capsys, "aux", "validate", "--poset", str(files["c3"]),
                         "--rel", str(rel))
    assert code == 2 and out == ""
    assert err.startswith("orderlab: error: ") and err.count("orderlab: error:") == 1
    assert err.count("\n") == 1 and err.count(rel.name) == 1


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("planted")

    monkeypatch.setattr(cli, "run_suite", broken)
    code, out, err = run(capsys, "check", "--suite", "partition", "--max-n", "1")
    assert code == 2 and out == ""
    assert err == "orderlab: error: internal: RuntimeError: planted\n"


@pytest.mark.parametrize("command, jobs", [("check", "0"), ("verify", "-3")])
def test_jobs_below_one_is_rejected_by_the_parser(capsys, command, jobs):
    with pytest.raises(SystemExit) as exc:
        main([command, "--suite", "partition", "--max-n", "1", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_malformed_relation_pair_is_a_usage_error(files, capsys):
    ragged = files["dir"] / "ragged.json"
    for pairs in ([[0, 1, 2]], [[0, True]], [[True, 2]], [[False, 0]]):
        ragged.write_text(json.dumps({"pairs": pairs}), encoding="utf-8")
        code, _, err = run(capsys, "aux", "validate", "--poset", str(files["c3"]),
                           "--rel", str(ragged))
        assert code == 2 and "malformed pair" in err, pairs


@pytest.mark.parametrize("doc", [5, "pairs", {"pairs": 3}, {"other": []}, None])
def test_relation_document_that_is_not_a_pair_list_is_a_usage_error(files, capsys, doc):
    rel = files["dir"] / "not-pairs.json"
    rel.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "aux", "validate", "--poset", str(files["c3"]),
                         "--rel", str(rel))
    assert code == 2 and out == ""
    assert err == (f"orderlab: error: --rel {rel}: expected a pair list or "
                   '{"pairs": ...}\n')


@pytest.mark.parametrize("pairs", [[[1, 0]], [[0, 1]], [[0, 0], [0, 1], [0, 5]]],
                         ids=["aux-1", "aux-2", "out-of-range"])
def test_relation_that_fails_the_axioms_is_a_usage_error(files, capsys, pairs):
    rel = files["dir"] / "bad-axioms.json"
    rel.write_text(json.dumps(pairs), encoding="utf-8")
    with pytest.raises(OrderlabError) as exc:
        validate_aux(chain(3), [tuple(pr) for pr in pairs])
    for argv in (("aux", "validate"), ("aux", "classify")):
        code, out, err = run(capsys, *argv, "--poset", str(files["c3"]), "--rel", str(rel))
        assert code == 2 and out == ""
        assert err == f"orderlab: error: --rel {rel}: {exc.value}\n"


def test_bad_env_seed_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("ORDERLAB_SEED", "three")
    code, out, err = run(capsys, "check", "--suite", "partition", "--max-n", "1")
    assert code == 2 and out == ""
    assert err == "orderlab: error: ORDERLAB_SEED must be an integer, got 'three'\n"


def test_env_seed_lands_in_the_report(capsys, monkeypatch):
    monkeypatch.setenv("ORDERLAB_SEED", "7")
    code, out, _ = run(capsys, "check", "--suite", "partition", "--max-n", "1")
    assert code == 0 and json.loads(out)["seed"] == 7
    code, out, _ = run(capsys, "check", "--suite", "partition", "--max-n", "1",
                       "--seed", "9")
    assert json.loads(out)["seed"] == 9


def test_no_arguments_shows_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_unknown_search_property_is_rejected_by_the_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--property", "nope"])
    assert exc.value.code == 2


# -- fuzzing -----------------------------------------------------------------------


def _subcommands(parser, path=()):
    """(argv prefix, parser) for every subcommand, once per value of the
    positional arguments before it (the family)."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield path, parser
        return
    before = [a.choices for a in parser._actions if not a.option_strings and a is not subparsers[0]]
    for prefix in itertools.product(*before):
        for name, child in subparsers[0].choices.items():
            yield from _subcommands(child, path + prefix + (name,))


@pytest.fixture(scope="module")
def fuzz_values(files):
    """Per flag, values to draw for it: valid ones and malformed ones."""
    d = files["dir"]
    (d / "not-pairs.json").write_text(json.dumps({"other": 1}), encoding="utf-8")
    (d / "off-order.json").write_text(json.dumps([[1, 0]]), encoding="utf-8")
    posets = [str(files[k]) for k in ("c3", "d4", "bad", "dir")] + [str(d / "ghost.json")]
    rels = ["builtin:leq", "builtin:bottom", "builtin:wb", "builtin:nope", str(files["r1"]),
            "file:" + str(files["r1"]), str(d / "not-pairs.json"), str(d / "off-order.json"),
            str(files["bad"]), str(d / "ghost.json")]
    counts = ["0", "1", "2", "-1", "x"]
    return {
        "--poset": posets, "--rel": rels, "--seed-rel": [str(files["seed"])] + rels[4:],
        "--set": ["", "0", "1,2", "2", "9", "x", "0,,1"], "--out": [str(d / "fuzz.out"), str(d)],
        "--max-n": ["0", "1", "2", "x"], "--n": counts + ["3"], "--m": counts, "--k": counts,
        "--budget": counts, "--rel-sample": counts, "--subset-sample": counts,
        "--max-instances": counts, "--jobs": counts, "--seed": counts, "--p": ["0.5", "2", "x"],
        "--wall-time": ["0", "5", "-1", "x"],
        "--rel-builtins": ["leq", "leq,bottom,wb", "nope", ""],
        "--x": ["top", "a(0,1)", "b(2)", "nat(1)", "omega", "a(-1,0)", "junk"],
        "--y": ["top", "b(3)", "omega", "junk"],
    }


def test_fuzzed_argv_exits_by_the_contract(fuzz_values):
    """argv drawn from the parser's own vocabulary, with valid and malformed
    values and dropped options: main returns 0, 2 or 3 or argparse exits 2,
    and an error is one ``orderlab: error:`` line on stderr and nothing on
    stdout, never an internal one."""
    subcommands = list(_subcommands(cli.build_parser()))

    @st.composite
    def argvs(draw):
        path, parser = draw(st.sampled_from(subcommands))
        argv = list(path)
        for action in parser._actions:
            flag = action.option_strings[0] if action.option_strings else None
            if flag in (None, "-h"):
                continue
            if flag != "--max-n" and not draw(st.booleans()) and (
                not action.required or draw(st.integers(0, 9)) == 0
            ):
                continue  # dropped: half the optional flags, one required flag in twenty
            if action.nargs == 0:
                argv.append(flag)
            elif action.choices is not None:
                argv += [flag, draw(st.sampled_from([*action.choices, "bogus"]))]
            else:
                argv += [flag, draw(st.sampled_from(fuzz_values[flag]))]
        return argv

    @settings(max_examples=300, deadline=None)
    @given(argvs())
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as stop:
                assert stop.code == 2, argv
                return
        assert code in (0, 2, 3), argv
        if code == 2:
            assert out.getvalue() == "", argv
            assert err.getvalue().startswith("orderlab: error: "), argv
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), argv
            assert "internal:" not in err.getvalue(), argv

    check()
