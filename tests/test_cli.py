"""End-to-end command-line tests, run in process through main()."""

import hashlib
import json

import pytest

from orderlab import cli
from orderlab.auxrel import classify, enumerate_aux
from orderlab.bitset import mask_text
from orderlab.cli import main
from orderlab.poset import enumerate_posets, poset_to_json
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


def test_poset_enumerate_counts(capsys):
    code, out, _ = run(capsys, "poset", "enumerate", "--n", "2")
    assert code == 0 and json.loads(out)["count"] == 3
    code, out, _ = run(capsys, "poset", "enumerate", "--n", "2", "--up-to-iso")
    assert code == 0 and json.loads(out)["count"] == 2


def test_poset_hasse_text(files, capsys):
    code, out, _ = run(capsys, "poset", "hasse", "--poset", str(files["d4"]))
    assert code == 0
    assert out.splitlines() == ["0 < 1", "0 < 2", "1 < 3", "2 < 3"]


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
    """The Hasse diagram of the opens as DOT, from a scan of every triple,
    as the CLI prints it: with one more newline."""
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
    return "\n".join(lines) + "\n\n"


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


def test_family_window_json(capsys):
    code, out, _ = run(capsys, "family", "ladder", "window",
                       "--m", "1", "--n", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 7
    assert "top" in doc["labels"]


def test_family_verify_passes(capsys):
    code, out, _ = run(capsys, "family", "omega", "verify", "--n", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True


# -- check / verify / search ---------------------------------------------------


def test_check_single_suite(capsys):
    code, out, _ = run(capsys, "check", "--suite", "int-char", "--max-n", "2",
                       "--format", "text")
    assert code == 0
    assert out.startswith("suites=int-char attempted=9 passed=9")


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
