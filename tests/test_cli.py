"""End-to-end command-line tests, run in process through main()."""

import hashlib
import json

import pytest

from orderlab.cli import main


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


@pytest.mark.parametrize("command, jobs", [("check", "0"), ("verify", "-3")])
def test_jobs_below_one_is_rejected_by_the_parser(capsys, command, jobs):
    with pytest.raises(SystemExit) as exc:
        main([command, "--suite", "partition", "--max-n", "1", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_malformed_relation_pair_is_a_usage_error(files, capsys):
    ragged = files["dir"] / "ragged.json"
    ragged.write_text(json.dumps({"pairs": [[0, 1, 2]]}), encoding="utf-8")
    code, _, err = run(capsys, "aux", "validate", "--poset", str(files["c3"]),
                       "--rel", str(ragged))
    assert code == 2 and "malformed pair" in err


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
