import ast
import csv
import inspect
import io
import json
import time

import pytest

from coreseq import (
    Engine,
    Provable,
    cross_check,
    fixture_path,
    formula_universe,
    forward_closure,
    load_derivation,
    parse_sequent,
    print_sequent,
    theoremhood_report,
)
from coreseq import cli
from coreseq.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- decide -------------------------------------------------------------------


def test_decide_unprovable_exits_1(capsys):
    code, out, err = run(capsys, "decide", "~A, A |- B")
    assert code == 1
    assert "unprovable" in err


def test_decide_provable_exits_0(capsys):
    code, out, err = run(capsys, "decide", "|- ~A -> (A -> B)", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["status"] == "provable"
    assert blob["min_height"] == 3
    assert blob["derivation"]["rule"] == "RImpB"
    assert blob["stats"]["mode"] == "tennant"


def test_decide_json_stats_are_the_results(capsys):
    # a provable query, a searched unprovable one and one settled at the root
    for text in ("|- ~A -> (A -> B)", "p, p -> q |- p", "p | q |- p"):
        _, out, _ = run(capsys, "decide", text, "--json")
        res = Engine().decide(parse_sequent(text))
        stats = res.stats if isinstance(res, Provable) else res.certificate
        assert json.loads(out)["stats"] == {
            "goals_expanded": stats.goals_expanded,
            "distinct_goals": stats.distinct_goals,
            "max_weight_seen": stats.max_weight_seen,
            "mode": stats.mode,
        }, text


def test_decide_intuitionistic_logic(capsys):
    code, _, _ = run(capsys, "decide", "~A, A |- B", "--logic", "int")
    assert code == 0
    code, _, _ = run(capsys, "decide", "|- p | ~p", "--logic", "int")
    assert code == 1


def test_decide_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "decide", "p -> ->")
    assert code == 2
    assert "position" in err


def test_decide_emits_derivation_only_when_provable(capsys, tmp_path):
    target = tmp_path / "d.json"
    code, _, _ = run(capsys, "decide", "~A, A |- B", "--emit-derivation", str(target))
    assert code == 1
    assert not target.exists()
    code, _, _ = run(capsys, "decide", "~A, A |-", "--emit-derivation", str(target))
    assert code == 0
    d = load_derivation(target)
    assert d.conclusion == parse_sequent("~A, A |-")


def test_decide_int_json_shape(capsys):
    code, out, _ = run(capsys, "decide", "~A, A |- B", "--logic", "int", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob == {"status": "provable", "logic": "int"}


def test_decide_strict_mode(capsys):
    code, _, _ = run(capsys, "decide", "p -> ~q, p, q |-", "--mode", "strict-table")
    assert code == 1
    code, _, _ = run(capsys, "decide", "p -> ~q, p, q |-")
    assert code == 0


def test_decide_prints_countervaluation_of_classically_invalid_goal(capsys):
    code, out, err = run(capsys, "decide", "q -> r, p |-", "--json")
    assert code == 1
    assert json.loads(out)["countervaluation"] == {"p": True, "q": False, "r": False}
    assert "classically invalid: p = true, q = false, r = false" in err
    # a classically valid but disconnected root is settled by the
    # connectivity filter and has no countervaluation
    code, out, err = run(capsys, "decide", "~A, A |- B", "--json")
    assert code == 1
    assert "countervaluation" not in json.loads(out)
    assert json.loads(out)["disconnected"] is True
    assert "unprovable (disconnected: its formulas split into groups sharing no atom)" in err
    # a classically valid, connected root is exhausted by search
    code, out, err = run(capsys, "decide", "(p -> q) -> p |- p", "--json")
    assert code == 1
    assert "countervaluation" not in json.loads(out)
    assert "disconnected" not in json.loads(out)
    assert "unprovable (exhausted 3 goals)" in err


def test_decide_deeply_nested_input_exits_2(capsys):
    code, _, err = run(capsys, "decide", "~" * 3000 + "p |- p")
    assert code == 2
    assert "nested too deeply" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", ["tennant", "strict-table"])
def test_decide_answers_with_a_derivation_600_levels_deep(capsys, mode):
    text = "|- " + " -> ".join(["p"] * 601)
    code, _, err = run(capsys, "decide", text, "--mode", mode)
    assert code == 0
    assert err.endswith(": provable, minimal height 600\n")
    # json nests two levels per derivation node and gives up near 500 nodes
    code, out, err = run(capsys, "decide", text, "--mode", mode, "--json")
    assert code == 2
    assert json.loads(out) == {"status": "error", "error": "input nested too deeply"}
    assert "Traceback" not in err


def test_decide_rejects_input_beyond_the_parsers_nesting_bound(capsys):
    code, out, err = run(capsys, "decide", "~" * 200_000 + "p |- p", "--json")
    assert code == 2
    assert "nested too deeply" in err
    assert "Traceback" not in err
    assert json.loads(out)["position"] == 200_000


def test_decide_rejects_a_flat_chain_beyond_the_parsers_text_budget(capsys):
    # 30,000 operands would store about 1.8e9 characters of node text
    started = time.perf_counter()
    code, out, err = run(capsys, "decide", " & ".join(["p"] * 30_000) + " |- p", "--json")
    assert time.perf_counter() - started < 10
    assert code == 2
    assert "formulas too large" in err
    assert "Traceback" not in err
    assert json.loads(out)["status"] == "error"


def test_memo_cap_env_produces_resource_exit(capsys, monkeypatch):
    monkeypatch.setenv("CORESEQ_MEMO_CAP", "4")
    code, _, err = run(capsys, "decide", "p -> q, q -> p, p | q |- p & q")
    assert code == 2
    assert "resource" in err.lower()


def test_decide_json_error_objects(capsys, monkeypatch):
    code, out, err = run(capsys, "decide", "p -> ->", "--json")
    assert code == 2
    blob = json.loads(out)
    assert blob["status"] == "error"
    assert type(blob["position"]) is int
    assert blob["error"] in err
    monkeypatch.setenv("CORESEQ_MEMO_CAP", "4")
    code, out, err = run(capsys, "decide", "p -> q, q -> p, p | q |- p & q", "--json")
    assert code == 2
    blob = json.loads(out)
    assert blob["status"] == "resource-limit"
    assert blob["error"] in err

    def out_of_memory(self, goal):
        raise MemoryError

    monkeypatch.setattr(Engine, "decide", out_of_memory)
    code, out, err = run(capsys, "decide", "p |- p", "--json")
    assert code == 2
    assert json.loads(out) == {"status": "resource-limit", "error": "resource limit: out of memory"}
    assert err == "coreseq: resource limit: out of memory\n"

    # the forward closure's cap error is the engine's class, so it maps
    # to the same exit
    def closure_over_its_cap(self, goal):
        return forward_closure(formula_universe(["p", "q"], 3), 6, max_size=10)

    monkeypatch.setattr(Engine, "decide", closure_over_its_cap)
    code, out, _ = run(capsys, "decide", "p |- p", "--json")
    assert code == 2
    assert json.loads(out) == {
        "status": "resource-limit", "error": "resource limit: closure exceeded the cap of 10 sequents",
    }


# -- check ---------------------------------------------------------------------


def test_check_valid_fixture(capsys):
    code, _, err = run(capsys, "check", str(fixture_path("d2")))
    assert code == 0
    assert "valid" in err


def test_check_rejected_fixture(capsys):
    code, out, err = run(capsys, "check", str(fixture_path("d1-full-with-ltop")), "--json")
    assert code == 1
    blob = json.loads(out)
    assert blob["clause"] == "unknown-rule"
    assert blob["path"] == []
    assert "LTop" in blob["message"]


def test_check_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rule": "Ax"', encoding="utf-8")
    code, _, _ = run(capsys, "check", str(bad))
    assert code == 2
    missing = tmp_path / "absent.json"
    code, _, _ = run(capsys, "check", str(missing))
    assert code == 2
    for text in (
        '{"rule": "Ax", "conclusion": "p |- p", "premises": 5}',
        '{"rule": "Ax", "conclusion": 5, "premises": []}',
        '{"rule": "Ax", "conclusion": "p |- p", "premises": null}',
    ):
        bad.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "check", str(bad), "--json")
        assert code == 2, text
        assert err.startswith("coreseq: cannot load derivation: ")
        assert json.loads(out) == {"status": "error", "error": err.removeprefix("coreseq: ").rstrip("\n")}


def test_check_unknown_keys_rejected(capsys, tmp_path):
    bad = tmp_path / "extra.json"
    bad.write_text(
        '{"rule": "Ax", "conclusion": "p |- p", "premises": [], "comment": "hi"}',
        encoding="utf-8",
    )
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "unknown" in err


def test_check_deeply_nested_derivation_exits_2(capsys, tmp_path):
    depth = 3000
    leaf = '{"rule": "Ax", "conclusion": "p |- p", "premises": []}'
    deep = tmp_path / "deep.json"
    deep.write_text(
        '{"rule": "ROr1", "conclusion": "p |- p | p", "premises": [' * depth + leaf + "]}" * depth,
        encoding="utf-8",
    )
    code, _, err = run(capsys, "check", str(deep))
    assert code == 2
    assert "nested too deeply" in err
    assert "Traceback" not in err
    code, out, _ = run(capsys, "check", str(deep), "--json")
    assert code == 2
    assert json.loads(out) == {"status": "error", "error": "input nested too deeply"}


# -- repro ----------------------------------------------------------------------


def test_repro_is_deterministic_and_complete(capsys, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    code, text1, _ = run(capsys, "repro", "--out", str(out1))
    assert code == 0
    code, text2, _ = run(capsys, "repro", "--out", str(out2))
    assert code == 0
    assert text1 == text2
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    report = json.loads(text1)
    ids = [item["id"] for item in report["items"]]
    for required in (
        "eq1",
        "eq2",
        "eq3-d1",
        "eq4-d2",
        "lemma1",
        "contradiction1",
        "contradiction2",
        "ltop-verdict",
        "weakening",
    ):
        assert required in ids
    by_id = {item["id"]: item for item in report["items"]}
    assert by_id["eq1"]["status"] == "unprovable"
    assert by_id["eq2"]["status"] == "provable"
    assert by_id["eq2"]["matches_d1_upper"] is True
    assert by_id["eq3-d1"]["status"] == "invalid"
    assert by_id["eq3-d1"]["clause"] == "unknown-rule"
    assert by_id["eq4-d2"]["status"] == "valid+provable"
    assert by_id["eq4-d2"]["min_height"] <= by_id["eq4-d2"]["fixture_height"]
    assert by_id["ltop-verdict"]["status"] == "NotAdmissible"
    assert by_id["ltop-verdict"]["first_witness"]["premise"] == "q |- q"
    assert by_id["weakening"]["status"] == "NotAdmissible"
    assert len(by_id["weakening"]["step_rejected_as"]) == 11
    assert by_id["weakening"]["weakened_pair_status"] == "unprovable"

    evidence = {item["evidence"] for item in report["items"] if "evidence" in item}
    assert len(evidence) == 6
    assert {f.name for f in out1.iterdir()} == evidence | {"report.json"}
    assert json.loads((out1 / "crosscheck.json").read_text())["violations"] == []


@pytest.mark.parametrize(
    "argv, env",
    [(["--top", "p"], None), (["--top", ""], None), ([], "5")],
    ids=["top-not-a-theorem", "top-unparsable", "resource-limit"],
)
def test_failed_repro_writes_nothing(capsys, monkeypatch, tmp_path, argv, env):
    if env is not None:
        monkeypatch.setenv("CORESEQ_MEMO_CAP", env)
    out = tmp_path / "r"
    code, _, _ = run(capsys, "repro", "--out", str(out), *argv)
    assert code == 2
    assert not out.exists()


def test_repro_disagreement_exits_3_and_writes_nothing(capsys, monkeypatch, tmp_path):
    # an engine that misreports eq2's minimal height must stop the run
    eq2 = parse_sequent("|- ~A -> (A -> B)")
    decide = Engine.decide

    def misreport(self, goal):
        res = decide(self, goal)
        if goal == eq2:
            return Provable(res.derivation, res.min_height + 1, res.stats)
        return res

    monkeypatch.setattr(Engine, "decide", misreport)
    out = tmp_path / "r"
    code, text, err = run(capsys, "repro", "--out", str(out))
    assert code == 3
    assert text == ""
    assert err == "coreseq: internal disagreement: reported minimal height 4 does not match the witness\n"
    assert not out.exists()


# -- atlas ----------------------------------------------------------------------


def test_atlas_small(capsys, tmp_path):
    target = tmp_path / "atlas.csv"
    code, _, err = run(capsys, "atlas", "--atoms", "1", "--weight-cap", "3", "--out", str(target))
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "sequent,weight,core,core_min_height,int,divergence"
    assert any(line.startswith("p |- p,2,provable,0") for line in lines)


def test_atlas_contains_divergence_row(capsys, tmp_path):
    target = tmp_path / "atlas.csv"
    code, _, _ = run(capsys, "atlas", "--atoms", "2", "--weight-cap", "4", "--out", str(target))
    assert code == 0
    rows = target.read_text().splitlines()
    assert any(r.startswith('"~p, p |- q",4,unprovable,,provable,yes') for r in rows)


def test_atlas_deterministic_row_counts(capsys, tmp_path):
    t1, t2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
    run(capsys, "atlas", "--atoms", "2", "--weight-cap", "4", "--out", str(t1))
    run(capsys, "atlas", "--atoms", "2", "--weight-cap", "4", "--out", str(t2))
    assert t1.read_bytes() == t2.read_bytes()


def test_atlas_rows_and_counts_match_cross_check(capsys, tmp_path):
    target = tmp_path / "atlas.csv"
    code, _, err = run(
        capsys, "atlas", "--atoms", "2", "--weight-cap", "5", "--mode", "strict-table", "--out", str(target)
    )
    assert code == 0
    cc = cross_check(formula_universe(["p", "q"], 5), 5, engine=Engine("strict-table"))
    rows = list(csv.reader(io.StringIO(target.read_text())))[1:]
    assert len(rows) == cc.total
    assert [(r[0], r[2], r[3], r[4]) for r in rows] == [
        (print_sequent(s), "unprovable" if h is None else "provable", "" if h is None else str(h),
         "provable" if int_ok else "unprovable")
        for s, h, int_ok in cc.rows
    ]
    assert [r[0] for r in rows if r[5] == "yes"] == [print_sequent(s) for s in cc.divergences]
    assert err == (
        f"atlas: {cc.total} sequents over 2 atoms (weight cap 5); core-provable {cc.core_provable}, "
        f"intuitionistically provable {cc.int_provable}, divergences {len(cc.divergences)}\n"
    )


def test_atlas_rejects_workers_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["atlas", "--atoms", "2", "--weight-cap", "4", "--workers", "2"])
    assert exc.value.code == 2


def test_atlas_rejects_bad_atom_count(capsys):
    code, _, _ = run(capsys, "atlas", "--atoms", "0", "--weight-cap", "3")
    assert code == 2


def test_atlas_rejects_unwritable_out_before_deciding(capsys, monkeypatch, tmp_path):
    def no_search(*args, **kwargs):
        raise AssertionError("atlas decided a family it cannot write")

    monkeypatch.setattr("coreseq.cli.cross_check", no_search)
    code, _, err = run(capsys, "atlas", "--atoms", "2", "--weight-cap", "7", "--out", str(tmp_path / "missing" / "x.csv"))
    assert code == 2
    assert "No such file" in err
    assert not (tmp_path / "missing").exists()


def test_failed_atlas_writes_nothing(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("CORESEQ_MEMO_CAP", "5")
    fresh, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_text("kept\n", encoding="utf-8")
    for target in (fresh, old):
        code, _, err = run(capsys, "atlas", "--atoms", "2", "--weight-cap", "4", "--out", str(target))
        assert code == 2
        assert "resource limit" in err
    assert not fresh.exists()
    assert old.read_text(encoding="utf-8") == "kept\n"


# -- theorems -------------------------------------------------------------------


def test_theorems_prints_the_report_and_a_summary(capsys):
    code, out, err = run(capsys, "theorems", "--atoms", "2", "--max-weight", "6", "--json")
    assert code == 0
    report = theoremhood_report(["p", "q"], 6)
    assert json.loads(out) == report.to_json()
    assert report.disagreements == [] and report.core_theorems > 0
    assert err == (
        f"theorems: {report.total} formulas over 2 atoms (weight at most 6); "
        f"core theorems {report.core_theorems}, intuitionistic theorems {report.int_theorems}, "
        "disagreements 0\n"
    )


def test_theorems_exits_1_on_a_disagreement(capsys):
    # without LAnd under the absurdity marker, ~(p & ~p) is no Core theorem
    code, out, err = run(
        capsys, "theorems", "--atoms", "2", "--max-weight", "6", "--mode", "strict-table", "--json"
    )
    assert code == 1
    report = theoremhood_report(["p", "q"], 6, engine=Engine("strict-table"))
    assert json.loads(out) == report.to_json()
    assert "~(p & ~p)" in json.loads(out)["disagreements"]
    assert err.endswith(f"disagreements {len(report.disagreements)}\n")


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (["theorems", "--atoms", "2", "--max-weight", "6"], "5", "resource limit"),
        (["theorems", "--atoms", "2", "--max-weight", "6"], "abc", "invalid CORESEQ_MEMO_CAP 'abc'"),
        (["theorems", "--atoms", "2", "--max-weight", "6"], "0", "invalid CORESEQ_MEMO_CAP '0'"),
        (["theorems", "--atoms", "2", "--max-weight", "6"], "-5", "invalid CORESEQ_MEMO_CAP '-5'"),
        (["theorems", "--atoms", "9", "--max-weight", "2"], None, "--atoms must be between 1 and 8"),
        (["theorems", "--atoms", "2", "--max-weight", "-1"], None, "--max-weight must be at least 1"),
    ],
    ids=["memo-cap", "bad-memo-cap", "zero-memo-cap", "negative-memo-cap", "atoms", "max-weight"],
)
def test_theorems_errors_exit_2(capsys, monkeypatch, argv, env, message):
    if env is not None:
        monkeypatch.setenv("CORESEQ_MEMO_CAP", env)
    code, out, err = run(capsys, *argv, "--json")
    assert code == 2
    assert message in json.loads(out)["error"]
    assert err.startswith("coreseq: ") and message in err and len(err.splitlines()) == 1


# -- errors outside the query ----------------------------------------------------


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (["decide", "p |- p", "--emit-derivation", "{tmp}/missing/x.json"], None, "No such file"),
        (["atlas", "--atoms", "1", "--weight-cap", "2", "--out", "{tmp}/missing/x.csv"], None, "No such file"),
        (["repro", "--out", "{tmp}/file/sub"], None, "Not a directory"),
        (["decide", "p |- p"], "abc", "invalid CORESEQ_MEMO_CAP 'abc'"),
        (["decide", "p |- q"], "0", "invalid CORESEQ_MEMO_CAP '0'"),
        (["decide", "p |- p"], "-5", "invalid CORESEQ_MEMO_CAP '-5'"),
        (["repro", "--top", "p", "--out", "{tmp}/r"], None, "p is not a theorem"),
        (["decide", "p |- p", "--logic", "int", "--emit-derivation", "{tmp}/x.json"], None,
         "--emit-derivation is only available for core logic"),
        (["atlas", "--atoms", "9", "--weight-cap", "2"], None, "--atoms must be between 1 and 8"),
        (["decide", "p |- p", "--logic", "int", "--mode", "strict-table"], None,
         "--mode is only available for core logic"),
        (["atlas", "--atoms", "2", "--weight-cap", "0"], None, "--weight-cap must be at least 1"),
    ],
    ids=[
        "decide-emit-derivation", "atlas-out", "repro-out", "memo-cap", "zero-memo-cap",
        "negative-memo-cap", "repro-top",
        "int-emit-derivation", "atlas-atoms", "int-mode", "atlas-weight-cap",
    ],
)
def test_errors_outside_the_query_exit_2(capsys, monkeypatch, tmp_path, argv, env, message):
    (tmp_path / "file").write_text("")
    if env is not None:
        monkeypatch.setenv("CORESEQ_MEMO_CAP", env)
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("coreseq: ") and message in err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_failed_write_prints_only_the_error_object(capsys, monkeypatch, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, _ = run(capsys, "decide", "p |- p", "--json", "--emit-derivation", str(target))
    assert code == 2
    blob = json.loads(out)
    assert blob["status"] == "error" and str(target) in blob["error"]
    code, out, _ = run(capsys, "decide", "p |- p", "--logic", "int", "--json", "--emit-derivation", str(target))
    assert code == 2
    assert json.loads(out) == {
        "status": "error", "error": "--emit-derivation is only available for core logic",
    }
    code, out, _ = run(capsys, "decide", "p |- p", "--logic", "int", "--json", "--mode", "tennant")
    assert code == 2
    assert json.loads(out) == {"status": "error", "error": "--mode is only available for core logic"}
    monkeypatch.setenv("CORESEQ_MEMO_CAP", "abc")
    code, out, _ = run(capsys, "decide", "p |- p", "--json")
    assert code == 2
    assert json.loads(out) == {"status": "error", "error": "invalid CORESEQ_MEMO_CAP 'abc'"}


def test_only_main_catches_query_errors():
    """Parse errors, resource limits, memory exhaustion and deep input
    become exit 2, and a `repro` disagreement exit 3, in one place, `main`;
    a subcommand that catches one itself has a second error policy."""
    tree = ast.parse(inspect.getsource(cli))
    main_fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    in_main = {id(n) for n in ast.walk(main_fn)}
    query_errors = {"ParseError", "ResourceLimitError", "RecursionError", "MemoryError", "_InternalDisagreement"}
    offenders = [
        handler.lineno
        for handler in ast.walk(tree)
        if isinstance(handler, ast.ExceptHandler)
        and handler.type is not None
        and id(handler) not in in_main
        and query_errors & {
            getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(handler.type)
        }
    ]
    assert offenders == []
