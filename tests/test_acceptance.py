"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with its measured runtime; run with
``pytest tests/test_acceptance.py -v -s`` to see them.  Criteria 6-8 are
exhaustive desk-scale checks and together take a few minutes.
"""

import json
import random
from time import perf_counter

from conftest import random_formula
from coreseq import (
    Engine,
    IntProver,
    Provable,
    Unprovable,
    check_derivation,
    check_rule,
    cross_check,
    fixture_derivations,
    fixture_path,
    formula_universe,
    forward_closure,
    height,
    l_top_transform,
    load_derivation,
    parse_formula,
    parse_sequent,
    print_formula,
    print_sequent,
    sequent_family,
    theoremhood_report,
)
from coreseq.admissibility import NOT_ADMISSIBLE, test_admissibility as run_admissibility
from coreseq.kernel import RULE_NAMES

S = parse_sequent


def _report(label: str, started: float, limit: float, detail: str = "") -> None:
    elapsed = perf_counter() - started
    print(f"ACCEPTANCE {label}: PASS in {elapsed:.2f}s (< {limit}s) {detail}")
    assert elapsed < limit, f"{label} exceeded its runtime budget: {elapsed:.2f}s"


def _standard_universe():
    return [
        parse_formula(t)
        for t in ("p", "q", "~p", "~q", "p & q", "p | q", "p -> q", "q -> p", "p -> p")
    ]


def test_criterion_1_eq2_reproduction():
    t0 = perf_counter()
    res = Engine().decide(S("|- ~A -> (A -> B)"))
    assert isinstance(res, Provable)
    assert res.min_height == 3
    assert res.derivation == fixture_derivations()["d1-upper"]
    _report("1 (eq2: derivable at height 3, tree matches)", t0, 0.1)


def test_criterion_2_eq1_reproduction():
    t0 = perf_counter()
    for mode in ("tennant", "strict-table"):
        res = Engine(mode).decide(S("~A, A |- B"))
        assert isinstance(res, Unprovable)
        cert = res.certificate
        assert cert.distinct_goals >= 1 and cert.goals_expanded >= cert.distinct_goals
        assert cert.mode == mode
    _report("2 (eq1: exhaustion certificate in both modes)", t0, 0.1)


def test_criterion_3_eq4_d2_reproduction():
    t0 = perf_counter()
    d2 = load_derivation(str(fixture_path("d2")))
    assert check_derivation(d2) is None
    res = Engine().decide(S("~A -> (A -> B), ~A, A |- B"))
    assert isinstance(res, Provable)
    assert res.min_height <= height(d2)
    _report("3 (eq4/d2: fixture valid, derivable within fixture height)", t0, 1.0)


def test_criterion_4_equivalence_fixtures():
    t0 = perf_counter()
    for name in ("lemma1-right", "lemma1-left", "contradiction1", "contradiction2"):
        assert check_derivation(load_derivation(str(fixture_path(name)))) is None, name
    _report("4 (equivalence and refutation fixtures all valid)", t0, 0.1)


def test_criterion_5_theorem_prefix_verdict():
    t0 = perf_counter()
    engine = Engine()
    verdict = run_admissibility(
        l_top_transform(parse_formula("p -> p")),
        formula_universe(["p", "q"], 5),
        5,
        engine=engine,
    )
    assert verdict.status == NOT_ADMISSIBLE
    first = verdict.witnesses[0]
    assert print_sequent(first.premise) == "q |- q"
    assert not first.transformed_provable
    assert print_sequent(first.transformed) == "p -> p, q |- q"
    # witnesses re-verify on a fresh engine
    fresh = Engine()
    assert fresh.min_height(first.premise) == first.premise_min_height == 0
    assert fresh.min_height(first.transformed) is None
    _report("5 (theorem prefix not admissible; minimal witness re-verifies)", t0, 30.0)


def test_criterion_6_oracle_equivalence():
    t0 = perf_counter()
    universe = _standard_universe()
    closure = forward_closure(universe, 7)
    engine = Engine()
    family = sequent_family(universe, 7)
    disagreements = [
        print_sequent(s) for s in family if engine.is_provable(s) != (s in closure)
    ]
    assert disagreements == []
    assert all(engine.is_provable(s) for s in closure)
    _report(
        "6 (backward engine and forward closure agree)",
        t0,
        300.0,
        f"[{len(family)} sequents, {len(closure)} derivable]",
    )


def test_criterion_7_core_within_intuitionistic():
    t0 = perf_counter()
    report = cross_check(_standard_universe(), 7)
    assert report.violations == []
    assert S("~p, p |- q") in report.divergences
    _report(
        "7 (no Core theorem escapes the intuitionistic oracle)",
        t0,
        300.0,
        f"[{report.total} sequents, {len(report.divergences)} divergences]",
    )


def test_criterion_8_theoremhood_agreement():
    t0 = perf_counter()
    report = theoremhood_report(["p", "q"], 9)
    assert report.disagreements == []
    assert report.core_theorems == report.int_theorems
    _report(
        "8 (theoremhood agreement to weight 9)",
        t0,
        600.0,
        f"[{report.total} formulas, {report.core_theorems} theorems]",
    )


def test_criterion_9_checker_rejections():
    t0 = perf_counter()
    v = check_derivation(load_derivation(str(fixture_path("d1-full-with-ltop"))))
    assert v is not None
    assert v.clause == "unknown-rule"
    assert v.path == ()
    conclusion, premise = S("B, ~A, A |-"), S("~A, A |-")
    for rule in RULE_NAMES:
        assert check_rule(conclusion, rule, [premise]) is not None, rule
    _report("9 (extra rule and weakening step both rejected)", t0, 0.5)


def test_criterion_10_property_suites():
    t0 = perf_counter()
    # parser round-trip on 10,000 generated formulas
    rng = random.Random(20240801)
    for _ in range(10_000):
        f = random_formula(rng, ["p", "q", "r", "A", "B"], 9)
        assert parse_formula(print_formula(f)) == f

    # search soundness: every derivable verdict re-checks exactly
    engine = Engine()
    family = sequent_family(formula_universe(["p", "q"], 3), 6)
    rechecked = 0
    for s in family:
        res = engine.decide(s)
        if isinstance(res, Provable):
            rechecked += 1
            assert check_derivation(res.derivation) is None
            assert res.derivation.conclusion == s
            assert height(res.derivation) == res.min_height
    assert rechecked > 50

    # history independence: a warmed engine and prover give bit-identical reports
    universe = _standard_universe()
    fresh = cross_check(universe, 5, engine=Engine(), prover=IntProver())
    engine, prover = Engine(), IntProver()
    cross_check(universe, 6, engine=engine, prover=prover)
    warm = cross_check(universe, 5, engine=engine, prover=prover)
    assert json.dumps(fresh.to_json(), sort_keys=True) == json.dumps(warm.to_json(), sort_keys=True)
    _report("10 (round-trip, soundness, history independence)", t0, 120.0, f"[{rechecked} rechecked]")
