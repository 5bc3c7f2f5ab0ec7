import dataclasses
import importlib
import inspect
import json
import pkgutil

import pytest

import coreseq
from coreseq import (
    Atom,
    Engine,
    formula_universe,
    identity_transform,
    l_top_transform,
    parse_formula,
    parse_sequent,
    print_sequent,
    weakening_transform,
)
from coreseq.admissibility import (
    NOT_ADMISSIBLE,
    STRONGLY_ADMISSIBLE,
    test_admissibility as run_admissibility,
    top_equivalence_study,
)
from coreseq.kernel import MODES

S = parse_sequent
F = parse_formula
TOP = F("p -> p")


def test_identity_is_strongly_admissible():
    verdict = run_admissibility(identity_transform, formula_universe(["p", "q"], 3), 4)
    assert verdict.status == STRONGLY_ADMISSIBLE
    assert verdict.witnesses == []
    assert verdict.provable_tested > 0


def test_theorem_prefix_fails_admissibility():
    verdict = run_admissibility(l_top_transform(TOP), formula_universe(["p", "q"], 3), 3)
    assert verdict.status == NOT_ADMISSIBLE
    first = verdict.witnesses[0]
    assert print_sequent(first.premise) == "q |- q"
    assert first.premise_min_height == 0
    assert print_sequent(first.transformed) == "p -> p, q |- q"
    assert not first.transformed_provable


def test_weakening_fails_admissibility_with_pair_witness():
    universe = formula_universe(["A", "B"], 2)
    verdict = run_admissibility(weakening_transform(Atom("B")), universe, 3)
    assert verdict.status == NOT_ADMISSIBLE
    by_premise = {print_sequent(w.premise): w for w in verdict.witnesses}
    assert "~A, A |-" in by_premise
    w = by_premise["~A, A |-"]
    assert print_sequent(w.transformed) == "~A, A, B |-"
    assert not w.transformed_provable


def test_witnesses_are_minimal_weight_first_and_reverify():
    verdict = run_admissibility(l_top_transform(TOP), formula_universe(["p", "q"], 3), 4)
    weights = [sum(1 for _ in w.premise.antecedent) for w in verdict.witnesses]
    from coreseq import sequent_weight

    ordered = [sequent_weight(w.premise) for w in verdict.witnesses]
    assert ordered == sorted(ordered)
    eng = Engine()
    for w in verdict.witnesses[:10]:
        h = eng.min_height(w.premise)
        assert h == w.premise_min_height
        th = eng.min_height(w.transformed)
        assert (th is not None) == w.transformed_provable
        assert th == w.transformed_min_height


def test_verdict_never_upgrades_as_universe_grows():
    seen = []
    for w in (2, 3, 4):
        verdict = run_admissibility(l_top_transform(TOP), formula_universe(["p", "q"], w), w)
        seen.append(verdict.status)
    first_bad = seen.index(NOT_ADMISSIBLE)
    assert all(s == NOT_ADMISSIBLE for s in seen[first_bad:])


def test_theorem_prefix_verdict_mode_independent():
    for mode in MODES:
        verdict = run_admissibility(
            l_top_transform(TOP), formula_universe(["p", "q"], 3), 3, engine=Engine(mode)
        )
        assert verdict.mode == mode
        assert verdict.status == NOT_ADMISSIBLE
        assert print_sequent(verdict.witnesses[0].premise) == "q |- q"


def test_no_public_callable_takes_both_mode_and_engine():
    """An experiment is configured by its engine alone, so its report can
    only name the mode that engine decided in."""
    checked = []
    for info in pkgutil.iter_modules(coreseq.__path__):
        module = importlib.import_module(f"coreseq.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj) or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [obj]
            if inspect.isclass(obj):
                members += [m for n, m in vars(obj).items() if not n.startswith("_") and inspect.isfunction(m)]
            for member in members:
                try:
                    params = inspect.signature(member).parameters
                except (TypeError, ValueError):
                    continue
                assert not {"mode", "engine"} <= set(params), f"{module.__name__}.{name}"
                checked.append(member)
    experiments = {run_admissibility, top_equivalence_study}
    assert experiments | {coreseq.cross_check, coreseq.theoremhood_report} <= set(checked)


def test_verdict_json_carries_cli_invocations():
    verdict = run_admissibility(l_top_transform(TOP), formula_universe(["p", "q"], 2), 3)
    blob = verdict.to_json()
    assert blob["status"] == NOT_ADMISSIBLE
    assert blob["witnesses"][0]["premise_cli"].startswith('coreseq decide "')
    assert "universe" in blob and "atoms={p,q}" in blob["universe"]


def test_report_json_keys_are_its_declared_fields():
    # a field added to a report reaches the evidence unless listed here
    universe = formula_universe(["p", "q"], 2)
    reports = [
        (run_admissibility(l_top_transform(TOP), universe, 3), set()),
        (coreseq.cross_check(universe, 3), {"rows"}),
        (coreseq.theoremhood_report(["p"], 3), set()),
    ]
    for report, excluded in reports:
        blob = json.loads(json.dumps(report.to_json()))
        declared = {f.name for f in dataclasses.fields(report)}
        assert set(blob) == declared - excluded, type(report).__name__


# -- the three-query equivalence study ---------------------------------------


def test_study_with_atomic_delta():
    report = top_equivalence_study(Atom("q"), TOP)
    assert report.conjunction_intro[0] is True
    assert report.conjunction_elim[0] is True
    assert report.set_form[0] is False


def test_study_degenerate_self_case():
    report = top_equivalence_study(TOP, TOP)
    assert report.conjunction_intro[0] is True
    assert report.conjunction_elim[0] is True
    assert report.set_form[0] is True


def test_study_reports_its_engines_mode():
    report = top_equivalence_study(Atom("q"), TOP, engine=Engine("strict-table"))
    assert report.mode == report.to_json()["mode"] == "strict-table"


def test_study_requires_a_theorem():
    with pytest.raises(ValueError, match="not a theorem"):
        top_equivalence_study(Atom("q"), Atom("q"))
