import json
import random

import pytest

from conftest import random_formula
from coreseq import (
    Engine,
    IntProver,
    KripkeModel,
    Sequent,
    countermodel,
    cross_check,
    decide_int,
    parse_formula,
    parse_sequent,
    print_sequent,
    theoremhood_report,
)

S = parse_sequent
F = parse_formula


# -- decide_int ---------------------------------------------------------------


def test_ex_falso_holds_intuitionistically():
    assert decide_int(S("~A, A |- B"))


def test_negated_conditional_theorem():
    assert decide_int(S("|- ~A -> (A -> B)"))


def test_excluded_middle_fails():
    assert not decide_int(S("|- p | ~p"))


INT_THEOREMS = [
    "|- p -> p",
    "|- ~~(p | ~p)",
    "|- (p -> q) -> (q -> r) -> (p -> r)",
    "|- p & q -> q & p",
    "|- p -> ~~p",
    "|- ~~~p -> ~p",
    "|- (p | q -> r) -> (p -> r) & (q -> r)",
    "|- (p -> q -> r) -> (p & q -> r)",
    "|- ~(p & ~p)",
    "|- ~~(~~p -> p)",
    "|- (p -> q) -> ~q -> ~p",
]

NON_THEOREMS = [
    "|- p | ~p",
    "|- ~~p -> p",
    "|- ((p -> q) -> p) -> p",
    "|- (p -> q) | (q -> p)",
    "|- ~(p & q) -> ~p | ~q",
    "|- (~p -> q | r) -> ((~p -> q) | (~p -> r))",
]


@pytest.mark.parametrize("text", INT_THEOREMS)
def test_known_theorems(text):
    assert decide_int(S(text)), text


@pytest.mark.parametrize("text", NON_THEOREMS)
def test_known_non_theorems(text):
    assert not decide_int(S(text)), text


def test_absurd_succedent_means_inconsistency():
    assert decide_int(S("~p, p |-"))
    assert decide_int(S("p & ~p |-"))
    assert not decide_int(S("p |-"))
    assert not decide_int(S("p, q |-"))


def test_sequents_with_antecedents():
    assert decide_int(S("p -> q, p |- q"))
    assert decide_int(S("(p -> p), q |- q"))  # weakening is free here
    assert decide_int(S("p & q |- p"))
    assert not decide_int(S("p | q |- p"))
    assert decide_int(S("~p | q, p |- q"))


# -- countermodels ------------------------------------------------------------


def test_countermodel_for_excluded_middle():
    m = countermodel(S("|- p | ~p"), 2)
    assert m is not None
    assert len(m.worlds) == 2
    assert m.valuation[0] == frozenset()
    assert m.valuation[1] == frozenset({"p"})


def test_no_countermodel_for_axiom():
    assert countermodel(S("p |- p"), 3) is None


def test_no_countermodel_for_weakened_axiom():
    # intuitionistically valid, so no model refutes it: the gap with the
    # Core verdict is proof-theoretic, not semantic
    assert countermodel(S("(p -> p), q |- q"), 3) is None


def test_countermodel_bound_is_enforced():
    with pytest.raises(ValueError):
        countermodel(S("|- p | ~p"), 6)


def test_countermodel_agrees_with_prover():
    rng = random.Random(31)
    checked = 0
    for _ in range(80):
        n = rng.randint(0, 2)
        ant = tuple(random_formula(rng, ["p", "q"], 4) for _ in range(n))
        succ = None if (ant and rng.random() < 0.25) else random_formula(rng, ["p", "q"], 4)
        if not ant and succ is None:
            continue
        s = Sequent(ant, succ)
        m = countermodel(s, 3)
        if m is not None:
            checked += 1
            assert not decide_int(s), print_sequent(s)
            assert all(m.forces(0, f) for f in s.antecedent)
            if s.succedent is not None:
                assert not m.forces(0, s.succedent)
    assert checked > 10


def test_persistence_is_validated():
    with pytest.raises(ValueError, match="persistent"):
        KripkeModel(
            (0, 1),
            frozenset({(0, 0), (1, 1), (0, 1)}),
            (frozenset({"p"}), frozenset()),
        )


def test_forcing_of_conditionals_quantifies_over_later_worlds():
    chain = KripkeModel(
        (0, 1),
        frozenset({(0, 0), (1, 1), (0, 1)}),
        (frozenset(), frozenset({"p"})),
    )
    assert not chain.forces(0, F("~p"))
    assert not chain.forces(0, F("p"))
    assert chain.forces(0, F("~~p"))
    assert chain.forces(1, F("p"))


# -- cross-checking -----------------------------------------------------------


def _universe():
    return [F(t) for t in ("p", "q", "~p", "~q", "p & q", "p | q", "p -> q", "q -> p", "p -> p")]


def test_cross_check_small_family():
    report = cross_check(_universe(), 5)
    assert report.violations == []
    assert S("~p, p |- q") in report.divergences
    assert report.total > 100
    assert report.core_provable < report.int_provable


def test_cross_check_independent_of_history():
    fresh = cross_check(_universe(), 5, engine=Engine(), prover=IntProver())
    engine, prover = Engine(), IntProver()
    cross_check(_universe(), 6, engine=engine, prover=prover)
    warm = cross_check(_universe(), 5, engine=engine, prover=prover)
    assert json.dumps(fresh.to_json(), sort_keys=True) == json.dumps(warm.to_json(), sort_keys=True)


def test_cross_check_tiny_universe_has_no_divergence():
    report = cross_check([F("p")], 2)
    assert report.violations == []
    assert report.divergences == []


def test_theoremhood_agreement_small():
    report = theoremhood_report(["p", "q"], 5)
    assert report.disagreements == []
    assert report.core_theorems == report.int_theorems > 0
