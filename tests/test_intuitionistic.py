import inspect
import json
import random
import signal
import tracemalloc
import types
from contextlib import contextmanager

import pytest

from conftest import brute_countermodel, random_formula
from coreseq import (
    And,
    Atom,
    Engine,
    Imp,
    IntProver,
    KripkeModel,
    Neg,
    Sequent,
    countermodel,
    cross_check,
    decide_int,
    parse_formula,
    parse_sequent,
    print_sequent,
    theoremhood_report,
)
from coreseq import intuitionistic
from coreseq.intuitionistic import _frames, _rooted_posets, _upsets

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


def test_prover_interns_equal_formulas_once():
    # two equal formulas built separately share one translation
    built = Imp(Atom("p"), And(Atom("q"), Neg(Atom("p"))))
    parsed = F("p -> q & ~p")
    assert built is not parsed and built == parsed
    prover = IntProver()
    assert not prover.decide(Sequent((built,), Atom("q")))
    ids, nodes = dict(prover._formula_ids), len(prover._kind)
    assert prover.decide(Sequent((parsed, Atom("p")), Atom("q")))
    assert prover._formula_ids == ids and len(prover._kind) == nodes
    # p, q, ~p, q & ~p and the conditional
    assert len(ids) == 5


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
    # without reflexivity one world would force a contradiction
    with pytest.raises(ValueError, match="reflexive"):
        KripkeModel((0,), frozenset(), (frozenset({"p"}),)).forces(0, F("p & ~p"))
    reflexive = {(w, w) for w in range(4)}
    for worlds, order, n_valuations, problem in [
        # 1 <= 2 <= 3 without 1 <= 3
        ((0, 1, 2, 3), reflexive | {(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)}, 4, "transitive"),
        ((0, 1), {(0, 0), (1, 1)}, 2, "world 0 is not below"),
        ((1,), {(1, 1)}, 1, "worlds must be"),
        ((), set(), 0, "worlds must be"),
        ((0,), {(0, 0)}, 0, "valuations"),
        ((0,), {(0, 0), (0, 1)}, 1, "outside the worlds"),
    ]:
        with pytest.raises(ValueError, match=problem):
            KripkeModel(worlds, frozenset(order), (frozenset(),) * n_valuations)


def test_frame_checks_are_cached_but_persistence_is_not():
    # each distinct frame is checked once, and every model on it still has
    # its valuation checked
    intuitionistic._frame_above.cache_clear()
    chain = ((0, 1), frozenset({(0, 0), (1, 1), (0, 1)}))
    for _ in range(3):
        KripkeModel(*chain, (frozenset(), frozenset({"p"})))
        with pytest.raises(ValueError, match="persistent"):
            KripkeModel(*chain, (frozenset({"p"}), frozenset()))
        with pytest.raises(ValueError, match="valuations"):
            KripkeModel(*chain, (frozenset(),))
        # a rejected frame is rejected again, never remembered as checked
        with pytest.raises(ValueError, match="reflexive"):
            KripkeModel((0, 1), frozenset({(0, 0), (0, 1)}), (frozenset(),) * 2)
    info = intuitionistic._frame_above.cache_info()
    assert (info.misses, info.currsize) == (1 + 3, 1)


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


def _verify_draw(rng, atoms=("p", "q", "r")):
    """A sequent shaped like the benchmark's Kripke items: 0-3 antecedent
    formulas of weight 1-4, a fifth of the non-empty ones with the absurdity
    marker, otherwise a succedent of weight 1-5."""
    n = rng.randint(0, 3)
    ants = tuple(random_formula(rng, atoms, rng.randint(1, 4)) for _ in range(n))
    absurd = n > 0 and rng.random() < 0.2
    return Sequent(ants, None if absurd else random_formula(rng, atoms, rng.randint(1, 5)))


def _same_as_reference(s, bound):
    m = countermodel(s, bound)
    assert m == brute_countermodel(s, bound), print_sequent(s)
    if m is not None:
        assert all(m.forces(0, f) for f in s.antecedent), print_sequent(s)
        assert s.succedent is None or not m.forces(0, s.succedent), print_sequent(s)
    return m


@pytest.mark.parametrize("width", [1, 8, intuitionistic.ASSIGNMENT_WIDTH])
def test_countermodel_is_the_first_enumerated_model_at_bound_3(monkeypatch, width):
    # narrower widths move atoms from the bitsets to the outer enumeration
    monkeypatch.setattr(intuitionistic, "ASSIGNMENT_WIDTH", width)
    rng = random.Random(7301)
    found = 0
    for _ in range(300):
        s = _verify_draw(rng)
        m = _same_as_reference(s, 3)
        assert decide_int(s) == (m is None), print_sequent(s)
        found += m is not None
    assert found > 100


# each needs exactly as many worlds as its list says
FOUR_WORLD = [
    "|- (p -> q | r) | (q -> p | r) | (r -> p | q)",
    "|- p | (p -> q | (q -> r | ~r))",
    "|- (p -> q) | (q -> r) | (r -> p)",
]
FIVE_WORLD = ["|- (p -> q | r) | (q -> p | r) | (r -> p | q) | (p & q -> r)"]


def test_countermodel_is_the_first_enumerated_model_at_bounds_4_and_5():
    for text in FOUR_WORLD:
        assert _same_as_reference(S(text), 3) is None
        assert len(_same_as_reference(S(text), 4).worlds) == 4
    for text in FIVE_WORLD:
        assert len(_same_as_reference(S(text), 5).worlds) == 5
    rng = random.Random(7302)
    for _ in range(30):
        _same_as_reference(_verify_draw(rng), 4)
    for _ in range(6):
        _same_as_reference(_verify_draw(rng, ("p", "q")), 5)


def test_frames_are_the_rooted_posets():
    assert [len(_rooted_posets(k)) for k in range(1, 6)] == [1, 1, 2, 5, 16]
    for k in range(1, 6):
        orders = _rooted_posets(k)
        for order in orders:
            assert all((w, w) in order and (0, w) in order for w in range(k))
            assert all(u == v for (u, v) in order if (v, u) in order)
            assert all((u, x) in order for (u, v) in order for (v2, x) in order if v2 == v)
            for up in _upsets(k, order):
                assert all(v in up for (u, v) in order if u in up)
        assert [(o, list(u)) for o, u, _ in _frames(k)] == [(o, _upsets(k, o)) for o in orders]
    fork, chain = _rooted_posets(3)
    assert chain == {(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)}
    assert fork == {(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)}
    assert len(_upsets(3, chain)) == 4
    assert len(_upsets(3, fork)) == 5


def _negations(depth):
    f = Atom("p")
    for _ in range(depth):
        f = Neg(f)
    return f


def test_countermodel_search_needs_no_recursion():
    # an even number of negations of p is equivalent to ~~p
    s = Sequent((_negations(10_000),), Atom("p"))
    m = countermodel(s, 2)
    assert m == brute_countermodel(Sequent((_negations(2),), Atom("p")), 2)
    assert len(m.worlds) == 2


def test_forcing_needs_no_recursion():
    f = _negations(10_001)
    chain = KripkeModel(
        (0, 1),
        frozenset({(0, 0), (1, 1), (0, 1)}),
        (frozenset(), frozenset({"p"})),
    )
    assert chain.forces(0, Neg(f))
    assert not chain.forces(0, f)
    assert not chain.forces(1, f)


@contextmanager
def _deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_wide_search_stays_within_the_assignment_width():
    # the one-world model makes the 23 antecedent atoms true and the
    # succedent false: the next-to-last of 2^24 assignments.  One bitset
    # over all of them would be 2 MB; model by model the search takes hours
    atoms = [Atom(f"a{i:02d}") for i in range(24)]
    s = Sequent(tuple(atoms[:23]), atoms[23])
    tracemalloc.start()
    try:
        with _deadline(60):
            m = countermodel(s, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m is not None and len(m.worlds) == 1
    assert all(m.forces(0, f) for f in s.antecedent)
    assert not m.forces(0, s.succedent)
    assert peak < 1 << 20, peak


def _names_reached(function):
    """Every name used by the function, its nested code and the module
    functions it names, transitively."""
    seen, names, todo = set(), set(), [inspect.unwrap(function).__code__]
    while todo:
        code = todo.pop()
        if code in seen:
            continue
        seen.add(code)
        names |= {*code.co_names, *code.co_varnames, *code.co_freevars, *code.co_cellvars}
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        for name in code.co_names:
            obj = inspect.unwrap(getattr(intuitionistic, name, None))
            if inspect.isfunction(obj) and obj.__module__ == intuitionistic.__name__:
                todo.append(obj.__code__)
    return names


def test_forcing_shares_no_code_with_the_search():
    # `forces` re-checks the models the search returns, so neither may lean
    # on the other
    search = {"countermodel", "_frames", "_steps", "_refuted", "_upsets", "_rooted_posets"}
    assert not _names_reached(KripkeModel.forces) & search
    reached = _names_reached(countermodel)
    assert {"_frames", "_steps", "_refuted"} <= reached
    assert "forces" not in reached


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


def test_cross_check_reads_a_one_shot_universe_once():
    once = cross_check(iter(_universe()), 4)
    assert once.universe_size == len(_universe())
    assert once.to_json() == cross_check(_universe(), 4).to_json()


def test_comparisons_report_their_engines_mode():
    report = cross_check(_universe(), 4, engine=Engine("strict-table"))
    assert report.mode == "strict-table"
    assert [s for s, h, i in report.rows if i and h is None] == report.divergences
    assert theoremhood_report(["p"], 3, engine=Engine("strict-table")).mode == "strict-table"


def test_theoremhood_agreement_small():
    report = theoremhood_report(["p", "q"], 5)
    assert report.disagreements == []
    assert report.core_theorems == report.int_theorems > 0
