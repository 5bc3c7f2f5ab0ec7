import copy
import inspect
import itertools
import pickle
import random
import tracemalloc
import types

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    atom_connected,
    classically_valid,
    falsifies,
    iddfs_min_height,
    random_formula,
    sequent_atoms,
    split_instances,
)
from coreseq import (
    And,
    Atom,
    Engine,
    Imp,
    Neg,
    Or,
    Provable,
    ResourceLimitError,
    Sequent,
    Unprovable,
    check_derivation,
    decide,
    decide_int,
    fixture_derivations,
    formula_universe,
    forward_closure,
    height,
    parse_formula,
    parse_sequent,
    print_sequent,
    provable_subsequents,
    sequent_family,
    sequent_weight,
)
from coreseq import engine
from coreseq.engine import CLOSURE_FORMULA_CEILING, TABLE_ATOM_CEILING, backward_instances
from coreseq.kernel import check_rule
from coreseq.syntax import subformulas, weight

S = parse_sequent
F = parse_formula


class _ClassicalOnlyEngine(Engine):
    """The engine with its connectivity filter off: only classically invalid
    goals are pruned."""

    def _disconnected(self, g):
        return False


class _UnprunedEngine(_ClassicalOnlyEngine):
    """The engine with both filters off: every goal counts as classically
    valid and connected, so nothing is pruned."""

    def _failing_rows(self, g):
        return 0


# -- decide: the pinned verdicts ---------------------------------------------


def test_lewis_paradox_unprovable():
    res = decide(S("~A, A |- B"))
    assert isinstance(res, Unprovable)
    assert res.certificate.distinct_goals >= 1


def test_negated_conditional_theorem():
    res = decide(S("|- ~A -> (A -> B)"))
    assert isinstance(res, Provable)
    assert res.min_height == 3
    assert res.derivation == fixture_derivations()["d1-upper"]


def test_conditional_with_antecedents_provable():
    res = decide(S("~A -> (A -> B), ~A, A |- B"))
    assert isinstance(res, Provable)
    assert res.min_height <= height(fixture_derivations()["d2"])


def test_contradictory_pair_absurdity():
    res = decide(S("~A, A |-"))
    assert isinstance(res, Provable)
    assert res.min_height == 1


def test_theorem_prefix_is_not_free():
    # no rule weakens the irrelevant theorem into the context
    assert isinstance(decide(S("(p -> p), q |- q")), Unprovable)
    assert isinstance(decide(S("q |- q")), Provable)


def test_double_negated_excluded_middle_is_provable():
    # needs an instance whose premise retains the principal formula
    res = decide(S("|- ~~(p | ~p)"))
    assert isinstance(res, Provable)
    assert check_derivation(res.derivation) is None


def test_mode_agreement_on_headline_queries():
    for text in ("~A, A |- B", "|- ~A -> (A -> B)", "~A -> (A -> B), ~A, A |- B"):
        verdicts = {
            m: Engine(m).decide(S(text)).is_provable for m in ("tennant", "strict-table")
        }
        assert verdicts["tennant"] == verdicts["strict-table"], text


def test_modes_differ_somewhere():
    # absurdity flowing through a conditional on the left needs the
    # default mode; here no negation sits at the top level, so LNeg
    # cannot reach the contradiction first
    s = S("p -> ~q, p, q |-")
    assert Engine("tennant").decide(s).is_provable
    assert not Engine("strict-table").decide(s).is_provable


def test_strict_mode_is_a_restriction():
    # every strict-table instance is a tennant instance, so derivability
    # can only shrink
    universe = [F(t) for t in ("p", "q", "~p", "~q", "p -> ~q", "p & q")]
    family = sequent_family(universe, 5)
    t_eng, s_eng = Engine("tennant"), Engine("strict-table")
    for s in family:
        if s_eng.is_provable(s):
            assert t_eng.is_provable(s), print_sequent(s)


# -- soundness and minimality -----------------------------------------------


def test_search_soundness_random_sequents():
    rng = random.Random(2024)
    eng = Engine()
    provable_seen = 0
    for _ in range(400):
        n = rng.randint(0, 3)
        ant = tuple(random_formula(rng, ["p", "q"], 4) for _ in range(n))
        succ = None if (ant and rng.random() < 0.3) else random_formula(rng, ["p", "q"], 4)
        if not ant and succ is None:
            continue
        goal = Sequent(ant, succ)
        res = eng.decide(goal)
        if isinstance(res, Provable):
            provable_seen += 1
            assert check_derivation(res.derivation) is None
            assert res.derivation.conclusion == goal
            assert height(res.derivation) == res.min_height
    assert provable_seen > 20


def test_min_height_matches_iterative_deepening():
    eng = Engine()
    for text in (
        "|- ~A -> (A -> B)",
        "~A -> (A -> B), ~A, A |- B",
        "~A, A |-",
        "p & q |- q",
        "p | p |- p",
        "|- p -> q -> p & q",
        "d |- (p -> p) & d",
        "(p -> p) & d |- d",
        "~p | q, p |- q",
        "|- ~~(p -> p)",
    ):
        goal = S(text)
        assert eng.min_height(goal) == iddfs_min_height(goal), text


def test_unprovability_matches_iterative_deepening():
    # the iddfs bound exceeds any minimal height in this family, so a miss
    # up to the bound means unprovable
    eng = Engine()
    family = sequent_family(formula_universe(["p", "q"], 3), 5)
    rng = random.Random(5)
    for goal in rng.sample(family, 60):
        expected = iddfs_min_height(goal, max_height=10)
        assert eng.min_height(goal) == expected, print_sequent(goal)


def test_backward_instances_pass_the_checker():
    rng = random.Random(77)
    for _ in range(250):
        n = rng.randint(0, 3)
        ant = tuple(random_formula(rng, ["p", "q"], 4) for _ in range(n))
        succ = None if (ant and rng.random() < 0.4) else random_formula(rng, ["p", "q"], 4)
        if not ant and succ is None:
            continue
        goal = Sequent(ant, succ)
        for rule, prems in backward_instances(goal):
            v = check_rule(goal, rule, list(prems))
            assert v is None, (print_sequent(goal), rule, [print_sequent(p) for p in prems], v)


# -- split rules: RAnd, LOr and LImp ----------------------------------------

_SPLIT_RULE_NAMES = ("RAnd", "LOr", "LImp")
_FAMILY5 = sequent_family(formula_universe(["p", "q"], 5), 5)


@pytest.mark.parametrize("mode", ["tennant", "strict-table"])
def test_split_instances_follow_the_reference_order(mode):
    # the engine's subset tables and base-3 pair order give exactly the
    # instances of the 3^n product recurrence, first occurrence kept
    checked = 0
    for goal in _FAMILY5:
        expected = list(dict.fromkeys(split_instances(goal, mode)))
        listed = [i for i in backward_instances(goal, mode) if i[0] in _SPLIT_RULE_NAMES]
        assert listed == expected, print_sequent(goal)
        checked += len(expected)
    assert checked > 1500


@pytest.mark.parametrize("mode", ["tennant", "strict-table"])
def test_filtered_instances_keep_order(mode):
    rng = random.Random(4)
    drawn = {}

    def coin(p):
        if p not in drawn:
            drawn[p] = rng.random() < 0.7
        return drawn[p]

    for goal in _FAMILY5:
        eng = Engine(mode)
        g = eng._intern_goal(goal)
        everything = eng._instances(g)
        valid = {}

        def is_valid(p):
            if p not in valid:
                valid[p] = classically_valid(eng._goal_sequent(p))
            return valid[p]

        for live in (is_valid, coin):
            expected = [i for i in everything if all(live(p) for p in i[1])]
            assert eng._instances(g, live) == expected, print_sequent(goal)


@pytest.mark.parametrize(
    "text, tennant, strict",
    [
        # (minimal height or None for unprovable, distinct goals, distinct
        # goals with only the classical filter)
        ("q | ~q, ~(p & q), p & q |- ~(p | q)", (5, 534, 534), (5, 534, 534)),
        ("~q | (q | r), p |- p", (None, 1, 181), (None, 1, 181)),
        ("~p | p, ~q, q, r |- r", (None, 1, 197), (None, 1, 197)),
        ("~p | ~r & p, p, r |-", (3, 170, 170), (None, 163, 163)),
        ("(r -> ~r) & (r & ~p) |-", (4, 184, 184), (None, 1, 1)),
        ("p & ~p, ~(p & p), ~q | q |- q & p", (None, 455, 551), (None, 455, 551)),
    ],
)
def test_split_heavy_queries(text, tennant, strict):
    # the slowest queries of the random-sequent suites, where LOr, LImp
    # and RAnd have the most premise pairs; the distinct goal counts pin
    # the explored space, which joining the split sides must not change.
    # The second and third roots are disconnected (r and ~p | p share no
    # atom with the rest), so the connectivity filter settles them at once
    goal = S(text)
    for mode, (expected, distinct, classical) in (("tennant", tennant), ("strict-table", strict)):
        for eng, pinned in ((Engine(mode), distinct), (_ClassicalOnlyEngine(mode), classical)):
            res = eng.decide(goal)
            stats = res.stats if res.is_provable else res.certificate
            assert stats.distinct_goals == pinned, (mode, type(eng).__name__)
            assert stats.goals_expanded >= stats.distinct_goals
            if expected is None:
                assert isinstance(res, Unprovable), mode
                continue
            assert isinstance(res, Provable), mode
            assert res.min_height == expected
            assert check_derivation(res.derivation) is None
            assert res.derivation.conclusion == goal
            assert height(res.derivation) == expected


_FAMILY6 = sequent_family(formula_universe(["p", "q"], 6), 6)


def _family6_space(engine_class, mode):
    """Over the 2-atom weight-6 family: the summed distinct goals on fresh
    engines and on one shared engine, the shared engine's table size
    afterwards, and the provable rows with their summed minimal heights."""

    def distinct(res):
        return (res.stats if res.is_provable else res.certificate).distinct_goals

    fresh = sum(distinct(engine_class(mode).decide(goal)) for goal in _FAMILY6)
    eng = engine_class(mode)
    results = [eng.decide(goal) for goal in _FAMILY6]
    proved = [res.min_height for res in results if res.is_provable]
    return fresh, sum(map(distinct, results)), len(eng._heights), (len(proved), sum(proved))


@pytest.mark.parametrize(
    "mode, fresh, shared, table, heights",
    [
        ("tennant", 18520, 15164, 9080, (768, 1548)),
        ("strict-table", 14430, 11651, 7208, (654, 1236)),
    ],
)
def test_split_groups_explore_the_pinned_space(mode, fresh, shared, table, heights):
    # with the classical filter alone, as listing every premise pair gave
    # them.  One split group per LOr and LImp principal, with the
    # principal's bit free, must explore, settle and pair exactly the goals
    # of both base variants
    assert _family6_space(_ClassicalOnlyEngine, mode) == (fresh, shared, table, heights)


@pytest.mark.parametrize(
    "mode, fresh, shared, table, heights",
    [
        ("tennant", 16824, 14047, 8812, (768, 1548)),
        ("strict-table", 12964, 10705, 6958, (654, 1236)),
    ],
)
def test_connectivity_filter_shrinks_the_pinned_space(mode, fresh, shared, table, heights):
    # the default engine settles disconnected goals unexplored, so it
    # explores and stores fewer goals and proves the same rows at the same
    # heights
    assert _family6_space(Engine, mode) == (fresh, shared, table, heights)


def test_unpaired_split_sides_are_not_explored():
    # p, q |- p | p is underivable (there is no weakening), so in each goal
    # below the side premise p |- p & p has no live partner covering q: it
    # is in no live pair, and is neither explored nor settled.  Goals
    # settled underivable by an earlier query make such sides; classical
    # validity is monotone in the antecedent, so it never does.  These goals
    # are disconnected (q shares no atom with the rest), so the test runs
    # with the classical filter alone, which must explore them
    for text in ("p, q |- (p & p) & (p | p)", "p, q |- (p | p) & (p & p)"):
        eng = _ClassicalOnlyEngine()
        assert not eng.is_provable(S("p, q |- p | p"))
        assert not eng.is_provable(S(text))
        assert eng._intern_goal(S("p |- p & p")) not in eng._heights, text


def test_interned_weights_match_the_syntax():
    eng = Engine()
    for f in formula_universe(["p", "q"], 6):
        eng._t.intern(f)
    t = eng._t
    assert len(t.obj) > 1000
    for i, f in enumerate(t.obj):
        assert t.fweight[i] == weight(f)
        assert t.rank[i][0] == -weight(f)


def test_determinism_across_fresh_engines():
    texts = ["|- ~A -> (A -> B)", "~A, A |- B", "p & q |- q & p", "|- ~~(p | ~p)"]
    runs = []
    for _ in range(2):
        eng = Engine()
        runs.append([eng.decide(S(t)) for t in texts])
    assert runs[0] == runs[1]


def test_degenerate_empty_judgment_is_unprovable():
    # constructible programmatically even though the parser rejects "|-"
    res = decide(Sequent((), None))
    assert isinstance(res, Unprovable)


def test_stats_invariant():
    res = decide(S("p -> q, p | q, ~q |- q | p"))
    stats = res.stats if isinstance(res, Provable) else res.certificate
    assert stats.distinct_goals <= stats.goals_expanded
    assert stats.max_weight_seen >= 1
    assert stats.mode == "tennant"


def test_resource_limit_is_not_unprovable():
    eng = Engine(memo_cap=5)
    with pytest.raises(ResourceLimitError):
        eng.decide(S("p -> q, q -> p, p | q |- p & q"))


def test_memo_cap_ignores_earlier_queries():
    # the cap bounds the goals one query explores, not the shared table
    eng = Engine(memo_cap=131)
    assert eng.is_provable(S("p -> q, q -> r |- p -> r"))
    assert eng.min_height(S("r, s |- r & s")) == 1
    assert Engine(memo_cap=131).min_height(S("r, s |- r & s")) == 1
    # pruned goals also enter the table; fill it well past the cap
    for goal in sequent_family(formula_universe(["p", "q"], 3), 5):
        eng.min_height(goal)
    assert len(eng._heights) > 2 * 131
    assert eng.min_height(S("r, s |- s & r")) == 1


# -- the root step --------------------------------------------------------------


class _NoSearchEngine(Engine):
    """An engine whose search raises once `searching` is off, so a query
    that the root step does not settle fails."""

    searching = True

    def _solve(self, root):
        if not self.searching:
            raise AssertionError("the query entered _solve")
        return super()._solve(root)


@pytest.mark.parametrize("mode", ["tennant", "strict-table"])
def test_root_step_answers_like_fresh_decide(mode):
    # one shared engine, queried in shuffled order through all three entry
    # points, gives the heights fresh engines give
    expected = {}
    for goal in _FAMILY6:
        res = Engine(mode).decide(goal)
        expected[goal] = res.min_height if res.is_provable else None
    order = list(_FAMILY6)
    random.Random(15).shuffle(order)
    eng = Engine(mode)
    for i, goal in enumerate(order):
        if i % 3 == 0:
            assert eng.min_height(goal) == expected[goal], print_sequent(goal)
        elif i % 3 == 1:
            assert eng.is_provable(goal) == (expected[goal] is not None), print_sequent(goal)
        else:
            res = eng.decide(goal)
            assert (res.min_height if res.is_provable else None) == expected[goal], print_sequent(goal)


@pytest.mark.parametrize("mode", ["tennant", "strict-table"])
def test_settled_roots_never_enter_the_search(mode):
    goals = sequent_family(formula_universe(["p", "q"], 4), 5)
    # refuted by a filter, by the test's own truth tables and graph search
    refuted = [g for g in goals if not classically_valid(g) or not atom_connected(g)]
    assert 0 < len(refuted) < len(goals)
    eng = _NoSearchEngine(mode)
    eng.searching = False
    for goal in refuted:
        assert eng.min_height(goal) is None
        assert not eng.is_provable(goal)
        res = eng.decide(goal)
        assert isinstance(res, Unprovable)
        assert res.certificate == engine.SearchStats(1, 1, sequent_weight(goal), mode)
    # memoized: every root is settled once the search has run over them
    eng = _NoSearchEngine(mode)
    heights = [eng.min_height(goal) for goal in goals]
    eng.searching = False
    assert [eng.min_height(goal) for goal in goals] == heights
    assert [eng.is_provable(goal) for goal in goals] == [h is not None for h in heights]
    assert [eng.decide(goal).is_provable for goal in goals] == [h is not None for h in heights]


def test_root_step_runs_the_overridden_filters():
    # the root step calls the filters through the engine, so an engine
    # with a filter off searches the root that filter would settle:
    # p |- q is classically invalid, ~A, A |- B disconnected
    plain = _NoSearchEngine()
    plain.searching = False
    for eng_class, text in ((_UnprunedEngine, "p |- q"), (_ClassicalOnlyEngine, "~A, A |- B")):
        assert plain.min_height(S(text)) is None
        probe = type("Probe", (eng_class, _NoSearchEngine), {"searching": False})()
        with pytest.raises(AssertionError, match="entered _solve"):
            probe.min_height(S(text))
        assert eng_class().min_height(S(text)) is None
        assert eng_class().min_height(S("p -> q, p |- q")) == 1
    assert not _ClassicalOnlyEngine().decide(S("~A, A |- B")).disconnected


def test_result_objects_behave_as_values():
    stats = engine.SearchStats(goals_expanded=3, distinct_goals=2, max_weight_seen=4, mode="tennant")
    assert stats == engine.SearchStats(3, 2, 4, "tennant") != engine.SearchStats(3, 2, 4, "strict-table")
    assert hash(stats) == hash((3, 2, 4, "tennant"))
    assert repr(stats) == (
        "SearchStats(goals_expanded=3, distinct_goals=2, max_weight_seen=4, mode='tennant')"
    )
    refuted = Unprovable(stats)
    assert refuted.countervaluation is None and refuted.disconnected is False
    assert not refuted.is_provable
    assert refuted == Unprovable(certificate=stats, countervaluation=None, disconnected=False)
    assert refuted != Unprovable(stats, disconnected=True)
    assert repr(refuted) == f"Unprovable(certificate={stats!r}, countervaluation=None, disconnected=False)"
    res = decide(S("p |- p"))
    assert isinstance(res, Provable) and res.is_provable
    same = Provable(derivation=res.derivation, min_height=0, stats=res.stats)
    assert same == res and hash(same) == hash(res)
    assert repr(res) == f"Provable(derivation={res.derivation!r}, min_height=0, stats={res.stats!r})"
    assert (res == stats) is False and (stats == (3, 2, 4, "tennant")) is False
    for obj in (stats, refuted, res):
        assert not hasattr(obj, "__dict__")
        for name in type(obj).__slots__:
            with pytest.raises(AttributeError):
                setattr(obj, name, getattr(obj, name))
            with pytest.raises(AttributeError):
                delattr(obj, name)
        for other in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert other == obj and hash(other) == hash(obj)


# -- the classical and connectivity filters -----------------------------------


def test_every_instance_is_classically_sound():
    # the filter's soundness, exhaustively: an instance whose conclusion is
    # classically invalid always has a classically invalid premise, so an
    # invalid goal is underivable and pruning it loses nothing
    family = sequent_family(formula_universe(["p", "q"], 5), 5)
    valid = {}

    def is_valid(s):
        if s not in valid:
            valid[s] = classically_valid(s)
        return valid[s]

    invalid_conclusions = 0
    for mode in ("tennant", "strict-table"):
        for goal in family:
            if is_valid(goal):
                continue
            invalid_conclusions += 1
            for rule, prems in backward_instances(goal, mode):
                assert not all(is_valid(p) for p in prems), (
                    mode, print_sequent(goal), rule, [print_sequent(p) for p in prems]
                )
    assert invalid_conclusions > 1000


@pytest.mark.parametrize(
    "atoms, formula_weight, cap, counts",
    [(["p", "q"], 5, 5, (372, 1580)), (["p", "q", "r"], 3, 5, (1496, 9810))],
)
def test_every_instance_is_connectivity_sound(atoms, formula_weight, cap, counts):
    # the connectivity filter's soundness, exhaustively: an instance whose
    # conclusion is disconnected always has a disconnected premise, so a
    # disconnected goal is underivable and pruning it loses nothing.
    # `counts` pins the disconnected conclusions and their instances, over
    # both modes
    family = sequent_family(formula_universe(atoms, formula_weight), cap)
    connected = {}

    def is_connected(s):
        if s not in connected:
            connected[s] = atom_connected(s)
        return connected[s]

    disconnected_conclusions = instances = 0
    for mode in ("tennant", "strict-table"):
        for goal in family:
            if is_connected(goal):
                continue
            disconnected_conclusions += 1
            for rule, prems in backward_instances(goal, mode):
                instances += 1
                assert not all(is_connected(p) for p in prems), (
                    mode, print_sequent(goal), rule, [print_sequent(p) for p in prems]
                )
    assert (disconnected_conclusions, instances) == counts


@pytest.mark.parametrize("mode", ["tennant", "strict-table"])
def test_closure_derives_only_connected_sequents(mode):
    # the same fact from the independent forward oracle: every sequent it
    # derives over criterion 6's universe, however heavy, is connected
    universe = [F(t) for t in ("p", "q", "~p", "~q", "p & q", "p | q", "p -> q", "q -> p", "p -> p")]
    closure = forward_closure(universe, 10**6, mode=mode)
    assert len(closure) > 1000
    assert all(atom_connected(s) for s in closure)


def test_disconnected_matches_the_reference():
    # the engine's bitset fixpoint against the reference graph search, on
    # every goal of a 3-atom family and on long chains of shared atoms
    family = sequent_family(formula_universe(["p", "q", "r"], 3), 6)
    family += [
        S("p0 & p1, p1 & p2, p2 & p3, p3 & p4 |- p4"),
        S("p0 & p1, p1 & p2, p2 & p3, p3 & p4 |- p5"),
        S("p3 & p4, p2 & p3, p1 & p2, p0 & p1 |-"),
        S("p3 & p4, p0 & p1, p1 & p5 |- p2 | p5"),
    ]
    eng = Engine()
    split = 0
    for goal in family:
        apart = eng._disconnected(eng._intern_goal(goal))
        assert apart == (not atom_connected(goal)), print_sequent(goal)
        split += apart
    assert split > len(family) // 4


def _same_result(pruned, unpruned, goal):
    assert pruned.is_provable == unpruned.is_provable, print_sequent(goal)
    if pruned.is_provable:
        assert pruned.min_height == unpruned.min_height, print_sequent(goal)
        assert pruned.derivation == unpruned.derivation, print_sequent(goal)


@pytest.mark.parametrize("mode", ["tennant", "strict-table"])
def test_pruning_keeps_heights_and_derivations(mode):
    family = sequent_family(formula_universe(["p", "q"], 6), 6)
    pruned, unpruned = Engine(mode), _UnprunedEngine(mode)
    explored = {"pruned": 0, "unpruned": 0}
    for goal in family:
        a, b = pruned.decide(goal), unpruned.decide(goal)
        _same_result(a, b, goal)
        for key, res in (("pruned", a), ("unpruned", b)):
            explored[key] += (res.stats if res.is_provable else res.certificate).distinct_goals
    assert explored["pruned"] < explored["unpruned"] / 2


_ATOMS3 = st.sampled_from([Atom("p"), Atom("q"), Atom("r")])
_FORMULAS3 = st.recursive(
    _ATOMS3,
    lambda sub: st.one_of(
        st.builds(Neg, sub), st.builds(And, sub, sub), st.builds(Or, sub, sub), st.builds(Imp, sub, sub)
    ),
    max_leaves=3,
)
# the unpruned engine needs seconds beyond weight 10
_SEQUENTS3 = st.builds(
    Sequent, st.lists(_FORMULAS3, max_size=3).map(tuple), st.none() | _FORMULAS3
).filter(lambda s: (s.antecedent or s.succedent is not None) and sequent_weight(s) <= 10)


@settings(max_examples=200, deadline=None)
@given(_SEQUENTS3, st.sampled_from(["tennant", "strict-table"]))
def test_pruning_is_invisible_on_random_sequents(goal, mode):
    _same_result(Engine(mode).decide(goal), _UnprunedEngine(mode).decide(goal), goal)


def test_countervaluation_falsifies_the_goal():
    eng = Engine()
    certified = 0
    for goal in sequent_family(formula_universe(["p", "q", "r"], 3), 4):
        res = eng.decide(goal)
        if res.is_provable:
            assert classically_valid(goal)
            continue
        cv = res.countervaluation
        if classically_valid(goal):
            assert cv is None, print_sequent(goal)
            continue
        certified += 1
        assert [name for name, _ in cv] == sequent_atoms(goal), print_sequent(goal)
        assert falsifies(dict(cv), goal), print_sequent(goal)
        assert res.certificate.distinct_goals == 1
    assert certified > 300


def _reference_countervaluation(eng, goal):
    """The lowest of the engine's rows that falsifies the goal, valuing only
    the atoms `syntax.subformulas` finds in the goal: every other atom is
    false in the lowest row.  Rows are read off the atoms' order in the
    engine, not from its truth tables or atom bitsets."""
    t = eng._t
    position = {t.obj[i].name: k for k, i in enumerate(t.atoms)}
    names = sequent_atoms(goal)
    rows = sorted(
        (sum(1 << position[n] for n, b in zip(names, bits) if b), bits)
        for bits in itertools.product((False, True), repeat=len(names))
    )
    for _, bits in rows:
        if falsifies(dict(zip(names, bits)), goal):
            return tuple(zip(names, bits))
    return None


@pytest.mark.parametrize("mode", ["tennant", "strict-table"])
def test_countervaluation_matches_the_reference(mode):
    shared = Engine(mode)
    # s and t become atoms 0 and 1, so the family's atoms sit above them
    assert shared.decide(S("s, t |- s & t")).is_provable
    certified = 0
    for goal in sequent_family(formula_universe(["p", "q"], 6), 6):
        fresh = Engine(mode)
        got = fresh._countervaluation(fresh._intern_goal(goal))
        assert got == _reference_countervaluation(fresh, goal), print_sequent(goal)
        res = shared.decide(goal)
        want = _reference_countervaluation(shared, goal)
        assert (None if res.is_provable else res.countervaluation) == want, print_sequent(goal)
        certified += want is not None
    assert certified > 2000


def test_decide_marks_roots_the_connectivity_filter_settled():
    eng = Engine()
    marked = 0
    for goal in sequent_family(formula_universe(["p", "q", "r"], 3), 5):
        res = eng.decide(goal)
        if res.is_provable:
            continue
        apart = res.countervaluation is None and not atom_connected(goal)
        assert res.disconnected == apart, print_sequent(goal)
        marked += apart
    assert marked > 100
    # the classical check comes first
    res = decide(S("p |- q"))
    assert res.countervaluation == (("p", True), ("q", False)) and not res.disconnected
    res = decide(S("~A, A |- B"))
    assert res.countervaluation is None and res.disconnected
    assert res.certificate.distinct_goals == 1
    res = decide(S("(p -> q) -> p |- p"))
    assert res.countervaluation is None and not res.disconnected
    assert res.certificate.distinct_goals == 3


def test_filter_is_skipped_above_the_atom_ceiling():
    names = [f"x{i}" for i in range(TABLE_ATOM_CEILING + 1)]
    eng = Engine()
    # disconnected, so settled without a table or a search
    res = eng.decide(Sequent(tuple(Atom(n) for n in names), Atom("y")))
    assert isinstance(res, Unprovable)
    assert res.countervaluation is None and res.disconnected
    assert res.certificate.distinct_goals == 1
    # connected and classically invalid, yet found underivable by search,
    # not by a table: the engine now holds more atoms than the ceiling
    res = eng.decide(S("p | q |- p"))
    assert isinstance(res, Unprovable)
    assert res.countervaluation is None and not res.disconnected
    assert res.certificate.distinct_goals == 13
    res = decide(S("p | q |- p"))
    assert res.countervaluation == (("p", False), ("q", True))
    assert res.certificate.distinct_goals == 1
    res = decide(Sequent((Atom("x0"),), Atom("y")))
    assert res.countervaluation == (("x0", True), ("y", False))


# -- provable_subsequents ----------------------------------------------------


def test_subsequents_of_weakened_pair():
    results = provable_subsequents(S("B, ~A, A |-"))
    found = {print_sequent(s) for s, _ in results}
    assert "~A, A |-" in found
    assert "B, ~A, A |-" not in found


def test_subsequents_of_axiom():
    results = provable_subsequents(S("p |- p"))
    assert [(print_sequent(s)) for s, _ in results] == ["p |- p"]


def test_subsequents_of_lewis_paradox():
    results = provable_subsequents(S("~A, A |- B"))
    assert all(s.succedent != Atom("B") for s, _ in results)
    assert any(print_sequent(s) == "~A, A |-" for s, _ in results)


def test_subsequents_size_guard():
    big = Sequent(tuple(Atom(f"x{i}") for i in range(13)), Atom("x0"))
    with pytest.raises(ValueError):
        provable_subsequents(big)


# -- forward closure ----------------------------------------------------------


def test_closure_contains_axiom_and_conditional():
    universe = [F("A"), F("A -> A")]
    closure = forward_closure(universe, 3)
    assert S("A |- A") in closure
    assert S("|- A -> A") in closure


def test_closure_of_negated_conditional_subformulas():
    universe = sorted({F("~A -> (A -> B)"), F("~A"), F("A -> B"), F("A"), F("B")}, key=str)
    closure = forward_closure(universe, 10)
    assert S("|- ~A -> (A -> B)") in closure
    assert S("~A, A |-") in closure
    assert S("~A, A |- B") not in closure


def test_closure_excludes_theorem_prefix():
    universe = [F("p"), F("q"), F("p -> p"), F("(p -> p) & q")]
    closure = forward_closure(universe, 8)
    assert S("(p -> p), q |- q") not in closure
    assert S("q |- q") in closure
    assert S("(p -> p) & q |- q") in closure


def test_closure_requires_subformula_closed_universe():
    with pytest.raises(ValueError, match="subformula-closed"):
        forward_closure([F("p & q")], 5)


def test_closure_agrees_with_engine_on_small_family():
    universe = [F(t) for t in ("p", "q", "~p", "~q", "p -> q", "p & q")]
    closure = forward_closure(universe, 5)
    eng = Engine()
    family = sequent_family(universe, 5)
    for goal in family:
        assert eng.is_provable(goal) == (goal in closure), print_sequent(goal)
    for goal in closure:
        assert eng.is_provable(goal)


def test_closure_respects_mode():
    universe = [F(t) for t in ("p", "q", "~q", "p -> ~q")]
    s = S("p -> ~q, p, q |-")
    assert s in forward_closure(universe, 7)
    assert s not in forward_closure(universe, 7, mode="strict-table")


def test_closure_resource_cap():
    with pytest.raises(ResourceLimitError):
        forward_closure(formula_universe(["p", "q"], 3), 6, max_size=10)


def test_closure_and_engine_agree_on_random_universes():
    # differential testing on randomly seeded subformula-closed universes,
    # in both modes, with the intuitionistic oracle as a third corner
    from coreseq import decide_int
    from coreseq.syntax import subformulas

    checked = 0
    for seed in range(60):
        rng = random.Random(10_000 + seed)
        seeds = [random_formula(rng, ["p", "q"], 5) for _ in range(3)]
        universe = sorted({g for f in seeds for g in subformulas(f)}, key=str)
        if len(universe) > 11:
            continue
        mode = rng.choice(("tennant", "strict-table"))
        closure = forward_closure(universe, 5, mode=mode, max_size=400_000)
        eng = Engine(mode)
        for s in sequent_family(universe, 5):
            checked += 1
            core = eng.is_provable(s)
            assert core == (s in closure), (seed, mode, print_sequent(s))
            if core:
                assert decide_int(s), (seed, mode, print_sequent(s))
    assert checked > 2000


def test_closure_and_engine_agree_on_three_atom_universes():
    # the same three-cornered differential test over {p, q, r}
    checked = 0
    for seed in range(40):
        rng = random.Random(20_000 + seed)
        seeds = [random_formula(rng, ["p", "q", "r"], 5) for _ in range(3)]
        universe = sorted({g for f in seeds for g in subformulas(f)}, key=str)
        if len(universe) > 12:
            continue
        mode = rng.choice(("tennant", "strict-table"))
        closure = forward_closure(universe, 6, mode=mode)
        eng = Engine(mode)
        for s in sequent_family(universe, 6):
            checked += 1
            core = eng.is_provable(s)
            assert core == (s in closure), (seed, mode, print_sequent(s))
            if core:
                assert decide_int(s), (seed, mode, print_sequent(s))
    assert checked > 5000


@pytest.mark.parametrize("mode", ["tennant", "strict-table"])
def test_uncapped_closure_agrees_with_engine(mode):
    # every sequent of the space, however heavy, not just a capped family
    universe = [F(t) for t in ("p", "q", "~p", "~q", "p -> q", "p & q", "p | q")]
    closure = forward_closure(universe, 10**6, mode=mode)
    eng = Engine(mode)
    checked = 0
    for mask in range(1 << len(universe)):
        ant = tuple(f for i, f in enumerate(universe) if mask >> i & 1)
        for succ in [*universe, None] if ant else universe:
            s = Sequent(ant, succ)
            checked += 1
            assert eng.is_provable(s) == (s in closure), print_sequent(s)
    assert checked == 2**7 * 8 - 1


def test_closure_cap_counts_the_whole_closure():
    # raises exactly when the closure is larger than max_size
    universe = [F(t) for t in ("p", "q", "~p", "~q", "p -> q", "p & q", "p | q")]
    closure = forward_closure(universe, 10**6)
    assert forward_closure(universe, 10**6, max_size=len(closure)) == closure
    with pytest.raises(ResourceLimitError, match=f"cap of {len(closure) - 1} "):
        forward_closure(universe, 10**6, max_size=len(closure) - 1)


def test_closure_refuses_universes_over_the_width_ceiling():
    atoms = [Atom(f"x{i}") for i in range(CLOSURE_FORMULA_CEILING + 4)]
    widest = atoms[:CLOSURE_FORMULA_CEILING]
    assert forward_closure(widest, 2) == {Sequent((a,), a) for a in widest}
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="ceiling"):
            forward_closure(atoms, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one bitset over the masks of this universe would take 2 MB
    assert peak < 2 ** len(atoms) // 8 // 4
    # the 18-formula universe of test_closure_resource_cap is under the
    # ceiling, so it stops at max_size
    with pytest.raises(ResourceLimitError, match="cap of 10 "):
        forward_closure(formula_universe(["p", "q"], 3), 6, max_size=10)


def test_closure_shares_no_code_with_the_engine_search():
    # the oracle's code, nested functions and module helpers included,
    # names none of the backward search's helpers
    banned = {
        "_superset_closure", "_subsets", "_without", "_product_pairs",
        "_blocks", "_instances", "Engine",
    }
    seen, todo = set(), [forward_closure.__code__]
    while todo:
        code = todo.pop()
        if code in seen:
            continue
        seen.add(code)
        names = {*code.co_names, *code.co_varnames, *code.co_freevars, *code.co_cellvars}
        assert not names & banned, (code.co_name, names & banned)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        for name in code.co_names:
            obj = getattr(engine, name, None)
            if inspect.isfunction(obj) and obj.__module__ == engine.__name__:
                todo.append(obj.__code__)
    assert {"add", "combine", "unary"} <= {code.co_name for code in seen}
