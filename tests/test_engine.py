import copy
import pickle
from collections import Counter
import random
import time
import tracemalloc

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
    countermodel,
    decide,
    decide_int,
    fixture_derivations,
    formula_universe,
    forward_closure,
    height,
    parse_formula,
    parse_sequent,
    print_sequent,
    sequent_family,
    sequent_weight,
)
from coreseq import engine
from coreseq.closure import CLOSURE_FORMULA_CEILING
from coreseq.engine import TABLE_ATOM_CEILING, backward_instances
from coreseq.kernel import check_rule
from coreseq.syntax import antecedent_key, subformulas, weight

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
def test_extraction_takes_the_first_realising_instance(mode):
    # a derivation's last step is the first listed instance whose premises
    # are all derivable and realise the goal's minimal height
    eng = Engine(mode)
    provable = 0
    for goal in _FAMILY5:
        res = eng.decide(goal)
        if not res.is_provable:
            continue
        provable += 1
        for rule, prems in backward_instances(goal, mode):
            heights = [eng.min_height(p) for p in prems]
            if None not in heights and (1 + max(heights) if heights else 0) == res.min_height:
                break
        else:
            raise AssertionError(f"no instance realises {print_sequent(goal)}")
        d = res.derivation
        assert (d.rule, tuple(p.conclusion for p in d.premises)) == (rule, prems), print_sequent(goal)
    assert provable == {"tennant": 140, "strict-table": 126}[mode]


@pytest.mark.parametrize(
    "text, tennant, strict",
    [
        # (minimal height or None for unprovable, distinct goals, distinct
        # goals with only the classical filter)
        ("q | ~q, ~(p & q), p & q |- ~(p | q)", (5, 534, 534), (5, 534, 534)),
        ("~q | (q | r), p |- p", (None, 1, 181), (None, 1, 181)),
        ("~p | p, ~q, q, r |- r", (None, 1, 197), (None, 1, 197)),
        ("~p | ~r & p, p, r |-", (3, 95, 98), (None, 163, 163)),
        ("(r -> ~r) & (r & ~p) |-", (4, 184, 184), (None, 1, 1)),
        ("p & ~p, ~(p & p), ~q | q |- q & p", (None, 455, 551), (None, 455, 551)),
    ],
)
def test_split_heavy_queries(text, tennant, strict):
    # the slowest queries of the random-sequent suites, where LOr, LImp
    # and RAnd have the most premise pairs; the distinct goal counts pin
    # the explored space, which joining the split sides must not change.
    # The search of the fourth root in tennant mode stops once its height
    # 3 is certified; the others exhaust their space.
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
    """Over the 2-atom weight-6 family: the summed distinct goals of
    `decide` on fresh engines and on one shared engine, the shared engine's
    table size afterwards, and the provable rows with their summed minimal
    heights.  The same sweep by `min_height` gives the same heights and
    leaves a table of the same size: both stop by one rule."""

    def distinct(res):
        return (res.stats if res.is_provable else res.certificate).distinct_goals

    fresh = sum(distinct(engine_class(mode).decide(goal)) for goal in _FAMILY6)
    eng = engine_class(mode)
    results = [eng.decide(goal) for goal in _FAMILY6]
    proved = [res.min_height for res in results if res.is_provable]
    swept = engine_class(mode)
    assert [swept.min_height(goal) for goal in _FAMILY6] == [
        res.min_height if res.is_provable else None for res in results
    ]
    assert len(swept._heights) == len(eng._heights)
    return fresh, sum(map(distinct, results)), len(eng._heights), (len(proved), sum(proved))


@pytest.mark.parametrize(
    "mode, fresh, shared, table, heights",
    [
        ("tennant", 14536, 12433, 5666, (768, 1548)),
        ("strict-table", 12170, 10567, 5614, (654, 1236)),
    ],
)
def test_split_groups_explore_the_pinned_space(mode, fresh, shared, table, heights):
    # with the classical filter alone: one split group per LOr and LImp
    # principal, with the principal's bit free, must explore, settle and
    # pair exactly the goals of both base variants
    assert _family6_space(_ClassicalOnlyEngine, mode) == (fresh, shared, table, heights)


@pytest.mark.parametrize(
    "mode, fresh, shared, table, heights",
    [
        ("tennant", 12838, 11332, 5364, (768, 1548)),
        ("strict-table", 10772, 9630, 5354, (654, 1236)),
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
        assert t.rank[i][0] == -weight(f)
        assert t.rank[i] == antecedent_key(f)


def test_insert_keeps_the_sequent_antecedent_order():
    # inserting x into an interned antecedent gives the ids of the
    # antecedent that Sequent builds from the same formulas plus x
    universe = formula_universe(["p", "q", "r"], 4)
    eng = Engine()
    intern = eng._t.intern
    for f in universe:
        intern(f)
    rng = random.Random(19)
    for _ in range(2_000):
        fs = rng.sample(universe, rng.randint(0, 4))
        x = rng.choice(fs) if fs and rng.random() < 0.2 else rng.choice(universe)
        ants = tuple(intern(f) for f in Sequent(fs, None).antecedent)
        want = tuple(intern(f) for f in Sequent(fs + [x], None).antecedent)
        assert eng._insert(ants, intern(x)) == want, ([str(f) for f in fs], str(x))


def test_intern_goal_gives_the_ids_intern_gives():
    # one engine interns each goal whole, the other formula by formula; the
    # draws share formulas, so the first pass meets known and new ones, and
    # the second, on the primed engine, only known ones
    draws = _decide_draws(11, 500)
    eng, ref = Engine(), Engine()
    intern = ref._t.intern
    want = [
        (tuple(intern(f) for f in g.antecedent), -1 if g.succedent is None else intern(g.succedent))
        for g in draws
    ]
    for _ in range(2):
        assert [eng._intern_goal(g) for g in draws] == want
    assert eng._t.by_text == ref._t.by_text and eng._t.truth == ref._t.truth


def test_engine_state_is_slotted():
    eng = Engine()
    assert not hasattr(eng, "__dict__") and not hasattr(eng._t, "__dict__")
    # a subclass made as the benchmark's traced engine still decides
    calls = []

    def traced(self, goal):
        calls.append(goal)
        return Engine.decide(self, goal)

    goal = S("p -> q, q -> r |- p -> r")
    res = type("T", (Engine,), {"decide": traced})().decide(goal)
    assert calls == [goal] and res == Engine().decide(goal) and res.min_height == 3


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


@pytest.mark.parametrize("cap", [0, -5])
def test_memo_cap_below_one_is_rejected(cap):
    # every query looks up its root, so no cap below 1 admits a query
    with pytest.raises(ValueError, match="memo_cap must be at least 1"):
        Engine(memo_cap=cap)


def test_memo_cap_ignores_earlier_queries():
    # the cap bounds the premise lookups one query makes, not the shared
    # table; the first query makes 304
    eng = Engine(memo_cap=1200)
    assert eng.is_provable(S("p -> q, q -> r |- p -> r"))
    assert eng.min_height(S("r, s |- r & s")) == 1
    assert Engine(memo_cap=1200).min_height(S("r, s |- r & s")) == 1
    # pruned goals also enter the table; fill it well past the cap
    for goal in sequent_family(formula_universe(["p", "q"], 5), 6):
        eng.min_height(goal)
    assert len(eng._heights) > 2 * 1200
    assert eng.min_height(S("r, s |- s & r")) == 1


def test_memo_cap_bounds_premise_lookups_within_seconds():
    # few goals explored, but their split groups are 2^n wide, so the
    # premise lookups pass the cap long before the goals would
    goal = S(
        "(~p | (r -> r)) & (r & p | (r | p)), (p -> q -> q) & (~p | r), p -> p & r & r"
        " |- r -> (p -> q) | r"
    )
    eng = Engine(memo_cap=50_000)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="cap of 50000 premise lookups"):
        eng.decide(goal)
    assert time.perf_counter() - start < 10


# -- the stop rule -------------------------------------------------------------


def test_decide_stops_once_the_root_is_certified():
    # the root's height 4 is certified partway through level 3 (the root
    # is level 0), after 699 premise lookups; extraction needs the rest of
    # that level, which brings decide to 3,319.  Exploring the whole space
    # first made 20,807
    goal = S("(~q | p) & (~p & q) |-")
    stopped = Engine()
    res = stopped.decide(goal)
    assert res.min_height == 4 and height(res.derivation) == 4
    assert res.stats.goals_expanded == 3319
    assert stopped.decide(goal) == Provable(res.derivation, 4, engine.SearchStats(1, 1, 9, "tennant"))
    # min_height stops by the same rule and never extracts, so it keeps
    # fewer facts, and a later decide searches the premises it left open
    swept = Engine()
    assert swept.min_height(goal) == 4
    assert (len(swept._heights), len(stopped._heights)) == (39, 59)
    assert swept.decide(goal) == Provable(res.derivation, 4, engine.SearchStats(75, 35, 8, "tennant"))
    assert swept.decide(goal) == Provable(res.derivation, 4, engine.SearchStats(1, 1, 9, "tennant"))


@pytest.mark.parametrize("query", ["decide", "min_height"])
@pytest.mark.parametrize("mode", ["tennant", "strict-table"])
def test_stopped_searches_leave_only_minimal_heights_in_the_memo(mode, query):
    # a goal a stopped search settled is in the memo at its minimal height;
    # one it explored but left unsettled is not in it, never as underivable
    order = list(_FAMILY6)
    random.Random(20).shuffle(order)
    eng = Engine(mode)
    for goal in order:
        getattr(eng, query)(goal)
    memo = [(eng._goal_sequent(g), h) for g, h in eng._heights.items()]
    wrong = [print_sequent(s) for s, h in memo if Engine(mode).min_height(s) != h]
    assert len(memo) > 5000 and not wrong, wrong[:5]


@pytest.mark.parametrize("mode", ["tennant", "strict-table"])
def test_floors_bound_minimal_heights_from_below(mode):
    # extraction keeps, for a premise it found open and bounded, a height
    # the premise's minimal height exceeds; over queries like the
    # benchmark's, some in the memo of others
    eng = Engine(mode)
    for i, goal in enumerate(_decide_draws(11, 3000)):
        if i % 3:
            eng.decide(goal)
        else:
            eng.min_height(goal)
    heights = Engine(mode)
    floors = [
        (heights.min_height(eng._goal_sequent(g)), f)
        for g, f in eng._floors.items()
        if g not in eng._heights
    ]
    assert all(h is None or h > f for h, f in floors)
    # some are tight, so a floor one higher would be wrong
    assert len(floors) > 20 and any(h == f + 1 for h, f in floors)


def _assert_canonical(derivation, mode, heights):
    """At every node, the rule and premises are the first instance in
    generation order whose premises' minimal heights realise the node's;
    `heights` supplies minimal heights, which never depend on history."""
    todo = [derivation]
    while todo:
        node = todo.pop()
        h = heights.min_height(node.conclusion)
        assert height(node) == h, print_sequent(node.conclusion)
        for rule, prems in backward_instances(node.conclusion, mode):
            hs = [heights.min_height(p) for p in prems]
            if None not in hs and (1 + max(hs) if hs else 0) == h:
                break
        assert (node.rule, tuple(p.conclusion for p in node.premises)) == (rule, prems), (
            print_sequent(node.conclusion)
        )
        todo.extend(node.premises)


@pytest.mark.parametrize("mode", ["tennant", "strict-table"])
def test_extraction_depends_only_on_the_goal(mode):
    # a search stops inside a level, so the memo may hold goals whose
    # premises of height one less are still open; extraction must still
    # give the derivation a fresh engine gives, whatever the engine
    # answered before: a sweep of the family in shuffled order, queries
    # like the benchmark's, or min_height on the goal itself
    order = list(_FAMILY6)
    random.Random(22).shuffle(order)
    swept = Engine(mode)
    for goal in order:
        swept.min_height(goal)
    drawn = Engine(mode)
    for goal in _decide_draws(23, 400):
        drawn.min_height(goal)
    heights = Engine(mode)
    provable = 0
    for goal in _FAMILY6:
        res = Engine(mode).decide(goal)
        if not res.is_provable:
            continue
        provable += 1
        own = Engine(mode)
        assert own.min_height(goal) == res.min_height
        for eng in (swept, drawn, own):
            assert eng.decide(goal).derivation == res.derivation, print_sequent(goal)
        _assert_canonical(res.derivation, mode, heights)
    assert provable == {"tennant": 768, "strict-table": 654}[mode]


@pytest.mark.parametrize("mode", ["tennant", "strict-table"])
@pytest.mark.parametrize("text", [
    "|- q | q -> ~q -> q",
    "|- q | ~~q -> ~~q",
    "|- p | p -> q | p -> p",
])
def test_min_height_then_decide_gives_the_fresh_derivation(text, mode):
    # finishing the stopped level only when extraction needs it gave other
    # derivations for these goals once min_height had run on the engine
    goal = S(text)
    fresh = Engine(mode).decide(goal)
    eng = Engine(mode)
    assert eng.min_height(goal) == fresh.min_height
    res = eng.decide(goal)
    assert (res.derivation, res.min_height) == (fresh.derivation, fresh.min_height)
    _assert_canonical(res.derivation, mode, Engine(mode))


@pytest.mark.parametrize("mode, provable, sums, rules", [
    ("tennant", 193, (23148, 5766, 13523), {
        "Ax": 225, "LAnd": 66, "LImp": 8, "LNeg": 112, "LOr": 14, "RAnd": 10,
        "RImpA": 33, "RImpB": 142, "RNeg": 60, "ROr1": 43, "ROr2": 34,
    }),
    ("strict-table", 172, (14915, 5052, 13475), {
        "Ax": 199, "LAnd": 45, "LImp": 4, "LNeg": 91, "LOr": 13, "RAnd": 10,
        "RImpA": 23, "RImpB": 142, "RNeg": 52, "ROr1": 42, "ROr2": 31,
    }),
])
def test_extraction_on_queries_like_the_benchmarks(mode, provable, sums, rules):
    # fresh engines, as `coreseq decide`: the derivations' nodes of each
    # rule and the queries' summed goals_expanded, distinct_goals and
    # max_weight_seen, which extraction's searches add to
    found = Counter()
    totals = [0, 0, 0]
    count = 0
    for goal in _decide_draws(11, 2000):
        res = Engine(mode).decide(goal)
        stats = res.stats if res.is_provable else res.certificate
        for i, value in enumerate((stats.goals_expanded, stats.distinct_goals, stats.max_weight_seen)):
            totals[i] += value
        if res.is_provable:
            count += 1
            todo = [res.derivation]
            while todo:
                node = todo.pop()
                found[node.rule] += 1
                todo.extend(node.premises)
    assert (count, tuple(totals), dict(found)) == (provable, sums, rules)


@pytest.mark.parametrize("mode", ["tennant", "strict-table"])
def test_derivation_nodes_equal_the_checking_constructor(mode):
    # _goal_sequent takes interned antecedents as they are, in rank order;
    # Sequent deduplicates and sorts them, and must find nothing to change
    nodes = 0
    for goal in _decide_draws(11, 2000):
        res = Engine(mode).decide(goal)
        todo = [res.derivation] if res.is_provable else []
        while todo:
            node = todo.pop()
            c = node.conclusion
            assert c == Sequent(reversed(c.antecedent), c.succedent), print_sequent(c)
            nodes += 1
            todo.extend(node.premises)
    assert nodes > 500


@pytest.mark.parametrize("mode", ["tennant", "strict-table"])
def test_extraction_needs_no_recursion(mode):
    # |- p -> p -> ... -> p with 600 arrows has a derivation 600 nodes
    # deep, beyond what a recursive walk reaches under Python's default
    # recursion limit
    goal = S("|- " + " -> ".join(["p"] * 601))
    res = Engine(mode).decide(goal)
    assert check_derivation(res.derivation, mode) is None
    assert height(res.derivation) == res.min_height == Engine(mode).min_height(goal) == 600


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


def _reference_countervaluation(goal):
    """The root valuation of the first one-world Kripke countermodel, found
    without the engine: one world's upsets are {} then {0}, so `countermodel`
    values the goal's atoms, sorted by name, in product order with False
    before True and the first name most significant."""
    model = countermodel(goal, 1)
    if model is None:
        return None
    return tuple((name, name in model.valuation[0]) for name in sequent_atoms(goal))


@pytest.mark.parametrize("mode", ["tennant", "strict-table"])
def test_countervaluation_matches_the_reference(mode):
    # s and t become atoms 0 and 1, so the family's atoms sit above them;
    # q |- q puts q ahead of p; the third engine has gone past the ceiling
    primed = [Engine(mode) for _ in range(3)]
    assert primed[0].decide(S("s, t |- s & t")).is_provable
    assert primed[1].decide(S("q |- q")).is_provable
    names = [f"x{i}" for i in range(TABLE_ATOM_CEILING + 1)]
    assert primed[2].decide(Sequent(tuple(Atom(n) for n in names), Atom("y"))).disconnected
    certified = 0
    for goal in sequent_family(formula_universe(["p", "q"], 6), 6):
        want = _reference_countervaluation(goal)
        fresh = Engine(mode)
        assert fresh._countervaluation(fresh._intern_goal(goal)) == want, print_sequent(goal)
        for eng in primed:
            res = eng.decide(goal)
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
    # the next goal starts the tables over, so its own atoms decide: settled
    # at the root, as on a fresh engine
    res = eng.decide(S("p | q |- p"))
    assert res.countervaluation == (("p", False), ("q", True)) and not res.disconnected
    assert res.certificate.distinct_goals == 1
    assert res == decide(S("p | q |- p"))
    # a goal that alone mentions more atoms than the ceiling is searched
    # without the classical filter, and has no countervaluation
    chain = Atom(names[-1])
    for n in reversed(names[:-1]):
        chain = Imp(Atom(n), chain)
    res = eng.decide(Sequent((), chain))
    assert isinstance(res, Unprovable)
    assert res.countervaluation is None and not res.disconnected
    assert res.certificate.distinct_goals == 49
    res = decide(Sequent((Atom("x0"),), Atom("y")))
    assert res.countervaluation == (("x0", True), ("y", False))


# -- the goal alone decides the tables ------------------------------------------

_PAST_CEILING = Sequent(
    tuple(Atom(f"x{i}") for i in range(TABLE_ATOM_CEILING + 1)), Atom("y")
)


def _primed(mode="tennant", memo_cap=engine.DEFAULT_MEMO_CAP):
    """An engine that has decided a goal with more atoms than the ceiling."""
    eng = Engine(mode, memo_cap)
    assert eng.decide(_PAST_CEILING).disconnected
    return eng


def _decide_draws(seed, count):
    """Queries shaped like the benchmark's decide workload: every other one
    a theorem candidate over p, q of weight 6-9, the rest 1-4 antecedent
    formulas over p, q, r, a quarter of them with the absurdity marker."""

    def formula(rng, atoms, w):
        if w == 1:
            return Atom(rng.choice(atoms))
        if w == 2:
            return Neg(Atom(rng.choice(atoms)))
        kind = rng.randrange(4)
        if kind == 0:
            return Neg(formula(rng, atoms, w - 1))
        lw = rng.randint(1, w - 2)
        return (And, Or, Imp)[kind - 1](formula(rng, atoms, lw), formula(rng, atoms, w - 1 - lw))

    rng = random.Random(seed)
    draws = []
    for k in range(count):
        if k % 2 == 0:
            draws.append(Sequent((), formula(rng, ("p", "q"), rng.randint(6, 9))))
            continue
        n = rng.randint(1, 4)
        absurd = rng.random() < 0.25
        parts = n + (0 if absurd else 1)
        total = rng.randint(parts, 9)
        cuts = sorted(rng.sample(range(1, total), parts - 1))
        weights = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        fs = [formula(rng, ("p", "q", "r"), w) for w in weights]
        draws.append(Sequent(tuple(fs[:n]), None if absurd else fs[n]))
    return draws


def test_sixteen_atoms_after_seventeen_answer_at_the_root():
    goal = S(" | ".join(f"x{i}" for i in range(TABLE_ATOM_CEILING)) + " |- x0")
    start = time.perf_counter()
    res = _primed(memo_cap=10_000).decide(goal)
    assert time.perf_counter() - start < 1
    assert isinstance(res, Unprovable) and not res.disconnected
    # every atom False but the last by name, which makes the antecedent true
    names = sorted(f"x{i}" for i in range(TABLE_ATOM_CEILING))
    assert res.countervaluation == tuple((n, n == names[-1]) for n in names)
    assert res.certificate.goals_expanded == 1
    assert res == decide(goal)


def test_primed_engine_keeps_a_fresh_engines_cap():
    goal = S("p | (q | ~r), ~p |-")
    assert _primed(memo_cap=1).decide(goal) == Engine(memo_cap=1).decide(goal)


@pytest.mark.parametrize("mode", ["tennant", "strict-table"])
def test_primed_engine_answers_as_a_fresh_one(mode):
    eng = Engine(mode)
    searched = 0
    for goal in _decide_draws(11, 200):
        assert eng.decide(_PAST_CEILING).disconnected
        res = eng.decide(goal)
        assert res == Engine(mode).decide(goal), print_sequent(goal)
        stats = res.stats if res.is_provable else res.certificate
        searched += stats.goals_expanded > 1
    assert searched > 20


@pytest.mark.parametrize("text", [
    "p -> q, q -> r |- p -> r",
    "p -> q, q -> p, p | q |- p & q",
    "(p -> q) -> p |- p",
    "|- (p -> p) -> p -> p",
    # extraction expands the rest of the level the search stopped in
    "(~q | p) & (~p & q) |-",
])
def test_memo_cap_boundary_is_the_fresh_lookup_count(text):
    goal = S(text)
    res = Engine().decide(goal)
    n = (res.stats if res.is_provable else res.certificate).goals_expanded
    assert n > 1
    for make in (Engine, _primed):
        with pytest.raises(ResourceLimitError):
            make(memo_cap=n - 1).decide(goal)
        assert make(memo_cap=n).decide(goal) == res


def _min_height_primed(goal, memo_cap):
    eng = Engine()
    assert eng.min_height(goal) is not None
    eng.memo_cap = memo_cap
    return eng


@pytest.mark.parametrize("text, lookups", [
    ("(~q | p) & (~p & q) |-", 75),
    ("|- q | ~~q -> ~~q", 88),
])
def test_memo_cap_counts_extraction_searches(text, lookups):
    # after min_height the root is in the memo, and extraction searches the
    # premises that min_height's stopped search left open: those lookups
    # are the query's, counted and capped like its search's
    goal = S(text)
    res = _min_height_primed(goal, engine.DEFAULT_MEMO_CAP).decide(goal)
    assert res.stats.goals_expanded == lookups
    assert res.derivation == Engine().decide(goal).derivation
    with pytest.raises(ResourceLimitError):
        _min_height_primed(goal, lookups - 1).decide(goal)
    assert _min_height_primed(goal, lookups).decide(goal) == res


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


def _seeded_universes(atoms, base, count, widest):
    # (seed, its generator, universe) for the subformula closures of three
    # random formulas of weight <= 5, skipping those over `widest` formulas
    for seed in range(count):
        rng = random.Random(base + seed)
        seeds = [random_formula(rng, atoms, 5) for _ in range(3)]
        universe = sorted({g for f in seeds for g in subformulas(f)}, key=str)
        if len(universe) <= widest:
            yield seed, rng, universe


def test_closure_and_engine_agree_on_random_universes():
    # differential testing on randomly seeded subformula-closed universes,
    # in both modes, with the intuitionistic oracle as a third corner
    from coreseq import decide_int

    checked = 0
    for seed, rng, universe in _seeded_universes(["p", "q"], 10_000, 60, 11):
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
    for seed, rng, universe in _seeded_universes(["p", "q", "r"], 20_000, 40, 12):
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


_CRITERION_6_UNIVERSE = ("p", "q", "~p", "~q", "p & q", "p | q", "p -> q", "q -> p", "p -> p")


def test_capped_closure_is_the_uncapped_closure_cut_at_the_cap():
    # saturating only what a capped query can reach loses no sequent within
    # the cap and adds none
    cases = [([F(t) for t in _CRITERION_6_UNIVERSE], range(1, 16))]
    for atoms, base, count, widest in ((["p", "q"], 10_000, 60, 11), (["p", "q", "r"], 20_000, 40, 12)):
        cases += [(u, (4, 6, 8)) for _, _, u in _seeded_universes(atoms, base, count, widest)]
    checked = 0
    for universe, caps in cases:
        for mode in ("tennant", "strict-table"):
            whole = forward_closure(universe, 10**6, mode=mode)
            for cap in caps:
                checked += 1
                cut = {s for s in whole if sequent_weight(s) <= cap}
                assert forward_closure(universe, cap, mode=mode) == cut, (universe, mode, cap)
    assert checked > 200


def test_closure_reaches_a_sequent_through_a_heavier_premise():
    # every derivation of this weight-8 sequent passes through
    # q -> ~r, ~r, r |- ~q, of weight 9, so a closure cut at the cap's
    # weight would miss it
    goal = S("q -> ~r, q, r |- ~q")
    universe = {g for f in [*goal.antecedent, goal.succedent] for g in subformulas(f)}
    assert sequent_weight(goal) == 8
    assert Engine().min_height(goal) == 4
    assert goal in forward_closure(universe, 8)
    assert goal not in forward_closure(universe, 8, mode="strict-table")


def test_closure_cap_counts_the_admitted_space():
    # under a cap, max_size bounds the sequents derived in the admitted
    # space: 217 here, where the whole space holds 2,368
    universe = [F(t) for t in _CRITERION_6_UNIVERSE]
    closure = forward_closure(universe, 7)
    assert forward_closure(universe, 7, max_size=217) == closure
    with pytest.raises(ResourceLimitError, match="cap of 216 "):
        forward_closure(universe, 7, max_size=216)
    with pytest.raises(ResourceLimitError, match="cap of 2367 "):
        forward_closure(universe, 10**6, max_size=2367)
    assert len(forward_closure(universe, 10**6, max_size=2368)) > len(closure)


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
