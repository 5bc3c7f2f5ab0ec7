"""Complete decision procedure for derivability in the eleven-rule calculus.

Backward search enumerates, for a goal sequent, every rule instance whose
conclusion equals the goal under the checker's set semantics.  Because
antecedents are sets, a premise may retain the formula the rule introduces
(the union in the schema absorbs it), so premises are not always lighter
than their conclusions; termination comes instead from the finite goal
space: every reachable goal draws its antecedent from the subformula
closure of the query and its succedent from that closure or the absurdity
marker.  Minimal heights are computed by a shortest-first fixpoint over
that space (a Dijkstra-style relaxation on the instance hypergraph), so a
goal left unsettled when the space is exhausted is certainly underivable.

Internally the engine interns formulas to integers and works on sorted id
tuples; the public surface speaks `Sequent` and `Derivation`.

Split rules.  RAnd, LOr and LImp divide a base (the antecedent, or for a
left rule the antecedent with or without its principal) between two
premises: every pair (D, G) of subsets with D | G == the base, 3^n pairs
for n base elements, times three succedent combos for LOr.  The engine
never lists those pairs while searching.  A split group (rule, principal,
succedent combo) holds its two sides as tables over the 2^n subsets of
the antecedent, each premise built and looked up once.  For LOr and LImp
the principal's bit is free: with need the antecedent without it, a pair
with D | G == need discharges the principal and one with D | G == the
whole antecedent retains it, and these are the only pairs whose union
contains need, so one group serves both base variants and each side
costs one 2^n scan instead of 2^(n-1) + 2^n.  For RAnd need is the whole
antecedent.  A side premise is live unless it is settled underivable,
classically invalid or disconnected; a live premise with mask m is
explored only when the other side has a live partner covering need & ~m
(a superset-closure table over the live masks says so), which is exactly
the set of goals the listed pairs would reach.  Settlement is
a join, after Knuth's generalisation of Dijkstra's algorithm (D. E. Knuth,
"A generalization of Dijkstra's algorithm", IPL 6(1), 1977), with one
rule: whenever a side mask's height h becomes known, it is recorded and
paired with the other side's settled masks covering the rest of need,
and the conclusion is queued at 1 + max(h, best partner).  A height
becomes known either at registration, for a premise already settled
when it is looked up, or when the premise settles later.  Registration
records the left side first, so a pair settled on both sides at
registration is joined once, when its right side is recorded.  A partner
of height at most h gives the best pair at once.  The cost is 2^n per
side plus the pairs whose sides both settle, where listing the pairs
would build and look up 3^n of them (times the combos).

Search order.  The search explores breadth first, level by level, and
records each goal's depth when it first discovers it (the root's is 0);
a level's goals are expanded in the order they were discovered.
The heap holds (height + depth, height, goal) entries, and popping them
in that order is exact: Knuth's argument, with the depth as a potential.
Keys never fall: settling a goal at height h queues a conclusion at a
greater height, at most one level above the goal, and expanding level L
queues nothing with a key below L + 1.  And a better
derivation pops first.  A premise is discovered at most one level below
its conclusion, so a goal k steps below g in a derivation of g of height
h' lies at depth at most depth(g) + k, at height at most h' - k.  With
h' below the height h at which g is queued, every such goal has a
smaller key than g's entry; by induction from the derivation's leaves
(axioms, and goals already settled) they all settle first, and g is
queued at h' before its entry at h pops.

Stopping.  The search settles inside a level.  Suppose every entry of key
at most L is settled once level L - 1 is expanded.  Then a goal still
unsettled at depth d has minimal height at least L + 1 - d: a derivation
of height h' <= L - d has its inner goals at depth at most d + h' - 1,
which is at most L - 1, so all expanded, and each of its goals at a key
at most L, so by the argument above it would have settled.  While level
L is expanded an entry of key L + 1 for g is at height L + 1 - depth(g),
no more than g's minimal height, so it is exact the moment it is queued,
and so is every entry of key L + 1 that settling it queues.  So after
each goal of level L is expanded the search settles every entry of key
at most L + 1, and it returns as soon as the root is settled.  Once the
whole level is expanded every entry of key at most L + 1 has been queued
(each axiom of depth L + 1 at height 0 when it was discovered) and
settled, which carries the supposition to L + 1.  A derivation of height
h lies within depth h of its root, so the root settles while level h - 1
is expanded at the latest.  Every goal settled this way enters the memo
at its minimal height.  The goals a stopped search explored but left
unsettled stay out of the memo and are never recorded underivable, so a
later query explores them again; only an emptied frontier settles the
remaining goals underivable.

Extraction.  A derivation's last step is the first instance in generation
order whose premises' minimal heights realise the goal's height h,
whatever the memo holds.  Stopping inside a level can leave a premise of
minimal height h - 1 open: a goal settled at key L + 1 may have a premise
one level below it whose derivation needs a goal of level L that was not
yet expanded, and such a goal reaches later queries through the memo.
But an open premise of a settled goal always has minimal height at least
h - 1: the goal settled at key L + 1 at most, while level L was
expanded, and the premise lies at most one level below it, so the bound
above holds for it.  So extraction decides each open premise of an
instance whose settled premises are all below h, and only those.  A
search that has expanded d whole levels has settled every goal of key at
most d, so a goal it explored and left unsettled at depth k has minimal
height above d - k; the engine keeps that bound as the goal's floor.  An
open goal is never an axiom, since a search settles each axiom it
discovers at once, so its floor is at least 0.  When extraction meets an
open premise, the query's own stopped searches first expand the rest of
their levels.  Then every premise of a goal they settled is settled or
has a floor of at least h - 1, so it does not realise h.  A premise with
a lower floor, below a goal an earlier query settled, is decided by a
search from it that gives up after h - 1 levels: that search settles it
exactly when its minimal height is h - 1, and otherwise leaves it a
floor of h - 1.  Floors are facts about minimal heights, so like the
memo they serve later queries.  All of this belongs to the query: it
counts in its statistics and against its cap.  `min_height` never
extracts.

Extraction builds few instance tables.  Only Ax realises height 0, so a
node settled at 0 is Ax, with no instance listed.  A search keeps the
one-premise instances it built for each goal it expands that has no split
families, and when it stops or gives up it hands those of the goals it
settled provable, the only ones extraction can reach, to the query;
extraction reads them instead of building them again.  Any other node
builds its instances: a search never keeps split tables, and one that
exhausts its space hands over nothing.  The walk keeps its own stacks:
it chooses each node's instance in preorder, the order in which the
recursive definition meets open premises, then builds the nodes
bottom-up.

`_instances` streams the same groups as pairs, lazily, in the order of the
3^n product recurrence, which is the generation order extraction reads;
`backward_instances` lists every instance once.

Classical filter.  Each interned formula carries its classical truth
table: an int with one bit per valuation of the engine's atoms, built from
its children's tables when it is interned and widened in place when a new
atom arrives.  A goal is classically valid when no row satisfies every
antecedent formula and falsifies the succedent (for the absurdity marker:
when no row satisfies the antecedent).  Every rule is classically sound
under the set semantics, read rule by rule: Ax is trivial; RNeg, RImpA and
RImpB discharge a hypothesis, and ROr weakens the succedent; LNeg, LAnd,
LImp and RAnd combine premises whose antecedents the conclusion contains
(in LNeg, ~A with anything that entails A is unsatisfiable); LOr splits on
the disjunct, where a premise with the absurdity marker says its case is
impossible.  Retaining the principal formula only adds a hypothesis the
conclusion already has.  So every derivable goal is classically valid, a
classically invalid goal is settled underivable without being explored,
and an instance with such a premise is dead.  The filter leans only on
Core being contained in classical logic, never on an intuitionistic fact,
so the comparisons against the intuitionistic oracle stay non-circular.
Past TABLE_ATOM_CEILING atoms the tables are too wide to pay off: a goal
whose own atoms pass it is searched unfiltered, with no countervaluation,
and an engine that earlier goals' atoms take past it starts its table and
memo over, which loses only facts and so never changes a result.

Connectivity filter.  Core logic is relevant: link two formulas of the
antecedent and the succedent (the antecedent alone under the absurdity
marker) when they share an atom, and every derivable goal is connected.
By induction over the rules, in both modes: Ax is connected; LNeg, RNeg,
LAnd, ROr, RImpA and RImpB replace a premise formula by one whose atoms
include its atoms (the principal, or the conclusion's succedent), which
keeps every link; RAnd, LOr and LImp join connected premises through the
principal or the succedent, which holds the atoms of the formula that
links each premise to it, and every formula of the conclusion comes from
a premise.  Each interned formula carries the bitset of its atoms, built
from its children's like its truth table, and a goal is connected when
the atoms reached from one of its formulas grow to cover them all.  A
disconnected goal is settled underivable and counted exactly as a
classically invalid one; the classical check runs first, so
countervaluations are those of the classical filter alone, and `decide`
marks a root this filter settled with `Unprovable.disconnected`.  The
fact is one about Core's rules, not about intuitionistic logic, and the
forward closure applies no filter, so engine-vs-closure and
Core-vs-intuitionistic comparisons stay non-circular.

Root step.  Every query (`decide`, `min_height` and so `is_provable`)
first runs one root step, `_settle_root`: the memo, then the classical
filter, then the connectivity filter, and only then the search.  A root
the memo or a filter settles never reaches `_solve`, which starts at
exploration and has no root check of its own.  The step calls the filters
through the engine, so a subclass that overrides one steers the root as
it steers every premise.  `min_height` reports no statistics, so such a
root costs it a dictionary lookup and at most the two filters; `decide`
reports one goal expanded and one distinct for it.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from typing import Optional, Union

from .kernel import MODES, RULE_NAMES, Derivation, ResourceLimitError
from .syntax import (
    And,
    Atom,
    Formula,
    Imp,
    Neg,
    Or,
    Sequent,
    _Record,
    antecedent_key,
    ordered_sequent,
    print_sequent,
)

DEFAULT_MEMO_CAP = 10_000_000

# Truth tables are 2**atoms bits wide; for a goal with more atoms than
# this the classical filter is off.
TABLE_ATOM_CEILING = 16

_ABSURD = -1

_KATOM, _KNEG, _KAND, _KOR, _KIMP = range(5)
_KIND_OF = {Atom: _KATOM, Neg: _KNEG, And: _KAND, Or: _KOR, Imp: _KIMP}

(
    _AX,
    _LNEG,
    _RNEG,
    _LAND,
    _RAND,
    _LOR,
    _ROR1,
    _ROR2,
    _LIMP,
    _RIMPA,
    _RIMPB,
) = range(11)

# the answer of a premise lookup or of the root step for a goal that may
# still be derived
_OPEN = -1


class SearchStats(_Record):
    """Effort of one query.

    `goals_expanded` counts the premise lookups the query made (one per
    side premise of a split group, not one per premise pair; a group
    (rule, principal, succedent combo) serves both the discharged and the
    retained variant of LOr and LImp), plus one for the root and one for
    each premise that derivation extraction had to search.
    `distinct_goals` counts the goals the query discovered plus the
    already-settled goals it looked up, each once; a root settled before
    the query, classically invalid or disconnected, counts 1 and 1.
    `max_weight_seen` is the largest weight of a goal the query's searches
    expanded, or the root's when they expanded none.  The search stops as
    soon as the root's minimal height is certified, inside a level, and
    extraction searches only premises the memo leaves open, so they count
    the query's work up to there (see the module docstring).
    """

    __slots__ = ("goals_expanded", "distinct_goals", "max_weight_seen", "mode")

    goals_expanded: int
    distinct_goals: int
    max_weight_seen: int
    mode: str

    def __init__(self, goals_expanded: int, distinct_goals: int, max_weight_seen: int, mode: str):
        _set_goals_expanded(self, goals_expanded)
        _set_distinct_goals(self, distinct_goals)
        _set_max_weight_seen(self, max_weight_seen)
        _set_mode(self, mode)


_set_goals_expanded = SearchStats.goals_expanded.__set__
_set_distinct_goals = SearchStats.distinct_goals.__set__
_set_max_weight_seen = SearchStats.max_weight_seen.__set__
_set_mode = SearchStats.mode.__set__


class Provable(_Record):
    __slots__ = ("derivation", "min_height", "stats")

    derivation: Derivation
    min_height: int
    stats: SearchStats

    def __init__(self, derivation: Derivation, min_height: int, stats: SearchStats):
        _set_derivation(self, derivation)
        _set_min_height(self, min_height)
        _set_stats(self, stats)

    @property
    def is_provable(self) -> bool:
        return True


_set_derivation, _set_min_height = Provable.derivation.__set__, Provable.min_height.__set__
_set_stats = Provable.stats.__set__


class Unprovable(_Record):
    # countervaluation: (atom name, truth value) pairs sorted by name, set
    # when the goal, with at most TABLE_ATOM_CEILING atoms, is classically
    # invalid: the valuation satisfies the antecedent and falsifies the
    # succedent (or, for the absurdity marker, just satisfies the
    # antecedent).  It is the first such valuation in product order (False
    # before True, the first name most significant).
    # disconnected: set when the goal is classically valid (or past the
    # table ceiling) but its formulas split into groups sharing no atom,
    # so the connectivity filter settled it unexplored.
    __slots__ = ("certificate", "countervaluation", "disconnected")

    certificate: SearchStats
    countervaluation: Optional[tuple[tuple[str, bool], ...]]
    disconnected: bool

    def __init__(
        self,
        certificate: SearchStats,
        countervaluation: Optional[tuple[tuple[str, bool], ...]] = None,
        disconnected: bool = False,
    ):
        _set_certificate(self, certificate)
        _set_countervaluation(self, countervaluation)
        _set_disconnected(self, disconnected)

    @property
    def is_provable(self) -> bool:
        return False


_set_certificate = Unprovable.certificate.__set__
_set_countervaluation = Unprovable.countervaluation.__set__
_set_disconnected = Unprovable.disconnected.__set__


DecisionResult = Union[Provable, Unprovable]


class _Effort:
    """One query's effort so far, summed over its searches: the premise
    lookups made, one for the root included, the goals discovered or
    looked up, and the goals expanded (see `SearchStats`), with the
    searches that stopped inside a level."""

    __slots__ = ("lookups", "goals", "expanded", "unfinished", "built")

    def __init__(self, root: tuple):
        self.lookups = 1
        self.goals = {root}
        self.expanded: list[tuple] = []
        # each search paused inside a level, which extraction may yet
        # need to finish (see `Engine._solve`)
        self.unfinished: list = []
        # goal -> its `Engine._blocks` singles, for goals with no split
        # families that the searches expanded and settled provable, which
        # extraction reads instead of building them again
        self.built: dict[tuple, list] = {}


class _FormulaTable:
    """Interner: formulas as integer ids, keyed by their canonical text,
    with child-id tables.

    `truth[i]` is formula i's truth table: bit v is its value under the
    valuation that makes atom k true exactly when bit k of v is set, atoms
    numbered in `atoms` order.  `full` has a bit for every valuation; past
    TABLE_ATOM_CEILING atoms it and every table are 0, which only one goal's
    own atoms may cause (see `Engine._intern_goal`).  `atom_bits[i]` has
    bit k set when formula i mentions atom k; it has no ceiling.
    """

    def __init__(self):
        self.by_text: dict[str, int] = {}
        self.obj: list[Formula] = []
        self.kind: list[int] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.rank: list[tuple[int, str]] = []
        self.truth: list[int] = []
        self.atom_bits: list[int] = []
        self.atoms: list[int] = []
        self.full = 1

    def intern(self, f: Formula) -> int:
        i = self.by_text.get(f.text)
        if i is not None:
            return i
        truth, atom_bits = self.truth, self.atom_bits
        k = _KIND_OF[f.__class__]
        if k == _KATOM:
            a = b = -1
            table = self._new_atom()
            mentions = 1 << len(self.atoms)
        elif k == _KNEG:
            a, b = self.intern(f.sub), -1
            table = self.full ^ truth[a]
            mentions = atom_bits[a]
        else:
            a, b = self.intern(f.left), self.intern(f.right)
            mentions = atom_bits[a] | atom_bits[b]
            if k == _KAND:
                table = truth[a] & truth[b]
            elif k == _KOR:
                table = truth[a] | truth[b]
            else:
                table = (self.full ^ truth[a]) | truth[b]
        i = len(self.obj)
        self.obj.append(f)
        self.kind.append(k)
        self.left.append(a)
        self.right.append(b)
        self.rank.append(antecedent_key(f))
        truth.append(table)
        atom_bits.append(mentions)
        if k == _KATOM:
            self.atoms.append(i)
        self.by_text[f.text] = i
        return i

    def _new_atom(self) -> int:
        """Widen every table for one more atom and return the atom's table.

        An old formula does not mention the new atom, so its value on each
        new row equals its value on the matching old row.
        """
        k = len(self.atoms)
        if k >= TABLE_ATOM_CEILING:
            if self.full:
                self.full = 0
                self.truth[:] = [0] * len(self.truth)
            return 0
        shift = 1 << k
        truth = self.truth
        for i, t in enumerate(truth):
            truth[i] = t | t << shift
        old = self.full
        self.full = old | old << shift
        return old << shift


def _subsets(base: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every sub-tuple of `base`, indexed by bitmask: bit i keeps base[i]."""
    subs = [()]
    for x in base:
        subs += [s + (x,) for s in subs]
    return subs


def _superset_closure(bits: int, n: int) -> int:
    """The masks over n elements that some mask in the bitset `bits` contains.

    Bit m of a bitset stands for mask m.  For each element i in turn, every
    mask lacking i takes the bit of the same mask with i added.
    """
    ones = (1 << (1 << n)) - 1
    for i in range(n):
        step = 1 << i
        # the masks lacking element i: runs of `step` ones, period 2 * step
        clear = ((1 << step) - 1) * (ones // ((1 << 2 * step) - 1))
        bits |= (bits >> step) & clear
    return bits


def _product_pairs(family):
    """A split family's premise pairs, in product order.

    A family is (free, groups): `groups` lists (lefts, rights) groups, one
    per succedent combo, each side indexed by the bitmask of antecedent
    elements its premise keeps, and `free` is the mask of the principal's
    bit for LOr and LImp, 0 for RAnd.  The pairs (D, G) with D | G == a
    base come from the 3^n product recurrence over the base's elements,
    the first outermost: both sides keep the element, then only D, then
    only G.  The base without the free bit (the principal discharged)
    comes first, then every bit (retained); combos vary fastest.
    """
    free, groups = family
    full = len(groups[0][0]) - 1
    for base in (full & ~free, full) if free else (full,):
        masks = [(0, 0)]
        rest = base
        while rest:
            b = rest & -rest
            rest ^= b
            masks = [m for d, g in masks for m in ((d | b, g | b), (d | b, g), (d, g | b))]
        for d, g in masks:
            for lefts, rights in groups:
                yield lefts[d], rights[g]


class Engine:
    """Memoizing decision engine for one succedent mode.

    Verdicts and minimal heights persist across queries until a goal takes
    the tables past TABLE_ATOM_CEILING atoms; only settled goals enter the
    table and they are pure facts, so sharing it never changes results.
    `memo_cap` bounds the premise lookups one query makes (`goals_expanded`,
    and so the goals it explores), not the table, so it does not depend on
    earlier queries either.
    Not thread-safe: one instance serves one thread, and its caller owns it.
    """

    def __init__(self, mode: str = MODES[0], memo_cap: int = DEFAULT_MEMO_CAP):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if memo_cap < 1:  # every query looks up its root
            raise ValueError(f"memo_cap must be at least 1, not {memo_cap}")
        self.mode = mode
        self.memo_cap = memo_cap
        self._t = _FormulaTable()
        self._heights: dict[tuple, Optional[int]] = {}
        # goal no search has settled -> a height its minimal height is
        # known to exceed; only searches that extraction resumes or runs
        # record these, and only extraction reads them
        self._floors: dict[tuple, int] = {}

    # -- public API --

    def decide(self, goal: Sequent) -> DecisionResult:
        """The goal's derivation and minimal height, or its unprovability,
        with the query's statistics.

        The search stops as soon as the root's minimal height is certified,
        and the derivation is the canonical one, which depends only on the
        goal: at each node, the first instance in generation order whose
        premises' minimal heights realise the node's height.  Premises the
        memo leaves open are decided by searches limited to that height.
        """
        g = self._intern_goal(goal)
        h = self._settle_root(g)
        if h is None:
            return self._refuted(g, SearchStats(1, 1, self._goal_weight(g), self.mode))
        effort = self._solve(g) if h == _OPEN else _Effort(g)
        h = self._heights[g]
        derivation = None if h is None else self._extract(g, effort)
        stats = SearchStats(
            effort.lookups,
            len(effort.goals),
            max(map(self._goal_weight, effort.expanded or (g,))),
            self.mode,
        )
        if derivation is None:
            return self._refuted(g, stats)
        return Provable(derivation, h, stats)

    def _refuted(self, g: tuple, stats: SearchStats) -> Unprovable:
        cv = self._countervaluation(g)
        return Unprovable(stats, cv, cv is None and self._disconnected(g))

    def is_provable(self, goal: Sequent) -> bool:
        return self.min_height(goal) is not None

    def min_height(self, goal: Sequent) -> Optional[int]:
        """The goal's minimal height, None when it is underivable.

        Its search stops as soon as the root's minimal height is certified,
        inside a level, and it never extracts a derivation.  It reports no
        statistics, so a root the root step settles costs no search."""
        g = self._intern_goal(goal)
        h = self._settle_root(g)
        if h == _OPEN:
            self._solve(g)
            h = self._heights[g]
        return h

    # -- representation --

    def _intern_goal(self, s: Sequent) -> tuple:
        t = self._t
        held = len(t.obj)
        # a sequent keeps its antecedent in antecedent_key order, the rank
        ants = tuple(t.intern(f) for f in s.antecedent)
        succ = _ABSURD if s.succedent is None else t.intern(s.succedent)
        if held and not t.full:
            # earlier goals' atoms took the tables off: start over
            self._t, self._heights, self._floors = _FormulaTable(), {}, {}
            return self._intern_goal(s)
        return (ants, succ)

    def _goal_sequent(self, g: tuple) -> Sequent:
        obj = self._t.obj
        ants, succ = g
        # ids are in rank order, which is antecedent_key order
        return ordered_sequent(
            tuple([obj[i] for i in ants]), None if succ == _ABSURD else obj[succ]
        )

    def _goal_weight(self, g: tuple) -> int:
        obj = self._t.obj
        ants, succ = g
        total = sum(obj[i].weight for i in ants)
        if succ != _ABSURD:
            total += obj[succ].weight
        return total

    def _failing_rows(self, g: tuple) -> int:
        """Valuations, as a truth-table mask, under which the goal fails.

        Nonzero means classically invalid; 0 also when the filter is off.
        """
        t = self._t
        truth = t.truth
        ants, succ = g
        rows = t.full if succ == _ABSURD else t.full ^ truth[succ]
        for a in ants:
            if not rows:
                break
            rows &= truth[a]
        return rows

    def _disconnected(self, g: tuple) -> bool:
        """Whether the goal's formulas split into two groups sharing no atom.

        Linking two formulas of the antecedent and the succedent (the
        antecedent alone under the absurdity marker) when they share an
        atom, the goal is connected when the links join them all.  The
        atoms reached from one formula grow to a fixpoint; a formula never
        reached makes the goal disconnected.
        """
        bits = self._t.atom_bits
        ants, succ = g
        if succ != _ABSURD:
            reach = bits[succ]
        elif ants:
            reach = bits[ants[0]]
        else:
            return False
        apart = []
        for a in ants:
            m = bits[a]
            if m & reach:
                reach |= m
            else:
                apart.append(m)
        while apart:
            rest, apart = apart, []
            for m in rest:
                if m & reach:
                    reach |= m
                else:
                    apart.append(m)
            if len(apart) == len(rest):
                return True
        return False

    def _countervaluation(self, g: tuple) -> Optional[tuple[tuple[str, bool], ...]]:
        """The goal's first falsifying valuation in product order (see
        `Unprovable`), if it has one: each atom in turn, sorted by name,
        keeps the failing rows that make it False when there are any.  None
        also when the goal alone took the tables off."""
        rows = self._failing_rows(g)
        if not rows:
            return None
        t = self._t
        truth, bits = t.truth, t.atom_bits
        ants, succ = g
        mentioned = 0 if succ == _ABSURD else bits[succ]
        for a in ants:
            mentioned |= bits[a]
        valuation = []
        for name, i in sorted(
            (t.obj[i].name, i) for k, i in enumerate(t.atoms) if mentioned >> k & 1
        ):
            false_rows = rows & ~truth[i]
            if false_rows:
                rows = false_rows
            valuation.append((name, not false_rows))
        return tuple(valuation)

    def _insert(self, ants: tuple[int, ...], x: int) -> tuple[int, ...]:
        if x in ants:
            return ants
        rank = self._t.rank
        pos = bisect_right(ants, rank[x], key=rank.__getitem__)
        return ants[:pos] + (x,) + ants[pos:]

    # -- instance enumeration (id space) --

    def _blocks(self, g: tuple) -> tuple[list, list]:
        """The rule instances concluding this goal but Ax, as (singles,
        splits), each in rule order.

        `singles` lists the one-premise instances as (rule, (premise,))
        pairs.  `splits` lists the split rules' (RAnd, LOr, LImp) families as
        (rule, family) pairs, one family per principal, in the form
        `_product_pairs` reads.  A family's groups span the whole
        antecedent: for LOr and LImp the principal's bit is free, so one
        group holds both the discharged and the retained pairs, and each
        premise antecedent is built once per subset of the antecedent, never
        once per pair or per variant.  Within a rule, entries follow the
        canonical generation order: principals in antecedent order,
        discharged premise variants before retaining ones.
        """
        t = self._t
        kind, left, right = t.kind, t.left, t.right
        insert = self._insert
        ants, succ = g
        singles: list[tuple[int, tuple]] = []
        splits: list[tuple[int, tuple]] = []
        limps: list[tuple[int, tuple]] = []  # LImp's families, which follow LOr's
        subs = None  # every sub-tuple of the antecedent, built on first use

        if succ == _ABSURD:
            sk = _ABSURD
            for pos, f in enumerate(ants):
                if kind[f] == _KNEG:
                    a = left[f]
                    singles += ((_LNEG, ((ants[:pos] + ants[pos + 1:], a),)), (_LNEG, ((ants, a),)))
        else:
            sk = kind[succ]
            if sk == _KNEG:
                a = left[succ]
                if a not in ants:
                    singles.append((_RNEG, ((insert(ants, a), _ABSURD),)))
            elif sk == _KAND:
                a, b = left[succ], right[succ]
                subs = _subsets(ants)
                splits.append((_RAND, (0, (([(d, a) for d in subs], [(d, b) for d in subs]),))))

        left_absurd_ok = succ != _ABSURD or self.mode == "tennant"

        for pos, f in enumerate(ants):
            k = kind[f]
            if k == _KAND and left_absurd_ok:
                a, b = left[f], right[f]
                for base in (ants[:pos] + ants[pos + 1:], ants):
                    if a in base or b in base:
                        continue
                    inserts = ((a,),) if a == b else ((a,), (b,), (a, b))
                    for ins in inserts:
                        prem = base
                        for x in ins:
                            prem = insert(prem, x)
                        singles.append((_LAND, ((prem, succ),)))
            elif k == _KOR or (k == _KIMP and left_absurd_ok):
                # f's bit is free: a pair covers the antecedent with or
                # without it (the discharged and the retained variant)
                if subs is None:
                    subs = _subsets(ants)
                a, b = left[f], right[f]
                free = 1 << pos
                if k == _KOR:
                    la = [insert(d, a) for d in subs]
                    rb = [insert(d, b) for d in subs]
                    la_absurd = [(x, _ABSURD) for x in la]
                    rb_absurd = [(y, _ABSURD) for y in rb]
                    if succ == _ABSURD:
                        groups = ((la_absurd, rb_absurd),)
                    else:
                        ls = [(x, succ) for x in la]
                        rs = [(y, succ) for y in rb]
                        groups = ((ls, rs), (ls, rb_absurd), (la_absurd, rs))
                    splits.append((_LOR, (free, groups)))
                else:
                    minor = [(d, a) for d in subs]
                    major = [(insert(d, b), succ) for d in subs]
                    limps.append((_LIMP, (free, ((minor, major),))))

        if sk == _KOR:
            singles += ((_ROR1, ((ants, left[succ]),)), (_ROR2, ((ants, right[succ]),)))
        elif sk == _KIMP:
            a, b = left[succ], right[succ]
            singles.append((_RIMPA, ((insert(ants, a), _ABSURD),)))
            if a not in ants:
                singles += ((_RIMPB, ((ants, b),)), (_RIMPB, ((insert(ants, a), b),)))
        splits += limps
        return singles, splits

    def _instances(self, g: tuple):
        """Every rule instance concluding this goal, lazily, in rule order.

        Within a rule, instances follow the canonical generation order:
        principals in antecedent order, discharged premise variants before
        retaining ones, split pairs in product order (see `_product_pairs`).
        An instance may repeat.
        """
        ants, succ = g
        if len(ants) == 1 and ants[0] == succ:
            yield _AX, ()
        singles, splits = self._blocks(g)
        i = 0
        for rule, family in splits:
            while i < len(singles) and singles[i][0] < rule:
                yield singles[i]
                i += 1
            for prems in _product_pairs(family):
                yield rule, prems
        yield from singles[i:]

    # -- solving --

    def _settle_root(self, g: tuple) -> Optional[int]:
        """The root step every query runs first: the memo, then the
        classical filter, then the connectivity filter.

        Returns the root's minimal height, None when it is underivable, or
        _OPEN when only a search can tell.  A root either filter refutes is
        settled None here, so `_solve` only ever starts from an open root.
        """
        settled = self._heights
        h = settled.get(g, _OPEN)
        if h == _OPEN and (self._failing_rows(g) or self._disconnected(g)):
            h = settled[g] = None  # classically invalid or disconnected, so underivable
        return h

    def _solve(self, root: tuple, effort: Optional[_Effort] = None, levels: Optional[int] = None) -> _Effort:
        """Search below an open root (one `_settle_root` left open) and
        return the query's effort, which the search adds to: `effort` is
        the effort so far of the query that runs it, a new one for its
        first search.

        The search returns as soon as the root is settled, inside a level
        (see the module docstring), and leaves itself paused in
        `effort.unfinished`, for extraction to finish that level.  With
        `levels`, which only extraction passes, it gives up once that many
        levels are expanded; it has then settled the root exactly when the
        root's minimal height is at most `levels`.
        """
        if effort is None:
            effort = _Effort(root)
        search = self._search(root, levels, effort.lookups, effort.goals, effort.expanded, effort.built)
        effort.lookups, stopped = next(search)
        if stopped:
            effort.unfinished.append(search)
        else:
            next(search, None)  # let it return
        return effort

    def _search(self, root: tuple, levels: Optional[int], visits: int, touched: set, expanded: list, built: dict):
        """Explore the goals below the root level by level and settle their
        minimal heights; a generator, so that a stopped search can finish
        its level.

        After each goal of level d is expanded, every queued goal of key at
        most d + 1 is exact and settles.  The search yields the query's
        premise lookups so far (`visits` before it) and whether it stopped
        inside a level, once the root is settled or the search is over.
        Resumed with the query's count after stopping, it expands the rest
        of the level and yields the count again.  Goals it discovers or
        looks up go into `touched`, and the goals it expands into
        `expanded`.  A search that finishes its level or gives up records a
        floor for each goal it explored and left unsettled.  When it stops
        or gives up it puts into `built` the `_blocks` singles of the goals
        it expanded with no split families and settled provable; a search
        that exhausts its space puts nothing there.

        One-premise instances wait on their premise.  A split rule is a join
        of two sides (see the module docstring): `settle_side` is the one
        place a side premise's height enters its group, whether the premise
        was settled before it was looked up or settles afterwards.
        """
        settled = self._heights
        failing_rows, disconnected = self._failing_rows, self._disconnected
        cap = self.memo_cap

        # entries (height + depth, height, goal), popped in that order
        heap: list[tuple[int, int, tuple]] = []
        depth: dict[tuple, int] = {}  # explored goal -> level it was discovered at
        # premise -> (conclusion, its depth) of the one-premise instances
        # waiting on it
        waiting: dict[tuple, list[tuple[tuple, int]]] = {}
        # premise -> (group, side, mask) slots it fills in split groups; a
        # group is [conclusion, need mask, left heights, right heights,
        # settled left masks, settled right masks, conclusion's depth]
        joined: dict[tuple, list[tuple[list, int, int]]] = {}
        fresh: list[tuple] = []  # the goals discovered one level down
        # expanded goal with no split families -> its `_blocks` singles
        kept: dict[tuple, list] = {}

        def hand_over() -> None:
            """Give extraction the singles of the kept goals settled
            provable, the only ones it can reach."""
            for g, singles in kept.items():
                if settled.get(g):
                    built[g] = singles
            kept.clear()

        def discover(p: tuple, dp: int) -> None:
            depth[p] = dp
            fresh.append(p)
            ants, succ = p
            if len(ants) == 1 and ants[0] == succ:
                heapq.heappush(heap, (dp, 0, p))  # Ax

        def look(p: tuple) -> Optional[int]:
            """One premise lookup: the premise's height if it is settled
            provable, _OPEN if it may still be derived, None if it is
            underivable."""
            if p in settled:
                touched.add(p)
                return settled[p]
            if p in depth or not (failing_rows(p) or disconnected(p)):
                return _OPEN
            settled[p] = None  # classically invalid or disconnected, so underivable
            touched.add(p)
            return None

        def wait(p: tuple, entry, table: dict) -> None:
            if p in table:
                table[p].append(entry)
            else:
                table[p] = [entry]
            if p not in depth:
                discover(p, d + 1)

        def settle_side(grp: list, side: int, m: int, h: int) -> None:
            """Side mask m of a group is known at height h: join it with the
            other side's settled masks covering the rest of need and queue
            the conclusion at 1 + max(h, best partner)."""
            grp[2 + side][m] = h
            grp[4 + side].append(m)
            other_heights = grp[3 - side]
            comp = grp[1] & ~m
            best = None
            for x in grp[5 - side]:
                if x & comp == comp:
                    hx = other_heights[x]
                    if hx <= h:
                        best = h
                        break
                    if best is None or hx < best:
                        best = hx
            if best is not None:
                heapq.heappush(heap, (1 + best + grp[6], 1 + best, grp[0]))

        def open_group(g: tuple, free: int, lefts: list, rights: list) -> int:
            """Register one split group of goal g; returns the lookups made.

            A side mask m needs a partner covering need & ~m, where need
            is the antecedent without the free element: with the partner
            the pair covers need or the full antecedent, so each side
            premise is scanned once for both variants.  Every left premise
            is looked up, and a right one only when a live left premise
            covers the rest: the premises the pairs would look up.  A live
            premise waits only when a live partner covers the rest, so the
            explored goals are the pairs' too.
            """
            size = len(lefts)
            full = size - 1
            need = full & ~free
            everything = (1 << size) - 1
            left_h = [look(p) for p in lefts]
            lookups = size
            ok_left = 0
            for m in range(size):
                if left_h[m] is not None:
                    ok_left |= 1 << m
            if not ok_left:
                return lookups
            # a live mask containing need covers every mask
            if (ok_left >> need | ok_left >> full) & 1:
                cover_left = everything
                right_h = [look(p) for p in rights]
                lookups += size
            else:
                cover_left = _superset_closure(ok_left, full.bit_length())
                right_h = [None] * size
                for m in range(size):
                    if cover_left >> (need & ~m) & 1:
                        lookups += 1
                        right_h[m] = look(rights[m])
            ok_right = 0
            for m in range(size):
                if right_h[m] is not None:
                    ok_right |= 1 << m
            if not ok_right:
                return lookups
            cover_right = (
                everything if (ok_right >> need | ok_right >> full) & 1
                else _superset_closure(ok_right, full.bit_length())
            )
            # a side's height list keeps only its settled masks; an open
            # or unpaired one is None until settle_side records it
            grp = [g, need, [None] * size, [None] * size, [], [], d]
            for side, prems, heights, cover in (
                (0, lefts, left_h, cover_right),
                (1, rights, right_h, cover_left),
            ):
                for m in range(size):
                    ph = heights[m]
                    if ph is None or not cover >> (need & ~m) & 1:
                        continue
                    if ph == _OPEN:
                        wait(prems[m], (grp, side, m), joined)
                    else:
                        settle_side(grp, side, m, ph)
            return lookups

        def settle(bound: float) -> None:
            """Settle every queued goal whose key is at most `bound`."""
            while heap and heap[0][0] <= bound:
                _, h, g = heapq.heappop(heap)
                if g in settled:
                    continue
                settled[g] = h
                for c, dc in waiting.get(g, ()):
                    if c not in settled:
                        heapq.heappush(heap, (1 + h + dc, 1 + h, c))
                for grp, side, m in joined.get(g, ()):
                    if grp[0] not in settled:
                        settle_side(grp, side, m, h)

        def record_floors(done: int) -> None:
            """With `done` whole levels expanded, a goal still unsettled at
            depth k has minimal height above done - k.  Floors of 0 are left
            out: a search settles each axiom it discovers at once, so a goal
            that stays open is never an axiom."""
            floors = self._floors
            for g, k in depth.items():
                if k < done and g not in settled and floors.get(g, 0) < done - k:
                    floors[g] = done - k

        discover(root, 0)
        d = 0
        while fresh:
            level, fresh = fresh, []
            stopped = False
            for g in level:
                expanded.append(g)
                singles, splits = self._blocks(g)
                for _, (p,) in singles:
                    visits += 1
                    ph = look(p)
                    if ph is None:
                        continue
                    if ph == _OPEN:
                        wait(p, (g, d), waiting)
                    else:
                        heapq.heappush(heap, (1 + ph + d, 1 + ph, g))
                for _, (free, groups) in splits:
                    for lefts, rights in groups:
                        visits += open_group(g, free, lefts, rights)
                if not splits:
                    kept[g] = singles
                # every explored goal is looked up, so this bounds them too
                if visits > cap:
                    raise ResourceLimitError(
                        f"one query made more than the cap of {cap} premise lookups"
                    )
                # every queued goal of key at most d + 1 is now exact
                if heap and heap[0][0] <= d + 1:
                    settle(d + 1)
                if not stopped and root in settled:
                    touched.update(depth)
                    hand_over()
                    visits = yield visits, True
                    stopped = True
            d += 1
            if stopped or d == levels:
                record_floors(d)
                hand_over()
                break
        else:
            settle(math.inf)
            # Everything explored but never settled is underivable: the
            # whole finite space below it has been exhausted.
            for g in depth:
                if g not in settled:
                    settled[g] = None
        touched.update(depth)
        yield visits, False

    def _extract(self, root: tuple, effort: _Effort) -> Derivation:
        """The derivation of a goal settled provable: at each node of
        height h, the first instance in generation order whose premises'
        minimal heights realise h, whatever the memo holds.

        h is minimal, so an instance realises it exactly when its premises
        are all derivable below h.  Only Ax realises height 0.  A premise no
        search has settled has minimal height at least h - 1 (see the module
        docstring), and one whose floor is h - 1 or more does not realise h;
        on an instance whose settled premises are all below h,
        `_open_below` decides the other open ones.  A goal the query's
        searches handed over in `effort.built` reads its instances there;
        any other builds them.  The walk keeps its own stacks, so the
        derivation may be as deep as the interner allows.
        """
        settled = self._heights
        built = effort.built
        # the nodes in preorder, as (goal, rule, premise count): a node's
        # instance is chosen, then each premise's subtree, left to right
        chosen = []
        todo = [root]
        while todo:
            g = todo.pop()
            h = settled[g]
            if h == 0:
                rule, prems = _AX, ()
            else:
                for rule, prems in built.get(g) or self._instances(g):
                    known = [settled.get(p, _OPEN) for p in prems]
                    if None in known or max(known) >= h:
                        continue
                    if all(hp != _OPEN or self._open_below(p, h, effort) for p, hp in zip(prems, known)):
                        break
                else:
                    raise AssertionError(
                        f"no rule instance realises height {h} for {print_sequent(self._goal_sequent(g))}"
                    )
            chosen.append((g, rule, len(prems)))
            todo += reversed(prems)
        # built in reverse preorder, a node finds its premises' derivations
        # on top of `done`, the first premise's last
        done: list[Derivation] = []
        for g, rule, n in reversed(chosen):
            premises = done[len(done) - n:]
            del done[len(done) - n:]
            premises.reverse()
            done.append(Derivation(self._goal_sequent(g), RULE_NAMES[rule], premises))
        return done[0]

    def _open_below(self, p: tuple, h: int, effort: _Effort) -> bool:
        """Whether a premise p of a goal settled at height h, which no
        search had settled and so has minimal height at least h - 1, has
        minimal height h - 1.

        A floor of h - 1 or more answers no at once.  Otherwise first the
        query's searches that stopped inside a level finish it, which
        settles p or gives it a floor of h - 1 when a goal they settled
        needs it.  Only if p is still open below that floor does a search
        from p, limited to h - 1 levels, decide it.
        """
        if self._floors.get(p, 0) >= h - 1:
            return False
        settled = self._heights
        unfinished = effort.unfinished
        while unfinished:
            search = unfinished.pop()
            effort.lookups, _ = search.send(effort.lookups)
            next(search, None)  # let it return
        hp = settled.get(p, _OPEN)
        if hp == _OPEN and self._floors.get(p, 0) < h - 1:
            effort.lookups += 1
            self._solve(p, effort, h - 1)
            hp = settled.get(p, _OPEN)
        return hp != _OPEN and hp is not None and hp < h


def backward_instances(goal: Sequent, mode: str = MODES[0]) -> list[tuple[str, tuple[Sequent, ...]]]:
    """Every rule instance concluding `goal`, as (rule, premises) pairs,
    each once, in the engine's generation order."""
    eng = Engine(mode)
    g = eng._intern_goal(goal)
    return [
        (RULE_NAMES[rule], tuple(eng._goal_sequent(p) for p in prems))
        for rule, prems in dict.fromkeys(eng._instances(g))
    ]


def decide(goal: Sequent, mode: str = MODES[0], memo_cap: int = DEFAULT_MEMO_CAP) -> DecisionResult:
    """Decide one sequent with a fresh engine."""
    return Engine(mode, memo_cap).decide(goal)
