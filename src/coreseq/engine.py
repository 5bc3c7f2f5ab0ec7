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
"A generalization of Dijkstra's algorithm", IPL 6(1), 1977): the group
keeps the heights of its settled masks, and when a side settles at height
h it is paired with the settled partners covering the rest of need,
giving the conclusion 1 + max(h, best partner); a partner settled earlier
in the same query is at most h, so the first one found is the best.  The
cost is 2^n per side plus the pairs whose sides both settle, where
listing the pairs would build and look up 3^n of them (times the combos).
`_instances` expands the same groups into pairs, in the order the product
recurrence gives, for derivation extraction and `backward_instances`.

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
Above TABLE_ATOM_CEILING atoms the tables would be too wide to pay off and
the filter is switched off; verdicts, minimal heights and derivations are
the same either way, because a pruned goal was never derivable.

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

The forward closure at the bottom of the module is an independent oracle:
it saturates the sequent space over a fixed formula universe by applying
the rules forwards, and must agree with the backward engine on every
query whose formulas come from that universe.  It keeps its sets of
antecedents as bitsets over the universe's subsets, joins a new sequent
with a whole partner set in a few big-int operations, and shares no code
with the search.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterable, Optional, Union

from .kernel import MODES, RULE_NAMES, Derivation
from .syntax import (
    And,
    Atom,
    Formula,
    FrozenSlots,
    Imp,
    Neg,
    Or,
    Sequent,
    formula_key,
    is_subformula_closed,
    print_formula,
    print_sequent,
    sequent_weight,
    subformulas,
)

DEFAULT_MEMO_CAP = 10_000_000

# Truth tables are 2**atoms bits wide; past this many atoms the classical
# filter is off.
TABLE_ATOM_CEILING = 16

# forward_closure keeps bitsets 2**formulas bits wide; past this many
# universe formulas it refuses the universe.
CLOSURE_FORMULA_CEILING = 20

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

# the two-premise rules, whose instances are split pairs, and the rest
_SPLIT_RULES = (_RAND, _LOR, _LIMP)
_ONE_PREMISE_RULES = tuple(r for r in range(11) if r not in _SPLIT_RULES)

# the answer of a premise lookup or of the root step for a goal that may
# still be derived
_OPEN = -1


class ResourceLimitError(RuntimeError):
    """Search or saturation exceeded its configured size cap."""


class _Record(FrozenSlots):
    """Value semantics over the slots, in slot order, as a frozen dataclass
    gives them: `==` between instances of one class, `hash` of the field
    tuple, a `Name(field=value, ...)` repr, and copy and pickle through the
    positional constructor.  Each subclass writes its slots in `__init__`
    through the slot descriptors."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class SearchStats(_Record):
    """Effort of one query.

    `goals_expanded` counts the premise lookups the search made (one per
    side premise of a split group, not one per premise pair; a group
    (rule, principal, succedent combo) serves both the discharged and the
    retained variant of LOr and LImp), plus one for the root.
    `distinct_goals` counts the goals the query explored plus the
    already-settled goals it looked up; a root settled before the
    query, classically invalid or disconnected, counts 1 and 1.
    `max_weight_seen` is the largest weight of an explored goal.
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
    # when the goal is classically invalid: the valuation satisfies the
    # antecedent and falsifies the succedent (or, for the absurdity
    # marker, just satisfies the antecedent).
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


class _FormulaTable:
    """Interner: formulas as integer ids, keyed by their canonical text,
    with child-id tables.

    `truth[i]` is formula i's truth table: bit v is its value under the
    valuation that makes atom k true exactly when bit k of v is set, atoms
    numbered in `atoms` order.  `full` has a bit for every valuation; past
    TABLE_ATOM_CEILING atoms it and every table are 0.  `atom_bits[i]` has
    bit k set when formula i mentions atom k; it has no ceiling.
    """

    def __init__(self):
        self.by_text: dict[str, int] = {}
        self.obj: list[Formula] = []
        self.kind: list[int] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.fweight: list[int] = []
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
        w = f.weight
        self.fweight.append(w)
        # antecedent_key, built inline
        self.rank.append((-w, f.text))
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


def _remove(ants: tuple[int, ...], x: int) -> tuple[int, ...]:
    return tuple(a for a in ants if a != x)


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


def _product_pairs(family, live=None) -> list[tuple[tuple, tuple]]:
    """A split family's premise pairs, in product order.

    A family is (free, groups): `groups` lists (lefts, rights) groups, one
    per succedent combo, each side indexed by the bitmask of antecedent
    elements its premise keeps, and `free` is the mask of the principal's
    bit for LOr and LImp, 0 for RAnd.  With need = full & ~free, a pair
    (D, G) has D | G == need (the principal discharged) or D | G == full
    (retained).  The discharged pairs come first, then the retained ones;
    each part is ordered by its base-3 key, one digit per base element, the
    first element most significant: 0 when both sides keep it, 1 when only
    the left does, 2 when only the right does.  A discharged pair's free
    element is kept by neither side and gets digit 0, which leaves the order
    of the base without the principal.  Combos vary fastest.  With `live`,
    only pairs whose two premises pass it are listed.
    """
    free, groups = family
    size = len(groups[0][0])
    full = size - 1
    need = full & ~free
    n = full.bit_length()
    digit = [0] * size  # the key of a mask's elements, each with digit 1
    for m in range(1, size):
        low = m & -m
        digit[m] = digit[m ^ low] + 3 ** (n - low.bit_length())
    found = []
    for combo, (lefts, rights) in enumerate(groups):
        ok_right = None if live is None else [live(p) for p in rights]
        for d in range(size):
            if live is not None and not live(lefts[d]):
                continue
            comp = need & ~d
            spare = d | free
            shared = spare
            while True:
                gm = comp | shared
                if ok_right is None or ok_right[gm]:
                    found.append(
                        ((d | gm) & free, digit[d & ~gm] + 2 * digit[gm & ~d], combo, d, gm)
                    )
                if not shared:
                    break
                shared = (shared - 1) & spare
    found.sort()
    return [
        (groups[combo][0][d], groups[combo][1][gm]) for _retained, _key, combo, d, gm in found
    ]


class Engine:
    """Memoizing decision engine for one succedent mode.

    Verdicts and minimal heights persist across queries; they are pure
    facts about sequents, so sharing the table never changes results.
    `memo_cap` bounds the goals one query explores, not the table, so it
    does not depend on earlier queries either.
    Not thread-safe: one instance serves one thread, and its caller owns it.
    """

    def __init__(self, mode: str = MODES[0], memo_cap: int = DEFAULT_MEMO_CAP):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.memo_cap = memo_cap
        self._t = _FormulaTable()
        self._heights: dict[tuple, Optional[int]] = {}

    # -- public API --

    def decide(self, goal: Sequent) -> DecisionResult:
        g = self._intern_goal(goal)
        h = self._settle_root(g)
        if h == _OPEN:
            stats = self._solve(g)
            h = self._heights[g]
        else:
            stats = SearchStats(1, 1, self._goal_weight(g), self.mode)
        if h is None:
            cv = self._countervaluation(g)
            return Unprovable(stats, cv, cv is None and self._disconnected(g))
        return Provable(self._extract(g), h, stats)

    def is_provable(self, goal: Sequent) -> bool:
        return self.min_height(goal) is not None

    def min_height(self, goal: Sequent) -> Optional[int]:
        """The goal's minimal height, None when it is underivable.  Reports
        no statistics, so a root the root step settles costs no search."""
        g = self._intern_goal(goal)
        h = self._settle_root(g)
        if h == _OPEN:
            self._solve(g)
            h = self._heights[g]
        return h

    # -- representation --

    def _intern_goal(self, s: Sequent) -> tuple:
        t = self._t
        # a sequent keeps its antecedent in antecedent_key order, the rank
        ants = tuple(t.intern(f) for f in s.antecedent)
        succ = _ABSURD if s.succedent is None else t.intern(s.succedent)
        return (ants, succ)

    def _goal_sequent(self, g: tuple) -> Sequent:
        obj = self._t.obj
        ants, succ = g
        return Sequent(
            tuple(obj[i] for i in ants), None if succ == _ABSURD else obj[succ]
        )

    def _goal_weight(self, g: tuple) -> int:
        fw = self._t.fweight
        ants, succ = g
        total = sum(fw[i] for i in ants)
        if succ != _ABSURD:
            total += fw[succ]
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
        """The goal's atoms valued by its lowest failing row, if it has one."""
        rows = self._failing_rows(g)
        if not rows:
            return None
        v = (rows & -rows).bit_length() - 1
        t = self._t
        bits = t.atom_bits
        ants, succ = g
        mentioned = 0 if succ == _ABSURD else bits[succ]
        for a in ants:
            mentioned |= bits[a]
        return tuple(sorted(
            (t.obj[i].name, bool(v >> k & 1))
            for k, i in enumerate(t.atoms)
            if mentioned >> k & 1
        ))

    def _insert(self, ants: tuple[int, ...], x: int) -> tuple[int, ...]:
        if x in ants:
            return ants
        rank = self._t.rank
        rx = rank[x]
        for pos in range(len(ants)):
            if rx < rank[ants[pos]]:
                return ants[:pos] + (x,) + ants[pos:]
        return ants + (x,)

    # -- instance enumeration (id space) --

    def _blocks(self, g: tuple) -> list[list]:
        """The rule instances concluding this goal, one block per rule.

        The block of Ax or a one-premise rule lists premise tuples.  The
        block of a split rule (RAnd, LOr, LImp) lists split families in the
        form `_product_pairs` reads, one per principal, in antecedent order.
        A family's groups span the whole antecedent: for LOr and LImp the
        principal's bit is free, so one group holds both the discharged and
        the retained pairs, and each premise antecedent is built once per
        subset of the antecedent, never once per pair or per variant.
        Within the other blocks, entries follow the canonical generation
        order: principals in antecedent order, discharged premise variants
        before retaining ones.
        """
        t = self._t
        kind, left, right = t.kind, t.left, t.right
        insert = self._insert
        ants, succ = g
        blocks: list[list] = [[] for _ in range(11)]
        subs = None  # every sub-tuple of the antecedent, built on first use

        if succ == _ABSURD:
            for f in ants:
                if kind[f] == _KNEG:
                    a = left[f]
                    blocks[_LNEG] += (((_remove(ants, f), a),), ((ants, a),))
        else:
            if len(ants) == 1 and ants[0] == succ:
                blocks[_AX].append(())
            sk = kind[succ]
            if sk == _KNEG:
                a = left[succ]
                if a not in ants:
                    blocks[_RNEG].append(((insert(ants, a), _ABSURD),))
            elif sk == _KAND:
                a, b = left[succ], right[succ]
                subs = _subsets(ants)
                blocks[_RAND].append((0, (([(d, a) for d in subs], [(d, b) for d in subs]),)))
            elif sk == _KOR:
                blocks[_ROR1].append(((ants, left[succ]),))
                blocks[_ROR2].append(((ants, right[succ]),))
            elif sk == _KIMP:
                a, b = left[succ], right[succ]
                blocks[_RIMPA].append(((insert(ants, a), _ABSURD),))
                if a not in ants:
                    blocks[_RIMPB].append(((ants, b),))
                    blocks[_RIMPB].append(((insert(ants, a), b),))

        left_absurd_ok = succ != _ABSURD or self.mode == "tennant"

        def lor_groups(la: list, rb: list) -> tuple:
            if succ == _ABSURD:
                return (([(x, _ABSURD) for x in la], [(y, _ABSURD) for y in rb]),)
            ls = [(x, succ) for x in la]
            rs = [(y, succ) for y in rb]
            return (
                (ls, rs),
                (ls, [(y, _ABSURD) for y in rb]),
                ([(x, _ABSURD) for x in la], rs),
            )

        for pos, f in enumerate(ants):
            k = kind[f]
            if k == _KAND and left_absurd_ok:
                a, b = left[f], right[f]
                for base in (_remove(ants, f), ants):
                    if a in base or b in base:
                        continue
                    inserts = ((a,),) if a == b else ((a,), (b,), (a, b))
                    for ins in inserts:
                        prem = base
                        for x in ins:
                            prem = insert(prem, x)
                        blocks[_LAND].append(((prem, succ),))
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
                    blocks[_LOR].append((free, lor_groups(la, rb)))
                else:
                    minor = [(d, a) for d in subs]
                    major = [(insert(d, b), succ) for d in subs]
                    blocks[_LIMP].append((free, ((minor, major),)))
        return blocks

    def _instances(self, g: tuple, live=None) -> list[tuple[int, tuple[tuple, ...]]]:
        """Every rule instance concluding this goal, grouped in rule order.

        Within a rule, instances follow the canonical generation order:
        principals in antecedent order, discharged premise variants before
        retaining ones, split pairs in product order (see `_product_pairs`);
        a repeated instance keeps its first place.  With `live`, only the
        instances whose premises all pass it are listed, in the same order.
        """
        seen = set()
        out = []
        for rule, block in enumerate(self._blocks(g)):
            if rule in _SPLIT_RULES:
                cands = [p for family in block for p in _product_pairs(family, live)]
            elif live is None:
                cands = block
            else:
                cands = [p for p in block if all(map(live, p))]
            for prems in cands:
                inst = (rule, prems)
                if inst not in seen:
                    seen.add(inst)
                    out.append(inst)
        return out

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

    def _solve(self, root: tuple) -> SearchStats:
        """Explore the goals below an open root (one `_settle_root` left
        open) and settle their minimal heights.

        One-premise instances wait on their premise.  A split rule is a join
        of two sides (Knuth's generalisation of Dijkstra's algorithm): each
        split group keeps the heights of its settled side premises, and a
        side settling at height h is joined with the settled partners that
        cover the rest of the group's need mask, never with a listed pair.
        """
        settled = self._heights
        failing_rows, disconnected = self._failing_rows, self._disconnected
        visits = 1
        maxw = 0  # the root is explored first

        heap: list[tuple[int, int, tuple]] = []
        tick = itertools.count()
        nodes: set[tuple] = {root}
        touched_settled: set[tuple] = set()
        # premise -> conclusions of the one-premise instances waiting on it
        waiting: dict[tuple, list[tuple]] = {}
        # premise -> (group, side, mask) slots it fills in split groups; a
        # group is [conclusion, need mask, left heights, right heights,
        # settled left masks, settled right masks]
        joined: dict[tuple, list[tuple[list, int, int]]] = {}

        stack = [root]

        def look(p: tuple) -> Optional[int]:
            """One premise lookup: the premise's height if it is settled
            provable, _OPEN if it may still be derived, None if it is
            underivable."""
            if p in settled:
                touched_settled.add(p)
                return settled[p]
            if p in nodes or not (failing_rows(p) or disconnected(p)):
                return _OPEN
            settled[p] = None  # classically invalid or disconnected, so underivable
            touched_settled.add(p)
            return None

        def wait(p: tuple, entry, table: dict) -> None:
            if p in table:
                table[p].append(entry)
            else:
                table[p] = [entry]
            if p not in nodes:
                nodes.add(p)
                stack.append(p)

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
            # or unpaired one is None
            grp = [g, need, left_h, right_h, [], []]
            for side, prems, heights, cover in (
                (0, lefts, left_h, cover_right),
                (1, rights, right_h, cover_left),
            ):
                done = grp[4 + side]
                for m in range(size):
                    ph = heights[m]
                    if ph is None:
                        continue
                    if not cover >> (need & ~m) & 1:
                        heights[m] = None
                    elif ph == _OPEN:
                        heights[m] = None
                        wait(prems[m], (grp, side, m), joined)
                    else:
                        done.append(m)
            # pairs settled on both sides before this query
            best = None
            for d in grp[4]:
                comp = need & ~d
                for gm in grp[5]:
                    if gm & comp == comp:
                        cand = max(left_h[d], right_h[gm])
                        if best is None or cand < best:
                            best = cand
            if best is not None:
                heapq.heappush(heap, (1 + best, next(tick), g))
            return lookups

        while stack:
            g = stack.pop()
            w = self._goal_weight(g)
            if w > maxw:
                maxw = w
            blocks = self._blocks(g)
            for rule in _ONE_PREMISE_RULES:
                for prems in blocks[rule]:
                    if not prems:
                        heapq.heappush(heap, (0, next(tick), g))
                        continue
                    visits += 1
                    ph = look(prems[0])
                    if ph is None:
                        continue
                    if ph == _OPEN:
                        wait(prems[0], g, waiting)
                    else:
                        heapq.heappush(heap, (1 + ph, next(tick), g))
            for rule in _SPLIT_RULES:
                for free, groups in blocks[rule]:
                    for lefts, rights in groups:
                        visits += open_group(g, free, lefts, rights)
            if len(nodes) > self.memo_cap:
                raise ResourceLimitError(
                    f"one query explored more than the cap of {self.memo_cap} goals"
                )

        # Settle provable goals in order of minimal height.
        while heap:
            h, _, g = heapq.heappop(heap)
            if g in settled:
                continue
            settled[g] = h
            for c in waiting.get(g, ()):
                if c not in settled:
                    heapq.heappush(heap, (1 + h, next(tick), c))
            for grp, side, m in joined.get(g, ()):
                c = grp[0]
                if c in settled:
                    continue
                grp[2 + side][m] = h
                grp[4 + side].append(m)
                # join with the other side's settled masks covering the
                # rest of need; one settled during this query has
                # height <= h, so it gives the best pair at once
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
                    heapq.heappush(heap, (1 + best, next(tick), c))

        # Everything explored but never settled is underivable: the whole
        # finite space below it has been exhausted.
        for g in nodes:
            if g not in settled:
                settled[g] = None

        distinct = len(nodes) + len(touched_settled - nodes)
        return SearchStats(visits, distinct, maxw, self.mode)

    def _extract(self, g: tuple) -> Derivation:
        settled = self._heights
        h = settled[g]
        for rule, prems in self._instances(g, lambda p: settled.get(p) is not None):
            cand = 1 + max(settled[p] for p in prems) if prems else 0
            if cand == h:
                return Derivation(
                    self._goal_sequent(g),
                    RULE_NAMES[rule],
                    tuple(self._extract(p) for p in prems),
                )
        raise AssertionError(
            f"no rule instance realises height {h} for {print_sequent(self._goal_sequent(g))}"
        )


def backward_instances(goal: Sequent, mode: str = MODES[0]) -> list[tuple[str, tuple[Sequent, ...]]]:
    """Every rule instance concluding `goal`, as (rule, premises) pairs."""
    eng = Engine(mode)
    g = eng._intern_goal(goal)
    return [
        (RULE_NAMES[rule], tuple(eng._goal_sequent(p) for p in prems))
        for rule, prems in eng._instances(g)
    ]


def decide(goal: Sequent, mode: str = MODES[0], memo_cap: int = DEFAULT_MEMO_CAP) -> DecisionResult:
    """Decide one sequent with a fresh engine."""
    return Engine(mode, memo_cap).decide(goal)


def provable_subsequents(s: Sequent, *, engine: Optional[Engine] = None) -> list[tuple[Sequent, DecisionResult]]:
    """Decide every subsequent (antecedent subset, original-or-absurd succedent).

    Returns the provable ones, sorted by weight then canonical text.
    """
    if len(s.antecedent) > 12:
        raise ValueError("antecedent too large for exhaustive subsequent analysis (max 12)")
    eng = engine or Engine()
    succedents: list = [s.succedent]
    if s.succedent is not None:
        succedents.append(None)
    results = []
    members = s.antecedent
    for mask in range(1 << len(members)):
        subset = tuple(members[i] for i in range(len(members)) if mask >> i & 1)
        for succ in succedents:
            if not subset and succ is None:
                continue  # ill-formed empty judgment
            sub = Sequent(subset, succ)
            res = eng.decide(sub)
            if res.is_provable:
                results.append((sub, res))
    results.sort(key=lambda pair: (sequent_weight(pair[0]), print_sequent(pair[0])))
    return results


# ---------------------------------------------------------------------------
# Forward closure: the independent saturation oracle


def forward_closure(
    universe: Iterable[Formula],
    weight_cap: int,
    mode: str = MODES[0],
    max_size: int = 1_000_000,
) -> frozenset[Sequent]:
    """Saturate the derivable sequents over a fixed formula universe.

    The sequent space is: antecedent a subset of the universe, succedent a
    universe member or the absurdity marker.  Saturation runs the rules
    forwards to a fixpoint over that whole finite space (derivations of
    in-space sequents never leave it, since every rule reads its material
    from subformulas of its conclusion); the returned set is then filtered
    to sequents within the weight cap, skipping heavier antecedents before
    any `Sequent` is built.

    With N universe formulas an antecedent is an N-bit mask, and a set of
    antecedents is a bitset over the 2**N masks: bit m is set when mask m
    is in the set.  Each succedent (a universe index, or N for the
    absurdity marker) keeps two such sets, `derived` (every sequent
    emitted) and `joined` (every sequent already processed).  Processing a
    sequent applies the one-premise rules to it alone and joins it, in
    both premise roles, with whole partner sets: adding formula i to every
    mask of a set moves the masks lacking i up by 2**i places, optionally
    dropping i moves the masks holding it down, and the masks holding i are
    the set ANDed with a fixed position mask.  Only the masks of a result
    missing from the target's `derived` set are new; they count towards
    `max_size` and wait to be processed.  Saturation ends when every
    derived sequent has been joined (semi-naive evaluation, one sequent
    against a whole set at a time; F. Bancilhon and R. Ramakrishnan, "An
    amateur's introduction to recursive query processing strategies",
    SIGMOD 1986).

    Cost: 2(N+1) bitsets of 2**N bits plus N position masks, and per join
    with a partner set four big-int operations per bit of the new mask and
    up to seven more; the weight filter reads two tables of 2**(N/2)
    entries.  Above
    CLOSURE_FORMULA_CEILING formulas the universe is refused with
    ResourceLimitError before any bitset is built.  `max_size` bounds the
    number of derived sequents in the whole space, before the weight
    filter: the call raises ResourceLimitError exactly when the closure is
    larger.  The oracle shares no search code with the engine above.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    univ = sorted(set(universe), key=formula_key)
    if not is_subformula_closed(univ):
        missing = sorted(
            {g for f in univ for g in subformulas(f)} - set(univ), key=formula_key
        )
        raise ValueError(
            "universe is not subformula-closed; missing: "
            + ", ".join(print_formula(m) for m in missing)
        )
    n = len(univ)
    if n > CLOSURE_FORMULA_CEILING:
        raise ResourceLimitError(
            f"closure universe has {n} formulas, over the ceiling of {CLOSURE_FORMULA_CEILING}"
        )
    index = {f: i for i, f in enumerate(univ)}
    bit = [1 << i for i in range(n)]
    tennant = mode == "tennant"

    ABS = n  # the absurdity marker's succedent slot
    # per-connective tables over universe indexes
    neg_of = {}          # i -> index of ~univ[i]
    conjs_by_left: dict[int, list[tuple[int, int, int]]] = {}
    conjs_by_right: dict[int, list[tuple[int, int, int]]] = {}
    conjs: list[tuple[int, int, int]] = []      # (conj, left, right)
    disjs: list[tuple[int, int, int]] = []
    imps: list[tuple[int, int, int]] = []
    imps_by_left: dict[int, list[tuple[int, int, int]]] = {}
    imps_by_right: dict[int, list[tuple[int, int, int]]] = {}
    for f in univ:
        i = index[f]
        if isinstance(f, Neg):
            neg_of[index[f.sub]] = i
        elif isinstance(f, And):
            entry = (i, index[f.left], index[f.right])
            conjs.append(entry)
            conjs_by_left.setdefault(entry[1], []).append(entry)
            conjs_by_right.setdefault(entry[2], []).append(entry)
        elif isinstance(f, Or):
            disjs.append((i, index[f.left], index[f.right]))
        elif isinstance(f, Imp):
            entry = (i, index[f.left], index[f.right])
            imps.append(entry)
            imps_by_left.setdefault(entry[1], []).append(entry)
            imps_by_right.setdefault(entry[2], []).append(entry)

    # has[i]: the set of masks holding formula i (bit i set), as a bitset
    has = []
    for i in range(n):
        pattern, period = ((1 << bit[i]) - 1) << bit[i], bit[i] << 1
        while period < 1 << n:
            pattern |= pattern << period
            period <<= 1
        has.append(pattern)

    def add(masks: int, m: int) -> int:
        # {q | m : q in masks}
        while m:
            low = m & -m
            held = masks & has[low.bit_length() - 1]
            masks = (masks ^ held) << low | held
            m ^= low
        return masks

    def or_without(masks: int, i: int) -> int:
        # masks, plus each mask holding i with i dropped
        return masks | (masks & has[i]) >> bit[i]

    def or_with(masks: int, i: int) -> int:
        # masks, plus each mask with i added
        return masks | (masks & ~has[i]) << bit[i]

    def members(masks: int) -> list[int]:
        # the masks in a bitset
        digits = bin(masks)
        top = len(digits) - 1
        out = []
        at = digits.find("1", 2)
        while at >= 0:
            out.append(top - at)
            at = digits.find("1", at + 1)
        return out

    derived = [0] * (n + 1)   # succedent -> antecedent masks emitted
    joined = [0] * (n + 1)    # succedent -> antecedent masks processed
    size = 0

    def grow(succ: int, masks: int) -> None:
        nonlocal size
        new = masks & ~derived[succ]
        if new:
            size += new.bit_count()
            if size > max_size:
                raise ResourceLimitError(f"closure exceeded the cap of {max_size} sequents")
            derived[succ] |= new

    def emit(mask: int, succ: int) -> None:
        grow(succ, 1 << mask)

    for i in range(n):
        emit(bit[i], i)  # Ax

    def unary(mask: int, succ: int) -> None:
        if succ != ABS:
            m = neg_of.get(succ)
            if m is not None:
                emit(mask | bit[m], ABS)  # LNeg
            for (d, a, b) in disjs:
                if a == succ or b == succ:
                    emit(mask, d)  # ROr
            for (c, a, b) in imps_by_right.get(succ, ()):
                emit(mask & ~bit[a], c)  # RImpB
        else:
            rest = mask
            while rest:
                low = rest & -rest
                i = low.bit_length() - 1
                rest ^= low
                m = neg_of.get(i)
                if m is not None:
                    emit(mask & ~low, m)  # RNeg
            for (c, a, b) in imps:
                if mask >> a & 1:  # RImpA
                    emit(mask & ~bit[a], c)
                    emit(mask, c)
        if succ != ABS or tennant:
            for (c, a, b) in conjs:  # LAnd
                if mask >> a & 1 or mask >> b & 1:
                    emit((mask & ~bit[a] & ~bit[b]) | bit[c], succ)

    def combine(mask: int, succ: int) -> None:
        # join the newly processed sequent, in both premise roles, with every
        # processed sequent (itself included) a whole partner set at a time,
        # so each ordered pair of processed sequents is joined exactly once
        if succ != ABS:
            for (c, a, b) in conjs_by_left.get(succ, ()):  # RAnd
                grow(c, add(joined[b], mask))
            for (c, a, b) in conjs_by_right.get(succ, ()):
                grow(c, add(joined[a], mask))
        for (d, a, b) in disjs:  # LOr
            # the new sequent holds disjunct x, its partners the other one, y;
            # a formula succedent must match, and the marker takes the other's
            for (x, y) in ((a, b), (b, a)):
                if mask >> x & 1:
                    rest = mask & ~bit[x] | bit[d]
                    if succ != ABS:
                        partners = [(succ, joined[succ] | joined[ABS])]
                    else:
                        partners = enumerate(joined)
                    for (s, qs) in partners:
                        qs &= has[y]
                        if qs:
                            grow(s, or_with(add(or_without(qs, y), rest), x))
        if succ != ABS:
            for (c, a, b) in imps_by_left.get(succ, ()):  # LImp, new as minor
                for s in range(n + 1 if tennant else n):
                    qs = joined[s] & has[b]
                    if qs:
                        grow(s, add(or_without(qs, b), mask | bit[c]))
        if succ != ABS or tennant:
            for (c, a, b) in imps:  # LImp, new as major
                if mask >> b & 1 and joined[a]:
                    grow(succ, or_with(add(joined[a], mask & ~bit[b] | bit[c]), b))

    # process every derived sequent not yet joined, until none is left
    pending = True
    while pending:
        pending = False
        for succ in range(n + 1):
            for mask in members(derived[succ] & ~joined[succ]):
                pending = True
                joined[succ] |= 1 << mask
                unary(mask, succ)
                combine(mask, succ)

    # antecedent weight by mask, looked up in two halves of the universe
    half = n // 2
    low_bits = (1 << half) - 1
    low_weight, high_weight = [0], [0]
    for f in univ[:half]:
        low_weight += [w + f.weight for w in low_weight]
    for f in univ[half:]:
        high_weight += [w + f.weight for w in high_weight]
    out = []
    for succ in range(n + 1):
        formula = None if succ == ABS else univ[succ]
        budget = weight_cap - (0 if formula is None else formula.weight)
        for mask in members(derived[succ]):
            if low_weight[mask & low_bits] + high_weight[mask >> half] <= budget:
                ant = tuple(univ[i] for i in range(n) if mask >> i & 1)
                out.append(Sequent(ant, formula))
    return frozenset(out)
