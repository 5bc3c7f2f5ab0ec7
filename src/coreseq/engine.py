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

The forward closure at the bottom of the module is an independent oracle:
it saturates the sequent space over a fixed formula universe by applying
the rules forwards, and must agree with the backward engine on every
query whose formulas come from that universe.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .kernel import Derivation, RULE_NAMES
from .syntax import (
    And,
    Atom,
    Formula,
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
    weight,
)

DEFAULT_MEMO_CAP = 10_000_000

# Truth tables are 2**atoms bits wide; past this many atoms the classical
# filter is off.
TABLE_ATOM_CEILING = 16

_ABSURD = -1

_KATOM, _KNEG, _KAND, _KOR, _KIMP = range(5)

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


class ResourceLimitError(RuntimeError):
    """Search or saturation exceeded its configured size cap."""


@dataclass(frozen=True)
class SearchStats:
    goals_expanded: int
    distinct_goals: int
    max_weight_seen: int
    mode: str


@dataclass(frozen=True)
class Provable:
    derivation: Derivation
    min_height: int
    stats: SearchStats

    @property
    def is_provable(self) -> bool:
        return True


@dataclass(frozen=True)
class Unprovable:
    certificate: SearchStats
    # (atom name, truth value) pairs sorted by name, set when the goal is
    # classically invalid: the valuation satisfies the antecedent and
    # falsifies the succedent (or, for the absurdity marker, just
    # satisfies the antecedent)
    countervaluation: Optional[tuple[tuple[str, bool], ...]] = None

    @property
    def is_provable(self) -> bool:
        return False


DecisionResult = Union[Provable, Unprovable]


class _FormulaTable:
    """Structural interner: formulas as integer ids with child-id tables.

    `truth[i]` is formula i's truth table: bit v is its value under the
    valuation that makes atom k true exactly when bit k of v is set, atoms
    numbered in `atoms` order.  `full` has a bit for every valuation; past
    TABLE_ATOM_CEILING atoms it and every table are 0.
    """

    def __init__(self):
        self.by_formula: dict[Formula, int] = {}
        self.obj: list[Formula] = []
        self.kind: list[int] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.fweight: list[int] = []
        self.rank: list[tuple[int, str]] = []
        self.truth: list[int] = []
        self.atoms: list[int] = []
        self.full = 1

    def intern(self, f: Formula) -> int:
        i = self.by_formula.get(f)
        if i is not None:
            return i
        truth = self.truth
        if isinstance(f, Atom):
            node = (_KATOM, -1, -1)
            table = self._new_atom()
        elif isinstance(f, Neg):
            node = (_KNEG, self.intern(f.sub), -1)
            table = self.full ^ truth[node[1]]
        else:
            a, b = self.intern(f.left), self.intern(f.right)
            if isinstance(f, And):
                node = (_KAND, a, b)
                table = truth[a] & truth[b]
            elif isinstance(f, Or):
                node = (_KOR, a, b)
                table = truth[a] | truth[b]
            else:
                node = (_KIMP, a, b)
                table = (self.full ^ truth[a]) | truth[b]
        i = len(self.obj)
        self.obj.append(f)
        self.kind.append(node[0])
        self.left.append(node[1])
        self.right.append(node[2])
        self.fweight.append(weight(f))
        self.rank.append((-weight(f), print_formula(f)))
        truth.append(table)
        if node[0] == _KATOM:
            self.atoms.append(i)
        self.by_formula[f] = i
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


def _splits(elements: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All ordered pairs (D, G) of sub-tuples with D | G == the elements."""
    pairs = [((), ())]
    for x in elements:
        pairs = [
            p
            for d, g in pairs
            for p in ((d + (x,), g + (x,)), (d + (x,), g), (d, g + (x,)))
        ]
    return pairs


class Engine:
    """Memoizing decision engine for one succedent mode.

    Verdicts and minimal heights persist across queries; they are pure
    facts about sequents, so sharing the table never changes results.
    `memo_cap` bounds the goals one query explores, not the table, so it
    does not depend on earlier queries either.
    Not thread-safe: one instance serves one thread, and its caller owns it.
    """

    def __init__(self, mode: str = "tennant", memo_cap: int = DEFAULT_MEMO_CAP):
        if mode not in ("tennant", "strict-table"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.memo_cap = memo_cap
        self._t = _FormulaTable()
        self._heights: dict[tuple, Optional[int]] = {}

    # -- public API --

    def decide(self, goal: Sequent) -> DecisionResult:
        g = self._intern_goal(goal)
        stats = self._solve(g)
        h = self._heights[g]
        if h is None:
            return Unprovable(stats, self._countervaluation(g))
        return Provable(self._extract(g), h, stats)

    def is_provable(self, goal: Sequent) -> bool:
        return self.min_height(goal) is not None

    def min_height(self, goal: Sequent) -> Optional[int]:
        g = self._intern_goal(goal)
        self._solve(g)
        return self._heights[g]

    # -- representation --

    def _intern_goal(self, s: Sequent) -> tuple:
        t = self._t
        ants = tuple(sorted((t.intern(f) for f in s.antecedent), key=t.rank.__getitem__))
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

    def _countervaluation(self, g: tuple) -> Optional[tuple[tuple[str, bool], ...]]:
        """The goal's atoms valued by its lowest failing row, if it has one."""
        rows = self._failing_rows(g)
        if not rows:
            return None
        v = (rows & -rows).bit_length() - 1
        t = self._t
        ants, succ = g
        mentioned = {
            f
            for i in (ants if succ == _ABSURD else ants + (succ,))
            for f in subformulas(t.obj[i])
        }
        return tuple(sorted(
            (t.obj[i].name, bool(v >> k & 1))
            for k, i in enumerate(t.atoms)
            if t.obj[i] in mentioned
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

    def _instances(self, g: tuple) -> list[tuple[int, tuple[tuple, ...]]]:
        """Every rule instance concluding this goal, grouped in rule order.

        Within a rule, instances follow the canonical generation order:
        principals in antecedent order, discharged premise variants before
        retaining ones, splits in product order.
        """
        t = self._t
        kind, left, right = t.kind, t.left, t.right
        ants, succ = g
        blocks: list[list] = [[] for _ in range(11)]

        if succ == _ABSURD:
            for f in ants:
                if kind[f] == _KNEG:
                    a = left[f]
                    blocks[_LNEG].append((_LNEG, ((_remove(ants, f), a),)))
                    blocks[_LNEG].append((_LNEG, ((ants, a),)))
        else:
            if len(ants) == 1 and ants[0] == succ:
                blocks[_AX].append((_AX, ()))
            sk = kind[succ]
            if sk == _KNEG:
                a = left[succ]
                if a not in ants:
                    blocks[_RNEG].append((_RNEG, ((self._insert(ants, a), _ABSURD),)))
            elif sk == _KAND:
                a, b = left[succ], right[succ]
                for d, gg in _splits(ants):
                    blocks[_RAND].append((_RAND, ((d, a), (gg, b))))
            elif sk == _KOR:
                blocks[_ROR1].append((_ROR1, ((ants, left[succ]),)))
                blocks[_ROR2].append((_ROR2, ((ants, right[succ]),)))
            elif sk == _KIMP:
                a, b = left[succ], right[succ]
                blocks[_RIMPA].append((_RIMPA, ((self._insert(ants, a), _ABSURD),)))
                if a not in ants:
                    blocks[_RIMPB].append((_RIMPB, ((ants, b),)))
                    blocks[_RIMPB].append((_RIMPB, ((self._insert(ants, a), b),)))

        left_absurd_ok = succ != _ABSURD or self.mode == "tennant"
        combos = (
            ((_ABSURD, _ABSURD),)
            if succ == _ABSURD
            else ((succ, succ), (succ, _ABSURD), (_ABSURD, succ))
        )

        for f in ants:
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
                            prem = self._insert(prem, x)
                        blocks[_LAND].append((_LAND, ((prem, succ),)))
            elif k == _KOR:
                a, b = left[f], right[f]
                for base in (_remove(ants, f), ants):
                    for d, gg in _splits(base):
                        p1 = self._insert(d, a)
                        p2 = self._insert(gg, b)
                        for s1, s2 in combos:
                            blocks[_LOR].append((_LOR, ((p1, s1), (p2, s2))))
            elif k == _KIMP and left_absurd_ok:
                a, b = left[f], right[f]
                for base in (_remove(ants, f), ants):
                    for d, gg in _splits(base):
                        blocks[_LIMP].append(
                            (_LIMP, ((d, a), (self._insert(gg, b), succ)))
                        )

        seen = set()
        out = []
        for block in blocks:
            for inst in block:
                if inst not in seen:
                    seen.add(inst)
                    out.append(inst)
        return out

    # -- solving --

    def _solve(self, root: tuple) -> SearchStats:
        settled = self._heights
        failing_rows = self._failing_rows
        visits = 1
        maxw = self._goal_weight(root)
        if root not in settled and failing_rows(root):
            settled[root] = None  # classically invalid, so underivable
        if root in settled:
            return SearchStats(visits, 1, maxw, self.mode)

        # Explore the reachable instance hypergraph.
        # instance record: [conclusion, premises, unresolved, max_premise_height]
        instances: list[list] = []
        watchers: dict[tuple, list[int]] = {}
        heap: list[tuple[int, int, tuple]] = []
        tick = itertools.count()
        nodes: set[tuple] = {root}
        touched_settled: set[tuple] = set()
        stack = [root]
        while stack:
            g = stack.pop()
            w = self._goal_weight(g)
            if w > maxw:
                maxw = w
            for _rule, prems in self._instances(g):
                unresolved = 0
                maxh = 0
                dead = False
                for p in prems:
                    visits += 1
                    if p not in settled:
                        if p in nodes or not failing_rows(p):
                            continue
                        settled[p] = None  # classically invalid, so underivable
                    touched_settled.add(p)
                    ph = settled[p]
                    if ph is None:
                        dead = True
                        break
                    if ph > maxh:
                        maxh = ph
                if dead:
                    continue
                idx = len(instances)
                rec = [g, prems, unresolved, maxh]
                for p in prems:
                    if p not in settled:
                        rec[2] += 1
                        watchers.setdefault(p, []).append(idx)
                        if p not in nodes:
                            nodes.add(p)
                            stack.append(p)
                instances.append(rec)
                if rec[2] == 0:
                    h = 1 + maxh if prems else 0
                    heapq.heappush(heap, (h, next(tick), g))
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
            for idx in watchers.get(g, ()):
                rec = instances[idx]
                rec[2] -= 1
                if h > rec[3]:
                    rec[3] = h
                if rec[2] == 0 and rec[0] not in settled:
                    heapq.heappush(heap, (1 + rec[3], next(tick), rec[0]))

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
        for rule, prems in self._instances(g):
            maxh = 0
            ok = True
            for p in prems:
                ph = settled.get(p)
                if ph is None:
                    ok = False
                    break
                if ph > maxh:
                    maxh = ph
            if not ok:
                continue
            cand = 1 + maxh if prems else 0
            if cand == h:
                return Derivation(
                    self._goal_sequent(g),
                    RULE_NAMES[rule],
                    tuple(self._extract(p) for p in prems),
                )
        raise AssertionError(
            f"no rule instance realises height {h} for {print_sequent(self._goal_sequent(g))}"
        )


def backward_instances(goal: Sequent, mode: str = "tennant") -> list[tuple[str, tuple[Sequent, ...]]]:
    """Every rule instance concluding `goal`, as (rule, premises) pairs."""
    eng = Engine(mode)
    g = eng._intern_goal(goal)
    return [
        (RULE_NAMES[rule], tuple(eng._goal_sequent(p) for p in prems))
        for rule, prems in eng._instances(g)
    ]


def decide(goal: Sequent, mode: str = "tennant", memo_cap: int = DEFAULT_MEMO_CAP) -> DecisionResult:
    """Decide one sequent with a fresh engine."""
    return Engine(mode, memo_cap).decide(goal)


def provable_subsequents(
    s: Sequent,
    mode: str = "tennant",
    engine: Optional[Engine] = None,
) -> list[tuple[Sequent, DecisionResult]]:
    """Decide every subsequent (antecedent subset, original-or-absurd succedent).

    Returns the provable ones, sorted by weight then canonical text.
    """
    if len(s.antecedent) > 12:
        raise ValueError("antecedent too large for exhaustive subsequent analysis (max 12)")
    eng = engine or Engine(mode)
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
    mode: str = "tennant",
    max_size: int = 1_000_000,
) -> frozenset[Sequent]:
    """Saturate the derivable sequents over a fixed formula universe.

    The sequent space is: antecedent a subset of the universe, succedent a
    universe member or the absurdity marker.  Saturation runs the rules
    forwards to a fixpoint over that whole finite space (derivations of
    in-space sequents never leave it, since every rule reads its material
    from subformulas of its conclusion); the returned set is then filtered
    to sequents within the weight cap.

    Antecedents are universe-index bitmasks internally, succedents indexes
    (-1 for the absurdity marker).
    """
    if mode not in ("tennant", "strict-table"):
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
    index = {f: i for i, f in enumerate(univ)}
    bit = [1 << i for i in range(len(univ))]
    tennant = mode == "tennant"

    ABS = -1
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

    derived: set[tuple[int, int]] = set()
    queue: deque[tuple[int, int]] = deque()
    by_succ: dict[int, list[int]] = {}    # succedent index -> antecedent masks
    by_member: dict[int, list[tuple[int, int]]] = {}

    def emit(mask: int, succ: int) -> None:
        key = (mask, succ)
        if key in derived:
            return
        if len(derived) >= max_size:
            raise ResourceLimitError(f"closure exceeded the cap of {max_size} sequents")
        derived.add(key)
        queue.append(key)

    for f in univ:
        i = index[f]
        emit(bit[i], i)  # Ax

    def unary(mask: int, succ: int) -> None:
        if succ != ABS:
            n = neg_of.get(succ)
            if n is not None:
                emit(mask | bit[n], ABS)  # LNeg
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
                n = neg_of.get(i)
                if n is not None:
                    emit(mask & ~low, n)  # RNeg
            for (c, a, b) in imps:
                if mask >> a & 1:  # RImpA
                    emit(mask & ~bit[a], c)
                    emit(mask, c)
        if succ != ABS or tennant:
            for (c, a, b) in conjs:  # LAnd
                if mask >> a & 1 or mask >> b & 1:
                    emit((mask & ~bit[a] & ~bit[b]) | bit[c], succ)

    def combine(mask: int, succ: int) -> None:
        # join the newly processed sequent, in both premise roles, against
        # everything registered so far (itself included): each ordered pair
        # of processed sequents is attempted exactly once
        if succ != ABS:
            for (c, a, b) in conjs_by_left.get(succ, ()):  # RAnd
                for q in by_succ.get(b, ()):
                    emit(mask | q, c)
            for (c, a, b) in conjs_by_right.get(succ, ()):
                for q in by_succ.get(a, ()):
                    emit(q | mask, c)
        for (d, a, b) in disjs:  # LOr
            if mask >> a & 1:
                for (q, qs) in by_member.get(b, ()):
                    if succ == ABS or qs == ABS or succ == qs:
                        s = succ if succ != ABS else qs
                        for d1 in (mask & ~bit[a], mask):
                            for g1 in (q & ~bit[b], q):
                                emit(d1 | g1 | bit[d], s)
            if mask >> b & 1:
                for (q, qs) in by_member.get(a, ()):
                    if succ == ABS or qs == ABS or succ == qs:
                        s = qs if qs != ABS else succ
                        for d1 in (q & ~bit[a], q):
                            for g1 in (mask & ~bit[b], mask):
                                emit(d1 | g1 | bit[d], s)
        if succ != ABS:
            for (c, a, b) in imps_by_left.get(succ, ()):  # LImp, new as minor
                for (q, qs) in by_member.get(b, ()):
                    if qs != ABS or tennant:
                        for g in (q & ~bit[b], q):
                            emit(mask | g | bit[c], qs)
        if succ != ABS or tennant:
            for (c, a, b) in imps:  # LImp, new as major
                if mask >> b & 1:
                    for q in by_succ.get(a, ()):
                        for g in (mask & ~bit[b], mask):
                            emit(q | g | bit[c], succ)

    while queue:
        mask, succ = queue.popleft()
        unary(mask, succ)
        by_succ.setdefault(succ, []).append(mask)
        rest = mask
        while rest:
            low = rest & -rest
            by_member.setdefault(low.bit_length() - 1, []).append((mask, succ))
            rest ^= low
        combine(mask, succ)

    out = []
    for (mask, succ) in derived:
        ant = tuple(univ[i] for i in range(len(univ)) if mask >> i & 1)
        seq = Sequent(ant, None if succ == ABS else univ[succ])
        if sequent_weight(seq) <= weight_cap:
            out.append(seq)
    return frozenset(out)
