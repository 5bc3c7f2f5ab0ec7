"""Independent intuitionistic oracle.

Derivability is decided with a contraction-free calculus in the G4ip
style: the left-conditional rule splits into four cases by the shape of
the conditional's antecedent, so backward search terminates without
loop checking.  Negation is translated as implication into a reserved
falsum constant, and an absurdity-marker succedent is decided as "the
antecedent is inconsistent".

Bounded Kripke countermodel search (finite rooted partial orders with
persistent valuations) provides a second, semantic route to
unprovability.  It forces one frame against all of its valuations at once:
a subformula's forcing at a world is an int with one bit per assignment of
upsets to atoms, built bottom-up from its children's ints by bitwise
operations, so the search builds no model per valuation and does not
recurse on formula depth.  Bitsets stop at ASSIGNMENT_WIDTH bits; atoms
beyond them are enumerated outside.  `KripkeModel.forces` evaluates one
model pointwise, also without recursion, and shares no code with the
search, so it can re-check what the search returns.

`cross_check` compares the Core engine against the intuitionistic verdicts
over a bounded sequent family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import permutations, product
from typing import Iterable, Iterator, Optional

from .engine import Engine
from .syntax import (
    And,
    Atom,
    Formula,
    Imp,
    Neg,
    Or,
    Sequent,
    formula_universe,
    print_formula,
    print_sequent,
    sequent_family,
)

# ---------------------------------------------------------------------------
# Contraction-free prover


class IntProver:
    """Decision procedure for propositional intuitionistic derivability.

    Formulas are interned to integer ids; antecedents are sorted id
    multisets.  Verdicts are memoized and shared across queries.  Not
    thread-safe: one instance serves one thread, and its caller owns it.
    """

    def __init__(self):
        self._ids: dict[tuple, int] = {}
        self._kind: list[str] = []
        self._left: list = []
        self._right: list = []
        # keyed by canonical text, the formula's identity, whose str hash
        # is cached
        self._formula_ids: dict[str, int] = {}
        self._memo: dict[tuple, bool] = {}
        self._bot = self._node(("bot", None, None))

    def _node(self, key: tuple) -> int:
        i = self._ids.get(key)
        if i is None:
            i = len(self._kind)
            self._ids[key] = i
            self._kind.append(key[0])
            self._left.append(key[1])
            self._right.append(key[2])
        return i

    def _translate(self, f: Formula) -> int:
        i = self._formula_ids.get(f.text)
        if i is not None:
            return i
        if isinstance(f, Atom):
            i = self._node(("atom", f.name, None))
        elif isinstance(f, Neg):
            i = self._node(("imp", self._translate(f.sub), self._bot))
        elif isinstance(f, And):
            i = self._node(("and", self._translate(f.left), self._translate(f.right)))
        elif isinstance(f, Or):
            i = self._node(("or", self._translate(f.left), self._translate(f.right)))
        else:
            i = self._node(("imp", self._translate(f.left), self._translate(f.right)))
        self._formula_ids[f.text] = i
        return i

    def decide(self, s: Sequent) -> bool:
        ants = tuple(sorted(self._translate(f) for f in s.antecedent))
        goal = self._bot if s.succedent is None else self._translate(s.succedent)
        return self._prove(ants, goal)

    def _prove(self, ants: tuple[int, ...], goal: int) -> bool:
        key = (ants, goal)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        result = self._step(ants, goal)
        self._memo[key] = result
        return result

    def _step(self, ants: tuple[int, ...], goal: int) -> bool:
        kind, left, right = self._kind, self._left, self._right

        if self._bot in ants:
            return True
        if kind[goal] == "atom" and goal in ants:
            return True

        # invertible left rules, one step at a time
        for i, a in enumerate(ants):
            k = kind[a]
            if k == "and":
                rest = ants[:i] + ants[i + 1 :] + (left[a], right[a])
                return self._prove(tuple(sorted(rest)), goal)
            if k == "imp":
                la = left[a]
                lk = kind[la]
                if lk == "bot":
                    return self._prove(ants[:i] + ants[i + 1 :], goal)
                if lk == "atom":
                    if la in ants:
                        rest = ants[:i] + ants[i + 1 :] + (right[a],)
                        return self._prove(tuple(sorted(rest)), goal)
                    continue
                if lk == "and":
                    curried = self._node(
                        ("imp", left[la], self._node(("imp", right[la], right[a])))
                    )
                    rest = ants[:i] + ants[i + 1 :] + (curried,)
                    return self._prove(tuple(sorted(rest)), goal)
                if lk == "or":
                    rest = ants[:i] + ants[i + 1 :] + (
                        self._node(("imp", left[la], right[a])),
                        self._node(("imp", right[la], right[a])),
                    )
                    return self._prove(tuple(sorted(rest)), goal)

        # invertible right rules
        gk = kind[goal]
        if gk == "imp":
            rest = tuple(sorted(ants + (left[goal],)))
            return self._prove(rest, right[goal])
        if gk == "and":
            return self._prove(ants, left[goal]) and self._prove(ants, right[goal])

        # disjunction on the left branches but is still invertible
        for i, a in enumerate(ants):
            if kind[a] == "or":
                rest1 = tuple(sorted(ants[:i] + ants[i + 1 :] + (left[a],)))
                rest2 = tuple(sorted(ants[:i] + ants[i + 1 :] + (right[a],)))
                return self._prove(rest1, goal) and self._prove(rest2, goal)

        # choice points: right disjunction and nested conditionals
        if gk == "or":
            if self._prove(ants, left[goal]) or self._prove(ants, right[goal]):
                return True
        for i, a in enumerate(ants):
            if kind[a] == "imp" and kind[left[a]] == "imp":
                c, d, b = left[left[a]], right[left[a]], right[a]
                rest = ants[:i] + ants[i + 1 :]
                first = tuple(sorted(rest + (self._node(("imp", d, b)),)))
                if self._prove(first, left[a]) and self._prove(
                    tuple(sorted(rest + (b,))), goal
                ):
                    return True
        return False


def decide_int(s: Sequent, prover: Optional[IntProver] = None) -> bool:
    """True iff the sequent is intuitionistically derivable."""
    return (prover or IntProver()).decide(s)


# ---------------------------------------------------------------------------
# Kripke countermodels

#: Widest valuation bitset, in bits.  On a frame with U upsets the trailing
#: m atoms, for the largest m with U^m at most this width, share one
#: bitset; the leading atoms are fixed one assignment at a time.
ASSIGNMENT_WIDTH = 1 << 12

#: Worlds in the largest frame `countermodel` searches.
MAX_WORLDS = 5


@lru_cache(maxsize=256)
def _frame_above(worlds: tuple[int, ...], order: frozenset) -> tuple[tuple[int, ...], ...]:
    """The worlds above each world of a Kripke frame, after checking its
    shape: worlds 0..k-1 with k >= 1 and an order on them that is reflexive
    and transitive with 0 below every world; ValueError otherwise.  O(k^3),
    paid once per distinct frame while it stays among the most recent 256;
    a rejected frame is not cached."""
    k = len(worlds)
    if k == 0 or worlds != tuple(range(k)):
        raise ValueError(f"worlds must be 0..k-1 for some k >= 1, got {worlds}")
    above: list[set[int]] = [set() for _ in worlds]
    for (u, v) in order:
        if u not in worlds or v not in worlds:
            raise ValueError(f"order relates ({u}, {v}) outside the worlds")
        above[u].add(v)
    for u, up in enumerate(above):
        if u not in up:
            raise ValueError(f"order is not reflexive at {u}")
        if u not in above[0]:
            raise ValueError(f"world 0 is not below world {u}")
        for v in up:
            if not above[v] <= up:
                raise ValueError(f"order is not transitive above {u} <= {v}")
    return tuple(tuple(sorted(up)) for up in above)


@dataclass(frozen=True)
class KripkeModel:
    """Finite reflexive-transitive order with a persistent valuation.

    World 0 is the root (below every world).  ``order`` holds all pairs
    (u, v) with u <= v.
    """

    worlds: tuple[int, ...]
    order: frozenset[tuple[int, int]]
    valuation: tuple[frozenset[str], ...]

    def __post_init__(self):
        """Reject anything but a Kripke model: a frame `_frame_above`
        accepts, one valuation per world, and a valuation persistent along
        the order.  O(k^2) once the frame has been checked."""
        above = _frame_above(tuple(self.worlds), frozenset(self.order))
        k = len(above)
        if len(self.valuation) != k:
            raise ValueError(f"{k} worlds need {k} valuations, got {len(self.valuation)}")
        for u, up in enumerate(above):
            for v in up:
                if not self.valuation[u] <= self.valuation[v]:
                    raise ValueError(f"valuation is not persistent along {u} <= {v}")

    def above(self, w: int) -> list[int]:
        return [v for v in self.worlds if (w, v) in self.order]

    def forces(self, w: int, f: Formula) -> bool:
        """Whether world w forces f, by the forcing clauses applied at one
        world of this one model at a time.  An explicit stack of (world,
        formula) pairs stands in for recursion, so depth costs memory, not
        call frames.  This re-checks `countermodel` and shares none of its
        code."""
        above = {u: self.above(u) for u in self.worlds}
        known: dict[tuple[int, Formula], bool] = {}
        stack = [(w, f)]
        while stack:
            u, g = stack[-1]
            if (u, g) in known:
                stack.pop()
                continue
            if isinstance(g, Atom):
                known[u, g] = g.name in self.valuation[u]
                stack.pop()
                continue
            if isinstance(g, Neg):
                needs = [(v, g.sub) for v in above[u]]
            elif isinstance(g, (And, Or)):
                needs = [(u, g.left), (u, g.right)]
            else:
                needs = [p for v in above[u] for p in ((v, g.left), (v, g.right))]
            missing = [p for p in needs if p not in known]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            if isinstance(g, Neg):
                known[u, g] = not any(known[v, g.sub] for v in above[u])
            elif isinstance(g, And):
                known[u, g] = known[u, g.left] and known[u, g.right]
            elif isinstance(g, Or):
                known[u, g] = known[u, g.left] or known[u, g.right]
            else:
                known[u, g] = all(not known[v, g.left] or known[v, g.right] for v in above[u])
        return known[w, f]

    def to_json(self) -> dict:
        return {
            "worlds": list(self.worlds),
            "order": sorted([u, v] for (u, v) in self.order),
            "valuation": [sorted(v) for v in self.valuation],
        }


def _rooted_posets(k: int) -> list[frozenset[tuple[int, int]]]:
    """Partial orders on 0..k-1 with 0 as minimum, up to isomorphism."""
    base = frozenset((i, i) for i in range(k)) | frozenset((0, j) for j in range(k))
    pairs = [(i, j) for i in range(1, k) for j in range(1, k) if i != j]
    out = []
    seen = set()
    for mask in range(1 << len(pairs)):
        rel = set(base)
        rel.update(pairs[t] for t in range(len(pairs)) if mask >> t & 1)
        if any((j, i) in rel for (i, j) in rel if i != j):
            continue
        if any(
            (i, l) not in rel for (i, j) in rel for (j2, l) in rel if j2 == j
        ):
            continue
        if k > 1:
            canonical = min(
                tuple(
                    sorted((perm[u] if u else 0, perm[v] if v else 0) for (u, v) in rel)
                )
                for p in permutations(range(1, k))
                for perm in [dict(zip(range(1, k), p))]
            )
        else:
            canonical = tuple(sorted(rel))
        if canonical in seen:
            continue
        seen.add(canonical)
        out.append(frozenset(rel))
    return out


def _upsets(k: int, order: frozenset[tuple[int, int]]) -> list[frozenset[int]]:
    out = []
    for mask in range(1 << k):
        s = frozenset(w for w in range(k) if mask >> w & 1)
        if all(v in s for u in s for (u2, v) in order if u2 == u):
            out.append(s)
    return out


@cache
def _frames(k: int) -> tuple:
    """The frames on k worlds in search order, each as (order, upsets, the
    worlds above each world).  Built on first use and kept; `countermodel`
    asks only for k <= MAX_WORLDS, so the table holds at most that many
    entries."""
    return tuple(
        (
            order,
            tuple(_upsets(k, order)),
            tuple(tuple(v for v in range(k) if (w, v) in order) for w in range(k)),
        )
        for order in _rooted_posets(k)
    )


@cache
def _packed_atoms(k: int, i: int, m: int) -> tuple[tuple[int, ...], ...]:
    """The bitsets of the trailing m atoms on frame i of k worlds, one per
    atom and world: bit j is set when assignment j gives the atom an upset
    holding the world.  Frame i's U upsets number the assignments of m atoms
    in base U, the first atom most significant, so an atom's bitset repeats
    a block of U digit masks.  Bounded like `_frames`, with m <= 12."""
    upsets = _frames(k)[i][1]
    u = len(upsets)
    full = (1 << u**m) - 1
    out = []
    for t in range(m):
        stride = u ** (m - 1 - t)
        repeat = full // ((1 << stride * u) - 1)
        digit = (1 << stride) - 1
        out.append(tuple(
            repeat * sum(digit << d * stride for d, up in enumerate(upsets) if w in up)
            for w in range(k)
        ))
    return tuple(out)


_ATOM, _NEG, _AND, _OR, _IMP = range(5)
_BINARY_OPS = {And: _AND, Or: _OR, Imp: _IMP}


def _steps(formulas: Iterable[Formula]) -> tuple[list[tuple], dict[str, int]]:
    """The distinct subformulas as steps (op, a, b), children before parents,
    and the step index of each formula's text.  An atom step holds the
    atom's name; the others hold their children's step indices."""
    steps: list[tuple] = []
    index: dict[str, int] = {}
    stack = [(f, False) for f in formulas]
    while stack:
        f, ready = stack.pop()
        if f.text in index:
            continue
        if isinstance(f, Atom):
            step = (_ATOM, f.name, None)
        elif isinstance(f, Neg):
            if not ready:
                stack += ((f, True), (f.sub, False))
                continue
            step = (_NEG, index[f.sub.text], None)
        else:
            if not ready:
                stack += ((f, True), (f.left, False), (f.right, False))
                continue
            step = (_BINARY_OPS[type(f)], index[f.left.text], index[f.right.text])
        index[f.text] = len(steps)
        steps.append(step)
    return steps, index


def _refuted(steps, ants, succ, atom_masks, above, full) -> int:
    """Forces every step at every world of one frame, a bit per assignment,
    and returns the assignments whose root forces each antecedent step and
    not the succedent step (None for the absurdity marker)."""
    forced: list[list[int]] = []
    worlds = range(len(above))
    for op, a, b in steps:
        if op == _ATOM:
            masks = atom_masks[a]
        elif op == _AND:
            x, y = forced[a], forced[b]
            masks = [x[w] & y[w] for w in worlds]
        elif op == _OR:
            x, y = forced[a], forced[b]
            masks = [x[w] | y[w] for w in worlds]
        else:
            # ~A and A -> B hold at w where no world above w forces A, or
            # forces A but not B
            if op == _NEG:
                fails = forced[a]
            else:
                x, y = forced[a], forced[b]
                fails = [x[w] & ~y[w] for w in worlds]
            masks = []
            for up in above:
                bad = 0
                for v in up:
                    bad |= fails[v]
                masks.append(full ^ bad)
        forced.append(masks)
    hit = full
    for i in ants:
        hit &= forced[i][0]
    if succ is not None:
        hit &= ~forced[succ][0]
    return hit


def countermodel(s: Sequent, max_worlds: int) -> Optional[KripkeModel]:
    """The smallest Kripke model of at most `max_worlds` worlds whose root
    forces every antecedent formula but not the succedent (for the absurdity
    marker: forces the antecedent); None when there is none.

    Smallest means fewest worlds, then the order of `_rooted_posets`, then
    the order of assignments: each atom (sorted by name) takes one of the
    frame's upsets (in `_upsets` order) as the worlds where it holds, and
    assignments run in product order with the first atom most significant.

    One frame is forced against all of its assignments at once.  With U
    upsets, the trailing m atoms (the largest m with U^m <= ASSIGNMENT_WIDTH)
    are packed into bitsets of U^m bits, one bit per assignment of them.  An
    atom's bitset at a world repeats a digit mask; `&` and `|` are bitwise;
    `~A` and `A -> B` at a world combine the bitsets of the worlds above it.
    The leading atoms are fixed one assignment at a time, in product order,
    each as an all-or-nothing bitset per world.  The lowest bit of (root
    forces the antecedent, not the succedent) is the first model of the
    frame in assignment order.  Per frame and leading assignment the cost is
    about (subformulas x k^2) big-int operations on bitsets of at most
    ASSIGNMENT_WIDTH bits, and memory is (subformulas x k) such bitsets.
    Subformulas are visited children first, so nothing recurses on formula
    depth.
    """
    if max_worlds > MAX_WORLDS:
        raise ValueError(f"countermodel search is bounded at {MAX_WORLDS} worlds")
    formulas = s.antecedent if s.succedent is None else s.antecedent + (s.succedent,)
    steps, index = _steps(formulas)
    ants = [index[f.text] for f in s.antecedent]
    succ = None if s.succedent is None else index[s.succedent.text]
    atoms = sorted(a for op, a, _ in steps if op == _ATOM)
    n = len(atoms)
    for k in range(1, max_worlds + 1):
        for i, (order, upsets, above) in enumerate(_frames(k)):
            u = len(upsets)
            m = 0
            while m < n and u ** (m + 1) <= ASSIGNMENT_WIDTH:
                m += 1
            full = (1 << u**m) - 1
            atom_masks = dict(zip(atoms[n - m :], _packed_atoms(k, i, m)))
            for lead in product(range(u), repeat=n - m):
                for a, d in zip(atoms, lead):
                    atom_masks[a] = [full if w in upsets[d] else 0 for w in range(k)]
                hit = _refuted(steps, ants, succ, atom_masks, above, full)
                if hit:
                    low = (hit & -hit).bit_length() - 1
                    digits = [*lead, *(low // u ** (m - 1 - t) % u for t in range(m))]
                    valuation = tuple(
                        frozenset(a for a, d in zip(atoms, digits) if w in upsets[d])
                        for w in range(k)
                    )
                    return KripkeModel(tuple(range(k)), order, valuation)
    return None


# ---------------------------------------------------------------------------
# Cross-checking the Core engine against the oracle


def _compare(goals: Iterable[Sequent], engine: Engine, prover: IntProver) -> Iterator[tuple[Sequent, Optional[int], bool]]:
    """Each goal, in order, with its Core minimal height (None when
    underivable) and its intuitionistic verdict."""
    for s in goals:
        yield s, engine.min_height(s), prover.decide(s)


@dataclass
class CrossCheckReport:
    universe_size: int
    weight_cap: int
    mode: str
    total: int
    core_provable: int
    int_provable: int
    violations: list[Sequent] = field(default_factory=list)
    divergences: list[Sequent] = field(default_factory=list)
    empty_antecedent_total: int = 0
    theorem_disagreements: list[Sequent] = field(default_factory=list)
    # (sequent, Core minimal height or None, intuitionistic verdict) per
    # family member, in family order; not part of the JSON form
    rows: list[tuple[Sequent, Optional[int], bool]] = field(default_factory=list, repr=False)

    def to_json(self) -> dict:
        return {
            "universe_size": self.universe_size,
            "weight_cap": self.weight_cap,
            "mode": self.mode,
            "total": self.total,
            "core_provable": self.core_provable,
            "int_provable": self.int_provable,
            "violations": [print_sequent(s) for s in self.violations],
            "divergences": [print_sequent(s) for s in self.divergences],
            "empty_antecedent_total": self.empty_antecedent_total,
            "theorem_disagreements": [print_sequent(s) for s in self.theorem_disagreements],
        }


def cross_check(
    universe: Iterable[Formula],
    weight_cap: int,
    *,
    engine: Optional[Engine] = None,
    prover: Optional[IntProver] = None,
) -> CrossCheckReport:
    """Compare Core and intuitionistic derivability over a bounded family.

    Core-provable must imply intuitionistically provable (any violation is
    a hard failure for the caller to enforce); the divergence list holds
    the intuitionistially provable sequents Core rejects.  Empty-antecedent
    sequents are additionally held to exact agreement.
    """
    eng = engine or Engine()
    pool = list(universe)
    rows = list(_compare(sequent_family(pool, weight_cap), eng, prover or IntProver()))
    report = CrossCheckReport(
        universe_size=len(set(pool)),
        weight_cap=weight_cap,
        mode=eng.mode,
        total=len(rows),
        core_provable=sum(h is not None for _, h, _ in rows),
        int_provable=sum(int_ok for _, _, int_ok in rows),
        rows=rows,
    )
    for s, h, int_ok in rows:
        core_ok = h is not None
        if core_ok and not int_ok:
            report.violations.append(s)
        if int_ok and not core_ok:
            report.divergences.append(s)
        if not s.antecedent:
            report.empty_antecedent_total += 1
            if core_ok != int_ok:
                report.theorem_disagreements.append(s)
    return report


@dataclass
class TheoremhoodReport:
    atoms: tuple[str, ...]
    max_weight: int
    mode: str
    total: int
    core_theorems: int
    int_theorems: int
    disagreements: list[Formula] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "atoms": list(self.atoms),
            "max_weight": self.max_weight,
            "mode": self.mode,
            "total": self.total,
            "core_theorems": self.core_theorems,
            "int_theorems": self.int_theorems,
            "disagreements": [print_formula(f) for f in self.disagreements],
        }


def theoremhood_report(
    atoms: Iterable[str],
    max_weight: int,
    *,
    engine: Optional[Engine] = None,
    prover: Optional[IntProver] = None,
) -> TheoremhoodReport:
    """Exhaustive comparison of Core and intuitionistic theoremhood.

    Enumerates every empty-antecedent sequent over the given atoms up to
    the formula weight bound and records any disagreement.
    """
    names = tuple(sorted(set(atoms)))
    eng = engine or Engine()
    pool = formula_universe(names, max_weight)
    report = TheoremhoodReport(names, max_weight, eng.mode, len(pool), 0, 0)
    for s, h, int_ok in _compare((Sequent((), f) for f in pool), eng, prover or IntProver()):
        core_ok = h is not None
        report.core_theorems += core_ok
        report.int_theorems += int_ok
        if core_ok != int_ok:
            report.disagreements.append(s.succedent)
    return report
