"""Independent intuitionistic oracle.

Derivability is decided with a contraction-free calculus in the G4ip
style: the left-conditional rule splits into four cases by the shape of
the conditional's antecedent, so backward search terminates without
loop checking.  Negation is translated as implication into a reserved
falsum constant, and an absurdity-marker succedent is decided as "the
antecedent is inconsistent".

Bounded Kripke countermodel search (finite rooted partial orders with
persistent valuations) provides a second, semantic route to
unprovability; `cross_check` compares the Core engine against the
intuitionistic verdicts over a bounded sequent family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Iterable, Optional

from .engine import Engine
from .syntax import (
    And,
    Atom,
    Formula,
    Neg,
    Or,
    Sequent,
    formula_universe,
    print_formula,
    print_sequent,
    sequent_family,
    subformulas,
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
        self._formula_ids: dict[Formula, int] = {}
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
        i = self._formula_ids.get(f)
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
        self._formula_ids[f] = i
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
        for (u, v) in self.order:
            if not self.valuation[u] <= self.valuation[v]:
                raise ValueError(f"valuation is not persistent along {u} <= {v}")

    def above(self, w: int) -> list[int]:
        return [v for v in self.worlds if (w, v) in self.order]

    def forces(self, w: int, f: Formula) -> bool:
        if isinstance(f, Atom):
            return f.name in self.valuation[w]
        if isinstance(f, And):
            return self.forces(w, f.left) and self.forces(w, f.right)
        if isinstance(f, Or):
            return self.forces(w, f.left) or self.forces(w, f.right)
        if isinstance(f, Neg):
            return all(not self.forces(v, f.sub) for v in self.above(w))
        return all(
            not self.forces(v, f.left) or self.forces(v, f.right) for v in self.above(w)
        )

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


def countermodel(s: Sequent, max_worlds: int) -> Optional[KripkeModel]:
    """Smallest bounded model whose root forces the antecedent but not the
    succedent; None when no model up to the bound exists."""
    if max_worlds > 5:
        raise ValueError("countermodel search is bounded at 5 worlds")
    formulas = s.antecedent if s.succedent is None else s.antecedent + (s.succedent,)
    atoms = sorted({g.name for f in formulas for g in subformulas(f) if isinstance(g, Atom)})
    for k in range(1, max_worlds + 1):
        for order in _rooted_posets(k):
            upsets = _upsets(k, order)
            for assignment in _assignments(atoms, upsets):
                valuation = tuple(
                    frozenset(a for a in atoms if w in assignment[a]) for w in range(k)
                )
                model = KripkeModel(tuple(range(k)), order, valuation)
                if all(model.forces(0, f) for f in s.antecedent) and (
                    s.succedent is None or not model.forces(0, s.succedent)
                ):
                    return model
    return None


def _assignments(atoms: list[str], upsets: list[frozenset[int]]):
    if not atoms:
        yield {}
        return
    first, rest = atoms[0], atoms[1:]
    for u in upsets:
        for tail in _assignments(rest, upsets):
            yield {first: u, **tail}


# ---------------------------------------------------------------------------
# Cross-checking the Core engine against the oracle


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
    mode: str = "tennant",
    engine: Optional[Engine] = None,
    prover: Optional[IntProver] = None,
) -> CrossCheckReport:
    """Compare Core and intuitionistic derivability over a bounded family.

    Core-provable must imply intuitionistically provable (any violation is
    a hard failure for the caller to enforce); the divergence list holds
    the intuitionistially provable sequents Core rejects.  Empty-antecedent
    sequents are additionally held to exact agreement.
    """
    eng = engine or Engine(mode)
    prv = prover or IntProver()
    family = sequent_family(universe, weight_cap)
    results = [(eng.is_provable(s), prv.decide(s)) for s in family]

    report = CrossCheckReport(
        universe_size=len(set(universe)),
        weight_cap=weight_cap,
        mode=mode,
        total=len(family),
        core_provable=sum(1 for c, _ in results if c),
        int_provable=sum(1 for _, i in results if i),
    )
    for s, (core_ok, int_ok) in zip(family, results):
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
    mode: str = "tennant",
    engine: Optional[Engine] = None,
    prover: Optional[IntProver] = None,
) -> TheoremhoodReport:
    """Exhaustive comparison of Core and intuitionistic theoremhood.

    Enumerates every empty-antecedent sequent over the given atoms up to
    the formula weight bound and records any disagreement.
    """
    names = tuple(sorted(set(atoms)))
    eng = engine or Engine(mode)
    prv = prover or IntProver()
    pool = formula_universe(names, max_weight)
    report = TheoremhoodReport(names, max_weight, mode, len(pool), 0, 0)
    for f in pool:
        s = Sequent((), f)
        core_ok = eng.is_provable(s)
        int_ok = prv.decide(s)
        report.core_theorems += core_ok
        report.int_theorems += int_ok
        if core_ok != int_ok:
            report.disagreements.append(f)
    return report
