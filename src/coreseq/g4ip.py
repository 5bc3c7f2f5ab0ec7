"""G4ip: the contraction-free intuitionistic prover.

Derivability is decided with a contraction-free calculus in the G4ip
style (Dyckhoff, JSL 57(3), 1992): the left-conditional rule splits into
four cases by the shape of the conditional's antecedent, so backward
search terminates without loop checking.  Negation is translated as
implication into a reserved falsum constant, and an absurdity-marker
succedent is decided as "the antecedent is inconsistent".

The module imports only `syntax`, so G4ip shares no code with the Core
engine or the forward closure it is compared against, nor with the
Kripke countermodels in `kripke` that give a second route to
unprovability.
"""

from __future__ import annotations

from .syntax import And, Atom, Formula, Neg, Or, Sequent


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


def decide_int(s: Sequent) -> bool:
    """True iff the sequent is intuitionistically derivable, on a fresh
    prover; share one through `IntProver().decide` instead."""
    return IntProver().decide(s)
