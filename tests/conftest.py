"""Shared test helpers: independent oracles and random generators."""

import itertools
import random

from coreseq import And, Atom, Imp, KripkeModel, Neg, Or, ParseError, Sequent
from coreseq.engine import backward_instances
from coreseq.kripke import _rooted_posets, _upsets
from coreseq.syntax import Formula, Succedent, subformulas


def evaluate(f, valuation):
    """Classical truth value of a formula under an atom-name valuation."""
    if isinstance(f, Atom):
        return valuation[f.name]
    if isinstance(f, Neg):
        return not evaluate(f.sub, valuation)
    left, right = evaluate(f.left, valuation), evaluate(f.right, valuation)
    if isinstance(f, And):
        return left and right
    if isinstance(f, Or):
        return left or right
    return not left or right


def sequent_atoms(s):
    formulas = s.antecedent + (() if s.succedent is None else (s.succedent,))
    return sorted({g.name for f in formulas for g in subformulas(f) if isinstance(g, Atom)})


def falsifies(valuation, s):
    """The valuation makes the whole antecedent true and the succedent
    false; for the absurdity marker, it makes the antecedent true."""
    return all(evaluate(f, valuation) for f in s.antecedent) and (
        s.succedent is None or not evaluate(s.succedent, valuation)
    )


def classically_valid(s):
    """Truth-table validity, independent of the engine's own tables."""
    names = sequent_atoms(s)
    return not any(
        falsifies(dict(zip(names, bits)), s)
        for bits in itertools.product((False, True), repeat=len(names))
    )


def atom_connected(s):
    """The formulas of the antecedent and the succedent (the antecedent
    alone under the absurdity marker), linked when they share an atom, form
    one connected graph.  Independent of the engine's atom bitsets."""
    formulas = list(s.antecedent) + ([] if s.succedent is None else [s.succedent])
    if not formulas:
        return True
    atoms = [{g for g in subformulas(f) if isinstance(g, Atom)} for f in formulas]
    reached, todo = {0}, [0]
    while todo:
        i = todo.pop()
        for j in range(len(formulas)):
            if j not in reached and atoms[i] & atoms[j]:
                reached.add(j)
                todo.append(j)
    return len(reached) == len(formulas)


def brute_countermodel(s, max_worlds):
    """Reference for `countermodel`: every frame of `_rooted_posets` and
    every assignment of its upsets to the sequent's atoms, in the documented
    order, each built as a `KripkeModel` and checked with `forces`."""
    atoms = sequent_atoms(s)
    for k in range(1, max_worlds + 1):
        for order in _rooted_posets(k):
            upsets = _upsets(k, order)
            for choice in itertools.product(upsets, repeat=len(atoms)):
                valuation = tuple(
                    frozenset(a for a, up in zip(atoms, choice) if w in up) for w in range(k)
                )
                model = KripkeModel(tuple(range(k)), order, valuation)
                if all(model.forces(0, f) for f in s.antecedent) and (
                    s.succedent is None or not model.forces(0, s.succedent)
                ):
                    return model
    return None


def splits(elements):
    """All ordered pairs (D, G) of sub-tuples with D | G == the elements, in
    product order: for each element in turn, both sides keep it, then only
    D, then only G."""
    pairs = [((), ())]
    for x in elements:
        pairs = [
            p
            for d, g in pairs
            for p in ((d + (x,), g + (x,)), (d + (x,), g), (d, g + (x,)))
        ]
    return pairs


def split_instances(goal, mode="tennant"):
    """The goal's RAnd, LOr and LImp instances as (rule, premises), rebuilt
    from `splits` over its antecedent: rules in that order, principals in
    antecedent order, the base without the principal before the base with
    it, and for LOr the succedent combos innermost.  Repeats are kept."""
    ants, succ = goal.antecedent, goal.succedent
    out = []
    if isinstance(succ, And):
        for d, g in splits(ants):
            out.append(("RAnd", (Sequent(d, succ.left), Sequent(g, succ.right))))
    combos = ((None, None),) if succ is None else ((succ, succ), (succ, None), (None, succ))
    for rule, kind in (("LOr", Or), ("LImp", Imp)):
        if kind is Imp and succ is None and mode != "tennant":
            continue
        for f in ants:
            if not isinstance(f, kind):
                continue
            a, b = f.left, f.right
            for base in (tuple(x for x in ants if x != f), ants):
                for d, g in splits(base):
                    if kind is Or:
                        for s1, s2 in combos:
                            out.append((rule, (Sequent(d + (a,), s1), Sequent(g + (b,), s2))))
                    else:
                        out.append((rule, (Sequent(d, a), Sequent(g + (b,), succ))))
    return out


def iddfs_min_height(goal, mode="tennant", max_height=12):
    """Minimal derivation height by plain iterative deepening.

    Independent of the engine's fixpoint algorithm: a direct recursive
    check of "derivable within height h" with the budget strictly
    decreasing, so no cycle handling is needed.  Returns None when no
    derivation of height <= max_height exists.
    """
    memo = {}

    def can(g, h):
        key = (g, h)
        if key in memo:
            return memo[key]
        result = False
        for _rule, prems in backward_instances(g, mode):
            if not prems:
                result = True
                break
            if h >= 1 and all(can(p, h - 1) for p in prems):
                result = True
                break
        memo[key] = result
        return result

    for h in range(max_height + 1):
        if can(goal, h):
            return h
    return None


def random_formula(rng: random.Random, atoms, max_weight):
    """Uniform-ish random formula with weight <= max_weight."""
    if max_weight <= 1 or (max_weight == 2 and rng.random() < 0.5):
        return Atom(rng.choice(atoms))
    if max_weight == 2 or rng.random() < 0.2:
        if rng.random() < 0.5:
            return Neg(random_formula(rng, atoms, max_weight - 1))
        return Atom(rng.choice(atoms))
    if rng.random() < 0.25:
        return Neg(random_formula(rng, atoms, max_weight - 1))
    ctor = rng.choice((And, Or, Imp))
    left_budget = rng.randint(1, max_weight - 2)
    left = random_formula(rng, atoms, left_budget)
    right = random_formula(rng, atoms, max_weight - 1 - left_budget)
    return ctor(left, right)


# ---------------------------------------------------------------------------
# Reference parser: the character scanner and recursive-descent parser that
# `syntax` replaced, kept as they were.  `reference_parse_formula` and
# `reference_parse_sequent` give the same results, and raise the same
# ParseError messages at the same positions, as `parse_formula` and
# `parse_sequent`; they recurse once per nesting level.

_UNICODE_ALIASES = {"¬": "~", "∧": "&", "∨": "|", "→": "->", "⊢": "|-"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Produce (kind, value, position) triples; kinds are single tags."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _UNICODE_ALIASES:
            alias = _UNICODE_ALIASES[c]
            kind = {"~": "NOT", "&": "AND", "|": "OR", "->": "IMP", "|-": "TURNSTILE"}[alias]
            tokens.append((kind, alias, i))
            i += 1
            continue
        if text.startswith("|-", i):
            tokens.append(("TURNSTILE", "|-", i))
            i += 2
            continue
        if text.startswith("->", i):
            tokens.append(("IMP", "->", i))
            i += 2
            continue
        if c == "~":
            tokens.append(("NOT", c, i))
            i += 1
            continue
        if c == "&":
            tokens.append(("AND", c, i))
            i += 1
            continue
        if c == "|":
            tokens.append(("OR", c, i))
            i += 1
            continue
        if c == "(":
            tokens.append(("LPAR", c, i))
            i += 1
            continue
        if c == ")":
            tokens.append(("RPAR", c, i))
            i += 1
            continue
        if c == ",":
            tokens.append(("COMMA", c, i))
            i += 1
            continue
        if c.isalpha():
            j = _ident_end(text, i)
            tokens.append(("IDENT", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("EOF", "", n))
    return tokens


def _ident_end(text: str, i: int) -> int:
    """The end of the identifier starting at the letter text[i]."""
    j, n = i + 1, len(text)
    while j < n and (text[j].isalnum() or text[j] == "_"):
        j += 1
    return j


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1] or 'end of input'!r}", tok[2])
        self.pos += 1
        return tok

    def formula(self) -> Formula:
        left = self.disj()
        if self.peek()[0] == "IMP":
            self.take("IMP")
            return Imp(left, self.formula())
        return left

    def disj(self) -> Formula:
        f = self.conj()
        while self.peek()[0] == "OR":
            self.take("OR")
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while self.peek()[0] == "AND":
            self.take("AND")
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "NOT":
            self.take("NOT")
            return Neg(self.unary())
        if kind == "IDENT":
            self.take("IDENT")
            return Atom(value)
        if kind == "LPAR":
            self.take("LPAR")
            f = self.formula()
            self.take("RPAR")
            return f
        raise ParseError(f"expected a formula, found {value or 'end of input'!r}", pos)


def reference_parse_formula(text: str) -> Formula:
    p = _Parser(text)
    f = p.formula()
    kind, value, pos = p.peek()
    if kind != "EOF":
        raise ParseError(f"unexpected trailing input {value!r}", pos)
    return f


def reference_parse_sequent(text: str) -> Sequent:
    p = _Parser(text)
    antecedent: list[Formula] = []
    if p.peek()[0] != "TURNSTILE":
        antecedent.append(p.formula())
        while p.peek()[0] == "COMMA":
            p.take("COMMA")
            antecedent.append(p.formula())
    _, _, turnstile_pos = p.take("TURNSTILE")
    succedent: Succedent = None
    if p.peek()[0] != "EOF":
        succedent = p.formula()
    kind, value, pos = p.peek()
    if kind != "EOF":
        raise ParseError(f"unexpected trailing input {value!r}", pos)
    if not antecedent and succedent is None:
        raise ParseError("empty judgment: no antecedent and no succedent", turnstile_pos)
    return Sequent(tuple(antecedent), succedent)
