"""Propositional formulas and single-succedent sequents.

Concrete syntax (ASCII with Unicode aliases):

    formula   ::=  disj ( "->" formula )?          right associative
    disj      ::=  conj ( "|" conj )*               left associative
    conj      ::=  unary ( "&" unary )*             left associative
    unary     ::=  "~" unary | atom | "(" formula ")"
    sequent   ::=  [formula ("," formula)*] "|-" [formula]

Aliases: ~/¬  &/∧  |/∨  ->/→  |-/⊢.  Precedence: ~ > & > | > ->.

A sequent's succedent is either a formula or the absurdity marker (an
empty right-hand side, written ``|-`` with nothing after it).  The
marker is represented as ``None`` and never occurs inside a formula.
Antecedents are finite sets, stored canonically ordered and
duplicate-free.

A formula is identified by its canonical text.  Each node computes its
weight and its text once, at construction, from its children's fields, so
neither is recomputed and neither recurses; `==` and `hash` are those of
the text.  Text works as identity because the printer is injective: its
output parses back to the same tree.  That needs every atom name to be an
identifier (a letter, then letters, digits or underscores: what the
tokenizer reads as one IDENT token), so `Atom` rejects any other name with
`ValueError`.  Each node stores its own text, so a chain of depth d holds
O(d^2) characters: as much as a cache of printed subformulas would, but
freed with the formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional


class ParseError(ValueError):
    """Malformed input; carries the 0-based offset of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


# ---------------------------------------------------------------------------
# Formulas

# Precedence levels used by the printer; higher binds tighter.
_PREC_IMP, _PREC_OR, _PREC_AND, _PREC_NEG, _PREC_ATOM = 1, 2, 3, 4, 5


def _paren(f: Formula, level: int) -> str:
    """f's text, parenthesised unless f binds tighter than `level`."""
    return f.text if f._prec > level else f"({f.text})"


@dataclass(frozen=True, eq=False)
class Formula:
    """A formula node.  `weight` (the node count) and `text` (the canonical
    form) are set once, at construction, from the children's fields."""

    weight: int = field(init=False, repr=False)
    text: str = field(init=False, repr=False)

    def __eq__(self, other):
        if isinstance(other, Formula):
            return self.text == other.text
        return NotImplemented

    def __hash__(self):
        return hash(self.text)

    def _set(self, weight: int, text: str) -> None:
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "text", text)


@dataclass(frozen=True, eq=False)
class Atom(Formula):
    name: str
    _prec = _PREC_ATOM

    def __post_init__(self):
        name = self.name
        if not (isinstance(name, str) and name[:1].isalpha() and _ident_end(name, 0) == len(name)):
            raise ValueError(f"atom name {name!r} is not an identifier")
        self._set(1, name)


@dataclass(frozen=True, eq=False)
class Neg(Formula):
    sub: Formula
    _prec = _PREC_NEG

    def __post_init__(self):
        self._set(1 + self.sub.weight, "~" + _paren(self.sub, _PREC_NEG - 1))


@dataclass(frozen=True, eq=False)
class _Binary(Formula):
    left: Formula
    right: Formula

    def __post_init__(self):
        a, b, prec = self.left, self.right, self._prec
        # the conditional associates to the right, the others to the left
        if prec == _PREC_IMP:
            text = f"{_paren(a, prec)} {self._op} {b.text}"
        else:
            text = f"{_paren(a, prec - 1)} {self._op} {_paren(b, prec)}"
        self._set(1 + a.weight + b.weight, text)


class And(_Binary):
    _prec, _op = _PREC_AND, "&"


class Or(_Binary):
    _prec, _op = _PREC_OR, "|"


class Imp(_Binary):
    _prec, _op = _PREC_IMP, "->"


def weight(f: Formula) -> int:
    """Node count of the formula tree; every formula has weight >= 1."""
    return f.weight


def print_formula(f: Formula) -> str:
    """Minimal-parentheses canonical form; reparses to the same tree."""
    return f.text


def formula_key(f: Formula) -> tuple[int, str]:
    """Sort key for enumerations: weight ascending, then canonical text."""
    return (f.weight, f.text)


def antecedent_key(f: Formula) -> tuple[int, str]:
    """Canonical antecedent order: weight descending, then canonical text."""
    return (-f.weight, f.text)


# ---------------------------------------------------------------------------
# Sequents

#: Type of the right-hand side: a formula, or ``None`` for the absurdity
#: marker (empty succedent).
Succedent = Optional[Formula]


@dataclass(frozen=True)
class Sequent:
    """Finite-set antecedent plus a single succedent.

    The antecedent may be passed as any iterable; it is deduplicated and
    canonically ordered on construction, so structurally equal sequents
    compare and hash equal.
    """

    antecedent: tuple[Formula, ...]
    succedent: Succedent

    def __post_init__(self):
        ant = tuple(sorted(set(self.antecedent), key=antecedent_key))
        object.__setattr__(self, "antecedent", ant)

    def antecedent_set(self) -> frozenset[Formula]:
        return frozenset(self.antecedent)

    def __str__(self) -> str:
        return print_sequent(self)


def print_sequent(s: Sequent) -> str:
    left = ", ".join(print_formula(f) for f in s.antecedent)
    if s.succedent is None:
        return f"{left} |-"
    if not left:
        return f"|- {print_formula(s.succedent)}"
    return f"{left} |- {print_formula(s.succedent)}"


def sequent_weight(s: Sequent) -> int:
    """Sum of antecedent weights plus succedent weight (marker counts 0)."""
    total = sum(weight(f) for f in s.antecedent)
    if s.succedent is not None:
        total += weight(s.succedent)
    return total


# ---------------------------------------------------------------------------
# Parsing

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


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    f = p.formula()
    kind, value, pos = p.peek()
    if kind != "EOF":
        raise ParseError(f"unexpected trailing input {value!r}", pos)
    return f


def parse_sequent(text: str) -> Sequent:
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


# ---------------------------------------------------------------------------
# Bounded enumerations


def formula_universe(atoms: Iterable[str], max_weight: int) -> list[Formula]:
    """All formulas over the given atoms up to the weight bound.

    The result is subformula-closed and sorted by (weight, canonical text).
    Each call enumerates afresh and keeps nothing, so the formulas are
    freed with the caller's list.
    """
    # table[w] lists all formulas of weight exactly w
    table: list[list[Formula]] = [[] for _ in range(max_weight + 1)]
    if max_weight >= 1:
        table[1] = [Atom(a) for a in sorted(set(atoms))]
    for w in range(2, max_weight + 1):
        layer: list[Formula] = [Neg(f) for f in table[w - 1]]
        for ctor in (And, Or, Imp):
            for lw in range(1, w - 1):
                for lf in table[lw]:
                    for rf in table[w - 1 - lw]:
                        layer.append(ctor(lf, rf))
        table[w] = layer
    out = [f for layer in table[1:] for f in layer]
    out.sort(key=formula_key)
    return out


def subformulas(f: Formula) -> frozenset[Formula]:
    acc: set[Formula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in acc:
            continue
        acc.add(g)
        if isinstance(g, Neg):
            stack.append(g.sub)
        elif not isinstance(g, Atom):
            stack.append(g.left)
            stack.append(g.right)
    return frozenset(acc)


def is_subformula_closed(universe: Iterable[Formula]) -> bool:
    u = set(universe)
    return all(subformulas(f) <= u for f in u)


def sequent_family(universe: Iterable[Formula], weight_cap: int) -> list[Sequent]:
    """Every well-formed sequent over the universe within the weight cap.

    Antecedents range over all subsets of the universe, succedents over the
    universe plus the absurdity marker; the degenerate empty judgment is
    excluded.  Sorted by (sequent weight, canonical text).
    """
    pool = sorted(set(universe), key=formula_key)
    out: list[Sequent] = []

    def extend(start: int, chosen: list[Formula], used: int) -> None:
        budget = weight_cap - used
        if chosen:
            out.append(Sequent(tuple(chosen), None))
        for f in pool:
            if weight(f) > budget:
                break
            out.append(Sequent(tuple(chosen), f))
        for i in range(start, len(pool)):
            f = pool[i]
            w = weight(f)
            if w > budget:
                break
            chosen.append(f)
            extend(i + 1, chosen, used + w)
            chosen.pop()

    extend(0, [], 0)
    out.sort(key=lambda s: (sequent_weight(s), print_sequent(s)))
    return out
