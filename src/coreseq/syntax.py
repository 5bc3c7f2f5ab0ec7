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
duplicate-free.  A `Sequent` is a plain object with ``__slots__`` that
holds only its two fields: its constructor deduplicates and orders the
antecedent once (an antecedent of fewer than two formulas needs neither),
no field can be assigned or deleted afterwards, and `==` and `hash` are
those of the pair (antecedent, succedent).  `ordered_sequent` takes an
antecedent that is already duplicate-free and in that order as it is.

A formula is identified by its canonical text.  Each node is a plain
object with ``__slots__`` whose constructor computes its weight and its
text once, from its children's fields, so neither is recomputed and
neither recurses; no field can be assigned or deleted afterwards, and `==`
and `hash` are those of the text.  Text works as identity because the
printer is injective: its output parses back to the same tree.  That
needs every atom name to be an identifier (a letter, then letters, digits
or underscores: what the tokenizer reads as one word), so `Atom` rejects
any other name with `ValueError`.  The parser reads an atom only from a
word that starts with a letter, which is such an identifier, so it fills
the atom's slots without checking the name again.  Each node stores its
own text, so a chain of depth d holds O(d^2) characters: as much as a
cache of printed subformulas would, but freed with the formula.

The tokenizer is one regular expression whose matches are the tokens;
whitespace matches nothing and so is skipped.  The parser is a loop over
those tokens with an explicit operator stack, so nesting depth costs
memory, not call frames; more than 10^4 levels around one atom is a
`ParseError`, and so is a parse whose node texts exceed 2^27 characters in
all, which bounds the text that deep or long chains store.  Token
positions are worked out only when a `ParseError` is raised.

A caller that parses many sequents over shared formulas, such as the nodes
of one derivation, passes one dict to `_parse_sequent_shared`.  The dict
maps the canonical text of every formula parsed so far to the formula, so
a sequent printed in `print_sequent`'s form over known formulas is built
from them with no tokenizing, and any other text goes through the parser,
which records the nodes it builds.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional


class ParseError(ValueError):
    """Malformed input; carries the 0-based offset of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


# ---------------------------------------------------------------------------
# Formulas

# Precedence levels used by the printer and the parser; higher binds tighter.
_PREC_IMP, _PREC_OR, _PREC_AND, _PREC_NEG, _PREC_ATOM = 1, 2, 3, 4, 5

# The two-character operators, then words, then any other visible character.
_TOKEN = re.compile(r"\|-|->|\w+|\S")


class FrozenSlots:
    """Base of the classes whose slots are written once, by their
    constructors through the slot descriptors, and never assigned or
    deleted afterwards."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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


class Formula(FrozenSlots):
    """A formula node.  `weight` (the node count) and `text` (the canonical
    form) are set once, at construction, from the children's fields."""

    __slots__ = ("weight", "text", "__weakref__")

    def __eq__(self, other):
        if isinstance(other, Formula):
            return self.text == other.text
        return NotImplemented

    def __hash__(self):
        return hash(self.text)

    def __repr__(self):
        return f"{type(self).__name__}({self.text!r})"

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild a formula from its text, which
        # parses back to an equal tree without recursing (up to the parser's
        # nesting bound)
        return parse_formula, (self.text,)


class Atom(Formula):
    __slots__ = ("name",)
    _prec = _PREC_ATOM

    def __init__(self, name: str):
        if not (isinstance(name, str) and name[:1].isalpha() and _TOKEN.fullmatch(name)):
            raise ValueError(f"atom name {name!r} is not an identifier")
        _fill_atom(self, name)


class Neg(Formula):
    __slots__ = ("sub",)
    _prec = _PREC_NEG

    def __init__(self, sub: Formula):
        _set_sub(self, sub)
        _set_weight(self, 1 + sub.weight)
        _set_text(self, "~" + sub.text if sub._prec >= _PREC_NEG else f"~({sub.text})")


class _Binary(Formula):
    """A binary node.  A child is printed bare when it binds at least as
    tightly as the class's `_bare_left` or `_bare_right`: the conditional
    associates to the right, the others to the left."""

    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        _set_left(self, left)
        _set_right(self, right)
        _set_weight(self, 1 + left.weight + right.weight)
        a = left.text if left._prec >= self._bare_left else f"({left.text})"
        b = right.text if right._prec >= self._bare_right else f"({right.text})"
        _set_text(self, f"{a} {self._op} {b}")


class And(_Binary):
    __slots__ = ()
    _prec, _op, _bare_left, _bare_right = _PREC_AND, "&", _PREC_AND, _PREC_NEG


class Or(_Binary):
    __slots__ = ()
    _prec, _op, _bare_left, _bare_right = _PREC_OR, "|", _PREC_OR, _PREC_AND


class Imp(_Binary):
    __slots__ = ()
    _prec, _op, _bare_left, _bare_right = _PREC_IMP, "->", _PREC_OR, _PREC_IMP


# The parser builds the atoms it has already validated with _new and
# _fill_atom.
_new = object.__new__
_set_weight, _set_text = Formula.weight.__set__, Formula.text.__set__
_set_name, _set_sub = Atom.name.__set__, Neg.sub.__set__
_set_left, _set_right = _Binary.left.__set__, _Binary.right.__set__


def _fill_atom(a: Atom, name: str) -> Atom:
    """Write an atom's slots; `name` must already be an identifier."""
    _set_name(a, name)
    _set_weight(a, 1)
    _set_text(a, name)
    return a


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


class Sequent(_Record):
    """Finite-set antecedent plus a single succedent.

    The antecedent may be passed as any iterable; it is deduplicated and
    canonically ordered on construction, so structurally equal sequents
    compare and hash equal.
    """

    __slots__ = ("antecedent", "succedent")

    antecedent: tuple[Formula, ...]
    succedent: Succedent

    def __init__(self, antecedent: Iterable[Formula], succedent: Succedent):
        ant = tuple(antecedent)
        if len(ant) > 1:
            ant = tuple(sorted(set(ant), key=antecedent_key))
        _set_antecedent(self, ant)
        _set_succedent(self, succedent)

    def antecedent_set(self) -> frozenset[Formula]:
        return frozenset(self.antecedent)

    def __str__(self) -> str:
        return print_sequent(self)


_set_antecedent, _set_succedent = Sequent.antecedent.__set__, Sequent.succedent.__set__


def ordered_sequent(antecedent: tuple[Formula, ...], succedent: Succedent) -> Sequent:
    """The sequent over an antecedent tuple that is already duplicate-free
    and in `antecedent_key` order, which is taken as it is: equal to
    `Sequent(antecedent, succedent)`, without the set and the sort."""
    s = _new(Sequent)
    _set_antecedent(s, antecedent)
    _set_succedent(s, succedent)
    return s


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

# Every operator token, aliases included, mapped to its kind: its ASCII
# spelling.  "" ends every token list.  A token missing here is a word, an
# atom if it starts with a letter, or a character that starts no token.
_KIND = {
    "~": "~", "¬": "~", "&": "&", "∧": "&", "|": "|", "∨": "|", "->": "->", "→": "->",
    "|-": "|-", "⊢": "|-", "(": "(", ")": ")", ",": ",", "": "",
}

# The operator stack holds (precedence, constructor, left operand) per binary
# operator read, and _NEG and _LPAR, which nothing reduces.  _BINARY gives
# a binary kind's precedence, its constructor, and the lowest precedence on
# the stack that it reduces: its own for the left-associative kinds, not for
# "->".  Any other token (_END) reduces every binary operator down to the
# nearest _LPAR; the bottom of the stack is one.
_BINARY = {"&": (_PREC_AND, And, _PREC_AND), "|": (_PREC_OR, Or, _PREC_OR), "->": (_PREC_IMP, Imp, _PREC_OR)}
_END, _LPAR, _NEG = (0, None, _PREC_IMP), (0, None, None), (0, Neg, None)

# The most negations, open parentheses and pending binary operators that
# may enclose one atom.  Every node stores its text, so a chain of depth d
# holds O(d^2) characters: about 50 MB for a chain of 10^4 negations.
_MAX_NESTING = 10_000

# The most characters the texts of the nodes one parse builds may hold in
# total.  Flat chains (p & p & ... & p) never nest, yet n operands store
# about 2n^2 characters; this caps them, and depth times width, at about
# 128 MB, while a sequent with a 10^4-deep chain on each side (about 10^8
# characters) still parses.
_MAX_TEXT = 1 << 27
_TOO_LARGE = f"formulas too large: their texts exceed {_MAX_TEXT} characters at {{}}"

# Input of at most this many characters is parsed without counting: it
# builds at most one node per character, and a node's text is at most four
# times the input it spans (an operator of one character prints as " -> "
# at worst, and printed parentheses are ones the input needs), so its node
# texts hold at most 4 * 5000^2 = 10^8 characters.
_UNCOUNTED_INPUT = 5_000


def _error(text: str, i: int, message: str) -> ParseError:
    """The ParseError for token i: at the first character that starts no
    token, if there is one, else `message` with the token's kind (or word)
    or "end of input" in its braces."""
    found = [(m.group(), m.start()) for m in _TOKEN.finditer(text)] + [("", len(text))]
    for token, pos in found[:-1]:
        if token not in _KIND and not token[0].isalpha():
            return ParseError(f"unexpected character {token[0]!r}", pos)
    token, pos = found[i]
    return ParseError(message.format(repr(_KIND.get(token, token) or "end of input")), pos)


def _budget(text: str) -> Optional[list[int]]:
    """A parse's text budget: None when the input is too short to exceed
    _MAX_TEXT, else a one-element list of the characters of node text the
    parse may still build."""
    return None if len(text) <= _UNCOUNTED_INPUT else [_MAX_TEXT]


def _spend(budget: list[int], f: Formula, text: str, i: int) -> None:
    """Charge node f's text to the budget, raised at token i."""
    budget[0] -= len(f.text)
    if budget[0] < 0:
        raise _error(text, i, _TOO_LARGE)


def _formula(
    text: str, tokens: list[str], i: int, atoms: dict, budget: Optional[list[int]], record: bool
) -> tuple[Formula, int]:
    """The formula that starts at token i, and the index of the token after
    it.  `atoms` holds the atoms built so far, by name, and `budget` (see
    `_budget`) is charged for every node built.  With `record`, every
    compound node built is also stored in `atoms` under its text; no token
    is such a text, so the lookups of tokens still find only atoms."""
    stack = [_LPAR]
    depth = 0  # open parentheses on the stack, the bottom not counted
    while True:
        token = tokens[i]
        f = atoms.get(token)
        while f is None:  # negations and open parentheses, then an atom
            kind = _KIND.get(token)
            if kind == "~":
                stack.append(_NEG)
            elif kind == "(":
                stack.append(_LPAR)
                depth += 1
            elif kind is None and token[0].isalpha():
                # a word token starting with a letter is an identifier
                f = atoms[token] = _fill_atom(_new(Atom), token)
                break
            else:
                raise _error(text, i, "expected a formula, found {}")
            i += 1
            token = tokens[i]
            f = atoms.get(token)
        if len(stack) > _MAX_NESTING + 1:  # the bottom _LPAR encloses nothing
            raise _error(text, i, f"formula nested too deeply: more than {_MAX_NESTING} levels around {{}}")
        i += 1
        while True:  # apply negations, reduce, and close parentheses
            while stack[-1] is _NEG:
                stack.pop()
                f = Neg(f)
                if budget:
                    _spend(budget, f, text, i)
                if record:
                    atoms[f.text] = f
            kind = _KIND.get(tokens[i])
            prec, ctor, reduces = _BINARY.get(kind, _END)
            while stack[-1][0] >= reduces:
                _, c, left = stack.pop()
                f = c(left, f)
                if budget:
                    _spend(budget, f, text, i)
                if record:
                    atoms[f.text] = f
            if ctor is not None or kind != ")" or not depth:
                break
            stack.pop()
            depth -= 1
            i += 1
        if ctor is None:
            if depth:
                raise _error(text, i, "expected RPAR, found {}")
            return f, i
        stack.append((prec, ctor, f))
        i += 1


def parse_formula(text: str) -> Formula:
    tokens = _TOKEN.findall(text) + [""]
    f, i = _formula(text, tokens, 0, {}, _budget(text), False)
    if tokens[i]:
        raise _error(text, i, "unexpected trailing input {}")
    return f


def parse_sequent(text: str) -> Sequent:
    return _parse_sequent(text, {}, False)


def _parse_sequent(text: str, atoms: dict, record: bool) -> Sequent:
    """`parse_sequent`, over the atoms in `atoms` and recording into it as
    `_formula` does."""
    tokens = _TOKEN.findall(text) + [""]
    antecedent: list[Formula] = []
    budget = _budget(text)
    i = 0
    if _KIND.get(tokens[0]) != "|-":
        f, i = _formula(text, tokens, 0, atoms, budget, record)
        antecedent.append(f)
        while _KIND.get(tokens[i]) == ",":
            f, i = _formula(text, tokens, i + 1, atoms, budget, record)
            antecedent.append(f)
        if _KIND.get(tokens[i]) != "|-":
            raise _error(text, i, "expected TURNSTILE, found {}")
    turnstile = i
    succedent: Succedent = None
    if tokens[i + 1]:
        succedent, i = _formula(text, tokens, i + 1, atoms, budget, record)
        if tokens[i]:
            raise _error(text, i, "unexpected trailing input {}")
    elif not antecedent:
        raise _error(text, turnstile, "empty judgment: no antecedent and no succedent")
    return Sequent(tuple(antecedent), succedent)


def _parse_sequent_shared(text: str, formulas: dict) -> Sequent:
    """`parse_sequent(text)`, sharing formulas with earlier calls on the
    same dict, which maps canonical text to formula and starts empty.

    A text in `print_sequent`'s form (``A, B |- C``, ``A |-`` or ``|- C``)
    whose every piece is a key is built from the dict's formulas, with no
    tokenizing.  That is sound because no canonical text contains ``", "``
    or ``"|-"``, so the pieces are where the parser would split, and each
    parses back to the formula that printed it.  Any other text goes to the
    parser, which records every node it builds, so every result, error
    message and position is the parser's."""
    left, turnstile, right = text.partition("|-")
    if turnstile and (not left or left[-1] == " ") and (left or right) and right[:1] in ("", " "):
        get = formulas.get
        succedent = get(right[1:]) if right else None
        if succedent is not None or not right:
            antecedent = []
            for piece in left[:-1].split(", ") if left else ():
                f = get(piece)
                if f is None:
                    break
                antecedent.append(f)
            else:
                return Sequent(antecedent, succedent)
    return _parse_sequent(text, formulas, True)


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


def subformulas(*formulas: Formula) -> frozenset[Formula]:
    """Every subformula of any of the formulas, in one walk."""
    acc: set[Formula] = set()
    stack = list(formulas)
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
    return subformulas(*u) <= u


def sequent_family(universe: Iterable[Formula], weight_cap: int) -> list[Sequent]:
    """Every well-formed sequent over the universe within the weight cap.

    Antecedents range over all subsets of the universe, succedents over the
    universe plus the absurdity marker; the degenerate empty judgment is
    excluded.  Sorted by (sequent weight, canonical text).
    """
    pool = sorted(set(universe), key=formula_key)
    out: list[Sequent] = []
    # (next pool index to choose from, chosen antecedent, its weight)
    stack: list[tuple[int, tuple[Formula, ...], int]] = [(0, (), 0)]
    while stack:
        start, chosen, used = stack.pop()
        budget = weight_cap - used
        if chosen:
            out.append(Sequent(chosen, None))
        for f in pool:
            if weight(f) > budget:
                break
            out.append(Sequent(chosen, f))
        for i in range(start, len(pool)):
            f = pool[i]
            w = weight(f)
            if w > budget:
                break
            stack.append((i + 1, chosen + (f,), used + w))
    out.sort(key=lambda s: (sequent_weight(s), print_sequent(s)))
    return out
