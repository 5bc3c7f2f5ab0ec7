"""Trusted checker for Core-logic sequent derivations.

Exactly eleven rules are recognised; each is checked against its schema
under set semantics (antecedents are sets, so "Gamma, Delta" means union
and side formulas may coincide with principal ones).  Two succedent modes
exist: the default ``tennant`` mode lets the shared succedent of LAnd and
LImp be the absurdity marker as well as a formula, while ``strict-table``
restricts those two rules to formula succedents.  All other rules are
identical in both modes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Sequence

from .syntax import And, FrozenSlots, Imp, Neg, Or, Sequent, parse_sequent, print_sequent

MODES = ("tennant", "strict-table")


@dataclass(frozen=True)
class Violation:
    """Structured rejection: clause identifier, human message, tree path."""

    clause: str
    message: str
    path: tuple[int, ...] = ()

    def at(self, path: tuple[int, ...]) -> "Violation":
        return Violation(self.clause, self.message, path)


def _check_ax(c: Sequent, ps, mode):
    if c.succedent is None:
        return Violation("ax-succedent", "Ax concludes a formula, not the absurdity marker")
    if len(c.antecedent) != 1:
        return Violation("ax-singleton", "Ax requires a singleton antecedent")
    if c.antecedent[0] != c.succedent:
        return Violation("ax-mismatch", "Ax antecedent must equal its succedent")
    return None


def _check_lneg(c: Sequent, ps, mode):
    (p,) = ps
    if c.succedent is not None:
        return Violation("lneg-conclusion", "LNeg concludes the absurdity marker")
    if p.succedent is None:
        return Violation("lneg-premise", "LNeg premise must conclude a formula")
    if c.antecedent_set() != p.antecedent_set() | {Neg(p.succedent)}:
        return Violation(
            "lneg-antecedent",
            "LNeg conclusion antecedent must be the premise antecedent "
            "plus the negated premise succedent",
        )
    return None


def _check_rneg(c: Sequent, ps, mode):
    (p,) = ps
    if not isinstance(c.succedent, Neg):
        return Violation("rneg-conclusion", "RNeg concludes a negation")
    if p.succedent is not None:
        return Violation("rneg-premise", "RNeg premise must have an empty succedent")
    a = c.succedent.sub
    if a in c.antecedent_set():
        return Violation("rneg-retained", "RNeg discharged formula may not remain in the conclusion")
    if p.antecedent_set() != c.antecedent_set() | {a}:
        return Violation(
            "rneg-antecedent",
            "RNeg premise antecedent must be the conclusion antecedent plus the discharged formula",
        )
    return None


def _check_land(c: Sequent, ps, mode):
    (p,) = ps
    if mode == "strict-table" and c.succedent is None:
        return Violation("land-strict-succedent", "LAnd succedent must be a formula in strict-table mode")
    if p.succedent != c.succedent:
        return Violation("land-succedent", "LAnd premise and conclusion succedents must agree")
    cant, pant = c.antecedent_set(), p.antecedent_set()
    candidates = [f for f in c.antecedent if isinstance(f, And)]
    if not candidates:
        return Violation("land-no-principal", "LAnd conclusion has no conjunction to introduce")
    side_failed = False
    for f in candidates:
        parts = {f.left, f.right}
        if not pant & parts:
            side_failed = True
            continue
        if cant == {f} | (pant - parts):
            return None
    if side_failed and len(candidates) == 1:
        return Violation("land-side-condition", "LAnd side condition violated: premise shares no conjunct")
    return Violation("land-antecedent", "no conjunction in the conclusion matches the LAnd schema")


def _check_rand(c: Sequent, ps, mode):
    p1, p2 = ps
    if not isinstance(c.succedent, And):
        return Violation("rand-conclusion", "RAnd concludes a conjunction")
    if p1.succedent != c.succedent.left:
        return Violation("rand-left-premise", "first RAnd premise must conclude the left conjunct")
    if p2.succedent != c.succedent.right:
        return Violation("rand-right-premise", "second RAnd premise must conclude the right conjunct")
    if c.antecedent_set() != p1.antecedent_set() | p2.antecedent_set():
        return Violation("rand-antecedent", "RAnd conclusion antecedent must be the union of the premises'")
    return None


def _check_lor(c: Sequent, ps, mode):
    p1, p2 = ps
    s1, s2 = p1.succedent, p2.succedent
    if s1 is not None and s2 is not None and s1 != s2:
        return Violation("lor-premise-agreement", "LOr formula premises must conclude the same formula")
    required = s1 if s1 is not None else s2
    if c.succedent != required:
        return Violation(
            "lor-succedent",
            "LOr conclusion succedent must be the common premise formula, "
            "or the absurdity marker when both premises end in it",
        )
    cant = c.antecedent_set()
    pant1, pant2 = p1.antecedent_set(), p2.antecedent_set()
    for f in c.antecedent:
        if not isinstance(f, Or):
            continue
        a, b = f.left, f.right
        if a not in pant1 or b not in pant2:
            continue
        for d in (pant1 - {a}, pant1):
            for g in (pant2 - {b}, pant2):
                if cant == {f} | d | g:
                    return None
    return Violation("lor-schema", "no disjunction in the conclusion matches the LOr schema")


def _check_ror(n: int, c: Sequent, ps, mode):
    (p,) = ps
    if not isinstance(c.succedent, Or):
        return Violation("ror-conclusion", f"ROr{n} concludes a disjunction")
    wanted, side = (c.succedent.left, "left") if n == 1 else (c.succedent.right, "right")
    if p.succedent != wanted:
        return Violation("ror-premise", f"ROr{n} premise must conclude the {side} disjunct")
    if p.antecedent_set() != c.antecedent_set():
        return Violation("ror-antecedent", f"ROr{n} premise and conclusion antecedents must agree")
    return None


def _check_limp(c: Sequent, ps, mode):
    p1, p2 = ps
    if mode == "strict-table" and c.succedent is None:
        return Violation("limp-strict-succedent", "LImp succedent must be a formula in strict-table mode")
    if p1.succedent is None:
        return Violation("limp-minor", "first LImp premise must conclude a formula")
    if p2.succedent != c.succedent:
        return Violation("limp-succedent", "second LImp premise succedent must agree with the conclusion")
    a = p1.succedent
    cant = c.antecedent_set()
    pant1, pant2 = p1.antecedent_set(), p2.antecedent_set()
    for f in c.antecedent:
        if not isinstance(f, Imp) or f.left != a:
            continue
        if f.right not in pant2:
            continue
        for g in (pant2 - {f.right}, pant2):
            if cant == {f} | pant1 | g:
                return None
    return Violation("limp-schema", "no conditional in the conclusion matches the LImp schema")


def _check_rimpa(c: Sequent, ps, mode):
    (p,) = ps
    if not isinstance(c.succedent, Imp):
        return Violation("rimpa-conclusion", "RImpA concludes a conditional")
    if p.succedent is not None:
        return Violation("rimpa-premise", "RImpA premise must have an empty succedent")
    if p.antecedent_set() != c.antecedent_set() | {c.succedent.left}:
        return Violation(
            "rimpa-antecedent",
            "RImpA premise antecedent must be the conclusion antecedent plus the conditional's antecedent",
        )
    return None


def _check_rimpb(c: Sequent, ps, mode):
    (p,) = ps
    if not isinstance(c.succedent, Imp):
        return Violation("rimpb-conclusion", "RImpB concludes a conditional")
    if p.succedent != c.succedent.right:
        return Violation("rimpb-premise", "RImpB premise must conclude the conditional's consequent")
    if c.antecedent_set() != p.antecedent_set() - {c.succedent.left}:
        return Violation(
            "rimpb-antecedent",
            "RImpB conclusion antecedent must be the premise antecedent "
            "with the conditional's antecedent removed",
        )
    return None


# Each rule's premise count and schema check, in the order the engine
# numbers the rules.
_RULES = {
    "Ax": (0, _check_ax),
    "LNeg": (1, _check_lneg),
    "RNeg": (1, _check_rneg),
    "LAnd": (1, _check_land),
    "RAnd": (2, _check_rand),
    "LOr": (2, _check_lor),
    "ROr1": (1, partial(_check_ror, 1)),
    "ROr2": (1, partial(_check_ror, 2)),
    "LImp": (2, _check_limp),
    "RImpA": (1, _check_rimpa),
    "RImpB": (1, _check_rimpb),
}

RULE_NAMES = tuple(_RULES)


def check_rule(
    conclusion: Sequent,
    rule: str,
    premises: Sequence[Sequent],
    mode: str = MODES[0],
) -> Violation | None:
    """Check one inference step; None means the instance is valid."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    entry = _RULES.get(rule)
    if entry is None:
        return Violation("unknown-rule", f"unknown rule {rule!r}")
    arity, check = entry
    if len(premises) != arity:
        return Violation("arity", f"{rule} takes {arity} premise(s), got {len(premises)}")
    return check(conclusion, tuple(premises), mode)


# ---------------------------------------------------------------------------
# Derivations


class Derivation(FrozenSlots):
    """A rule application and the derivations of its premises.

    `==` and `hash` walk the tree with explicit stacks, so they work at any
    depth the loader builds.
    """

    __slots__ = ("conclusion", "rule", "premises")

    conclusion: Sequent
    rule: str
    premises: tuple["Derivation", ...]

    def __init__(self, conclusion: Sequent, rule: str, premises: Sequence["Derivation"] = ()):
        _set_conclusion(self, conclusion)
        _set_rule(self, rule)
        _set_premises(self, tuple(premises))

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.rule != b.rule or len(a.premises) != len(b.premises) or a.conclusion != b.conclusion:
                return False
            stack += zip(a.premises, b.premises)
        return True

    def __hash__(self):
        # postorder: a node's hash combines its conclusion, its rule and
        # its premises' hashes, which are the last ones on `done`
        done: list[int] = []
        stack: list[tuple[Derivation, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if not expanded:
                stack.append((node, True))
                stack += [(p, False) for p in reversed(node.premises)]
                continue
            k = len(done) - len(node.premises)
            h = hash((node.conclusion, node.rule, tuple(done[k:])))
            del done[k:]
            done.append(h)
        return done[0]

    def __repr__(self):
        # the text of the recursive dataclass-style repr, written out in
        # preorder; a str on the stack is a closing or separating piece
        parts: list[str] = []
        stack: list = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                parts.append(node)
                continue
            parts.append(f"Derivation(conclusion={node.conclusion!r}, rule={node.rule!r}, premises=(")
            premises = node.premises
            stack.append(",))" if len(premises) == 1 else "))")
            for i in range(len(premises) - 1, -1, -1):
                stack.append(premises[i])
                if i:
                    stack.append(", ")
        return "".join(parts)

    def __reduce__(self):
        # copy, deepcopy and pickle go through a flat postorder list of
        # (conclusion, rule, premise positions), one entry per node object,
        # so they work at any depth and keep shared subtrees shared
        position: dict[int, int] = {}
        nodes: list[tuple[Sequent, str, tuple[int, ...]]] = []
        stack: list[tuple[Derivation, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in position:
                continue
            if not expanded:
                stack.append((node, True))
                stack += [(p, False) for p in reversed(node.premises)]
                continue
            position[id(node)] = len(nodes)
            nodes.append((node.conclusion, node.rule, tuple(position[id(p)] for p in node.premises)))
        return _derivation_from_postorder, (tuple(nodes),)


_set_conclusion, _set_rule = Derivation.conclusion.__set__, Derivation.rule.__set__
_set_premises = Derivation.premises.__set__


def _derivation_from_postorder(nodes) -> Derivation:
    """Rebuild a tree from `Derivation.__reduce__`'s postorder list, in which
    every premise position points at an earlier entry."""
    built: list[Derivation] = []
    for conclusion, rule, premises in nodes:
        built.append(Derivation(conclusion, rule, [built[i] for i in premises]))
    return built[-1]


def height(d: Derivation) -> int:
    """0 at axioms, otherwise one more than the tallest premise: the number
    of levels below the root, walked one level at a time."""
    levels = -1
    level = [d]
    while level:
        levels += 1
        level = [p for node in level for p in node.premises]
    return levels


def check_derivation(d: Derivation, mode: str = MODES[0]) -> Violation | None:
    """Depth-first check of every node; reports the first failure with its path."""
    stack: list[tuple[Derivation, tuple[int, ...]]] = [(d, ())]
    while stack:
        node, path = stack.pop()
        v = check_rule(node.conclusion, node.rule, [p.conclusion for p in node.premises], mode)
        if v is not None:
            return v.at(path)
        for i in range(len(node.premises) - 1, -1, -1):
            stack.append((node.premises[i], path + (i,)))
    return None


# ---------------------------------------------------------------------------
# JSON derivation files

_NODE_KEYS = {"rule", "conclusion", "premises"}


def derivation_to_json(d: Derivation) -> dict:
    """The tree as nested objects, built top-down with an explicit stack of
    the nodes whose premise lists are still empty."""
    root = {"rule": d.rule, "conclusion": print_sequent(d.conclusion), "premises": []}
    stack = [(d, root)]
    while stack:
        node, obj = stack.pop()
        premises = obj["premises"]
        for p in node.premises:
            child = {"rule": p.rule, "conclusion": print_sequent(p.conclusion), "premises": []}
            premises.append(child)
            if p.premises:
                stack.append((p, child))
    return root


def derivation_from_json(obj) -> Derivation:
    """Load a tree of derivation objects with an explicit stack.  Nodes are
    validated and parsed in preorder, so the first bad node is reported.  A
    node with premises waits in `pending` with the stack height below its
    premises; when the stack is back at that height its premises are the
    last ones built, in order."""
    stack = [obj]
    pending: list[tuple[Sequent, str, int, int]] = []
    built: list[Derivation] = []
    while stack:
        obj = stack.pop()
        if not isinstance(obj, dict):
            raise ValueError(f"derivation node must be an object, got {type(obj).__name__}")
        if not _NODE_KEYS.issuperset(obj):
            raise ValueError(f"unknown derivation node keys: {sorted(set(obj) - _NODE_KEYS)}")
        if "rule" not in obj or "conclusion" not in obj:
            raise ValueError("derivation node needs 'rule' and 'conclusion'")
        rule, conclusion, premises = obj["rule"], obj["conclusion"], obj.get("premises", [])
        if not isinstance(rule, str):
            raise ValueError("'rule' must be a string")
        if not isinstance(conclusion, str):
            raise ValueError("'conclusion' must be a string")
        if not isinstance(premises, list):
            raise ValueError("'premises' must be a list")
        if premises:
            pending.append((parse_sequent(conclusion), rule, len(premises), len(stack)))
            stack += reversed(premises)
            continue
        built.append(Derivation(parse_sequent(conclusion), rule, ()))
        while pending and pending[-1][3] == len(stack):
            conclusion, rule, count, _ = pending.pop()
            premises = tuple(built[-count:])
            del built[-count:]
            built.append(Derivation(conclusion, rule, premises))
    return built[0]


def load_derivation(path) -> Derivation:
    with open(path, "r", encoding="utf-8") as fh:
        return derivation_from_json(json.load(fh))


def save_derivation(d: Derivation, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(derivation_to_json(d), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Bundled fixtures

FIXTURE_NAMES = (
    "lemma1-right",
    "lemma1-left",
    "contradiction1",
    "contradiction2",
    "d1-upper",
    "d2",
    "d1-full-with-ltop",
)


def fixture_path(name: str):
    """Filesystem path of a bundled fixture file."""
    from importlib.resources import files

    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r}")
    return files("coreseq").joinpath("fixtures").joinpath(f"{name}.json")


def fixture_derivations() -> dict[str, Derivation]:
    """The bundled derivation trees, keyed by fixture name, loaded from the
    package's fixture files, which are their only copy.

    Schematic set variables are instantiated with the single atom ``d``
    and the schematic theorem with ``p -> p`` carrying its own two-line
    proof.  Every fixture is checker-valid except ``d1-full-with-ltop``:
    it extends ``d1-upper`` by a two-premise step outside the eleven-rule
    table, whose second premise is an unprovability claim that the
    judgment grammar cannot even express, so it is encoded as the
    unjustified leaf ``~A, A |- B``.  The checker must reject the root for
    its rule name.
    """
    return {
        name: derivation_from_json(json.loads(fixture_path(name).read_text(encoding="utf-8")))
        for name in FIXTURE_NAMES
    }
