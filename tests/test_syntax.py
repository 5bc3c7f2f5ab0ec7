import ast
import copy
import gc
import hashlib
import pickle
import random
import re
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import coreseq.syntax
from conftest import random_formula, reference_parse_formula, reference_parse_sequent
from coreseq import (
    And,
    Atom,
    Engine,
    Imp,
    IntProver,
    Neg,
    Or,
    ParseError,
    Sequent,
    formula_universe,
    parse_formula,
    parse_sequent,
    print_formula,
    print_sequent,
    sequent_family,
    sequent_weight,
    weight,
)
from coreseq.syntax import (
    _parse_sequent_shared,
    antecedent_key,
    formula_key,
    is_subformula_closed,
    ordered_sequent,
    subformulas,
)

p, q, r = Atom("p"), Atom("q"), Atom("r")
A, B = Atom("A"), Atom("B")


# -- parsing ----------------------------------------------------------------


def test_parse_negated_conditional():
    assert parse_formula("~A -> (A -> B)") == Imp(Neg(A), Imp(A, B))


def test_parse_atom():
    assert parse_formula("p") == Atom("p")


def test_conditional_is_right_associative():
    assert parse_formula("p -> q -> r") == Imp(p, Imp(q, r))
    assert parse_formula("(p -> q) -> r") == Imp(Imp(p, q), r)
    assert parse_formula("p -> q -> r") != parse_formula("(p -> q) -> r")


def test_precedence():
    assert parse_formula("~p & q | r -> p") == Imp(Or(And(Neg(p), q), r), p)
    assert parse_formula("p | q & r") == Or(p, And(q, r))


def test_unicode_aliases():
    assert parse_formula("¬p ∧ q → r ∨ p") == parse_formula("~p & q -> r | p")
    assert parse_sequent("¬A, A ⊢ B") == parse_sequent("~A, A |- B")


def test_atom_rejects_names_that_do_not_read_back_as_one_identifier():
    for name in ["", "p q", "p & q", "1p", "_p", "p-q", " p", "p\n", "~p", "¬p"]:
        with pytest.raises(ValueError):
            Atom(name)
    for name in ["p", "p1", "x_0", "Bq2"]:
        assert parse_formula(name) == Atom(name)


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_formula("p -> ->")
    assert exc.value.position == 5
    with pytest.raises(ParseError):
        parse_formula("")
    with pytest.raises(ParseError):
        parse_formula("p q")


def test_parse_sequent_lewis_paradox():
    s = parse_sequent("~A, A |- B")
    assert s.antecedent == (Neg(A), A)
    assert s.succedent == B


def test_parse_sequent_empty_succedent():
    s = parse_sequent("~A, A |-")
    assert s.succedent is None
    assert set(s.antecedent) == {Neg(A), A}


def test_parse_sequent_deduplicates():
    assert parse_sequent("A, A |- A") == Sequent((A,), A)


def test_parse_sequent_rejects_empty_judgment():
    with pytest.raises(ParseError):
        parse_sequent("|-")


def test_parse_sequent_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        parse_sequent("p |- q r")


def test_parser_needs_no_recursion():
    depth = 10_000
    negations = "~" * depth + "p"
    conditionals = "p -> " * 2_000 + "q"
    for text, printed, size in (
        (negations, negations, depth + 1),
        ("(" * depth + "p" + ")" * depth, "p", 1),
        (conditionals, conditionals, 4_001),
    ):
        f = parse_formula(text)
        assert print_formula(f) == printed and weight(f) == size
        s = parse_sequent(f"{text} |- {text}")
        assert s.antecedent == (f,) and s.succedent == f
        del f, s


def test_parser_rejects_nesting_beyond_its_bound():
    """Each node stores its text, so nesting is bounded: 10^4 levels around
    one atom parse (above), one more is a ParseError at that atom."""
    depth = 10_001
    for text in ("~" * depth + "p", "(" * depth + "p" + ")" * depth, "q -> " * depth + "p"):
        with pytest.raises(ParseError) as e:
            parse_formula(text)
        assert e.value.message == "formula nested too deeply: more than 10000 levels around 'p'"
        assert e.value.position == text.index("p")
        with pytest.raises(ParseError):
            parse_sequent(f"q |- {text}")


def test_parser_bounds_the_text_one_parse_stores():
    """A flat chain never nests, yet n operands store about 2n^2 characters
    of node text; once one parse's texts pass 2^27 characters it is a
    ParseError, and the same holds for depth times width."""
    budget = coreseq.syntax._MAX_TEXT
    # the chain of k & nodes stores sum(4j + 1 for j in 1..k) characters
    fits = max(k for k in range(1, 10_000) if 2 * k * k + 3 * k <= budget)
    f = parse_formula(" & ".join(["p"] * (fits + 1)))
    assert weight(f) == 2 * fits + 1
    del f
    for text in (
        " & ".join(["p"] * (fits + 2)),
        " | ".join(["p"] * 30_000),
        "~" * 9_000 + "(" + " & ".join(["p"] * 3_000) + ")",
    ):
        with pytest.raises(ParseError) as e:
            parse_formula(text)
        assert e.value.message.startswith(f"formulas too large: their texts exceed {budget} characters")
    # the budget is per parse: two chains that each fit do not in one sequent
    half = " & ".join(["p"] * (fits * 3 // 4))
    parse_formula(half)
    with pytest.raises(ParseError, match="too large"):
        parse_sequent(f"{half} |- {half}")
    # input up to _UNCOUNTED_INPUT characters is not counted: its densest
    # chains stay far below the budget
    n = coreseq.syntax._UNCOUNTED_INPUT
    for text in ("p→" * (n // 2 - 1) + "p", "p∧" * (n // 2 - 1) + "p", "¬" * (n - 1) + "p"):
        assert len(text) <= n
        total, stack = 0, [parse_formula(text)]
        while stack:
            g = stack.pop()
            if not isinstance(g, Atom):
                total += len(g.text)
                stack += [g.sub] if isinstance(g, Neg) else [g.left, g.right]
        assert total < budget // 4


def test_no_syntax_function_calls_itself():
    """Parsing and enumeration use explicit stacks, so the depth of the
    input costs memory, not call frames."""
    tree = ast.parse(Path(coreseq.syntax.__file__).read_text(encoding="utf-8"))

    def calls_itself(fn, call):
        f = call.func
        if isinstance(f, ast.Name):
            return f.id == fn.name
        return (
            isinstance(f, ast.Attribute)
            and isinstance(f.value, ast.Name)
            and f.value.id == "self"
            and f.attr == fn.name
        )

    offenders = [
        (fn.name, call.lineno)
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for call in ast.walk(fn)
        if isinstance(call, ast.Call) and calls_itself(fn, call)
    ]
    assert offenders == []


# -- the reference parser ---------------------------------------------------

# Every token kind, every Unicode alias, the halves of the two-character
# tokens, and characters that test the identifier and whitespace classes:
# a superscript digit and a Roman numeral are alphanumeric but not letters,
# an accented letter is a letter, and \x1c is whitespace.
_PIECES = [
    "p", "q", "x1", "B_2", "~", "¬", "&", "∧", "|", "∨", "->", "→", "|-", "⊢",
    "(", ")", ",", " ", "-", ">", "²", "Ⅻ", "é", "\x1c", "_", "1",
]


def _outcome(parse, text):
    """The printed result, or the message and position of the ParseError."""
    try:
        result = parse(text)
    except ParseError as e:
        return ("error", e.message, e.position)
    return ("ok", str(result) if isinstance(result, Sequent) else print_formula(result))


def _agree_with_reference(text):
    assert _outcome(parse_formula, text) == _outcome(reference_parse_formula, text)
    assert _outcome(parse_sequent, text) == _outcome(reference_parse_sequent, text)


@settings(max_examples=1_000)
@given(st.lists(st.sampled_from(_PIECES), max_size=16).map("".join))
def test_parser_agrees_with_the_reference_on_random_strings(text):
    _agree_with_reference(text)


_ALIASES = {"~": "¬", "&": "∧", "|": "∨", "->": "→", "|-": "⊢"}
_SPACES = ["", "", " ", "  ", "\t", "\n", "\x1c"]


@settings(max_examples=300)
@given(st.integers(0, 10**9))
def test_parser_agrees_with_the_reference_on_printed_sequents(seed):
    """Printed random sequents, respelled with random aliases and spacing;
    every other draw also loses one token, so errors arise where real
    input goes wrong."""
    rng = random.Random(seed)
    ant = [random_formula(rng, ["p", "q", "r1"], 7) for _ in range(rng.randint(0, 3))]
    succ = None if ant and rng.random() < 0.3 else random_formula(rng, ["p", "q", "r1"], 7)
    tokens = re.findall(r"\|-|->|\w+|\S", print_sequent(Sequent(ant, succ)))
    if seed % 2:
        del tokens[rng.randrange(len(tokens))]
    text = rng.choice(_SPACES) + "".join(
        (_ALIASES[t] if t in _ALIASES and rng.random() < 0.5 else t) + rng.choice(_SPACES)
        for t in tokens
    )
    _agree_with_reference(text)


# -- parsing over shared formulas --------------------------------------------


def _known(*sequents):
    """A dict as the derivation loader keeps it: every subformula of the
    sequents under its canonical text."""
    known = {}
    for s in sequents:
        for f in s.antecedent + ((s.succedent,) if s.succedent is not None else ()):
            known.update((g.text, g) for g in subformulas(f))
    return known


def _respell(text, rng):
    """The same sequent with random aliases, spacing and extra parentheses
    around whole formulas."""
    left, _, right = text.partition("|-")
    pieces = [f"({t})" if rng.random() < 0.3 else t for t in left.strip().split(", ") if t]
    if right.strip() and rng.random() < 0.3:
        right = f" (({right.strip()}))"
    tokens = re.findall(r"\|-|->|\w+|\S", ", ".join(pieces) + " |-" + right)
    return rng.choice(_SPACES) + "".join(
        (_ALIASES[t] if t in _ALIASES and rng.random() < 0.5 else t) + rng.choice(_SPACES)
        for t in tokens
    )


@settings(max_examples=300)
@given(st.integers(0, 10**9))
def test_shared_parse_matches_the_parser(seed):
    """With a dict that already holds every subformula, canonical text is
    built from the dict's formulas and any other spelling (aliases, spacing,
    parentheses, duplicate or reordered antecedents) still parses to what
    `parse_sequent` gives."""
    rng = random.Random(seed)
    ant = [random_formula(rng, ["p", "q", "r1"], 7) for _ in range(rng.randint(0, 3))]
    succ = None if ant and rng.random() < 0.3 else random_formula(rng, ["p", "q", "r1"], 7)
    s = Sequent(ant, succ)
    canonical = print_sequent(s)
    known = _known(s)
    shared = _parse_sequent_shared(canonical, known)
    assert shared == parse_sequent(canonical) == s
    assert all(f is known[f.text] for f in shared.antecedent)
    assert succ is None or shared.succedent is known[succ.text]
    pieces = [f.text for f in ant] + [f.text for f in ant if rng.random() < 0.5]
    rng.shuffle(pieces)
    listed = ", ".join(pieces) + (" |-" if succ is None else f" |- {succ.text}")
    for text in (listed.lstrip(), _respell(canonical, rng), _respell(listed, rng)):
        assert _parse_sequent_shared(text, _known(s)) == parse_sequent(text) == s, text


@pytest.mark.parametrize(
    "text",
    [
        # rejected: the same message and position as parse_sequent
        "|-", "", " |- ", "p |- q |- r", "p,, q |- r", "p | - q", "p, |- q", "p, q, |-", "|- p,",
        "p, |-", "p |- q,", ", p |- q", "p q |- r", "(p |- q", "p |-- q", "p ||- q", "p\t|- q |- r",
        # accepted: near the printed form, but not in it
        "pq|- r", "p |-qq", "qp, p |- q", "p,q |- r", "p ,q |- r", "p, q |-r", "(p) |- q", "p  |- q",
    ],
)
def test_shared_parse_agrees_with_the_parser_on_edge_texts(text):
    known = _known(parse_sequent("p, q |- r"))
    assert _outcome(lambda t: _parse_sequent_shared(t, known), text) == _outcome(parse_sequent, text)


def test_shared_parse_records_what_it_parses():
    known = {}
    first = _parse_sequent_shared("~p, p -> q |- q & ~p", known)
    assert set(known) == {"p", "q", "~p", "p -> q", "q & ~p"}
    # a later text over known formulas is built from them
    later = _parse_sequent_shared("p -> q, ~p |-", known)
    assert later == parse_sequent("~p, p -> q |-")
    assert later.antecedent[0] is known["p -> q"] and later.antecedent[1] is known["~p"]
    assert first.antecedent[0] is known["p -> q"]


# -- printing ---------------------------------------------------------------


def test_print_minimal_parentheses():
    assert print_formula(Imp(Neg(p), q)) == "~p -> q"
    assert print_formula(And(p, Or(q, r))) == "p & (q | r)"
    assert print_formula(Neg(Imp(p, q))) == "~(p -> q)"
    assert print_formula(Or(And(p, q), r)) == "p & q | r"
    assert print_formula(Imp(p, Imp(q, r))) == "p -> q -> r"
    assert print_formula(Imp(Imp(p, q), r)) == "(p -> q) -> r"


def test_print_sequent_canonical_order():
    # heavier formulas first, ties by text
    assert print_sequent(Sequent((Neg(A), A), None)) == "~A, A |-"
    assert print_sequent(Sequent((A, Neg(A)), None)) == "~A, A |-"
    assert print_sequent(Sequent((), B)) == "|- B"
    assert print_sequent(parse_sequent("~p, p |- q")) == "~p, p |- q"


def test_print_reparse_examples():
    for f in (And(p, Or(q, r)), Or(p, Or(q, r)), Or(Or(p, q), r), Neg(Neg(p))):
        assert parse_formula(print_formula(f)) == f


@settings(max_examples=300)
@given(st.integers(0, 10**9))
def test_roundtrip_random_formulas(seed):
    rng = random.Random(seed)
    f = random_formula(rng, ["p", "q", "A", "B", "x1"], 9)
    assert weight(f) <= 9
    assert parse_formula(print_formula(f)) == f


def test_roundtrip_sequents():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(0, 3)
        ant = tuple(random_formula(rng, ["p", "q"], 5) for _ in range(n))
        succ = None if (ant and rng.random() < 0.3) else random_formula(rng, ["p", "q"], 5)
        s = Sequent(ant, succ)
        assert parse_sequent(print_sequent(s)) == s


# -- value semantics --------------------------------------------------------

_SAMPLES = [p, Neg(p), And(p, q), Or(p, Neg(q)), Imp(And(p, q), r)]
_CHILDREN = {Atom: ["name"], Neg: ["sub"], And: ["left", "right"], Or: ["left", "right"], Imp: ["left", "right"]}


def test_formula_fields_cannot_be_assigned_or_deleted():
    for f in _SAMPLES:
        text = f.text
        for name in ["text", "weight"] + _CHILDREN[type(f)]:
            with pytest.raises(AttributeError):
                setattr(f, name, getattr(f, name))
            with pytest.raises(AttributeError):
                delattr(f, name)
        assert f.text == text and parse_formula(text) == f


def test_formulas_survive_copy_deepcopy_and_pickle():
    for f in _SAMPLES:
        for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert type(g) is type(f)
            assert g == f and hash(g) == hash(f) and weight(g) == weight(f)
            assert all(getattr(g, n) == getattr(f, n) for n in _CHILDREN[type(f)])


def test_deep_formulas_copy_and_pickle_without_recursion():
    f = parse_formula("~" * 3_000 + "(p -> q)")
    for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert type(g) is Neg and g == f and weight(g) == 3_003


def test_keyword_construction():
    assert Atom(name="p") == p
    assert Neg(sub=p) == Neg(p)
    for ctor in (And, Or, Imp):
        assert ctor(left=p, right=Neg(q)) == ctor(p, Neg(q))


# -- sequents ----------------------------------------------------------------


def test_sequent_dedupes_and_orders_its_antecedent():
    assert Sequent((), p).antecedent == ()
    assert Sequent([q], None).antecedent == (q,)
    # heavier first, ties by text, duplicates dropped
    ordered = (Imp(p, q), Neg(q), p)
    assert Sequent((p, Neg(q), Imp(p, q)), r).antecedent == ordered
    assert Sequent([p, Imp(p, q), p, Neg(q), Imp(p, q)], r).antecedent == ordered
    assert Sequent((f for f in (Neg(q), p, Imp(p, q), p)), r).antecedent == ordered
    assert Sequent((f for f in [q]), None).antecedent == (q,)
    assert Sequent(iter(()), q).antecedent == ()
    assert type(Sequent([q, p], None).antecedent) is tuple


def test_ordered_sequent_takes_its_antecedent_as_it_is():
    ordered = (Imp(p, q), Neg(q), p)
    s = ordered_sequent(ordered, r)
    assert s == Sequent(ordered, r) and hash(s) == hash(Sequent(ordered, r))
    assert s.antecedent is ordered and s.succedent is r
    assert ordered_sequent((), None) == Sequent((), None)


def test_sequent_keyword_construction():
    s = Sequent(antecedent=(q, p), succedent=r)
    assert s == Sequent((p, q), r)
    assert s.antecedent == (p, q) and s.succedent == r
    assert Sequent(succedent=None, antecedent=[p]) == parse_sequent("p |-")


def test_sequent_equality_and_hash():
    a = Sequent((Neg(p), p, q), r)
    b = parse_sequent("q, p, ~p, q |- r")
    assert a == b and hash(a) == hash(b)
    assert {a, b} == {a}
    assert a != Sequent((Neg(p), p), r)
    assert a != Sequent(a.antecedent, None)
    assert Sequent((p,), None) != Sequent((), p)
    assert Sequent((p,), q) != Sequent((q,), p)
    for other in (None, 0, "q, p, ~p |- r", (a.antecedent, a.succedent), p):
        assert (a == other) is False
        assert (a != other) is True


def test_sequent_repr_and_str():
    s = Sequent((p, Neg(p)), q)
    assert repr(s) == "Sequent(antecedent=(Neg('~p'), Atom('p')), succedent=Atom('q'))"
    assert str(s) == "~p, p |- q"
    absurd = Sequent((And(p, q),), None)
    assert repr(absurd) == "Sequent(antecedent=(And('p & q'),), succedent=None)"
    assert str(absurd) == "p & q |-"
    assert repr(Sequent((), p)) == "Sequent(antecedent=(), succedent=Atom('p'))"
    assert str(Sequent((), p)) == "|- p"


def test_sequent_fields_cannot_be_assigned_or_deleted():
    s = Sequent((p, q), r)
    for name in ("antecedent", "succedent"):
        with pytest.raises(AttributeError):
            setattr(s, name, getattr(s, name))
        with pytest.raises(AttributeError):
            delattr(s, name)
    with pytest.raises(AttributeError):
        s.extra = 1
    assert s == Sequent((p, q), r)


def test_sequents_survive_copy_deepcopy_and_pickle():
    for s in (Sequent((p, Neg(q), Imp(p, q)), r), Sequent((And(p, q),), None), Sequent((), Or(p, q))):
        for t in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert type(t) is Sequent
            assert t == s and hash(t) == hash(s)
            assert t.antecedent == s.antecedent and t.succedent == s.succedent
            assert str(t) == str(s)


# -- weights ----------------------------------------------------------------


def test_print_sequent_is_injective_on_a_family():
    family = sequent_family(formula_universe(["p", "q"], 2), 4)
    prints = [print_sequent(s) for s in family]
    assert len(set(prints)) == len(prints)


def test_weight_examples():
    assert weight(p) == 1
    assert weight(Imp(Neg(p), Imp(p, q))) == 6
    assert sequent_weight(Sequent((Neg(A), A), B)) == 4
    assert sequent_weight(Sequent((Neg(A), A), None)) == 3


def test_weight_monotone():
    rng = random.Random(11)
    for _ in range(200):
        f = random_formula(rng, ["p", "q"], 8)
        if isinstance(f, Neg):
            assert weight(f) > weight(f.sub)
        elif not isinstance(f, Atom):
            assert weight(f) > weight(f.left)
            assert weight(f) > weight(f.right)


def _structure(f):
    """f as nested tuples: its constructor, then its fields."""
    if isinstance(f, Atom):
        return (Atom, f.name)
    if isinstance(f, Neg):
        return (Neg, _structure(f.sub))
    return (type(f), _structure(f.left), _structure(f.right))


def _build(t):
    ctor, *args = t
    return ctor(*(a if ctor is Atom else _build(a) for a in args))


def test_ordering_is_strict_total_order():
    pool = formula_universe(["p", "q"], 4)
    for f in pool:
        for g in pool:
            if f == g:
                assert formula_key(f) == formula_key(g)
                assert antecedent_key(f) == antecedent_key(g)
            else:
                assert (formula_key(f) < formula_key(g)) != (formula_key(g) < formula_key(f))
                assert (antecedent_key(f) < antecedent_key(g)) != (
                    antecedent_key(g) < antecedent_key(f)
                )
    # == and hash agree with structure, also between separately built trees
    shapes = [_structure(f) for f in pool]
    copies = [_build(t) for t in shapes]
    for f, sf in zip(pool, shapes):
        for g, sg in zip(copies, shapes):
            assert (f == g) == (sf == sg)
            if sf == sg:
                assert hash(f) == hash(g)


def test_deep_formula_needs_no_recursion():
    def chain():
        f, negs, w = Atom("p"), 0, 1
        for i in range(10_000):
            if i % 100:
                f, negs, w = Neg(f), negs + 1, w + 1
            else:
                f, w = Imp(f, Atom("q")), w + 2
        return f, negs, w

    f, negs, w = chain()
    g, _, _ = chain()
    assert f is not g
    assert weight(f) == w
    assert print_formula(f).count("~") == negs
    assert f == g and hash(f) == hash(g)
    assert f != g.sub and formula_key(f) == formula_key(g)


def test_formula_is_freed_when_its_users_are():
    f = parse_formula("(p -> q) -> ~q -> ~p")
    for read in (print_formula, weight, formula_key, antecedent_key):
        read(f)
    goal = Sequent((), f)
    assert Engine().decide(goal).is_provable
    assert IntProver().decide(goal)
    ref = weakref.ref(f)
    del f, goal
    gc.collect()
    assert ref() is None


# -- enumerations -----------------------------------------------------------


def test_formula_universe_counts():
    assert len(formula_universe(["p", "q"], 1)) == 2
    assert len(formula_universe(["p", "q"], 2)) == 4
    assert len(formula_universe(["p", "q"], 3)) == 18
    assert len(formula_universe(["p", "q"], 5)) == 274


def test_enumerated_formulas_are_freed_when_dropped():
    universe = formula_universe(["p", "q"], 6)
    refs = [weakref.ref(f) for f in universe]
    del universe
    gc.collect()
    assert len(refs) == 1_116
    assert all(ref() is None for ref in refs)


def test_formula_universe_subformula_closed():
    u = formula_universe(["p", "q"], 4)
    assert is_subformula_closed(u)
    assert subformulas(parse_formula("~A -> (A -> B)")) == {
        A,
        B,
        Neg(A),
        Imp(A, B),
        Imp(Neg(A), Imp(A, B)),
    }


def test_subformulas_of_several_formulas_is_their_union():
    fs = [parse_formula(t) for t in ("~A -> (A -> B)", "A & C", "A")]
    assert subformulas(*fs) == subformulas(fs[0]) | subformulas(fs[1]) | subformulas(fs[2])
    assert subformulas() == frozenset()
    assert not is_subformula_closed([fs[1]])


@pytest.mark.parametrize(
    "cap, size, digest",
    [
        (4, 232, "5efc68a46edf8029a335b1fea5ca83d7a99f73ae0e56cdbafd5f623ed0196411"),
        (5, 1_080, "ae7147d1842525b972d3041d322bc5a5a6f572f73de2a4f4a3d3c967ec6a62f8"),
        (6, 5_078, "ccbae679b1296e9deb9aa57f99c778158ebf797851b0229436d17da8117ff2c7"),
    ],
)
def test_sequent_family_is_pinned(cap, size, digest):
    family = sequent_family(formula_universe(["p", "q"], cap), cap)
    printed = "\n".join(print_sequent(s) for s in family)
    assert len(family) == size
    assert hashlib.sha256(printed.encode()).hexdigest() == digest


def test_sequent_family_bounds_and_content():
    universe = formula_universe(["p", "q"], 2)
    family = sequent_family(universe, 4)
    assert all(sequent_weight(s) <= 4 for s in family)
    assert all(s.antecedent or s.succedent is not None for s in family)
    assert parse_sequent("~p, p |-") in family
    assert parse_sequent("p |- p") in family
    assert parse_sequent("|- ~q") in family
    assert len(set(family)) == len(family)
    weights = [sequent_weight(s) for s in family]
    assert weights == sorted(weights)
