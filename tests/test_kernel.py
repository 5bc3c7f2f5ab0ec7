import ast
import copy
import pickle
from pathlib import Path

import pytest

import coreseq.engine
import coreseq.kernel
from coreseq import (
    Atom,
    Derivation,
    Imp,
    Neg,
    RULE_NAMES,
    check_derivation,
    check_rule,
    derivation_from_json,
    derivation_to_json,
    fixture_derivations,
    fixture_path,
    height,
    parse_sequent,
    save_derivation,
)
from coreseq.kernel import FIXTURE_NAMES

S = parse_sequent
A, B = Atom("A"), Atom("B")


# -- check_rule -------------------------------------------------------------


def test_lneg_instance_from_axiom():
    assert check_rule(S("~A, A |-"), "LNeg", [S("A |- A")]) is None


def test_axiom_instance():
    assert check_rule(S("p |- p"), "Ax", []) is None


def test_unknown_rule_rejected():
    v = check_rule(S("B, ~A, A |-"), "Wk", [S("~A, A |-")])
    assert v is not None and v.clause == "unknown-rule"


def test_weakening_step_rejected_by_every_rule():
    conclusion, premise = S("B, ~A, A |-"), S("~A, A |-")
    for rule in RULE_NAMES:
        v = check_rule(conclusion, rule, [premise])
        assert v is not None, f"{rule} wrongly accepted a weakening step"


def test_arity_violations():
    assert check_rule(S("p |- p"), "Ax", [S("p |- p")]).clause == "arity"
    assert check_rule(S("p & q |- p"), "LAnd", []).clause == "arity"
    assert check_rule(S("p |- p & p"), "RAnd", [S("p |- p")]).clause == "arity"
    # one premise too many for every rule, and one too few wherever it takes any
    arities = {"Ax": 0, "LNeg": 1, "RNeg": 1, "LAnd": 1, "RAnd": 2, "LOr": 2,
               "ROr1": 1, "ROr2": 1, "LImp": 2, "RImpA": 1, "RImpB": 1}
    assert set(arities) == set(RULE_NAMES)
    goal, premise = S("p, q |- p & q"), S("p |- p")
    for rule, arity in arities.items():
        counts = (arity + 1, arity - 1) if arity else (arity + 1,)
        for n in counts:
            v = check_rule(goal, rule, [premise] * n)
            assert v is not None and v.clause == "arity", (rule, n)
            assert v.message == f"{rule} takes {arity} premise(s), got {n}"


def test_rule_table_follows_the_engine_numbering():
    assert len(RULE_NAMES) == 11
    for i, rule in enumerate(RULE_NAMES):
        assert getattr(coreseq.engine, "_" + rule.upper()) == i, rule


def test_axiom_needs_singleton_antecedent():
    v = check_rule(S("p, q |- p"), "Ax", [])
    assert v.clause == "ax-singleton"
    assert check_rule(S("p |- q"), "Ax", []) is not None


def test_axiom_on_compound_formula():
    assert check_rule(S("~A |- ~A"), "Ax", []) is None
    assert check_rule(S("p -> q |- p -> q"), "Ax", []) is None


def test_rneg_discharge_is_mandatory():
    assert check_rule(S("~A |- ~A"), "RNeg", [S("~A, A |-")]) is None
    # conclusion may not keep the discharged formula
    v = check_rule(S("A |- ~A"), "RNeg", [S("A |-")])
    assert v is not None
    v = check_rule(S("~A, A |- ~A"), "RNeg", [S("~A, A |-")])
    assert v.clause == "rneg-retained"


def test_land_side_condition():
    assert check_rule(S("p & q |- p"), "LAnd", [S("p |- p")]) is None
    assert check_rule(S("p & q |- p"), "LAnd", [S("p, q |- p")]) is None
    v = check_rule(S("p & q |- r"), "LAnd", [S("r |- r")])
    assert v is not None and v.clause in ("land-side-condition", "land-antecedent")


def test_land_conclusion_cannot_keep_a_conjunct():
    v = check_rule(S("p & q, p |- p"), "LAnd", [S("p |- p")])
    assert v is not None


def test_land_succedent_modes():
    # absurdity may flow through LAnd only in the default mode
    assert check_rule(S("p & q, ~p |-"), "LAnd", [S("p, ~p |-")]) is None
    v = check_rule(S("p & q, ~p |-"), "LAnd", [S("p, ~p |-")], mode="strict-table")
    assert v is not None and v.clause == "land-strict-succedent"


def test_limp_succedent_modes():
    concl, prems = S("p -> q, p, ~q |-"), [S("p |- p"), S("q, ~q |-")]
    assert check_rule(concl, "LImp", prems) is None
    v = check_rule(concl, "LImp", prems, mode="strict-table")
    assert v is not None and v.clause == "limp-strict-succedent"


def test_rand_unions_contexts():
    assert check_rule(S("p, q |- p & q"), "RAnd", [S("p |- p"), S("q |- q")]) is None
    assert check_rule(S("p |- p & p"), "RAnd", [S("p |- p"), S("p |- p")]) is None
    v = check_rule(S("p, q, r |- p & q"), "RAnd", [S("p |- p"), S("q |- q")])
    assert v is not None


def test_lor_succedent_combinations():
    # (C, C), (C, absurd), (absurd, C) conclude C; (absurd, absurd) concludes absurd
    assert check_rule(S("p | q |- p"), "LOr", [S("p |- p"), S("q |- p")]) is None
    assert check_rule(S("p | p |- p"), "LOr", [S("p |- p"), S("p |- p")]) is None
    assert check_rule(S("p | ~p, p |- p"), "LOr", [S("p |- p"), S("~p, p |-")]) is None
    assert check_rule(S("~p | p, p |- p"), "LOr", [S("~p, p |-"), S("p |- p")]) is None
    assert check_rule(S("~p | ~q, p, q |-"), "LOr", [S("~p, p |-"), S("~q, q |-")]) is None
    # formula premises must agree
    v = check_rule(S("p | q |- p"), "LOr", [S("p |- p"), S("q |- q")])
    assert v is not None and v.clause == "lor-premise-agreement"


def test_ror_variants():
    assert check_rule(S("p |- p | q"), "ROr1", [S("p |- p")]) is None
    assert check_rule(S("q |- p | q"), "ROr2", [S("q |- q")]) is None
    assert check_rule(S("q |- p | q"), "ROr1", [S("q |- q")]) is not None


def test_rimpa_vacuous_consequent():
    assert check_rule(S("~A |- A -> B"), "RImpA", [S("~A, A |-")]) is None
    # the conditional's antecedent may already sit in the context
    assert check_rule(S("~A, A |- A -> B"), "RImpA", [S("~A, A |-")]) is None


def test_rimpb_optional_discharge():
    # with the discharged formula present in the premise
    assert check_rule(S("|- A -> A"), "RImpB", [S("A |- A")]) is None
    # and without it
    assert check_rule(S("q |- p -> q"), "RImpB", [S("q |- q")]) is None
    # the conclusion may never keep it
    v = check_rule(S("A |- A -> A"), "RImpB", [S("A |- A")])
    assert v is not None


# -- check_derivation -------------------------------------------------------


def test_all_valid_fixtures_check():
    fx = fixture_derivations()
    for name in ("lemma1-right", "lemma1-left", "contradiction1", "contradiction2", "d1-upper", "d2"):
        assert check_derivation(fx[name]) is None, name


def test_fixture_conclusions():
    fx = fixture_derivations()
    assert fx["lemma1-right"].conclusion == S("d |- (p -> p) & d")
    assert fx["lemma1-left"].conclusion == S("(p -> p) & d |- d")
    assert fx["contradiction1"].conclusion == S("~(d -> c), ((p -> p) & d) -> c |-")
    assert fx["contradiction2"].conclusion == S("~(((p -> p) & d) -> c), d -> c |-")
    assert fx["d1-upper"].conclusion == S("|- ~A -> (A -> B)")
    assert fx["d2"].conclusion == S("~A -> (A -> B), ~A, A |- B")
    assert fx["d1-full-with-ltop"].conclusion == S("~A -> (A -> B), ~A, A |- B")
    assert fx["d1-full-with-ltop"].premises[0] == fx["d1-upper"]
    assert fx["d1-full-with-ltop"].premises[1] == Derivation(S("~A, A |- B"), "Ax")


def test_ltop_fixture_rejected_at_root():
    v = check_derivation(fixture_derivations()["d1-full-with-ltop"])
    assert v is not None
    assert v.clause == "unknown-rule"
    assert v.path == ()


def test_violation_path_points_at_offending_node():
    good = fixture_derivations()["d2"]
    # relabel the right-hand LImp branch's left axiom with a wrong rule;
    # the node checks pre-order before its parent's other descendants
    bad_leaf = Derivation(S("A |- A"), "RNeg")
    bad = Derivation(
        good.conclusion,
        "LImp",
        (good.premises[0], Derivation(good.premises[1].conclusion, "LImp", (bad_leaf, good.premises[1].premises[1]))),
    )
    v = check_derivation(bad)
    assert v is not None and v.path == (1, 0)
    assert v.clause == "arity"


def test_heights():
    fx = fixture_derivations()
    assert height(Derivation(S("p |- p"), "Ax")) == 0
    assert {name: height(d) for name, d in fx.items()} == {
        "lemma1-right": 2,
        "lemma1-left": 1,
        "contradiction1": 5,
        "contradiction2": 4,
        "d1-upper": 3,
        "d2": 3,
        "d1-full-with-ltop": 4,
    }


def test_height_equals_max_leaf_depth():
    def leaf_depths(d, depth=0):
        if not d.premises:
            yield depth
        for sub in d.premises:
            yield from leaf_depths(sub, depth + 1)

    for d in fixture_derivations().values():
        assert height(d) == max(leaf_depths(d))


def test_every_subtree_of_valid_derivation_is_valid():
    def subtrees(d):
        yield d
        for sub in d.premises:
            yield from subtrees(sub)

    fx = fixture_derivations()
    for name in ("d2", "contradiction1", "contradiction2", "lemma1-right"):
        for sub in subtrees(fx[name]):
            assert check_derivation(sub) is None


def test_axiom_leaves_are_relevant():
    def leaves(d):
        if not d.premises:
            yield d
        for sub in d.premises:
            yield from leaves(sub)

    fx = fixture_derivations()
    for name in ("d1-upper", "d2", "contradiction1", "contradiction2"):
        for leaf in leaves(fx[name]):
            assert leaf.rule == "Ax"
            assert len(leaf.conclusion.antecedent) == 1
            assert leaf.conclusion.antecedent[0] == leaf.conclusion.succedent


def test_no_weakening_structural_property():
    # every conclusion-antecedent member is either introduced by the rule
    # or occurs in some premise antecedent
    def nodes(d):
        yield d
        for sub in d.premises:
            yield from nodes(sub)

    introduced = {
        "LNeg": lambda n: {Neg(n.premises[0].conclusion.succedent)},
        "LAnd": lambda n: {f for f in n.conclusion.antecedent if f not in n.premises[0].conclusion.antecedent},
        "LOr": lambda n: set(n.conclusion.antecedent),
        "LImp": lambda n: {
            f
            for f in n.conclusion.antecedent
            if isinstance(f, Imp) and f.left == n.premises[0].conclusion.succedent
        },
    }
    fx = fixture_derivations()
    for name in ("d1-upper", "d2", "contradiction1", "contradiction2", "lemma1-right", "lemma1-left"):
        for n in nodes(fx[name]):
            if n.rule == "Ax":
                continue
            allowed = introduced.get(n.rule, lambda _: set())(n)
            premise_material = {f for p in n.premises for f in p.conclusion.antecedent}
            for f in n.conclusion.antecedent:
                assert f in premise_material or f in allowed, (name, n.rule, f)


# -- JSON serialisation -----------------------------------------------------


def test_json_roundtrip():
    for d in fixture_derivations().values():
        assert derivation_from_json(derivation_to_json(d)) == d


def test_json_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown derivation node keys"):
        derivation_from_json({"rule": "Ax", "conclusion": "p |- p", "premises": [], "note": "x"})


def test_json_requires_rule_and_conclusion():
    with pytest.raises(ValueError):
        derivation_from_json({"conclusion": "p |- p", "premises": []})
    with pytest.raises(ValueError):
        derivation_from_json({"rule": "Ax", "premises": []})
    with pytest.raises(ValueError):
        derivation_from_json({"rule": 3, "conclusion": "p |- p", "premises": []})
    with pytest.raises(ValueError):
        derivation_from_json(["Ax"])
    with pytest.raises(ValueError, match="'premises' must be a list"):
        derivation_from_json({"rule": "Ax", "conclusion": "p |- p", "premises": 5})
    with pytest.raises(ValueError, match="'premises' must be a list"):
        derivation_from_json({"rule": "Ax", "conclusion": "p |- p", "premises": None})
    with pytest.raises(ValueError, match="'conclusion' must be a string"):
        derivation_from_json({"rule": "Ax", "conclusion": 5, "premises": []})


@pytest.mark.parametrize(
    "node, message",
    [
        (["Ax"], "derivation node must be an object, got list"),
        (
            {"rule": "Ax", "conclusion": "p |- p", "premises": [], "note": "x"},
            "unknown derivation node keys: ['note']",
        ),
        ({"conclusion": "p |- p", "premises": []}, "derivation node needs 'rule' and 'conclusion'"),
        ({"rule": 3, "conclusion": "p |- p", "premises": []}, "'rule' must be a string"),
        ({"rule": "Ax", "conclusion": None, "premises": []}, "'conclusion' must be a string"),
        ({"rule": "Ax", "conclusion": "p |- p", "premises": ()}, "'premises' must be a list"),
    ],
)
def test_json_error_messages(node, message):
    # each node fails exactly one condition; as the root and as a premise
    good = {"rule": "Ax", "conclusion": "p |- p", "premises": []}
    for obj in (node, {"rule": "RAnd", "conclusion": "p |- p & p", "premises": [good, node]}):
        with pytest.raises(ValueError) as exc:
            derivation_from_json(obj)
        assert str(exc.value) == message


def test_json_leaf_without_premises_loads():
    leaf = Derivation(S("p |- p"), "Ax", ())
    assert derivation_from_json({"rule": "Ax", "conclusion": "p |- p"}) == leaf
    obj = {"rule": "RAnd", "conclusion": "p |- p & p", "premises": [{"rule": "Ax", "conclusion": "p |- p"}] * 2}
    assert derivation_from_json(obj) == Derivation(S("p |- p & p"), "RAnd", (leaf, leaf))


def test_json_accepts_unknown_rule_names_for_checking():
    d = derivation_from_json({"rule": "Cut", "conclusion": "p |- p", "premises": []})
    v = check_derivation(d)
    assert v is not None and v.clause == "unknown-rule"


def test_fixture_files_are_canonical_and_complete(tmp_path):
    fx = fixture_derivations()
    assert tuple(fx) == FIXTURE_NAMES
    for name, d in fx.items():
        written = tmp_path / f"{name}.json"
        save_derivation(d, written)
        assert written.read_bytes() == fixture_path(name).read_bytes(), name


_AX = {"rule": "Ax", "conclusion": "p |- p", "premises": []}


def _limp_tower(depth, deepest):
    """p -> p, p |- p by LImp from p |- p and itself again (the principal is
    retained), stacked `depth` high on the leaf `deepest`, as JSON."""
    obj = {"rule": "LImp", "conclusion": "p -> p, p |- p", "premises": [_AX, deepest]}
    for _ in range(depth - 1):
        obj = {"rule": "LImp", "conclusion": "p -> p, p |- p", "premises": [_AX, obj]}
    return obj


def test_deep_derivation_loads_checks_and_serializes():
    # the loader, the checker, the serializer and height walk a tower 10^4
    # high without recursion
    depth = 10_000
    obj = _limp_tower(depth, _AX)
    d = derivation_from_json(obj)
    assert check_derivation(d) is None
    assert height(d) == depth
    # compared node by node: == on nested dicts would itself recurse
    pairs = [(derivation_to_json(d), obj)]
    nodes = 0
    while pairs:
        got, want = pairs.pop()
        assert (got["rule"], got["conclusion"]) == (want["rule"], want["conclusion"])
        assert len(got["premises"]) == len(want["premises"])
        pairs += zip(got["premises"], want["premises"])
        nodes += 1
    assert nodes == 2 * depth + 1


def _formulas_below(s):
    """Every formula object inside the sequent's formulas, by text."""
    found = {}
    for f in s.antecedent + ((s.succedent,) if s.succedent is not None else ()):
        stack = [f]
        while stack:
            g = stack.pop()
            found.setdefault(g.text, set()).add(id(g))
            stack += [g.sub] if isinstance(g, Neg) else [] if isinstance(g, Atom) else [g.left, g.right]
    return found


@pytest.mark.parametrize("goal", ["|- ~A -> (A -> B)", "|- p -> p -> p -> p", "~A -> (A -> B), ~A, A |- B"])
def test_premises_share_the_root_formulas(goal):
    # every premise formula of a canonical derivation is a subformula of the
    # root, and the loader builds it once: the premise holds the very object
    d = derivation_from_json(derivation_to_json(coreseq.engine.Engine().decide(S(goal)).derivation))
    root = _formulas_below(d.conclusion)
    shared = 0
    stack = list(d.premises)
    while stack:
        node = stack.pop()
        c = node.conclusion
        for f in c.antecedent + ((c.succedent,) if c.succedent is not None else ()):
            assert id(f) in root[f.text], f.text
            shared += 1
        stack += node.premises
    assert shared >= 3


def test_chain_derivation_400_levels_deep_loads_and_checks():
    goal = S("|- " + " -> ".join(["p"] * 401))
    d = coreseq.engine.Engine().decide(goal).derivation
    loaded = derivation_from_json(derivation_to_json(d))
    assert loaded == d and height(loaded) == 400
    assert check_derivation(loaded) is None


def test_deep_derivations_print_copy_and_pickle_without_recursion():
    def recursive_repr(d):
        # the dataclass-style text the explicit stack must reproduce
        premises = tuple(recursive_repr(p) for p in d.premises)
        inner = "(" + premises[0] + ",)" if len(premises) == 1 else "(" + ", ".join(premises) + ")"
        return f"Derivation(conclusion={d.conclusion!r}, rule={d.rule!r}, premises={inner})"

    shallow = derivation_from_json(_limp_tower(50, {"rule": "RNeg", "conclusion": "|- ~p", "premises": [_AX]}))
    assert repr(shallow) == recursive_repr(shallow)
    depth = 10_000
    d = derivation_from_json(_limp_tower(depth, _AX))
    step = f"Derivation(conclusion={d.conclusion!r}, rule='LImp', premises=({d.premises[0]!r}, "
    # compared as a bool: a failing == on two 2 MB strings would be diffed
    same = repr(d) == step * depth + repr(d.premises[0]) + "))" * depth
    assert same
    for e in (copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert e is not d and e == d and height(e) == depth
    # a subtree used twice stays one object
    leaf = Derivation(S("p |- p"), "Ax")
    twice = copy.deepcopy(Derivation(S("p -> p, p |- p"), "LImp", (leaf, leaf)))
    assert twice.premises[0] is twice.premises[1] and twice.premises[0] is not leaf


def test_deep_derivations_compare_and_hash_without_recursion():
    depth = 10_000
    a = derivation_from_json(_limp_tower(depth, _AX))
    b = derivation_from_json(_limp_tower(depth, _AX))
    assert a is not b and a.premises[1] is not b.premises[1]
    assert a == b and not a != b
    assert hash(a) == hash(b)
    # towers that differ only in the deepest leaf
    for deepest in ({**_AX, "conclusion": "q |- q"}, {**_AX, "rule": "RNeg"}):
        c = derivation_from_json(_limp_tower(depth, deepest))
        assert a != c and c != a and not a == c
        hash(c)


def test_derivation_value_semantics():
    leaf = Derivation(S("p |- p"), "Ax")
    d = Derivation(S("p -> p, p |- p"), "LImp", [leaf, leaf])
    assert d.premises == (leaf, leaf)
    assert d == Derivation(conclusion=S("p, p -> p |- p"), rule="LImp", premises=(leaf, leaf))
    assert d != Derivation(S("p -> p, p |- p"), "LImp", (leaf,))
    assert d != Derivation(S("p -> p, p |- p"), "LOr", (leaf, leaf))
    assert (d == S("p -> p, p |- p")) is False
    assert {d, Derivation(S("p -> p, p |- p"), "LImp", (leaf, leaf))} == {d}
    assert repr(leaf) == (
        "Derivation(conclusion=Sequent(antecedent=(Atom('p'),), succedent=Atom('p')), rule='Ax', premises=())"
    )
    for name in ("conclusion", "rule", "premises"):
        with pytest.raises(AttributeError):
            setattr(d, name, getattr(d, name))
        with pytest.raises(AttributeError):
            delattr(d, name)
    for e in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert e == d and hash(e) == hash(d)


def test_json_errors_name_the_first_bad_node_in_preorder():
    good = {"rule": "Ax", "conclusion": "p |- p", "premises": []}
    obj = {
        "rule": "RAnd",
        "conclusion": "p |- p & p",
        "premises": [
            {"rule": "LNeg", "conclusion": "p |- p", "premises": [good, {"rule": 1, "conclusion": "p |- p"}]},
            {"rule": "Ax", "conclusion": 5},
        ],
    }
    with pytest.raises(ValueError, match="'rule' must be a string"):
        derivation_from_json(obj)


def test_no_kernel_function_calls_itself():
    """The trusted kernel walks derivations with explicit stacks, so its
    depth costs memory, not call frames."""
    tree = ast.parse(Path(coreseq.kernel.__file__).read_text(encoding="utf-8"))
    offenders = [
        (fn.name, call.lineno)
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for call in ast.walk(fn)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == fn.name
    ]
    assert offenders == []
