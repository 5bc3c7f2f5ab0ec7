"""The benchmark's three workloads and the layer entry points they call.

Each workload prepares what it needs from the seed in its constructor
(the set-up phase), then hands out rounds of items drawn from the same
seeded generator.  An item is a pair ``(run, check)``: ``run()`` is the
timed call into coreseq, ``check(out)`` compares its output with a
reference after the timer has stopped and returns ``None`` or a failure
message.  References never come from the call being timed: verdicts are
checked against the independent checker, the G4ip prover, the forward
closure or Kripke models, and no reference call is traced.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass

import coreseq
from coreseq import (
    And,
    Atom,
    Derivation,
    Imp,
    IntProver,
    Neg,
    Or,
    Sequent,
    check_derivation,
    derivation_from_json,
    height,
    l_top_transform,
    parse_formula,
    print_sequent,
)
from coreseq.admissibility import NOT_ADMISSIBLE, test_admissibility
from coreseq.syntax import subformulas

from spans import Tracer

# criterion 6's universe
STANDARD_UNIVERSE = ("p", "q", "~p", "~q", "p & q", "p | q", "p -> q", "q -> p", "p -> p")


@dataclass(frozen=True)
class Sizes:
    decide_round: int        # decide: queries per round
    sweep_cap: int           # sweep: formula and sequent weight cap of the 2-atom family
    admissibility_cap: int   # sweep: formula and sequent weight cap of criterion 5
    # verify: formula and sequent weight caps of the 2-atom family whose
    # provable rows give the derivation texts
    corpus_family: tuple[int, int]
    corpus_size: int         # verify: derivation texts re-checked per round
    closure_universe: tuple[str, ...]
    closure_cap: int
    kripke_items: int        # verify: G4ip-against-Kripke sequents per round
    kripke_worlds: int


FULL = Sizes(100, 6, 5, (5, 6), 4000, STANDARD_UNIVERSE, 7, 1500, 3)
TOY = Sizes(10, 4, 3, (3, 4), 60, ("p", "q", "~p", "~q"), 4, 50, 2)

TAMPER_SHARE = 0.25


class Layers:
    """The coreseq entry points a workload calls, traced or not.

    Untraced, the attributes are the library's own functions and classes.
    Traced, each call records a span named ``<module>.<operation>``, and
    the engine and prover classes are subclasses whose query methods are
    traced, so work that coreseq does with an engine handed to it (as in
    ``test_admissibility(..., engine=...)``) shows as nested spans.
    """

    def __init__(self, tracer: Tracer | None):
        wrap = tracer.wrap if tracer else (lambda _name, fn: fn)
        self.Engine = coreseq.Engine
        self.IntProver = coreseq.IntProver
        if tracer:
            # is_provable goes through min_height, so it is traced once
            self.Engine = type("TracedEngine", (coreseq.Engine,), {
                "decide": wrap("engine.decide", coreseq.Engine.decide),
                "min_height": wrap("engine.decide", coreseq.Engine.min_height),
            })
            self.IntProver = type("TracedIntProver", (coreseq.IntProver,), {
                "decide": wrap("intuitionistic.decide", coreseq.IntProver.decide),
            })
        self.parse_sequent = wrap("syntax.parse", coreseq.parse_sequent)
        self.formula_universe = wrap("syntax.enumerate", coreseq.formula_universe)
        self.sequent_family = wrap("syntax.enumerate", coreseq.sequent_family)
        self.derivation_to_json = wrap("kernel.serialize", coreseq.derivation_to_json)
        self.derivation_from_json = wrap("kernel.load", coreseq.derivation_from_json)
        self.check_derivation = wrap("kernel.check", coreseq.check_derivation)
        self.forward_closure = wrap("engine.closure", coreseq.forward_closure)
        self.countermodel = wrap("intuitionistic.countermodel", coreseq.countermodel)
        self.test_admissibility = wrap("admissibility.test", test_admissibility)


def random_formula(rng: random.Random, atoms: tuple[str, ...], w: int):
    """A random formula of weight exactly ``w``."""
    if w == 1:
        return Atom(rng.choice(atoms))
    if w == 2:
        return Neg(Atom(rng.choice(atoms)))
    kind = rng.randrange(4)
    if kind == 0:
        return Neg(random_formula(rng, atoms, w - 1))
    lw = rng.randint(1, w - 2)
    return (And, Or, Imp)[kind - 1](
        random_formula(rng, atoms, lw), random_formula(rng, atoms, w - 1 - lw)
    )


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    """``parts`` positive weights summing to ``total``."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def atoms_of_tree(d: Derivation) -> set[str]:
    """Names of the atoms in every formula of the tree."""
    names: set[str] = set()
    stack = [d]
    while stack:
        node = stack.pop()
        c = node.conclusion
        for f in c.antecedent + ((c.succedent,) if c.succedent is not None else ()):
            names.update(g.name for g in subformulas(f) if isinstance(g, Atom))
        stack.extend(node.premises)
    return names


def tamper(d: Derivation, to_json) -> dict:
    """The derivation's JSON with a fresh atom added to the root antecedent.

    The result is always rejected at the root (path ``()``).  The premises'
    conclusions are unchanged, and in each of the eleven rules every
    antecedent formula of the conclusion is either the rule's principal
    formula, which is compound except in Ax, or occurs in a premise's
    antecedent; Ax also needs a singleton antecedent, which the extra atom
    breaks.  The new atom occurs in no formula of the tree, so it is
    neither.  The checker visits the root first, so the first violation it
    reports is at the root.
    """
    used = atoms_of_tree(d)
    fresh = next(n for n in (f"x{i}" for i in itertools.count()) if n not in used)
    root = d.conclusion
    obj = to_json(d)
    obj["conclusion"] = print_sequent(Sequent(root.antecedent + (Atom(fresh),), root.succedent))
    return obj


class Workload:
    """Set-up happens in the constructor; ``counts`` collects the per-item
    counts that the checks read from public return values."""

    def __init__(self, layers: Layers, seed: int, sizes: Sizes):
        self.rng = random.Random(seed)
        self.sizes = sizes
        self.counts: Counter = Counter()

    def round_inputs(self):
        """The next round's inputs, drawn from the seeded generator."""
        raise NotImplementedError

    def items(self, inputs, layers: Layers) -> list:
        """The round's ``(run, check)`` pairs, calling coreseq through ``layers``."""
        raise NotImplementedError


class Decide(Workload):
    """Closed loop, one client: parse, fresh-engine decide, serialize."""

    def __init__(self, layers, seed, sizes):
        super().__init__(layers, seed, sizes)
        self.reference = IntProver()
        self.drawn = 0

    def _query(self) -> Sequent:
        rng = self.rng
        self.drawn += 1
        if self.drawn % 2:
            return Sequent((), random_formula(rng, ("p", "q"), rng.randint(6, 9)))
        n = rng.randint(1, 4)
        absurd = rng.random() < 0.25
        parts = n + (0 if absurd else 1)
        weights = _split(rng, rng.randint(parts, 9), parts)
        fs = [random_formula(rng, ("p", "q", "r"), w) for w in weights]
        return Sequent(tuple(fs[:n]), None if absurd else fs[n])

    def round_inputs(self):
        return [(print_sequent(s), s) for s in (self._query() for _ in range(self.sizes.decide_round))]

    def items(self, inputs, L):
        return [self._item(L, text, expected) for text, expected in inputs]

    def _item(self, L, text, expected):
        def run():
            goal = L.parse_sequent(text)
            res = L.Engine().decide(goal)
            js = L.derivation_to_json(res.derivation) if res.is_provable else None
            return goal, res, js

        def check(out):
            goal, res, js = out
            if goal != expected:
                return f"parsed {text!r} to another sequent"
            stats = res.stats if res.is_provable else res.certificate
            self.counts.update(
                engine_queries=1,
                provable=res.is_provable,
                goals_distinct=stats.distinct_goals,
                goals_expanded=stats.goals_expanded,
            )
            int_ok = self.reference.decide(goal)
            if res.is_provable:
                d = res.derivation
                v = check_derivation(d)
                if v is not None:
                    return f"{text}: derivation rejected ({v.clause} at {v.path})"
                if d.conclusion != goal:
                    return f"{text}: derivation concludes another sequent"
                if height(d) != res.min_height:
                    return f"{text}: height {height(d)} but min_height {res.min_height}"
                if derivation_from_json(js) != d:
                    return f"{text}: serialized derivation does not load back"
                if not int_ok:
                    return f"{text}: Core-provable but not intuitionistically provable"
            if not goal.antecedent and res.is_provable != int_ok:
                return f"{text}: Core and intuitionistic theoremhood differ"
            return None

        return run, check


class Sweep(Workload):
    """One shared engine and prover over the whole 2-atom family, then
    criterion 5 on the same engine."""

    def __init__(self, layers, seed, sizes):
        super().__init__(layers, seed, sizes)
        c, a = sizes.sweep_cap, sizes.admissibility_cap
        self.family = layers.sequent_family(layers.formula_universe(("p", "q"), c), c)
        self.adm_universe = layers.formula_universe(("p", "q"), a)
        self.transform = l_top_transform(parse_formula("p -> p"))

    def round_inputs(self):
        order = list(self.family)
        self.rng.shuffle(order)
        return order

    def items(self, order, L):
        engine, prover = L.Engine(), L.IntProver()
        out = [self._row(engine, prover, s) for s in order]

        def admissibility():
            return L.test_admissibility(
                self.transform, self.adm_universe, self.sizes.admissibility_cap, engine=engine
            )

        def check_admissibility(v):
            if v.status != NOT_ADMISSIBLE:
                return f"theorem prefix verdict {v.status}, expected {NOT_ADMISSIBLE}"
            first = print_sequent(v.witnesses[0].premise)
            if first != "q |- q":
                return f"first witness {first!r}, expected 'q |- q'"
            return None

        out.append((admissibility, check_admissibility))
        return out

    def _row(self, engine, prover, s):
        def run():
            return engine.min_height(s), prover.decide(s)

        def check(out):
            h, int_ok = out
            self.counts.update(engine_queries=1, provable=h is not None)
            if h is not None and not int_ok:
                return f"{print_sequent(s)}: Core-provable but not intuitionistically provable"
            if not s.antecedent and (h is not None) != int_ok:
                return f"{print_sequent(s)}: Core and intuitionistic theoremhood differ"
            return None

        return run, check


class Verify(Workload):
    """Re-checking evidence with the components that do no backward search:
    (a) derivation texts through the loader and checker, (b) criterion 6's
    forward closure, (c) G4ip verdicts against Kripke countermodels."""

    def __init__(self, layers, seed, sizes):
        super().__init__(layers, seed, sizes)
        fw, c = sizes.corpus_family
        engine = layers.Engine()
        # (valid text, tampered text, recorded height) per provable row
        self.sources = []
        for s in layers.sequent_family(layers.formula_universe(("p", "q"), fw), c):
            res = engine.decide(s)
            if res.is_provable:
                d = res.derivation
                self.sources.append((
                    json.dumps(layers.derivation_to_json(d)),
                    json.dumps(tamper(d, layers.derivation_to_json)),
                    res.min_height,
                ))
        self.universe = [parse_formula(t) for t in sizes.closure_universe]
        self.closure_expected = frozenset(
            s for s in layers.sequent_family(self.universe, sizes.closure_cap)
            if engine.is_provable(s)
        )

    def round_inputs(self):
        # fresh draws every round, so a run samples many more inputs than one
        # round holds and the seed moves the figures less
        rng = self.rng
        corpus = []
        for _ in range(self.sizes.corpus_size):
            text, tampered, h = rng.choice(self.sources)
            corpus.append((tampered, None) if rng.random() < TAMPER_SHARE else (text, h))
        kripke = []
        for _ in range(self.sizes.kripke_items):
            n = rng.randint(0, 3)
            ants = tuple(random_formula(rng, ("p", "q", "r"), rng.randint(1, 4)) for _ in range(n))
            absurd = n > 0 and rng.random() < 0.2
            succ = None if absurd else random_formula(rng, ("p", "q", "r"), rng.randint(1, 5))
            kripke.append(Sequent(ants, succ))
        return corpus, kripke

    def items(self, inputs, L):
        corpus, kripke = inputs
        out = [self._derivation(L, text, h) for text, h in corpus]

        def closure():
            return L.forward_closure(self.universe, self.sizes.closure_cap)

        def check_closure(derived):
            self.counts.update(closures=1, closure_sequents=len(derived))
            if derived != self.closure_expected:
                diff = derived ^ self.closure_expected
                return f"closure and engine disagree on {len(diff)} sequents"
            return None

        out.append((closure, check_closure))
        prover = L.IntProver()
        out.extend(self._kripke(L, prover, s) for s in kripke)
        return out

    def _derivation(self, L, text, recorded_height):
        def run():
            d = L.derivation_from_json(json.loads(text))
            return d, L.check_derivation(d)

        def check(out):
            d, v = out
            self.counts.update(nodes_checked=_nodes(d), rejected=v is not None)
            if recorded_height is None:
                if v is None or v.path != ():
                    return f"tampered derivation not rejected at the root: {v}"
                return None
            if v is not None:
                return f"engine derivation rejected ({v.clause} at {v.path})"
            if height(d) != recorded_height:
                return f"loaded height {height(d)}, recorded {recorded_height}"
            return None

        return run, check

    def _kripke(self, L, prover, s):
        k = self.sizes.kripke_worlds

        def run():
            return prover.decide(s), L.countermodel(s, k)

        def check(out):
            int_ok, model = out
            self.counts.update(models_found=model is not None, unresolved=not int_ok and model is None)
            if int_ok and model is not None:
                return f"{print_sequent(s)}: G4ip-provable but has a Kripke countermodel"
            return None

        return run, check


def _nodes(d: Derivation) -> int:
    n, stack = 0, [d]
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(node.premises)
    return n


WORKLOADS = {"decide": Decide, "sweep": Sweep, "verify": Verify}
