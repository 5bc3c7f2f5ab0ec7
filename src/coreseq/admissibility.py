"""Empirical admissibility testing over bounded sequent families.

A rule transform maps a provable sequent (the virtual premise) to the
sequent its rule would conclude.  Over every provable sequent in a
bounded family, the verdict is:

* NotAdmissible   - some transformed sequent is underivable (conclusive:
                    the witness refutes admissibility outright);
* Admissible      - all transformed sequents are derivable but at least
                    one needs a taller derivation than its premise;
* StronglyAdmissible - every transformed sequent is derivable at a height
                    no greater than its premise's (only "within bound").

Verdicts carry re-checkable witnesses, minimal-weight first.

`cross_check` and `theoremhood_report` compare the Core engine with G4ip
(`g4ip`), the intuitionistic oracle, over a bounded family.  This module is
where the two meet: neither oracle imports the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Iterator, Optional

from .engine import Engine
from .g4ip import IntProver
from .syntax import (
    And,
    Atom,
    Formula,
    Sequent,
    formula_key,
    formula_universe,
    print_formula,
    print_sequent,
    sequent_family,
    sequent_weight,
    subformulas,
)

NOT_ADMISSIBLE = "NotAdmissible"
ADMISSIBLE = "Admissible"
STRONGLY_ADMISSIBLE = "StronglyAdmissible"


@dataclass(frozen=True)
class RuleTransform:
    """Total map from well-formed sequents to well-formed sequents."""

    name: str
    apply: Callable[[Sequent], Sequent]


def add_left_transform(name: str, f: Formula) -> RuleTransform:
    return RuleTransform(name, lambda s: Sequent(s.antecedent + (f,), s.succedent))


def l_top_transform(top: Formula) -> RuleTransform:
    """Prefix the antecedent with a concrete theorem."""
    return add_left_transform(f"LTop[{print_formula(top)}]", top)


def weakening_transform(f: Formula) -> RuleTransform:
    """Left weakening by a fixed formula."""
    return add_left_transform(f"Wk[{print_formula(f)}]", f)


identity_transform = RuleTransform("Identity", lambda s: s)


def _json_value(v):
    if isinstance(v, Sequent):
        return print_sequent(v)
    if isinstance(v, Formula):
        return print_formula(v)
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    if hasattr(v, "to_json"):
        return v.to_json()
    return v


class _FieldsJSON:
    """A report whose JSON form is its dataclass fields, except those
    declared with metadata {"json": False}."""

    def to_json(self) -> dict:
        return {
            f.name: _json_value(getattr(self, f.name))
            for f in fields(self)
            if f.metadata.get("json", True)
        }


@dataclass(frozen=True)
class Witness:
    premise: Sequent
    premise_min_height: int
    transformed: Sequent
    transformed_provable: bool
    transformed_min_height: Optional[int]

    def to_json(self) -> dict:
        return {
            "premise": print_sequent(self.premise),
            "premise_min_height": self.premise_min_height,
            "transformed": print_sequent(self.transformed),
            "transformed_status": "provable" if self.transformed_provable else "unprovable",
            "transformed_min_height": self.transformed_min_height,
            "premise_cli": f'coreseq decide "{print_sequent(self.premise)}"',
            "transformed_cli": f'coreseq decide "{print_sequent(self.transformed)}"',
        }


@dataclass
class AdmissibilityVerdict(_FieldsJSON):
    rule: str
    universe: str
    mode: str
    status: str
    witnesses: list[Witness] = field(default_factory=list)
    sequents_tested: int = 0
    provable_tested: int = 0


def describe_universe(universe: Iterable[Formula], weight_cap: int) -> str:
    pool = sorted(set(universe), key=formula_key)
    atoms = sorted({g.name for f in pool for g in subformulas(f) if isinstance(g, Atom)})
    maxw = max((formula_key(f)[0] for f in pool), default=0)
    return (
        f"atoms={{{','.join(atoms)}}} formulas={len(pool)} "
        f"formula_weight<={maxw} sequent_weight<={weight_cap}"
    )


def test_admissibility(
    transform: RuleTransform,
    universe: Iterable[Formula],
    weight_cap: int,
    *,
    engine: Optional[Engine] = None,
) -> AdmissibilityVerdict:
    """Test one transform over every provable sequent in the bounded family."""
    eng = engine or Engine()
    pool = sorted(set(universe), key=formula_key)
    family = sequent_family(pool, weight_cap)

    counterexamples: list[Witness] = []
    height_increases: list[Witness] = []
    provable = 0
    for s in family:
        h = eng.min_height(s)
        if h is None:
            continue
        provable += 1
        t = transform.apply(s)
        th = eng.min_height(t)
        if th is None:
            counterexamples.append(Witness(s, h, t, False, None))
        elif th > h:
            height_increases.append(Witness(s, h, t, True, th))

    def ordered(ws: list[Witness]) -> list[Witness]:
        return sorted(ws, key=lambda w: (sequent_weight(w.premise), print_sequent(w.premise)))

    if counterexamples:
        status, witnesses = NOT_ADMISSIBLE, ordered(counterexamples)
    elif height_increases:
        status, witnesses = ADMISSIBLE, ordered(height_increases)
    else:
        status, witnesses = STRONGLY_ADMISSIBLE, []
    return AdmissibilityVerdict(
        rule=transform.name,
        universe=describe_universe(pool, weight_cap),
        mode=eng.mode,
        status=status,
        witnesses=witnesses,
        sequents_tested=len(family),
        provable_tested=provable,
    )


# ---------------------------------------------------------------------------
# The theorem-prefix equivalence study


@dataclass
class TopEquivalenceReport:
    """Derivability of the three sequents relating a set member to a
    theorem: the two conjunction directions and the two-element set form."""

    delta: Formula
    top: Formula
    conjunction_intro: tuple[bool, Optional[int]]   # delta |- top & delta
    conjunction_elim: tuple[bool, Optional[int]]    # top & delta |- delta
    set_form: tuple[bool, Optional[int]]            # top, delta |- delta
    mode: str

    @property
    def summary(self) -> str:
        def word(v):
            return "provable" if v[0] else "unprovable"

        return (
            f"delta -||- top & delta: {word(self.conjunction_intro)}/"
            f"{word(self.conjunction_elim)}; top, delta |- delta: {word(self.set_form)}"
        )

    def to_json(self) -> dict:
        def entry(seq: Sequent, v):
            return {
                "sequent": print_sequent(seq),
                "status": "provable" if v[0] else "unprovable",
                "min_height": v[1],
            }

        return {
            "delta": print_formula(self.delta),
            "top": print_formula(self.top),
            "mode": self.mode,
            "conjunction_intro": entry(
                Sequent((self.delta,), And(self.top, self.delta)), self.conjunction_intro
            ),
            "conjunction_elim": entry(
                Sequent((And(self.top, self.delta),), self.delta), self.conjunction_elim
            ),
            "set_form": entry(
                Sequent((self.top, self.delta), self.delta), self.set_form
            ),
            "summary": self.summary,
        }


def top_equivalence_study(delta: Formula, top: Formula, *, engine: Optional[Engine] = None) -> TopEquivalenceReport:
    """Contrast the conjunction equivalence with the two-element set reading.

    `top` must be a theorem (derivable with empty antecedent); the study
    decides delta |- top & delta, top & delta |- delta, and the critical
    third query top, delta |- delta, whose status shows whether prefixing
    the theorem as a separate set member preserves derivability.
    """
    eng = engine or Engine()
    if eng.min_height(Sequent((), top)) is None:
        raise ValueError(f"{print_formula(top)} is not a theorem (|- {print_formula(top)} is underivable)")

    def query(s: Sequent) -> tuple[bool, Optional[int]]:
        h = eng.min_height(s)
        return (h is not None, h)

    return TopEquivalenceReport(
        delta=delta,
        top=top,
        conjunction_intro=query(Sequent((delta,), And(top, delta))),
        conjunction_elim=query(Sequent((And(top, delta),), delta)),
        set_form=query(Sequent((top, delta), delta)),
        mode=eng.mode,
    )


# ---------------------------------------------------------------------------
# Core against the intuitionistic oracle


def _compare(goals: Iterable[Sequent], engine: Engine, prover: IntProver) -> Iterator[tuple[Sequent, Optional[int], bool]]:
    """Each goal, in order, with its Core minimal height (None when
    underivable) and its intuitionistic verdict."""
    for s in goals:
        yield s, engine.min_height(s), prover.decide(s)


@dataclass
class CrossCheckReport(_FieldsJSON):
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
    # family member, in family order
    rows: list[tuple[Sequent, Optional[int], bool]] = field(
        default_factory=list, repr=False, metadata={"json": False}
    )


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
    the intuitionistically provable sequents Core rejects.  Empty-antecedent
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
class TheoremhoodReport(_FieldsJSON):
    atoms: tuple[str, ...]
    max_weight: int
    mode: str
    total: int
    core_theorems: int
    int_theorems: int
    disagreements: list[Formula] = field(default_factory=list)


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
