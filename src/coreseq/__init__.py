"""coreseq: a workbench for propositional Core-logic sequents.

Parsing and printing of formulas and sequents, a trusted checker for the
eleven-rule sequent calculus, a complete decision procedure with minimal-
height witnesses, an intuitionistic oracle with Kripke countermodels, and
an admissibility lab for structural-rule experiments.
"""

__version__ = "0.1.0"

from .syntax import (
    And,
    Atom,
    Formula,
    Imp,
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
from .kernel import (
    Derivation,
    RULE_NAMES,
    ResourceLimitError,
    Violation,
    check_derivation,
    check_rule,
    derivation_from_json,
    derivation_to_json,
    fixture_derivations,
    fixture_path,
    height,
    load_derivation,
    save_derivation,
)
from .engine import (
    DecisionResult,
    Engine,
    Provable,
    SearchStats,
    Unprovable,
    decide,
)
from .closure import forward_closure
from .g4ip import IntProver, decide_int
from .kripke import KripkeModel, countermodel
from .admissibility import (
    AdmissibilityVerdict,
    CrossCheckReport,
    RuleTransform,
    cross_check,
    identity_transform,
    l_top_transform,
    test_admissibility,
    theoremhood_report,
    top_equivalence_study,
    weakening_transform,
)
