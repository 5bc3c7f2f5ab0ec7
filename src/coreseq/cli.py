"""Command-line front end.

Subcommands:

    decide   decide one sequent (Core by default, intuitionistic with
             --logic int); exit 0 provable, 1 unprovable, 2 error
    check    check a derivation file; exit 0 valid, 1 invalid, 2 error
    repro    run the bundled experiment suite and write a deterministic
             report; exit 3 on any checker/engine disagreement
    atlas    enumerate a bounded sequent family to CSV with Core and
             intuitionistic verdicts
    theorems compare Core and intuitionistic theoremhood over every formula
             up to a weight; exit 1 on any disagreement

JSON goes to standard output, human-readable text to standard error.
The environment variable CORESEQ_MEMO_CAP overrides the search cap.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

from . import __version__
from .admissibility import (
    cross_check,
    l_top_transform,
    test_admissibility,
    theoremhood_report,
    top_equivalence_study,
    weakening_transform,
)
from .engine import DEFAULT_MEMO_CAP, Engine, Provable
from .g4ip import decide_int
from .kernel import (
    FIXTURE_NAMES,
    MODES,
    RULE_NAMES,
    ResourceLimitError,
    check_derivation,
    check_rule,
    derivation_to_json,
    fixture_derivations,
    height,
    load_derivation,
    save_derivation,
)
from .syntax import (
    Atom,
    ParseError,
    Sequent,
    formula_universe,
    parse_formula,
    parse_sequent,
    print_sequent,
    sequent_weight,
)

_ATOM_SUPPLY = ("p", "q", "r", "s", "t", "u", "v", "w")


def _memo_cap() -> int:
    raw = os.environ.get("CORESEQ_MEMO_CAP")
    if raw is None:
        return DEFAULT_MEMO_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"invalid CORESEQ_MEMO_CAP {raw!r}")
    return cap


def _atoms(count: int) -> tuple[str, ...]:
    if count < 1 or count > len(_ATOM_SUPPLY):
        raise ValueError(f"--atoms must be between 1 and {len(_ATOM_SUPPLY)}")
    return _ATOM_SUPPLY[:count]


def _check_weight(option: str, bound: int) -> None:
    # an atom weighs 1, so a lower bound admits no formula at all
    if bound < 1:
        raise ValueError(f"{option} must be at least 1")


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _stats_json(stats) -> dict:
    return dict(zip(stats.__slots__, stats._fields()))


def _decision_json(result) -> dict:
    if isinstance(result, Provable):
        return {
            "status": "provable",
            "min_height": result.min_height,
            "derivation": derivation_to_json(result.derivation),
            "stats": _stats_json(result.stats),
        }
    out = {"status": "unprovable", "stats": _stats_json(result.certificate)}
    if result.countervaluation is not None:
        out["countervaluation"] = dict(result.countervaluation)
    return out


# ---------------------------------------------------------------------------
# decide


def _cmd_decide(args) -> int:
    goal = parse_sequent(args.sequent)
    if args.logic == "int":
        for option, value in (("--mode", args.mode), ("--emit-derivation", args.emit_derivation)):
            if value is not None:
                raise ValueError(f"{option} is only available for core logic")
        ok = decide_int(goal)
        if args.json:
            sys.stdout.write(_dump({"status": "provable" if ok else "unprovable", "logic": "int"}))
        _say(f"{print_sequent(goal)}: {'intuitionistically provable' if ok else 'intuitionistically unprovable'}")
        return 0 if ok else 1

    result = Engine(args.mode or MODES[0], memo_cap=_memo_cap()).decide(goal)
    if isinstance(result, Provable) and args.emit_derivation:
        save_derivation(result.derivation, args.emit_derivation)
        _say(f"derivation written to {args.emit_derivation}")
    if args.json:
        out = _decision_json(result)
        if not isinstance(result, Provable) and result.disconnected:
            out["disconnected"] = True
        sys.stdout.write(_dump(out))
    if isinstance(result, Provable):
        _say(f"{print_sequent(goal)}: provable, minimal height {result.min_height}")
        return 0
    cv = result.countervaluation
    if cv is not None:
        why = "classically invalid: " + ", ".join(
            f"{name} = {str(value).lower()}" for name, value in cv
        )
    elif result.disconnected:
        why = "disconnected: its formulas split into groups sharing no atom"
    else:
        why = f"exhausted {result.certificate.distinct_goals} goals"
    _say(f"{print_sequent(goal)}: unprovable ({why})")
    return 1


# ---------------------------------------------------------------------------
# check


def _cmd_check(args) -> int:
    try:
        d = load_derivation(args.path)
    except (OSError, ValueError) as e:
        raise ValueError(f"cannot load derivation: {e}") from e
    v = check_derivation(d, args.mode)
    if v is None:
        if args.json:
            sys.stdout.write(_dump({"status": "valid", "height": height(d), "conclusion": print_sequent(d.conclusion)}))
        _say(f"valid derivation of {print_sequent(d.conclusion)} (height {height(d)})")
        return 0
    where = "root" if not v.path else "/".join(map(str, v.path))
    if args.json:
        sys.stdout.write(_dump({"status": "invalid", "clause": v.clause, "message": v.message, "path": list(v.path)}))
    _say(f"invalid: {v.message} [{v.clause}] at {where}")
    return 1


# ---------------------------------------------------------------------------
# repro


class _InternalDisagreement(Exception):
    pass


def _recheck(result, goal: Sequent, mode: str):
    """Engine output must satisfy the checker; anything else is a bug."""
    if isinstance(result, Provable):
        v = check_derivation(result.derivation, mode)
        if v is not None:
            raise _InternalDisagreement(
                f"engine derivation for {print_sequent(goal)} fails the checker: {v.message}"
            )
        if result.derivation.conclusion != goal:
            raise _InternalDisagreement(
                f"engine derivation concludes {print_sequent(result.derivation.conclusion)}, not {print_sequent(goal)}"
            )
        if height(result.derivation) != result.min_height:
            raise _InternalDisagreement(
                f"reported minimal height {result.min_height} does not match the witness"
            )


def _cmd_repro(args) -> int:
    mode = args.mode
    top = parse_formula(args.top)
    cap = _memo_cap()

    fixtures = fixture_derivations()
    items: list = []
    # evidence file name -> JSON object; nothing is written until every item
    # is decided, so a failed run leaves no partial evidence
    evidence: dict = {}

    def fresh() -> Engine:
        return Engine(mode, memo_cap=cap)

    # every bundled tree is checker-valid except the extended d1
    for name in FIXTURE_NAMES:
        v = check_derivation(fixtures[name], mode)
        if v is not None and name != "d1-full-with-ltop":
            raise _InternalDisagreement(f"bundled {name} fixture rejected: {v.message}")

    # eq1: the first Lewis paradox is underivable in both modes
    eq1 = parse_sequent("~A, A |- B")
    eq1_status = {}
    for m in MODES:
        res = Engine(m, memo_cap=cap).decide(eq1)
        _recheck(res, eq1, m)
        eq1_status[m] = _decision_json(res)
    items.append({
        "id": "eq1",
        "query": print_sequent(eq1),
        "status": "unprovable" if all(v["status"] == "unprovable" for v in eq1_status.values()) else "provable",
        "by_mode": eq1_status,
    })

    # eq2: the conditional form is derivable, matching the bundled tree
    eq2 = parse_sequent("|- ~A -> (A -> B)")
    res2 = fresh().decide(eq2)
    _recheck(res2, eq2, mode)
    if isinstance(res2, Provable):
        evidence["eq2-derivation.json"] = derivation_to_json(res2.derivation)
    items.append({
        "id": "eq2",
        "query": print_sequent(eq2),
        "status": "provable" if isinstance(res2, Provable) else "unprovable",
        "min_height": res2.min_height if isinstance(res2, Provable) else None,
        "matches_d1_upper": isinstance(res2, Provable) and res2.derivation == fixtures["d1-upper"],
        "evidence": "eq2-derivation.json",
    })

    # eq3: the d1 tree extended by a final step outside the rule table
    bad = fixtures["d1-full-with-ltop"]
    v = check_derivation(bad, mode)
    items.append({
        "id": "eq3-d1",
        "status": "invalid" if v is not None else "valid",
        "clause": v.clause if v else None,
        "message": v.message if v else None,
        "path": list(v.path) if v else None,
        "root_rule": bad.rule,
        "unjustified_leaf": print_sequent(bad.premises[1].conclusion),
        "leaf_note": "underivability claims have no judgment form in the calculus; "
        "the leaf stands in for one and carries no valid justification",
    })

    # eq4: the same end-sequent via the seven-node tree
    d2 = fixtures["d2"]
    eq4 = d2.conclusion
    res4 = fresh().decide(eq4)
    _recheck(res4, eq4, mode)
    if not isinstance(res4, Provable):
        raise _InternalDisagreement("d2 checks as valid but its conclusion is reported unprovable")
    evidence["eq4-derivation.json"] = derivation_to_json(res4.derivation)
    items.append({
        "id": "eq4-d2",
        "query": print_sequent(eq4),
        "status": "valid+provable",
        "fixture_height": height(d2),
        "min_height": res4.min_height,
        "evidence": "eq4-derivation.json",
    })

    # absurdity form of eq1's antecedent
    pair = parse_sequent("~A, A |-")
    resp = fresh().decide(pair)
    _recheck(resp, pair, mode)
    items.append({
        "id": "eq1-absurd",
        "query": print_sequent(pair),
        "status": "provable" if isinstance(resp, Provable) else "unprovable",
        "min_height": resp.min_height if isinstance(resp, Provable) else None,
    })

    shared = fresh()

    # the two-line equivalence fixtures plus the three-query study
    study = top_equivalence_study(Atom("q"), top, engine=shared).to_json()
    evidence["lemma1-study.json"] = study
    items.append({
        "id": "lemma1",
        "status": "valid",
        "fixtures": ["lemma1-right", "lemma1-left"],
        "study": study,
        "evidence": "lemma1-study.json",
    })

    for name in ("contradiction1", "contradiction2"):
        items.append({
            "id": name,
            "status": "valid",
            "conclusion": print_sequent(fixtures[name].conclusion),
            "height": height(fixtures[name]),
        })

    # prefixing a theorem on the left, tested over a bounded family
    ltop_universe = formula_universe(("p", "q"), 5)
    verdict = test_admissibility(l_top_transform(top), ltop_universe, 5, engine=shared)
    evidence["ltop-verdict.json"] = verdict.to_json()
    items.append({
        "id": "ltop-verdict",
        "status": verdict.status,
        "first_witness": verdict.witnesses[0].to_json() if verdict.witnesses else None,
        "evidence": "ltop-verdict.json",
    })
    for w in verdict.witnesses:
        again = shared.min_height(w.transformed)
        if (again is not None) != w.transformed_provable:
            raise _InternalDisagreement("admissibility witness does not re-verify")

    # left weakening: the schema rejection plus the bounded-family verdict
    wk_conclusion = parse_sequent("B, ~A, A |-")
    wk_premise = parse_sequent("~A, A |-")
    rejections = {}
    for rule in RULE_NAMES:
        rv = check_rule(wk_conclusion, rule, [wk_premise], mode)
        if rv is None:
            raise _InternalDisagreement(f"weakening step unexpectedly valid as {rule}")
        rejections[rule] = rv.clause
    res_wk = shared.decide(wk_conclusion)
    _recheck(res_wk, wk_conclusion, mode)
    wk_verdict = test_admissibility(
        weakening_transform(Atom("q")), formula_universe(("p", "q"), 2), 4, engine=shared
    )
    evidence["weakening-verdict.json"] = wk_verdict.to_json()
    items.append({
        "id": "weakening",
        "status": wk_verdict.status,
        "step_conclusion": print_sequent(wk_conclusion),
        "step_premise": print_sequent(wk_premise),
        "step_rejected_as": rejections,
        "weakened_pair_status": "provable" if isinstance(res_wk, Provable) else "unprovable",
        "evidence": "weakening-verdict.json",
    })

    # oracle cross-check over the standard small family
    universe = [parse_formula(t) for t in ("p", "q", "~p", "~q", "p & q", "p | q", "p -> q", "q -> p", "p -> p")]
    cc = cross_check(universe, 6, engine=shared)
    if cc.violations:
        raise _InternalDisagreement(
            f"{len(cc.violations)} Core-provable sequents are intuitionistically unprovable"
        )
    evidence["crosscheck.json"] = cc.to_json()
    items.append({
        "id": "crosscheck",
        "status": "ok",
        "total": cc.total,
        "divergences": len(cc.divergences),
        "evidence": "crosscheck.json",
    })

    text = _dump({"version": __version__, "mode": mode, "top": args.top, "items": items})
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, obj in evidence.items():
        (out / name).write_text(_dump(obj), encoding="utf-8")
    (out / "report.json").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    _say(f"report and evidence written to {out}/")
    return 0


# ---------------------------------------------------------------------------
# atlas


def _cmd_atlas(args) -> int:
    atoms = _atoms(args.atoms)
    _check_weight("--weight-cap", args.weight_cap)
    if args.out:
        # an unwritable --out fails here, before any search: "a" leaves an
        # existing file as it is, and a file made only to try is removed
        out = Path(args.out)
        existed = out.exists()
        out.open("a").close()
        if not existed:
            out.unlink()
    universe = formula_universe(atoms, args.weight_cap)
    cc = cross_check(universe, args.weight_cap, engine=Engine(args.mode, memo_cap=_memo_cap()))

    def verdict(ok: bool) -> str:
        return "provable" if ok else "unprovable"

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["sequent", "weight", "core", "core_min_height", "int", "divergence"])
    writer.writerows(
        (print_sequent(s), sequent_weight(s), verdict(h is not None), "" if h is None else h,
         verdict(int_ok), "yes" if int_ok and h is None else "")
        for s, h, int_ok in cc.rows
    )
    text = buffer.getvalue()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    _say(
        f"atlas: {cc.total} sequents over {args.atoms} atoms (weight cap {args.weight_cap}); "
        f"core-provable {cc.core_provable}, intuitionistically provable {cc.int_provable}, "
        f"divergences {len(cc.divergences)}"
    )
    return 0


# ---------------------------------------------------------------------------
# theorems


def _cmd_theorems(args) -> int:
    _check_weight("--max-weight", args.max_weight)
    report = theoremhood_report(
        _atoms(args.atoms), args.max_weight, engine=Engine(args.mode, memo_cap=_memo_cap())
    )
    if args.json:
        sys.stdout.write(_dump(report.to_json()))
    _say(
        f"theorems: {report.total} formulas over {args.atoms} atoms (weight at most "
        f"{args.max_weight}); core theorems {report.core_theorems}, intuitionistic theorems "
        f"{report.int_theorems}, disagreements {len(report.disagreements)}"
    )
    return 1 if report.disagreements else 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coreseq", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"coreseq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide derivability of one sequent")
    p.add_argument("sequent")
    p.add_argument("--mode", choices=MODES, help=f"core logic only (default {MODES[0]})")
    p.add_argument("--logic", choices=("core", "int"), default="core")
    p.add_argument("--json", action="store_true")
    p.add_argument("--emit-derivation", metavar="PATH")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("check", help="check a derivation file")
    p.add_argument("path")
    p.add_argument("--mode", choices=MODES, default=MODES[0])
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("repro", help="run the bundled experiment suite")
    p.add_argument("--out", default="repro-out")
    p.add_argument("--mode", choices=MODES, default=MODES[0])
    p.add_argument("--top", default="p -> p", help="concrete theorem used for the prefix studies")
    p.set_defaults(func=_cmd_repro)

    p = sub.add_parser("atlas", help="CSV of verdicts over a bounded family")
    p.add_argument("--atoms", type=int, required=True)
    p.add_argument("--weight-cap", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--mode", choices=MODES, default=MODES[0])
    p.set_defaults(func=_cmd_atlas)

    p = sub.add_parser("theorems", help="compare Core and intuitionistic theoremhood")
    p.add_argument("--atoms", type=int, required=True)
    p.add_argument("--max-weight", type=int, required=True)
    p.add_argument("--mode", choices=MODES, default=MODES[0])
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_theorems)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; every failure leaves here, as exit 2 (3 for a
    `repro` disagreement) with one `coreseq: ...` line on stderr and, under
    --json, the error object on stdout."""
    args = build_parser().parse_args(argv)
    failure: dict = {"status": "error"}
    code = 2
    try:
        return args.func(args)
    except RecursionError:
        error = "input nested too deeply"
    except ParseError as e:
        error = f"parse error: {e}"
        failure["position"] = e.position
    except ResourceLimitError as e:
        error = f"resource limit: {e}"
        failure["status"] = "resource-limit"
    except MemoryError:
        error = "resource limit: out of memory"
        failure["status"] = "resource-limit"
    except _InternalDisagreement as e:
        error = f"internal disagreement: {e}"
        code = 3
    except (OSError, ValueError) as e:
        # unwritable outputs, an unloadable derivation, a malformed
        # CORESEQ_MEMO_CAP, a --top that is not a theorem, an --atoms or
        # weight bound out of range, an option this command cannot honour
        error = str(e)
    _say(f"coreseq: {error}")
    if getattr(args, "json", False):
        sys.stdout.write(_dump({**failure, "error": error}))
    return code


if __name__ == "__main__":
    sys.exit(main())
