"""Checks on the benchmark itself: the tamper generator and a smoke run.

    python -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from coreseq import (  # noqa: E402
    Atom,
    Engine,
    Sequent,
    check_derivation,
    check_rule,
    derivation_from_json,
    derivation_to_json,
    fixture_derivations,
    formula_universe,
    sequent_family,
)
from coreseq.engine import backward_instances  # noqa: E402

from workloads import atoms_of_tree, tamper  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _family(weight_cap):
    return sequent_family(formula_universe(["p", "q"], weight_cap), weight_cap)


def test_fresh_atom_breaks_every_valid_rule_instance():
    # Exhaustive over a bounded space: every instance the checker accepts
    # stops being accepted once a fresh atom joins the conclusion.
    fresh = Atom("x0")
    accepted = 0
    for goal in _family(5):
        tampered = Sequent(goal.antecedent + (fresh,), goal.succedent)
        for rule, premises in backward_instances(goal):
            if check_rule(goal, rule, premises) is not None:
                continue
            accepted += 1
            assert check_rule(tampered, rule, premises) is not None, (goal, rule)
    assert accepted > 1000


def _derivations():
    engine = Engine()
    out = [d for d in fixture_derivations().values() if check_derivation(d) is None]
    for s in _family(5):
        res = engine.decide(s)
        if res.is_provable:
            out.append(res.derivation)
    return out


def test_tampered_derivations_use_a_fresh_atom_and_fail_at_the_root():
    derivations = _derivations()
    assert len(derivations) > 100
    for d in derivations:
        obj = tamper(d, derivation_to_json)
        loaded = derivation_from_json(json.loads(json.dumps(obj)))
        (added,) = set(loaded.conclusion.antecedent) - set(d.conclusion.antecedent)
        assert isinstance(added, Atom) and added.name not in atoms_of_tree(d)
        assert loaded.premises == d.premises
        v = check_derivation(loaded)
        assert v is not None and v.path == ()


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric_without_failures(workload, trace):
    proc = _run(["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--toy"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stderr  # failure_rate == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "decide", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_metric_map_names_the_benchmark_metrics():
    mapping = json.loads((BENCH / "metric_map.json").read_text())["per_layer"]
    assert [m["metric"] for m in mapping] == [m["name"] for m in SPEC["per_layer"]]
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    for m in mapping:
        assert set(m["moves"]) <= end_to_end and set(m["on"]) <= workloads, m
