"""The oracles stay independent by module boundary: each base module may
import only the coreseq modules listed here, besides the standard library.
So the forward closure shares no code with the backward search, G4ip and
the Kripke search share none with the Core engine, and G4ip and the Kripke
search share none with each other.  Only the meeting points import
several oracles."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import coreseq

BASES = {
    "syntax": set(),
    "kernel": {"syntax"},
    "engine": {"syntax", "kernel"},
    "closure": {"syntax", "kernel"},
    "g4ip": {"syntax"},
    "kripke": {"syntax"},
}
MEETING_POINTS = {"admissibility", "cli"}


@pytest.mark.parametrize("name", list(BASES))
def test_module_imports_only_its_bases(name):
    module = importlib.import_module(f"coreseq.{name}")
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    internal = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            assert node.level == 1, ast.unparse(node)
            paths = [f"coreseq.{node.module or alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            paths = [node.module]
        else:
            continue
        for path in paths:
            root, _, rest = path.partition(".")
            if root == "coreseq":
                internal.add(rest.split(".")[0])
            else:
                assert root in sys.stdlib_module_names, ast.unparse(node)
    assert internal <= BASES[name]


def test_one_resource_limit_error_class():
    from coreseq import closure, engine

    assert closure.ResourceLimitError is engine.ResourceLimitError is coreseq.ResourceLimitError


def test_every_module_states_its_bases_or_is_a_meeting_point():
    modules = {m.name for m in pkgutil.iter_modules(coreseq.__path__)}
    assert modules == BASES.keys() | MEETING_POINTS


def test_the_package_names_come_from_the_split_oracles_with_no_shim():
    from coreseq import g4ip, kripke

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("coreseq.intuitionistic")
    assert coreseq.IntProver is g4ip.IntProver
    assert coreseq.decide_int is g4ip.decide_int
    assert coreseq.countermodel is kripke.countermodel
    assert coreseq.KripkeModel is kripke.KripkeModel
