"""The mutation probe of ``tests/_mutate.py`` on one small function."""

import ast
from pathlib import Path

import _mutate


def _function_lines(node, lines, prefix=""):
    """``(qualified name, its stripped source lines)`` for every function under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = prefix + child.name
            if isinstance(child, ast.FunctionDef):
                yield name, {line.strip() for line in lines[child.lineno - 1 : child.end_lineno]}
            yield from _function_lines(child, lines, name + ".")


def test_equivalent_entries_name_live_lines():
    # no mutant runs: each recorded survivor must still exist, or its reason
    # explains a line that is gone
    functions = {}
    for module in Path(_mutate.ROOT, "src", "lorentzkit").glob("*.py"):
        source = module.read_text()
        for name, lines in _function_lines(ast.parse(source), source.splitlines()):
            functions.setdefault(name, set()).update(lines)
    swaps = {f"{old.__name__} -> {new.__name__}" for old, new in _mutate.SWAPS.items()}
    for function, line, swap in _mutate.EQUIVALENT:
        assert function in functions, function
        assert line in functions[function], (function, line)
        assert swap in swaps, swap


def test_bernoulli_test_kills_every_operator_mutant():
    # each of the ten operators of the Euler–Maclaurin correction, among them
    # the sign of its fourth Bernoulli term, is pinned by its mpmath test
    module = Path(_mutate.ROOT, "src", "lorentzkit", "weights.py")
    before = module.read_bytes()
    mutants = _mutate.probe(
        "lorentzkit/weights.py", ["WeightSequence._em_derivatives"],
        ["tests/test_weights.py::TestEulerMaclaurin::test_bernoulli_terms_match_mpmath"])
    assert module.read_bytes() == before  # mutants are written to a copy only
    assert len(mutants) == 10
    assert [m for m in mutants if m.status == "survived" and not m.explained] == []
