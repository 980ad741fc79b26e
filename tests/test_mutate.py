"""The mutation probe of ``tests/_mutate.py`` on one small function."""

from pathlib import Path

import _mutate


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
