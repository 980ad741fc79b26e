"""The verdict corpus: every known wrong or refused verdict as one tier-1 test.

``VERDICTS`` is the one table.  Each entry is a check of one call against
what a correct program answers:

- a *slack* entry runs a statement's grid, names one instance of it and
  computes that instance's exact slack with mpmath (50 digits); the report
  must agree with the exact sign there;
- a *refusal* entry runs the CLI and pins its exit code and whole stderr.

An entry that the program gets wrong today is a strict xfail whose reason
names the ROADMAP item that would mend it; the change that mends it removes
the marker.
"""

import contextlib
import io

import mpmath
import pytest

from lorentzkit.cli import main
from lorentzkit.verify import run_grid

import _oracles as oracle


def _lorentz_power(values, theta: float, p: float):
    """``sum_n a_n^p n^-theta`` over the decreasing rearrangement, in mpmath."""
    a = sorted((mpmath.mpf(float(v)) for v in values if v != 0.0), reverse=True)
    return mpmath.fsum(t**p * mpmath.mpf(n) ** -mpmath.mpf(theta) for n, t in enumerate(a, 1))


def _remark_3_3_slack(seed, theta_index, p_index, trials, max_support, trial, theta, p):
    """Exact ``||x||^p + ||y||^p - ||x+y||^p`` of one remark-3-3 trial."""
    _, _, x, y = oracle.remark_3_3_trials(seed, theta_index, p_index, trials, max_support)[trial]
    with mpmath.workdps(50):
        return (_lorentz_power(x, theta, p) + _lorentz_power(y, theta, p)
                - _lorentz_power(x + y, theta, p))


def slack_entry(statement, grid, instance, exact):
    """``run_grid(statement, grid)`` reports a violation at the instance whose
    params include ``instance`` exactly when ``exact()`` is negative."""

    def check():
        slack = exact()
        report = run_grid(statement, grid)
        reported = [v.slack for v in report.violations
                    if instance.items() <= v.params.items()]
        assert bool(reported) == (slack < 0), (
            f"reported violation slack {reported} against exact slack {mpmath.nstr(slack, 6)}")

    return check


def refusal_entry(args, code, message):
    """``lorentzkit args`` exits ``code`` with ``error: message`` as its whole stderr."""

    def check():
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            got = main(args.split())
        assert (got, err.getvalue()) == (code, f"error: {message}\n")

    return check


VERDICTS = [
    pytest.param(
        # reported slack -2.91e-11; the exact slack is +2.18e-14: x is one entry
        # whose power is 2.4e-14, next to a y whose power is 1.6e5
        slack_entry("remark-3-3",
                    {"theta_values": [0.25, 0.5, 0.75], "p_values": [12.0], "trials": 20000,
                     "seed": 1},
                    {"theta": 0.75, "p": 12.0, "trial": 7993},
                    lambda: _remark_3_3_slack(1, 2, 0, 20000, 40, 7993, 0.75, 12.0)),
        id="remark-3-3-p12-trial-7993",
        marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 1: remark-3-3's slack is a difference of norm powers, "
            "whose rounding exceeds the tolerance past 2**13")),
    ),
    pytest.param(
        # the x powers of trials 409, 1189 and 1293 fall below the normal range
        refusal_entry("verify remark-3-3 --theta 0.5 --p-grid 300 --trials 2000 --seed 42", 2,
                      "Lorentz norm power underflows float64 at p=300.0, theta=0.5"),
        id="remark-3-3-p300-underflow",
    ),
]


@pytest.mark.parametrize("check", VERDICTS)
def test_verdict(check):
    check()
