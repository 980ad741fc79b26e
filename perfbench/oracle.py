"""Independent correctness checks for the benchmark's CLI outputs.

Nothing here imports lorentzkit: weight sums are recomputed from
``n**-theta`` with :func:`math.fsum`, and instance counts are recomputed
from the grid each report states.  Every check returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence


def power_sum(theta: float, n_lo: int, n_hi: int) -> float:
    """``sum_{n=n_lo}^{n_hi} n**-theta``, correctly rounded."""
    return math.fsum(n ** -theta for n in range(n_lo, n_hi + 1))


def corollary_lengths(levels: int) -> List[int]:
    """Block lengths of the inductive scheme ``j_1 = 1``, ``j_{k+1} = J_k``."""
    lengths, offset = [], 0
    for k in range(1, levels + 1):
        length = 1 if k == 1 else offset
        lengths.append(length)
        offset += k * length
    return lengths


def implied_instances(statement: str, grid: Dict) -> int:
    """Instance count a report's grid implies, one statement at a time."""
    if statement == "lemma-3-1":
        return len(grid["theta_values"]) * (grid["j_max"] + 1) * len(grid["k_values"])
    if statement == "lemma-3-2":
        return len(grid["theta_values"]) * grid["i_max"] * grid["k_max"]
    if statement == "remark-3-3":
        return len(grid["theta_values"]) * len(grid["p_values"]) * grid["trials"]
    if statement == "theorem-3-5":
        # two lemma-3-4 conditions per block, plus one norm check per trial
        return 2 * sum(grid["counts"][: grid["levels"]]) + grid["trials"]
    raise ValueError(f"no instance count known for {statement}")


def verify_report(
    doc: Dict, statement: str, seed: Optional[int], expect: Dict
) -> List[str]:
    """A ``verify --out`` report passed, is complete, and ran the requested grid."""
    problems = []
    if doc.get("statement") != statement:
        problems.append(f"statement {doc.get('statement')!r}, expected {statement!r}")
        return problems
    if doc.get("passed") is not True or doc.get("violations"):
        problems.append(f"{statement}: report did not pass")
    if doc.get("seed") != seed:
        problems.append(f"{statement}: seed {doc.get('seed')!r}, expected {seed!r}")
    grid = doc.get("grid", {})
    for key, value in expect.items():
        if grid.get(key) != value:
            problems.append(f"{statement}: grid {key}={grid.get(key)!r}, expected {value!r}")
    if statement == "lemma-3-1":
        k_values = grid.get("k_values", [])
        if not k_values or k_values != sorted(set(k_values)) or k_values[0] < 1:
            problems.append("lemma-3-1: k_values are not distinct ascending window lengths")
    try:
        implied = implied_instances(statement, grid)
    except (KeyError, TypeError) as exc:
        problems.append(f"{statement}: grid lacks {exc}")
    else:
        if doc.get("instances") != implied:
            problems.append(
                f"{statement}: {doc.get('instances')} instances, grid implies {implied}"
            )
    return problems


def domination_closed_form(theta: float, k: int, p: float, dimension: int) -> float:
    """``max_m (U_m / V_m)**(1/p)`` for averaged-``k`` versus raw weights.

    ``U_m = W_{mk} / W_k`` and ``V_m = W_m`` are the prefix sums of the two
    weight profiles; the supremum of the norm ratio over the decreasing cone
    is attained at a step vector, so it is this maximum.
    """
    terms = [n ** -theta for n in range(1, k * dimension + 1)]
    w_k = math.fsum(terms[:k])
    best = 0.0
    for m in range(1, dimension + 1):
        ratio = (math.fsum(terms[: m * k]) / w_k) / math.fsum(terms[:m])
        best = max(best, ratio)
    return best ** (1.0 / p)


def equiv_report(doc: Dict, theta: float, k: int, p: float, dimension: int, seed: int) -> List[str]:
    """An ``equiv --pair dk-vs-d --out`` document matches the closed form to 1e-12."""
    exact = domination_closed_form(theta, k, p, dimension)
    problems = []
    config = doc.get("config", {})
    if doc.get("pair") != "dk-vs-d" or config.get("dimension") != dimension or config.get("seed") != seed:
        problems.append(f"equiv: unexpected pair/config {doc.get('pair')!r} {config!r}")
    estimate = doc.get("estimate")
    if not isinstance(estimate, float) or abs(estimate - exact) > 1e-12 * abs(exact):
        problems.append(f"equiv: estimate {estimate!r} differs from closed form {exact!r}")
    return problems


def select_counts_report(doc: Dict, theta: float, p: float, levels: int) -> List[str]:
    """A ``construct --select-counts --out`` document selects minimal escapes.

    Checks the top level: ``N_K`` must satisfy ``N W_K / W_{NK} > K**p`` and
    ``N_K - 1`` must fail it.
    """
    counts: Sequence[int] = doc.get("counts", [])
    if doc.get("mode") != "select-counts" or len(counts) != levels:
        return [f"select-counts: expected {levels} levels, got {counts!r}"]
    if any(a > b for a, b in zip(counts, counts[1:])):
        return [f"select-counts: counts decrease: {list(counts)}"]
    n = counts[-1]
    w_k = power_sum(theta, 1, levels)
    below = power_sum(theta, 1, (n - 1) * levels)  # W_{(N-1)K}
    at = math.fsum([below, power_sum(theta, (n - 1) * levels + 1, n * levels)])
    target = float(levels) ** p
    problems = []
    if not n * w_k / at > target:
        problems.append(f"select-counts: N_{levels}={n} does not escape")
    if n > 1 and (n - 1) * w_k / below > target:
        problems.append(f"select-counts: N_{levels}-1={n - 1} already escapes")
    return problems
