"""Timing comparison of the numpy and numba kernel variants.

Run as a script::

    python3 benchmarks/bench_kernels.py

Each kernel is warmed up once per variant (numba compiles on the first
call), then timed over a fixed number of repetitions.  When numba is not
importable or disabled via LORENTZKIT_DISABLE_NUMBA only the numpy column
is reported; ``ratio_scan`` has no numba variant at all.
"""

from __future__ import annotations

import time

import numpy as np

from lorentzkit import _kernels
from lorentzkit.weights import WeightSequence

REPEATS = 20


def _time(fn, *args) -> float:
    fn(*args)  # warm-up / compile
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    rng = np.random.default_rng(7)
    w = WeightSequence(0.5)

    mat = np.abs(rng.standard_normal((20_000, 64)))
    weights64 = w.weight_values(64)
    sorted_desc = -np.sort(-mat[0])

    steps = np.arange(1, 4_097)
    prefix_lp = steps.astype(np.float64)
    prefix_d = w.partial_sums_at(steps)
    u_num = np.ones(64)
    u_den = weights64

    v0 = np.linspace(1.0, 0.1, 64)
    stream = rng.standard_normal(1_000_000)

    cases = [
        ("weighted_pow_sum", (sorted_desc, weights64, 2.0)),
        ("batch_sorted_pow_sums", (mat, weights64, 2.0)),
        ("ratio_scan", (prefix_lp, prefix_d)),
        ("ascent", (v0, u_num, 2.0, u_den, 2.0, 17, 25)),
        ("kahan_cumsum", (stream,)),
    ]

    print(f"numba available: {_kernels.USING_NUMBA}")
    header = f"{'kernel':<24} {'numpy (ms)':>12} {'numba (ms)':>12} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    for name, args in cases:
        numpy_fn, numba_fn = _kernels.VARIANTS.get(name, (getattr(_kernels, name), None))
        t_np = _time(numpy_fn, *args) * 1e3
        if numba_fn is None:
            print(f"{name:<24} {t_np:>12.3f} {'n/a':>12} {'n/a':>9}")
            continue
        t_nb = _time(numba_fn, *args) * 1e3
        speedup = t_np / t_nb if t_nb > 0 else float("inf")
        print(f"{name:<24} {t_np:>12.3f} {t_nb:>12.3f} {speedup:>8.1f}x")


if __name__ == "__main__":
    main()
