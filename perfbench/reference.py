"""Fixed reference program that measures how fast the host is right now.

The benchmark runs it in a fresh interpreter just before each repetition of
a workload and divides the repetition's wall time by its wall time.  It uses
no lorentzkit code, so no change to the package can move it.  Shared hosts
drift in speed by tens of percent over minutes, and the drift hits both
programs alike, so the ratio holds still where raw seconds do not.

The mix follows what a lorentzkit CLI call spends its time on: interpreter
start and the numpy import, a pure-Python loop, a numpy sort, a BLAS matrix
product, and first-touch page faults on a large array.
"""

import numpy as np


def main() -> None:
    acc = 0
    for i in range(300_000):
        acc += i * i
    rng = np.random.default_rng(0)
    np.sort(rng.random(1_000_000))
    m = rng.random((400, 400))
    m @ m
    np.ones(10_000_000).sum()


if __name__ == "__main__":
    main()
