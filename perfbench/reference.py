"""The fixed computation that op and set-up times are normalized by.

    python3 perfbench/reference.py

reads one op time in seconds per line of standard input.  For each, it
runs the reference at least once and until it has spent REF_SHARE of that
time, then prints the runs as one JSON line ``[[end, seconds], ...]``,
where ``end`` is a time.perf_counter reading (CLOCK_MONOTONIC, so the
worker can compare it with its own).  It exits at the end of its input.

The worker runs it as a child process, so that the reference's arrays
(~20 MB at peak) never count toward the worker's peak RSS.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np
from scipy import sparse

REF_SHARE = 0.05  # reference time after each op, as a share of the op's time


class Reference:
    """One run takes ~18 ms.

    Its parts are the kinds of work the chain does, in similar shares:
    an interpreter loop, arithmetic on many small arrays, small sparse
    Kronecker products, Chebyshev evaluation over a grid, and a matrix
    product, array copy and sort.  The large array and grid make it
    touch memory the way the chain's larger ops do.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((128, 128))
        self._array = rng.standard_normal(1 << 20)
        self._grid = rng.uniform(-1.0, 1.0, 1 << 17)
        self._series = np.ones(12)
        self._keys = rng.standard_normal(1 << 15)
        self._block = sparse.random(12, 12, density=0.3, random_state=1,
                                    format="csr")

    def run(self) -> tuple[float, float]:
        """One run; returns (end time, seconds)."""
        t0 = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i * i
        acc = np.zeros(6)
        for i in range(1_000):
            acc = acc + np.full(6, i) * 0.5
        for _ in range(4):
            sparse.kron(self._block, self._block, format="csr")
        np.polynomial.chebyshev.chebval(self._grid, self._series)
        self._matrix @ self._matrix
        self._array.copy()
        np.sort(self._keys)
        t1 = time.perf_counter()
        return t1, t1 - t0

    def gap(self, op_seconds: float) -> list[tuple[float, float]]:
        """Run at least once and for REF_SHARE of op_seconds."""
        runs = [self.run()]
        while sum(sec for _, sec in runs) < REF_SHARE * op_seconds:
            runs.append(self.run())
        return runs


def main() -> None:
    reference = Reference()
    reference.run()  # runs slower until the interpreter specializes it
    for line in sys.stdin:
        print(json.dumps(reference.gap(float(line))), flush=True)


if __name__ == "__main__":
    main()
