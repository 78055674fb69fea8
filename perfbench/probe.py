"""Frontier probe: one window-solve chain at (d=4, degree 3, N=5, T=50).

run.py starts this under an address-space limit.  The last line of
standard output is a JSON outcome: "ok", "wrong" (the oracle failed) or
the exception type, with the innermost package function that raised it.
A signal shows up to the launcher as a negative return code instead.
"""

from __future__ import annotations

import argparse
import json
import time
import traceback

from worker import import_package


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    import_package()
    import numpy as np
    import workloads

    rng = np.random.default_rng([args.seed, 1 << 20])
    coeffs, v0 = workloads.draw_window_input(rng, workloads.FRONTIER)
    t0 = time.perf_counter()
    try:
        out = workloads.window_chain(coeffs, v0, workloads.FRONTIER["n_levels"],
                                     workloads.FRONTIER["t_window"])
        reason = workloads.check_window(out)
        outcome = "wrong" if reason else "ok"
    except (MemoryError, ArithmeticError, ValueError, RuntimeError) as exc:
        frames = [f.name for f in traceback.extract_tb(exc.__traceback__)
                  if "robustlift" in f.filename]
        stage = frames[-1] if frames else "?"
        outcome, reason = type(exc).__name__, f"in {stage}: {exc}"
    print(json.dumps({"outcome": outcome, "detail": reason,
                      "seconds": time.perf_counter() - t0}))


if __name__ == "__main__":
    main()
