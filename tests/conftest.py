"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import robustlift

# the certified sups of critical-mode surrogate designs come from the
# `chebroots` eigensolve, whose last bits depend on the BLAS thread count,
# so byte-for-byte oracles run in a child process with every BLAS pool at
# one thread (certificates alone have the same bytes at one and two
# threads: `test_bytes_do_not_depend_on_blas_threads`)
_BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@pytest.fixture(scope="session")
def pinned_child():
    """Run `python -c script *args` with every BLAS pool at `threads`
    threads (one by default); return stdout."""
    src = str(Path(robustlift.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(script: str, *args: str, threads: int = 1) -> str:
        env = dict(os.environ, PYTHONPATH=path,
                   **{k: str(threads) for k in _BLAS_THREADS})
        done = subprocess.run([sys.executable, "-c", script, *args],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run
