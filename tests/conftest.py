"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import robustlift

# kappa_measured comes from a LAPACK SVD whose last bits depend on the BLAS
# thread count, so byte-for-byte oracles run in a child process with every
# BLAS pool at one thread
_ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@pytest.fixture(scope="session")
def pinned_child():
    """Run `python -c script *args` with one BLAS thread; return stdout."""
    env = dict(os.environ, **{k: "1" for k in _ONE_THREAD})
    src = str(Path(robustlift.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(script: str, *args: str) -> str:
        done = subprocess.run([sys.executable, "-c", script, *args],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run
