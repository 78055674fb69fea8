"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import robustlift

# every host draws the same examples: a fixed derandomized sequence per
# test and no example database; each test's own max_examples still holds
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

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


def _saturated_window(m, n, t_window, coupling):
    """The saturated toy widened to m perturbations and n parameters.

    H_uu is 3 I plus 0.1 / n everywhere off the diagonal ("dense") or
    0.05 on the two neighbours ("banded"), and u is scaled by 1.5 / sqrt(n).
    Self-contained, so a child process can run its source.
    """
    import numpy as np
    from robustlift.dynamics import AffineGradient, CoupledState, StepSchedule
    from robustlift.instances import CertifyInstance

    eps = 0.02
    if coupling == "dense":
        h_uu = np.full((n, n), 0.1 / n) + (3.0 - 0.1 / n) * np.eye(n)
    else:
        h_uu = 3.0 * np.eye(n) + 0.05 * (np.eye(n, k=1) + np.eye(n, k=-1))
    return CertifyInstance(
        sched=StepSchedule.uniform(t_window, eps_ball=eps, eta_delta=0.04,
                                   eta_u=0.1, alpha=1.0),
        grads=AffineGradient(
            a_delta=np.hstack([0.3 * np.eye(m), np.zeros((m, n))]),
            b_delta=np.ones(m),
            a_u=np.hstack([np.full((n, m), 0.5 / m), h_uu]),
            b_u=np.full(n, -0.55)),
        v0=CoupledState(np.full(m, eps), np.full(n, 0.199)),
        center=np.concatenate([np.full(m, eps), np.zeros(n)]),
        scale=np.concatenate([np.full(m, 45.0), np.full(n, 1.5 / n**0.5)]),
        tau_s=0.7, tau_c=0.8, big_l=6.0, lam=1.25)


@pytest.fixture(scope="session")
def saturated_window():
    """`_saturated_window`; `inspect.getsource` of it runs in a child."""
    return _saturated_window
