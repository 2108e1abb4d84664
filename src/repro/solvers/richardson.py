"""Stationary (Richardson) iteration — a literal rendering of Algorithm 2.

Each iteration computes the residual in high precision, truncates it,
applies the multigrid (``MG_solve_with_FP16``), recovers the error and
updates the solution.  Used in tests and as the simplest host solver; the
Krylov solvers invoke the preconditioner through exactly the same
interface, and all of them share the driver's contract (deadline/cancel
per iteration, checkpoints — the state is just ``(x, r)``, so any iteration
boundary resumes bit-identically).
"""

from __future__ import annotations

import numpy as np

from ..observability import trace as _trace
from ..resilience.runtime import SolverCheckpoint
from .driver import Method, drive
from .history import SolveResult

__all__ = ["richardson"]


class _Richardson(Method):
    name = "richardson"

    def __init__(self, damping: float):
        self.damping = damping

    def steps(self, run):
        while run.it < run.maxiter:
            yield
            run.it += 1
            with _trace.span("iteration", it=run.it):
                e = run.precondition(run.r)  # lines 4-6
                run.x += run.dtype.type(self.damping) * e  # line 7
                run.r = self.residual(run)  # line 3 of the next pass
                rel = run.record()
                if run.callback is not None:
                    run.callback(run.it, rel, run.x)
                if not np.isfinite(rel):
                    return "diverged"
                if rel < run.rtol:
                    return "converged"
            yield run.it


def richardson(
    a,
    b: np.ndarray,
    x0: "np.ndarray | None" = None,
    preconditioner=None,
    rtol: float = 1e-9,
    maxiter: int = 500,
    damping: float = 1.0,
    dtype=np.float64,
    callback=None,
    runtime=None,
    checkpoint_every: int = 0,
    checkpoint_sink=None,
    resume_from: "SolverCheckpoint | None" = None,
) -> SolveResult:
    """Preconditioned stationary iteration ``x <- x + w * M^{-1}(b - A x)``."""
    return drive(
        _Richardson(damping), a, b, x0=x0, preconditioner=preconditioner,
        rtol=rtol, maxiter=maxiter, dtype=dtype, callback=callback,
        runtime=runtime, checkpoint_every=checkpoint_every,
        checkpoint_sink=checkpoint_sink, resume_from=resume_from,
    )
