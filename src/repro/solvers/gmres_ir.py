"""Three-precision GMRES-based iterative refinement (GMRES-IR).

Carson & Khan's mixed-precision iterative refinement (arXiv:2202.10204)
splits the solve across three precisions:

- *factorization / correction precision* — here the FP16/BF16 multigrid
  V-cycle preconditioning a low-precision GMRES that solves the
  correction equation ``A d ≈ r``;
- *working precision* (``dtype``, FP32 or FP64) — the iterate ``x`` and
  the update ``x ← x + d``;
- *residual precision* (``residual_dtype``, FP64) — the residual
  ``r = b - A x`` is accumulated in extra precision, the classical
  Wilkinson trick that lets the refined solution reach working-precision
  accuracy even when the correction solver is far less accurate.

Each refinement step scales the residual to unit norm before handing it
to the low-precision inner solve (so FP16 never sees a shrinking
right-hand side it would underflow on), then applies the correction in
working precision.  Convergence is judged on the FP64 true residual —
there is no implicit-estimate "false convergence" to worry about.

Refinement steps are the driver's step boundaries: the deadline/cancel
check runs per step (and the inner GMRES shares the runtime), and
checkpoints land there too — the state is just ``x``.  A truthy callback
return needs no special recovery: every step already starts a fresh inner
Krylov space, so re-tiering between steps is always legal.
"""

from __future__ import annotations

import numpy as np

from ..observability import trace as _trace
from ..resilience.runtime import SolverCheckpoint
from .driver import INTERRUPTS, Method, drive
from .fgmres import _resolve_dtype, gmres
from .history import SolveResult

__all__ = ["gmres_ir"]


class _GmresIR(Method):
    name = "gmres_ir"

    def __init__(self, restart, residual_dtype, inner_dtype, inner_rtol,
                 inner_maxiter, max_steps):
        self.restart = restart
        self.residual_dtype = _resolve_dtype(residual_dtype)
        self.inner_dtype = _resolve_dtype(inner_dtype)
        self.inner_rtol = inner_rtol
        self.inner_maxiter = inner_maxiter
        self.max_steps = max_steps
        self.refinements = 0

    def residual(self, run):
        # FP64 accumulation: promote the iterate, form b - A x in the
        # residual precision regardless of the working precision.
        xr = run.x.astype(self.residual_dtype, copy=False)
        ax = np.asarray(run.matvec(xr), dtype=self.residual_dtype)
        return run.b - ax.reshape(run.shape)

    def state(self, run):
        return {
            "arrays": {"x": run.x},
            "extra": {"refinement_steps": self.refinements},
        }

    def restore(self, run, cp, arrays):
        self.refinements = int(cp.extra.get("refinement_steps", 0))

    def detail(self, run):
        return {
            "refinement_steps": self.refinements,
            "precisions": {
                "working": str(run.dtype),
                "residual": str(self.residual_dtype),
                "inner": str(self.inner_dtype),
            },
        }

    def steps(self, run):
        rel, no_progress = float(run.rel[0]), 0
        while self.refinements < self.max_steps and run.it < run.maxiter:
            yield
            rnorm = float(np.linalg.norm(run.r.ravel()))
            if rnorm == 0.0:
                return "converged"
            with _trace.span("refinement", step=self.refinements + 1):
                # Correction solve in low precision on the *scaled*
                # residual (unit norm keeps FP16 well inside range).
                budget = min(self.inner_maxiter, run.maxiter - run.it)
                corr = gmres(
                    run.a,
                    (run.r / rnorm).astype(self.inner_dtype),
                    preconditioner=run.m,
                    rtol=self.inner_rtol,
                    maxiter=budget,
                    restart=min(self.restart, budget),
                    dtype=self.inner_dtype,
                    runtime=run.runtime,
                )
            run.n_prec += corr.precond_applications
            run.it += corr.iterations
            self.refinements += 1
            if corr.status in INTERRUPTS:
                return corr.status
            d = np.asarray(corr.x, dtype=run.dtype).reshape(run.shape)
            if not np.isfinite(d).all():
                return "diverged"
            run.x += np.asarray(rnorm, dtype=run.dtype) * d
            run.r = self.residual(run)
            new_rel = run.record()
            if run.callback is not None:
                run.callback(run.it, new_rel, run.x)
            if not np.isfinite(new_rel):
                return "diverged"
            if new_rel < run.rtol:
                return "converged"
            # A refinement step that fails to reduce the residual means the
            # correction precision cannot deliver the requested tolerance
            # (u_f too coarse for this conditioning) — two strikes and we
            # report stagnation instead of burning the whole budget.
            no_progress = no_progress + 1 if new_rel >= rel else 0
            if no_progress >= 2:
                return "stagnated"
            rel = new_rel
            yield self.refinements


def gmres_ir(
    a,
    b: np.ndarray,
    x0: "np.ndarray | None" = None,
    preconditioner=None,
    rtol: float = 1e-9,
    maxiter: int = 500,
    restart: int = 30,
    dtype=np.float64,
    residual_dtype=np.float64,
    inner_dtype=np.float32,
    inner_rtol: float = 1e-4,
    inner_maxiter: int = 50,
    max_steps: int = 40,
    callback=None,
    runtime=None,
    checkpoint_every: int = 0,
    checkpoint_sink=None,
    resume_from: "SolverCheckpoint | None" = None,
) -> SolveResult:
    """Three-precision iterative refinement for ``A x = b``.

    ``dtype`` is the working precision of the iterate, ``residual_dtype``
    the (higher) precision of the residual accumulation, ``inner_dtype``
    the precision of the GMRES correction solver (which is preconditioned
    by ``preconditioner`` — the FP16 MG V-cycle in the paper's setup).
    Dtypes accept numpy dtypes or precision-format names.

    ``maxiter`` bounds the *total inner Krylov iterations* across all
    refinement steps so budgets are comparable with plain CG/GMRES;
    ``max_steps`` additionally caps the number of refinement steps.
    ``result.iterations`` reports total inner iterations and
    ``result.detail["refinement_steps"]`` the outer step count.
    ``checkpoint_every=k`` saves every ``k``-th refinement step.
    """
    method = _GmresIR(
        restart, residual_dtype, inner_dtype, inner_rtol, inner_maxiter,
        max_steps,
    )
    return drive(
        method, a, b, x0=x0, preconditioner=preconditioner, rtol=rtol,
        maxiter=maxiter, dtype=dtype, callback=callback, runtime=runtime,
        checkpoint_every=checkpoint_every, checkpoint_sink=checkpoint_sink,
        resume_from=resume_from,
    )
