"""Flexible GMRES (FGMRES), and GMRES as FGMRES with a fixed preconditioner.

The paper uses GMRES for the nonsymmetric problems (oil, weather, oil-4C).
Right preconditioning keeps the monitored quantity the true-system residual
``||b - A x||``; the Arnoldi recursion tracks the *implicit* residual (the
Givens-rotation estimate), which can show the "false convergence"
oscillations the paper notes for weather — the true residual is recomputed
at every restart and at the end.

Right-preconditioned GMRES already *stores* the preconditioned basis ``Z``,
so one Arnoldi/Givens cycle serves both methods.  FGMRES makes the varying
preconditioner first-class (Saad '93): each column ``z_k = M_k v_k`` may
come from a *different* operator, so the precision policy may re-tier
levels every step and — the nested-Krylov method of Suzuki & Iwashita
(arXiv:2505.20719) — ``M_k`` may itself be an inner GMRES run in low
precision around the FP16 multigrid V-cycle.  :func:`gmres` is that cycle
with a fixed ``M``, under its own solver name.

Deadline/cancel checks run per Arnoldi step; on interruption the finished
steps of the current cycle are still folded into ``x`` through the small
least-squares solve.  Checkpoints are emitted at *restart boundaries*, the
only points where the solver state collapses to ``(x, r)`` (the
Hessenberg/Givens state is discarded there by construction), so
``resume_from`` continues bit-identically.
"""

from __future__ import annotations

import numpy as np

from ..observability import trace as _trace
from ..resilience.runtime import SolveInterrupted, SolverCheckpoint
from .driver import INTERRUPTS, Method, drive
from .history import SolveResult

__all__ = ["fgmres", "gmres"]


class _FGMRES(Method):
    def __init__(self, name, restart, inner=None, inner_maxiter=4,
                 inner_rtol=1e-2, inner_dtype=np.float32):
        self.inner_dtype = _resolve_dtype(inner_dtype)
        if inner not in (None, "gmres"):
            raise ValueError(f"unknown inner solver {inner!r}; known: 'gmres'")
        self.name = name
        self.restart = restart
        self.inner = inner
        self.inner_maxiter = inner_maxiter
        self.inner_rtol = inner_rtol
        self.inner_its = 0

    def state(self, run):
        state = super().state(run)
        if self.name == "fgmres":
            state["extra"] = {"inner_iterations": self.inner_its}
        return state

    def restore(self, run, cp, arrays):
        self.inner_its = int(cp.extra.get("inner_iterations", 0))

    def detail(self, run):
        if self.name != "fgmres":
            return {}
        return {"inner": {
            "solver": self.inner,
            "iterations": self.inner_its,
            "dtype": str(self.inner_dtype),
            "rtol": self.inner_rtol,
            "maxiter": self.inner_maxiter,
        }}

    def steps(self, run):
        while run.it < run.maxiter:
            beta = float(np.linalg.norm(run.r.ravel()))
            if beta == 0.0:
                return "converged"
            if not np.isfinite(beta):
                return "diverged"
            status = yield from self._cycle(run, beta)
            if status is not None:
                return status
            yield 0  # restart boundary: (x, r) is the whole state

    def _cycle(self, run, beta):
        """One Arnoldi cycle from ``r``; returns a final status or ``None``."""
        n, dtype, bn = run.b.size, run.dtype, run.bn[0]
        k_max = min(self.restart, run.maxiter - run.it)
        v = np.zeros((k_max + 1, n), dtype=dtype)
        z = np.zeros((k_max, n), dtype=dtype)  # flexible basis Z
        h = np.zeros((k_max + 1, k_max), dtype=dtype)
        cs = np.zeros(k_max, dtype=dtype)
        sn = np.zeros(k_max, dtype=dtype)
        g = np.zeros(k_max + 1, dtype=dtype)
        g[0] = beta
        v[0] = run.r.ravel() / beta

        k_done, stop, rel = 0, None, beta / bn
        for k in range(k_max):
            try:
                yield
                with _trace.span("iteration", it=run.it + 1):
                    zk = self._precondition(run, v[k], rel)
                    w = run.apply(zk.reshape(run.shape)).ravel()
                    if not np.isfinite(w).all():
                        stop = "diverged"
                        break
                    z[k] = zk
                    # modified Gram-Schmidt
                    for i in range(k + 1):
                        h[i, k] = float(np.dot(v[i], w))
                        w -= h[i, k] * v[i]
                    hk1 = float(np.linalg.norm(w))
                    h[k + 1, k] = hk1
                    if hk1 > 0.0:
                        v[k + 1] = w / hk1
                    # apply stored Givens rotations
                    for i in range(k):
                        tmp = cs[i] * h[i, k] + sn[i] * h[i + 1, k]
                        h[i + 1, k] = -sn[i] * h[i, k] + cs[i] * h[i + 1, k]
                        h[i, k] = tmp
                    # new rotation
                    denom = float(np.hypot(h[k, k], h[k + 1, k]))
                    if denom == 0.0:
                        stop = "breakdown"
                        break
                    cs[k] = h[k, k] / denom
                    sn[k] = h[k + 1, k] / denom
                    h[k, k] = denom
                    h[k + 1, k] = 0.0
                    g[k + 1] = -sn[k] * g[k]
                    g[k] = cs[k] * g[k]
                    k_done = k + 1
                    run.it += 1
                    rel = abs(float(g[k + 1])) / bn  # implicit residual estimate
                    run.history.record(rel)
                    if run.callback is not None:
                        x_cur = run.x + _fold(z, h, g, k_done).reshape(run.shape)
                        if run.callback(run.it, rel, x_cur):
                            # Restart request: the callback mutated the
                            # preconditioner (policy re-tier), so end the
                            # cycle here and restart from the boundary.
                            stop = "restart"
                            break
                    if not np.isfinite(rel):
                        stop = "diverged"
                        break
                    if rel < run.rtol or run.it >= run.maxiter:
                        break
                    if hk1 == 0.0:
                        stop = "breakdown"  # lucky breakdown: exact solve
                        break
            except SolveInterrupted as exc:
                stop = exc.status
                break
        # solve the small triangular system and update x — also on
        # interruption, so every finished Arnoldi step reaches the iterate
        if k_done > 0:
            run.x += _fold(z, h, g, k_done).reshape(run.shape)
        run.r = self.residual(run)
        true_rel = float(np.linalg.norm(run.r.ravel())) / bn
        if stop == "diverged" or not np.isfinite(true_rel):
            run.history.record(true_rel)
            return "diverged"
        if stop in INTERRUPTS and true_rel >= run.rtol:
            run.history.record(true_rel)
            return stop
        if k_done > 0:
            # Replace the last implicit Givens estimate with the recomputed
            # true residual at *every* restart boundary: this is where the
            # "false convergence" oscillation becomes visible to history
            # consumers (stagnation classifiers, the precision policy).
            run.history.norms[-1] = true_rel
        if true_rel < run.rtol:
            return "converged"
        if stop == "breakdown":
            return "breakdown"
        return None

    def _precondition(self, run, vk, rel):
        """One flexible preconditioner application ``z_k = M_k(v_k)``."""
        if self.inner is None:
            return run.precondition(vk.reshape(run.shape)).ravel()
        # Nested mode: a few low-precision GMRES iterations on A z = v_k,
        # preconditioned by M.  Two guards keep the nesting from spending
        # more preconditioner applications than the outer progress is
        # worth.  (1) Inexact-Krylov relaxation (van den Eshof & Sleijpen):
        # the tolerable inexactness of z_k grows like rtol / ||r_outer||,
        # so near-converged steps accept a sloppier inner solve.  (2) An
        # endgame budget: from the per-application reduction rate observed
        # so far, estimate how many direct applications would finish the
        # solve — once that estimate fits inside ``inner_maxiter``, nesting
        # can only overshoot, so fall back to one application per step.
        # The inner run shares the outer runtime so deadlines and
        # cancellation cut through both loops.
        rtol = run.rtol
        eta = min(0.9, max(self.inner_rtol, 0.1 * rtol / max(rel, rtol)))
        budget = self.inner_maxiter
        if run.n_prec > 0 and 0.0 < rel < 1.0:
            per_app = np.log(rel) / run.n_prec  # < 0
            remaining = np.log(max(rtol, 1e-300) / rel) / per_app
            if remaining <= self.inner_maxiter + 1:
                budget = 1
        res = gmres(
            run.a,
            vk.reshape(run.shape).astype(self.inner_dtype),
            preconditioner=run.m,
            rtol=eta,
            maxiter=budget,
            restart=budget,
            dtype=self.inner_dtype,
            runtime=run.runtime,
        )
        run.n_prec += res.precond_applications
        self.inner_its += res.iterations
        if res.status in INTERRUPTS:
            raise SolveInterrupted(res.status)
        zk = np.asarray(res.x, dtype=run.dtype).ravel()
        if not np.isfinite(zk).all():
            # A diverged inner solve must not poison the outer basis; fall
            # back to a single direct preconditioner application.
            zk = run.precondition(vk.reshape(run.shape)).ravel()
        return zk


def gmres(
    a,
    b: np.ndarray,
    x0: "np.ndarray | None" = None,
    preconditioner=None,
    rtol: float = 1e-9,
    maxiter: int = 500,
    restart: int = 30,
    dtype=np.float64,
    callback=None,
    runtime=None,
    checkpoint_every: int = 0,
    checkpoint_sink=None,
    resume_from: "SolverCheckpoint | None" = None,
) -> SolveResult:
    """Right-preconditioned GMRES(restart) for ``A x = b``: FGMRES with a
    fixed preconditioner, reporting and checkpointing as ``"gmres"``.

    ``maxiter`` counts total Krylov iterations (preconditioner
    applications), not restart cycles.  ``checkpoint_every > 0`` emits a
    checkpoint at every restart boundary (the value itself only gates the
    feature on: restart boundaries are the exact-resume points).

    ``callback(it, rel, x)`` receives the current iterate (the finished
    Arnoldi steps folded into ``x`` through the small triangular solve).  A
    truthy return value ends the Arnoldi cycle early: the partial cycle is
    folded into ``x``, the true residual is recomputed, and the outer loop
    restarts — the cycle-boundary equivalent of CG's direction restart for
    a callback that mutated the preconditioner mid-solve, as the precision
    policy controller does when it re-tiers a level.
    """
    return drive(
        _FGMRES("gmres", restart), a, b, x0=x0,
        preconditioner=preconditioner, rtol=rtol, maxiter=maxiter,
        dtype=dtype, callback=callback, runtime=runtime,
        checkpoint_every=checkpoint_every, checkpoint_sink=checkpoint_sink,
        resume_from=resume_from,
    )


def fgmres(
    a,
    b: np.ndarray,
    x0: "np.ndarray | None" = None,
    preconditioner=None,
    rtol: float = 1e-9,
    maxiter: int = 500,
    restart: int = 30,
    dtype=np.float64,
    inner: "str | None" = None,
    inner_maxiter: int = 4,
    inner_rtol: float = 1e-2,
    inner_dtype=np.float32,
    callback=None,
    runtime=None,
    checkpoint_every: int = 0,
    checkpoint_sink=None,
    resume_from: "SolverCheckpoint | None" = None,
) -> SolveResult:
    """Flexible right-preconditioned GMRES(restart) for ``A x = b``.

    Parameters beyond :func:`gmres`:

    inner:
        ``None`` (default) applies ``preconditioner`` directly — flexible
        GMRES where ``M`` may change every step.  ``"gmres"`` nests an
        inner GMRES per outer step (``z_k`` approximately solves
        ``A z = v_k``), preconditioned by ``preconditioner``.  The inner
        residual target is loose (``inner_rtol``): the outer minimisation
        absorbs the slack, and one outer iteration buys several
        preconditioner applications' worth of progress.
    inner_maxiter / inner_rtol / inner_dtype:
        Budget, residual target, and working precision of each inner
        solve.  ``inner_dtype`` accepts numpy dtypes or precision-format
        names (``"fp16"``/``"bf16"``/``"fp32"``/``"fp64"``); FP16 is legal
        because the outer method never assumes the inner operator is
        linear or fixed.

    ``maxiter`` counts *outer* Krylov iterations; ``precond_applications``
    counts actual preconditioner applications including those consumed by
    inner solves, so nested and plain runs compare on equal footing.
    """
    method = _FGMRES(
        "fgmres", restart, inner, inner_maxiter, inner_rtol, inner_dtype
    )
    return drive(
        method, a, b, x0=x0, preconditioner=preconditioner, rtol=rtol,
        maxiter=maxiter, dtype=dtype, callback=callback, runtime=runtime,
        checkpoint_every=checkpoint_every, checkpoint_sink=checkpoint_sink,
        resume_from=resume_from,
    )


def _fold(z, h, g, k_done):
    """Solve the small triangular system, returning the update ``Z y``."""
    hh = h[:k_done, :k_done]
    if np.any(np.diag(hh) == 0):
        y = np.linalg.lstsq(hh, g[:k_done], rcond=None)[0]
    else:
        y = np.linalg.solve(np.triu(hh), g[:k_done])
    return z[:k_done].T @ y


def _resolve_dtype(spec):
    """Accept numpy dtypes or precision-format names (fp16/bf16/...)."""
    if isinstance(spec, str):
        from ..precision.types import get_format

        return np.dtype(get_format(spec).np_dtype)
    return np.dtype(spec)
