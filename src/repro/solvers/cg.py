"""Preconditioned Conjugate Gradient in the iterative precision, one
vector or a block of them.

Nothing special is applied to the iterative solver (Section 4.2): it runs
entirely in the user's iterative precision (FP64 for every problem in Table
3) and invokes the preconditioner through the Algorithm-2 interface —
truncate the residual, apply the FP16 multigrid, recover the error.

:func:`batched_cg` is the same recurrence in *block mode*: the SG-DIA SpMV
and the multigrid preconditioner see the whole ``(n, k)`` block at once,
so each FP16 coefficient slice is converted (``fcvt``) once per iteration
instead of once per column — the serving-side realization of the paper's
bandwidth argument.  Both run one recurrence over the block; a single
vector is ``k = 1``.  The scalars (``alpha``, ``beta``, residual norms) are
kept per column: each iteration makes one C-contiguous ``(k, n)`` row copy
each of ``p``, ``Ap``, ``r`` and ``z`` (:meth:`Run.rows
<repro.solvers.driver.Run.rows>`, a view for ``k = 1``) and reduces each
column's row with the BLAS call a single solve makes on its vector, so the
summation order is the same.  The ``x``, ``r`` and ``p`` updates are one
broadcast each over the live columns, and a column freezes, never to be
written again, the moment its own solve would stop.  Because the batched
kernels are columnwise bit-exact, every column reproduces :func:`cg` on
that column bit for bit.  For block
(vector-PDE) operators that rests on one summation order: each ``r x r``
block product sums in ascending order from zero whatever the column count
(:func:`repro.kernels.spmv.block_contract`, and the compiled block kernels
reproduce it), so a column of a block is computed exactly as the single
vector is.

The deadline/cancel checks, checkpoints and early exit are the driver's
(:mod:`repro.solvers.driver`).  A checkpoint is the loop-top state: ``(x, r,
p)`` and ``rz`` are all CG carries across an iteration boundary, so a resume
replays the remaining iterations bit for bit.
"""

from __future__ import annotations

import numpy as np

from ..observability import trace as _trace
from ..resilience.runtime import SolverCheckpoint
from .driver import Method, drive
from .history import SolveResult

__all__ = ["batched_cg", "cg", "curvature_status"]


def curvature_status(pap: float) -> "tuple[str, str | None] | None":
    """Classify a CG step by its curvature ``p^T A p``.

    ``None`` means the step is safe.  Otherwise the ``(status, reason)`` to
    stop with: a non-finite curvature is ``"diverged"``; ``p^T A p <= 0``
    is ``"breakdown"``, with reason ``"indefinite"`` when negative — the
    operator is not positive definite on this direction, CG's alpha would
    flip sign and the "convergence" would be garbage.  Both are failure
    statuses, so ``robust_solve`` escalates.
    """
    if not np.isfinite(pap):
        return "diverged", None
    if pap <= 0.0:
        return "breakdown", "indefinite" if pap < 0.0 else None
    return None


class _CG(Method):
    def __init__(self, block: bool):
        self.name = "batched_cg" if block else "cg"
        self.p = None
        self.rz = None

    def state(self, run):
        arrays = {"x": run.x, "r": run.r, "p": self.p}
        rz = [float(v) for v in self.rz]
        if run.block:
            return {"arrays": arrays, "extra": {"rz": rz}}
        return {"arrays": arrays, "scalars": {"rz": rz[0]}}

    def restore(self, run, cp, arrays):
        self.p = arrays["p"]
        rz = cp.extra["rz"] if run.block else [cp.scalars["rz"]]
        self.rz = np.array(rz, dtype=np.float64)

    def steps(self, run):
        n, k = run.b.size // run.k, run.k
        # every iteration reuses these: the (k, n) rows of p, Ap, r and z
        # (views when k == 1), and the (n, k) products alpha p and alpha Ap
        self.buf = np.empty((4, k, n), run.dtype) if k > 1 else (None,) * 4
        self.tmp = np.empty((n, k), run.dtype)
        if self.p is None:
            yield
            z = run.precondition(run.r)
            self.p = z.copy()
            rr, zr = run.rows(run.r, self.buf[2]), run.rows(z, self.buf[3])
            self.rz = np.array([self.dot(rr[j], zr[j]) for j in range(k)])
        while run.it < run.maxiter and run.active.any():
            yield
            run.it += 1
            attrs = {"columns": int(run.active.sum())} if run.block else {}
            with _trace.span("iteration", it=run.it, **attrs):
                self._iterate(run)
            if run.active.any():
                yield run.it

    def _iterate(self, run):
        # x, r and p are C-contiguous (the driver allocates x and r and
        # restores p so), so these (n, k) reshapes are views: the updates
        # land in place
        k, rz = run.k, self.rz
        p, x, r = (v.reshape(-1, k) for v in (self.p, run.x, run.r))
        for j in run.live():
            if not np.isfinite(rz[j]):
                run.freeze(j, "diverged")
        if not run.active.any():
            return
        ap = run.apply(self.p)
        pr, apr = run.rows(p, self.buf[0]), run.rows(ap, self.buf[1])
        alpha = np.zeros(k)
        for j in run.live():
            pap = self.dot(pr[j], apr[j])
            failure = curvature_status(pap)
            if failure is not None:
                run.freeze(j, *failure)
            else:
                alpha[j] = rz[j] / pap
        live = run.live()
        if live.size == 0:
            return
        # one broadcast per update over the live columns; a frozen column
        # is never written
        where = _where(run)
        np.add(x, self._scaled(p, alpha, where), out=x, where=where)
        ap = ap.reshape(-1, k)
        np.subtract(r, self._scaled(ap, alpha, where), out=r, where=where)
        rr = run.rows(r, self.buf[2])
        run.record(rr)
        restart = False
        if run.callback is not None:
            rel = run.rel.copy() if run.block else float(run.rel[0])
            restart = bool(run.callback(run.it, rel, run.x))
        for j in live:
            if not np.isfinite(run.rel[j]):
                run.freeze(j, "diverged")
            elif run.rel[j] < run.rtol:
                run.freeze(j, "converged")
        if not run.active.any():
            return
        z = run.precondition(run.r)
        zr = run.rows(z, self.buf[3])
        beta = np.zeros(k)
        for j in run.live():
            rz_new = self.dot(rr[j], zr[j])
            if not restart:
                if rz[j] == 0.0:
                    run.freeze(j, "breakdown")
                    continue
                beta[j] = rz_new / rz[j]
            rz[j] = rz_new
        z, where = z.reshape(-1, k), _where(run)
        if restart:
            # The callback changed the preconditioner (the precision
            # policy re-tiered a level): the beta recurrence assumes a
            # fixed M, so restart from the preconditioned residual.
            np.copyto(p, z, where=where)
        else:
            beta = beta.astype(p.dtype, copy=False)
            np.multiply(p, beta, out=p, where=where)
            np.add(p, z, out=p, where=where)  # p = z + beta p

    def _scaled(self, v, coef, where):
        """``coef * v`` column by column, into the reused buffer.  Each
        column's FP64 ``coef`` is cast to ``v``'s dtype first and the
        product keeps that dtype: a Python float scaling one vector does
        the same."""
        if self.tmp.dtype != v.dtype:
            self.tmp = np.empty(v.shape, v.dtype)
        coef = coef.astype(v.dtype, copy=False)
        return np.multiply(v, coef, out=self.tmp, where=where)


def _where(run) -> "np.ndarray | bool":
    """The live columns as a ufunc ``where=``: ``True`` (the unmasked
    loop) while every column is live."""
    return True if run.active.all() else run.active


def cg(
    a,
    b: np.ndarray,
    x0: "np.ndarray | None" = None,
    preconditioner=None,
    rtol: float = 1e-9,
    maxiter: int = 500,
    dtype=np.float64,
    callback=None,
    runtime=None,
    checkpoint_every: int = 0,
    checkpoint_sink=None,
    resume_from: "SolverCheckpoint | None" = None,
) -> SolveResult:
    """Preconditioned CG for SPD ``A x = b``.

    Parameters
    ----------
    a:
        Operator with a ``matvec``/``__matmul__`` accepting the dof vector
        (``SGDIAMatrix``, scipy sparse matrix, or any callable-like object).
    preconditioner:
        Callable ``M(r) -> e`` (e.g. ``MGHierarchy.precondition``); identity
        when ``None``.
    callback:
        Called as ``callback(it, rel, x)`` after every iteration's residual
        update.  A truthy return value requests a *direction restart*
        (``p = M r``, no beta term) — the flexible-CG recovery for a
        callback that mutated the preconditioner mid-solve, as the
        precision policy controller does when it re-tiers a level.  A
        ``None``/falsy return (every plain observer) leaves the recurrence
        untouched.
    rtol:
        Convergence threshold on ``||r||_2 / ||b||_2`` (true recursive
        residual).
    runtime:
        Optional :class:`~repro.resilience.runtime.ExecContext`; checked
        cooperatively at every iteration boundary and V-cycle level visit.
    checkpoint_every:
        Emit a :class:`SolverCheckpoint` every ``k`` iterations (0 = off).
        Each checkpoint goes to ``checkpoint_sink`` (when given) and the
        latest one rides on ``result.detail["checkpoint"]``.
    resume_from:
        A CG checkpoint to continue from; the resumed run is bit-identical
        to the run that produced the checkpoint left uninterrupted.
    """
    return drive(
        _CG(block=False), a, b, x0=x0, preconditioner=preconditioner,
        rtol=rtol, maxiter=maxiter, dtype=dtype, callback=callback,
        runtime=runtime, checkpoint_every=checkpoint_every,
        checkpoint_sink=checkpoint_sink, resume_from=resume_from,
    )


def batched_cg(
    a,
    b: np.ndarray,
    x0: "np.ndarray | None" = None,
    preconditioner=None,
    rtol: float = 1e-9,
    maxiter: int = 500,
    dtype=np.float64,
    callback=None,
    runtime=None,
    checkpoint_every: int = 0,
    checkpoint_sink=None,
    resume_from: "SolverCheckpoint | None" = None,
) -> list[SolveResult]:
    """:func:`cg` in block mode; returns one result per column.

    Parameters
    ----------
    b:
        RHS block with a trailing batch axis: ``(n, k)`` or
        ``field_shape + (k,)``.
    preconditioner:
        Callable ``M(R) -> E`` accepting the *block* (e.g.
        ``MGHierarchy.precondition``, whose batched path is columnwise
        bit-exact).
    callback:
        Optional ``callback(it, rel_norms, x_block)`` per iteration; a
        truthy return restarts every active column's direction, as in
        :func:`cg`.
    runtime / checkpoint_every / checkpoint_sink / resume_from:
        As in :func:`cg`.  On interruption every still-active column
        reports the interrupt status with its partial iterate; frozen
        columns keep their final results.  ``precond_applications``
        counts block applications.

    Returns a list of ``k`` :class:`SolveResult`; ``results[j]`` is
    bit-identical to ``cg(a, b[..., j], ...)``.
    """
    if np.ndim(b) < 2:
        raise ValueError(
            "batched_cg needs an RHS block with a trailing batch axis; "
            "use cg() for a single right-hand side"
        )
    return drive(
        _CG(block=True), a, b, x0=x0, preconditioner=preconditioner,
        rtol=rtol, maxiter=maxiter, dtype=dtype, callback=callback,
        runtime=runtime, checkpoint_every=checkpoint_every,
        checkpoint_sink=checkpoint_sink, resume_from=resume_from, block=True,
    )
