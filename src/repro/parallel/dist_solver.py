"""Distributed preconditioned CG with communication accounting.

The solver mirrors :func:`repro.solvers.cg` on global-layout vectors over
a decomposed operator: the matvec performs one halo exchange, every inner
product is one allreduce of per-rank partial sums.
A step is classified by :func:`repro.solvers.cg.curvature_status`, the
same curvature test the sequential solver uses, so an indefinite operator
is a ``"breakdown"`` with ``detail["reason"] == "indefinite"`` here too.
Its counters are the *measured* ground truth the Figure-10 scaling model's
per-iteration communication terms are validated against.
"""

from __future__ import annotations

import numpy as np

from ..observability import trace as _trace
from ..resilience.runtime import SolveInterrupted
from ..solvers.cg import curvature_status
from ..solvers.history import ConvergenceHistory, SolveResult
from .comm import CommStats
from .decomp import CartesianDecomposition
from .dist_matrix import DistributedSGDIA

__all__ = ["distributed_cg", "distributed_dot", "failing_ranks"]


def distributed_dot(
    decomp: CartesianDecomposition,
    x: np.ndarray,
    y: np.ndarray,
    stats: "CommStats | None" = None,
) -> float:
    """Global inner product of two global-layout fields: per-rank partials
    over the owned cells + one allreduce."""
    shape = decomp.grid.field_shape
    x, y = np.reshape(x, shape), np.reshape(y, shape)
    total = 0.0
    for rank in range(decomp.nranks):
        sl = decomp.owned_slices(rank)
        total += float(
            x[sl].astype(np.float64).ravel() @ y[sl].astype(np.float64).ravel()
        )
    if stats is not None:
        stats.record_allreduce(8)
    return total


def failing_ranks(
    decomp: CartesianDecomposition,
    x: np.ndarray,
    stats: "CommStats | None" = None,
) -> list[int]:
    """Ranks whose owned subdomain of the global-layout field ``x`` holds
    non-finite values (one allreduce).

    This is the lockstep failure-agreement primitive: each rank contributes
    a local finiteness flag, the (bitwise-OR) allreduce hands every rank the
    same failure map, and therefore every rank takes the same escalation
    decision.  A rank that detected the failure locally can never bail out
    of a collective the others still sit in.
    """
    x = np.reshape(x, decomp.grid.field_shape)
    ranks = [
        rank
        for rank in range(decomp.nranks)
        if not np.isfinite(x[decomp.owned_slices(rank)]).all()
    ]
    if stats is not None:
        stats.record_allreduce(max(1, (decomp.nranks + 7) // 8))
    return ranks


def distributed_cg(
    a: DistributedSGDIA,
    b: np.ndarray,
    rtol: float = 1e-9,
    maxiter: int = 500,
    preconditioner=None,
    stats: "CommStats | None" = None,
    runtime=None,
) -> tuple[SolveResult, CommStats]:
    """Preconditioned CG over a decomposed system, in FP64.

    ``b`` and the returned solution are global-layout fields;
    ``preconditioner``, when given, is a callable ``M(r) -> e`` on them
    (e.g. :meth:`DistributedMG.precondition
    <repro.parallel.DistributedMG.precondition>`).  Returns the usual
    :class:`SolveResult` and the communication statistics.  ``runtime`` (an
    :class:`~repro.resilience.runtime.ExecContext`) is checked once per
    iteration — all ranks share the driver process, so they observe the
    deadline/cancel in the same iteration and leave together.  A
    :class:`~repro.parallel.halo.HaloCorruption` raised inside the exchange
    (checksum failure surviving a retransmit) classifies the solve as
    ``"corrupted"`` instead of escaping as an exception.

    Failure semantics: the per-iteration residual norm is an allreduce, so a
    non-finite value on any rank reaches every rank in the same iteration —
    all ranks leave the loop together with status ``"diverged"`` (no rank
    can hang in a collective the others abandoned).  On divergence one extra
    allreduce attributes the failure; the guilty ranks are reported in
    ``result.detail["failed_ranks"]`` for the resilience layer.
    """
    stats = stats if stats is not None else CommStats()
    decomp = a.decomp
    shape = decomp.grid.field_shape

    def dot(u, v):
        return distributed_dot(decomp, u, v, stats)

    def precondition(v):
        if preconditioner is None:
            return v.copy()
        return np.asarray(preconditioner(v), dtype=np.float64).reshape(shape)

    # iterative precision fp64 vectors (guideline: solver precision is the
    # user's, only the preconditioner drops precision)
    b = np.asarray(b, dtype=np.float64).reshape(shape)
    x = np.zeros(shape)
    r = b.copy()  # x0 = 0 -> r = b
    bn = np.sqrt(dot(b, b))
    if bn == 0.0:
        bn = 1.0
    history = ConvergenceHistory()
    detail: dict = {}
    rel = np.sqrt(dot(r, r)) / bn
    history.record(rel)
    status = "maxiter"
    it = 0
    if not np.isfinite(rel):
        status = "diverged"
        detail["failed_ranks"] = failing_ranks(decomp, r, stats)
    elif rel < rtol:
        status = "converged"
    else:
        try:
            z = precondition(r)
            p = z.copy()
            rz = dot(r, z)
            for it in range(1, maxiter + 1):
                if runtime is not None:
                    interrupt = runtime.check()
                    if interrupt is not None:
                        status = interrupt
                        it -= 1
                        break
                with _trace.span("iteration", solver="distributed-cg", it=it):
                    stats.set_phase("matvec")
                    with _trace.span("spmv"):
                        ap = a.spmv(p, stats)
                    stats.set_phase("default")
                    pap = dot(p, ap)
                    failure = curvature_status(pap)
                    if failure is not None:
                        status, reason = failure
                        if status == "diverged":
                            detail["failed_ranks"] = failing_ranks(
                                decomp, ap, stats
                            )
                        if reason is not None:
                            detail["reason"] = reason
                        break
                    alpha = rz / pap
                    x += alpha * p
                    r -= alpha * ap
                    rel = np.sqrt(dot(r, r)) / bn
                    history.record(rel)
                    if not np.isfinite(rel):
                        status = "diverged"
                        detail["failed_ranks"] = failing_ranks(decomp, r, stats)
                        break
                    if rel < rtol:
                        status = "converged"
                        break
                    z = precondition(r)
                    rz_new = dot(r, z)
                    if rz == 0.0:
                        status = "breakdown"
                        break
                    p *= rz_new / rz
                    p += z
                    rz = rz_new
        except SolveInterrupted as stop:
            # Halo corruption (or a cooperative deadline raised mid-phase):
            # the run classifies — every rank shares the driver process, so
            # every rank sees the same exception at the same point.
            status = stop.status

    # Halo-exchange volume is part of the solve's telemetry: traces and
    # ``detail["failed_ranks"]`` reports carry the measured traffic that
    # accompanied the (possibly failing) iterations.
    detail["comm"] = stats.to_dict()
    result = SolveResult(
        x=x,
        status=status,
        iterations=it if status != "maxiter" else maxiter,
        history=history,
        solver="distributed-cg",
        detail=detail,
    )
    return result, stats
