"""Distributed preconditioned CG with communication accounting.

The solver mirrors :func:`repro.solvers.cg` over decomposed vectors: the
matvec performs one halo exchange, every inner product is one allreduce.
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
from .halo import DistributedField

__all__ = ["distributed_cg", "distributed_dot", "failing_ranks"]


def distributed_dot(
    x: DistributedField, y: DistributedField, stats: "CommStats | None" = None
) -> float:
    """Global inner product: per-rank partials + one allreduce."""
    total = 0.0
    for rank in range(x.decomp.nranks):
        a = x.owned_view(rank).astype(np.float64).ravel()
        b = y.owned_view(rank).astype(np.float64).ravel()
        total += float(a @ b)
    if stats is not None:
        stats.record_allreduce(8)
    return total


def failing_ranks(
    x: DistributedField, stats: "CommStats | None" = None
) -> list[int]:
    """Ranks whose owned subdomain holds non-finite values (one allreduce).

    This is the lockstep failure-agreement primitive: each rank contributes
    a local finiteness flag, the (bitwise-OR) allreduce hands every rank the
    same failure map, and therefore every rank takes the same escalation
    decision.  A rank that detected the failure locally can never bail out
    of a collective the others still sit in.
    """
    ranks = [
        rank
        for rank in range(x.decomp.nranks)
        if not np.isfinite(x.owned_view(rank)).all()
    ]
    if stats is not None:
        stats.record_allreduce(max(1, (x.decomp.nranks + 7) // 8))
    return ranks


def _axpy(alpha: float, x: DistributedField, y: DistributedField) -> None:
    for rank in range(x.decomp.nranks):
        y.owned_view(rank)[...] += alpha * x.owned_view(rank)


def _xpay(x: DistributedField, alpha: float, y: DistributedField) -> None:
    for rank in range(x.decomp.nranks):
        ov = y.owned_view(rank)
        ov *= alpha
        ov += x.owned_view(rank)


def _copy(src: DistributedField, dst: DistributedField) -> None:
    for rank in range(src.decomp.nranks):
        dst.owned_view(rank)[...] = src.owned_view(rank)


def distributed_cg(
    a: DistributedSGDIA,
    b: DistributedField,
    rtol: float = 1e-9,
    maxiter: int = 500,
    preconditioner=None,
    stats: "CommStats | None" = None,
    runtime=None,
) -> tuple[SolveResult, CommStats]:
    """Preconditioned CG over a decomposed system.

    ``preconditioner``, when given, is a callable
    ``M(r: DistributedField, z: DistributedField) -> None`` filling ``z``.
    Returns the usual :class:`SolveResult` (with the gathered solution) and
    the communication statistics.  ``runtime`` (an
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
    dtype = a.compute_dtype if a.compute_dtype == np.float64 else np.float64
    # iterative precision fp64 vectors (guideline: solver precision is the
    # user's, only the preconditioner drops precision)
    x = DistributedField(decomp, dtype=dtype)
    r = DistributedField(decomp, dtype=dtype)
    z = DistributedField(decomp, dtype=dtype)
    p = DistributedField(decomp, dtype=dtype)
    ap = DistributedField(decomp, dtype=dtype)

    _copy(b, r)  # x0 = 0 -> r = b
    bn = np.sqrt(distributed_dot(b, b, stats))
    if bn == 0.0:
        bn = 1.0
    history = ConvergenceHistory()
    detail: dict = {}
    rel = np.sqrt(distributed_dot(r, r, stats)) / bn
    history.record(rel)
    status = "maxiter"
    it = 0
    if not np.isfinite(rel):
        status = "diverged"
        detail["failed_ranks"] = failing_ranks(r, stats)
    elif rel < rtol:
        status = "converged"
    else:
        try:
            if preconditioner is None:
                _copy(r, z)
            else:
                preconditioner(r, z)
            _copy(z, p)
            rz = distributed_dot(r, z, stats)
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
                        a.spmv(p, out=ap, stats=stats)
                    stats.set_phase("default")
                    pap = distributed_dot(p, ap, stats)
                    failure = curvature_status(pap)
                    if failure is not None:
                        status, reason = failure
                        if status == "diverged":
                            detail["failed_ranks"] = failing_ranks(ap, stats)
                        if reason is not None:
                            detail["reason"] = reason
                        break
                    alpha = rz / pap
                    _axpy(alpha, p, x)
                    _axpy(-alpha, ap, r)
                    rel = np.sqrt(distributed_dot(r, r, stats)) / bn
                    history.record(rel)
                    if not np.isfinite(rel):
                        status = "diverged"
                        detail["failed_ranks"] = failing_ranks(r, stats)
                        break
                    if rel < rtol:
                        status = "converged"
                        break
                    if preconditioner is None:
                        _copy(r, z)
                    else:
                        with _trace.span("precond"):
                            preconditioner(r, z)
                    rz_new = distributed_dot(r, z, stats)
                    if rz == 0.0:
                        status = "breakdown"
                        break
                    _xpay(z, rz_new / rz, p)
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
        x=x.gather(),
        status=status,
        iterations=it if status != "maxiter" else maxiter,
        history=history,
        solver="distributed-cg",
        detail=detail,
    )
    return result, stats
