"""Distributed preconditioned CG with communication accounting.

:func:`distributed_cg` is :func:`repro.solvers.cg`'s recurrence on the
solver driver (:mod:`repro.solvers.driver`), run on global-layout vectors
over a decomposed operator.  Only the reductions differ: every inner
product and norm is per-rank partial sums and one allreduce
(:func:`distributed_dot`), and the matvec is one halo exchange, charged to
the ``"matvec"`` phase.  The rest is the driver's and CG's: the curvature
test (an indefinite operator is a ``"breakdown"`` with
``detail["reason"] == "indefinite"``), the runtime check at every step
boundary, and a :class:`~repro.resilience.runtime.SolveInterrupted` (a
deadline, a cancel, a halo corruption) turned into a status with the
partial iterate kept.  Its counters are the *measured* ground truth the
Figure-10 scaling model's per-iteration communication terms are validated
against.
"""

from __future__ import annotations

import numpy as np

from ..solvers.cg import _CG
from ..solvers.driver import drive
from ..solvers.history import SolveResult
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
    for sl in decomp.rank_slices:
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
        for rank, sl in enumerate(decomp.rank_slices)
        if not np.isfinite(x[sl]).all()
    ]
    if stats is not None:
        stats.record_allreduce(max(1, (decomp.nranks + 7) // 8))
    return ranks


class _DistributedCG(_CG):
    """CG whose reductions are counted allreduces of per-rank partials."""

    def __init__(self, decomp: CartesianDecomposition, stats: CommStats):
        super().__init__(block=False)
        self.name = "distributed-cg"
        self.decomp, self.stats = decomp, stats

    def dot(self, u, v):
        return distributed_dot(self.decomp, u, v, self.stats)

    def norm(self, v):
        return float(np.sqrt(self.dot(v, v)))

    def residual(self, run):
        # the solve starts from x = 0, and b - A 0 is b: no halo exchange,
        # so a solve makes exactly one per iteration
        return run.b.copy()

    def detail(self, run):
        detail = {}
        if run.statuses[0] == "diverged":
            # every rank flags its own non-finite cells of r or p, before
            # an SpMV spreads them to its neighbours; one more allreduce
            ok = np.isfinite(run.r)
            if self.p is not None:
                ok &= np.isfinite(self.p)
            detail["failed_ranks"] = failing_ranks(
                self.decomp, np.where(ok, 0.0, np.nan), self.stats
            )
        # the halo-exchange volume that accompanied the (possibly failing)
        # iterations is part of the solve's telemetry
        detail["comm"] = self.stats.to_dict()
        return detail


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
    :class:`~repro.resilience.runtime.ExecContext`) is checked at every
    step boundary, before the first preconditioner application too, and at
    every V-cycle level visit — all ranks share the driver process, so they
    observe the deadline/cancel at the same point and leave together.  A
    :class:`~repro.parallel.halo.HaloCorruption` raised inside the exchange
    (checksum failure surviving a retransmit) classifies the solve as
    ``"corrupted"`` instead of escaping as an exception.

    Failure semantics: the per-iteration residual norm and ``r^T z`` are
    allreduces, so a non-finite value on any rank reaches every rank in the
    same iteration — all ranks leave the loop together with status
    ``"diverged"`` (no rank can hang in a collective the others abandoned).
    On divergence one extra allreduce attributes the failure: the ranks
    whose owned cells of ``r`` or ``p`` are non-finite are reported in
    ``result.detail["failed_ranks"]`` for the resilience layer.
    """
    stats = stats if stats is not None else CommStats()

    def matvec(v):
        stats.set_phase("matvec")
        try:
            return a.spmv(v, stats)
        finally:
            stats.set_phase("default")

    # iterative precision fp64 vectors (guideline: solver precision is the
    # user's, only the preconditioner drops precision)
    result = drive(
        _DistributedCG(a.decomp, stats), matvec,
        np.reshape(b, a.decomp.grid.field_shape),
        preconditioner=preconditioner, rtol=rtol, maxiter=maxiter,
        runtime=runtime,
    )
    return result, stats
