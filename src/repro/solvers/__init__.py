"""Iterative solvers (CG, GMRES, FGMRES, GMRES-IR, Richardson).

Every solver runs on the one loop in :mod:`repro.solvers.driver`, which owns
the shared contract (input normalization, ``x0``/``resume_from``, the
initial-residual early exit, deadline/cancel checks, checkpoints, result
assembly); each method supplies only its recurrence.  :func:`gmres` is
FGMRES with a fixed preconditioner, and :func:`batched_cg` is :func:`cg`'s
block mode over a trailing batch axis.
"""

from ..observability import metrics as _metrics
from ..observability import trace as _trace
from .cg import batched_cg, cg
from .fgmres import fgmres, gmres
from .gmres_ir import gmres_ir
from .history import (
    FAILURE_STATUSES,
    INTERRUPTED_STATUSES,
    STATUS_SEVERITY,
    ConvergenceHistory,
    SolveResult,
)
from .richardson import richardson

__all__ = [
    "FAILURE_STATUSES",
    "INTERRUPTED_STATUSES",
    "STATUS_SEVERITY",
    "ConvergenceHistory",
    "SolveResult",
    "batched_cg",
    "cg",
    "fgmres",
    "gmres",
    "gmres_ir",
    "richardson",
    "solve",
]

_SOLVERS = {
    "cg": cg,
    "gmres": gmres,
    "fgmres": fgmres,
    "gmres_ir": gmres_ir,
    "gmres-ir": gmres_ir,  # CLI-friendly alias
    "richardson": richardson,
}


def solve(name: str, a, b, policy_controller=None, **kwargs) -> SolveResult:
    """Dispatch to a solver by name (``cg`` / ``gmres`` / ``fgmres`` /
    ``gmres_ir`` (alias ``gmres-ir``) / ``richardson``).

    When a metrics registry is active the per-solve counter deltas (kernel
    invocations, fcvt volumes, precision events, modeled bytes) are folded
    into ``result.detail["telemetry"]["events"]`` so each solve carries its
    own telemetry even when several solves share one registry.

    ``policy_controller`` (a :class:`repro.policy.PolicyController`)
    closes the precision-policy loop: its ``on_iteration`` hook is chained
    ahead of any user ``callback`` so the policy sees every residual and
    can re-tier levels between iterations, and the applied decisions ride
    on ``result.detail["policy"]``.  With the default ``StaticPolicy``
    the hook observes and never acts — the solve is bit-identical to one
    without a controller.
    """
    try:
        fn = _SOLVERS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown solver {name!r}; known: {sorted(_SOLVERS)}"
        ) from None
    if policy_controller is not None:
        user_cb = kwargs.get("callback")

        def _cb(it, rel, x, _user=user_cb):
            applied = policy_controller.on_iteration(it, rel, x)
            if _user is not None:
                _user(it, rel, x)
            return applied

        kwargs["callback"] = _cb
    baseline = _metrics.get_metrics().totals() if _metrics.active() else None
    with _trace.span("solve", solver=name.lower()):
        result = fn(a, b, **kwargs)
    if baseline is not None:
        events = _metrics.get_metrics().delta_since(baseline)
        result.detail.setdefault("telemetry", {})["events"] = events
    if policy_controller is not None:
        result.detail["policy"] = policy_controller.snapshot()
    return result
