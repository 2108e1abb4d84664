"""Guarded solves with automatic precision escalation.

:func:`robust_solve` wraps ``mg_setup`` + ``solvers.solve`` in a
detect-and-escalate loop: run the cheapest configuration first, watch the
health audit and the solve status (including residual stagnation), and on
failure climb a *deterministic* precision ladder —

    original  ->  bump ``shift_levid``  ->  K{K}P{P}D{P} (no half storage)
              ->  Full64

— warm-starting each retry from the best finite iterate seen so far.  This
is the production-grade complement to the paper's static knobs: FP16 stays
the default fast path, and wider precision is paid for only when the cheap
precision demonstrably misbehaves (the adaptive-precision strategy of
Guo/de Sturler/Warburton 2025 and Ginkgo's three-precision AMG).  Every
decision is recorded in a :class:`ResilienceReport`.

:func:`robust_distributed_solve` climbs the same ladder: both run one loop,
and the distributed one supplies only how a rung solves (an aligned
decomposition, :class:`~repro.parallel.DistributedMG` and
:func:`~repro.parallel.distributed_cg`, every retry from zero) and its
communication profile, merged across attempts.  Failure agreement is the
allreduced residual norm: a non-finite partial on *any* rank makes the
global norm non-finite for *every* rank, so all ranks observe the same
status and — the policy being deterministic — compute the same next
configuration.  No rank can escalate alone and leave the others blocked in
a collective (:func:`agree_on_status` is the explicit reduction used when
per-rank statuses must be merged).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

from ..mg import MGOptions, mg_setup
from ..observability import events as _events
from ..precision import FULL64, PrecisionConfig
from ..solvers import STATUS_SEVERITY, SolveResult, solve
from ..solvers.history import INTERRUPTED_STATUSES
from .health import HealthReport, hierarchy_health

__all__ = [
    "EscalationPolicy",
    "EscalationStep",
    "AttemptRecord",
    "ResilienceReport",
    "agree_on_status",
    "robust_solve",
    "robust_distributed_solve",
]


def agree_on_status(statuses, stats=None) -> str:
    """Deterministic max-severity reduction over per-rank statuses.

    This is the escalation analogue of ``MPI_Allreduce(MAX)``: every rank
    feeds its local view in, every rank gets the same (worst) status out,
    so the subsequent policy decision is identical everywhere.  ``stats``
    (a :class:`repro.parallel.CommStats`) charges the collective.
    """
    statuses = list(statuses)
    if not statuses:
        raise ValueError("agree_on_status needs at least one status")
    if stats is not None:
        stats.record_allreduce(4)
    return max(statuses, key=lambda s: STATUS_SEVERITY.get(s, max(STATUS_SEVERITY.values()) + 1))


@dataclass(frozen=True)
class EscalationPolicy:
    """Deterministic precision ladder and failure thresholds.

    ``max_escalations`` caps how many rungs may be climbed (attempts are
    ``max_escalations + 1`` at most, fewer if the ladder is shorter).
    ``shift_levid`` is the level the first rung shifts to compute-precision
    storage (keeping only finer levels in FP16 — the cheapest repair).
    Stagnation is judged over ``stagnation_window`` iterations against a
    ``stagnation_drop`` residual-reduction factor.
    """

    max_escalations: int = 3
    shift_levid: int = 1
    stagnation_window: int = 25
    stagnation_drop: float = 0.9

    def ladder(self, config: PrecisionConfig) -> tuple[PrecisionConfig, ...]:
        """The full deterministic ladder starting from ``config``.

        Rungs whose name collapses onto an earlier rung are dropped, so a
        config that already sits on a rung starts climbing from there.
        """
        rungs = [config]
        if config.uses_half_storage:
            rungs.append(config.with_(shift_levid=self.shift_levid))
            rungs.append(
                config.with_(
                    storage=config.compute,
                    scaling="none",
                    shift_levid=None,
                    fp16_start_level=0,
                )
            )
        if not rungs[-1].is_full64:
            rungs.append(FULL64)
        out, seen = [], set()
        for r in rungs:
            if r.name not in seen:
                out.append(r)
                seen.add(r.name)
        return tuple(out)

    def classify(self, result: SolveResult) -> str:
        """Refined status (stagnation-aware) for a finished attempt."""
        return result.classify(self.stagnation_window, self.stagnation_drop)


@dataclass(frozen=True)
class EscalationStep:
    """One climb of the ladder: which config failed, why, and where to."""

    from_config: str
    to_config: str
    reason: str
    iterations: int
    final_residual: float

    def __str__(self) -> str:
        return (
            f"{self.from_config} -> {self.to_config} "
            f"({self.reason} after {self.iterations} iterations, "
            f"final {self.final_residual:.2e})"
        )


@dataclass(frozen=True)
class AttemptRecord:
    """One solve attempt under one configuration.

    ``events`` carries the attempt's setup telemetry (overflow/underflow/
    non-finite totals and the auto-shift level, from the hierarchy's
    :class:`~repro.mg.setup.SetupDiagnostics`) so escalation decisions stay
    traceable after the hierarchy itself is gone.
    """

    config: str
    status: str
    iterations: int
    final_residual: float
    health_fatal: bool
    health_findings: tuple[str, ...] = ()
    events: dict = field(default_factory=dict)


def _emit_escalation(step: EscalationStep) -> None:
    """Journal one ladder climb (no-op without an installed journal)."""
    if _events.active():
        _events.emit(
            "warning",
            "resilience.escalate",
            str(step),
            from_config=step.from_config,
            to_config=step.to_config,
            reason=step.reason,
        )


def _setup_events(hierarchy) -> dict:
    """Summarize a hierarchy's ``SetupDiagnostics`` as flat event counts."""
    diag = getattr(hierarchy, "diagnostics", None)
    if diag is None:
        return {}
    return {
        "overflow_clamp": sum(s.n_overflow for s in diag.levels),
        "underflow_flush": sum(s.n_underflow for s in diag.levels),
        "nonfinite": sum(s.n_nonfinite for s in diag.levels),
        "auto_shift_level": diag.auto_shift_level,
        "chain_truncated": diag.chain_truncated,
    }


@dataclass
class ResilienceReport:
    """Everything ``robust_solve`` did, in order."""

    attempts: list[AttemptRecord] = field(default_factory=list)
    escalations: list[EscalationStep] = field(default_factory=list)
    health_reports: list[HealthReport] = field(default_factory=list)
    warm_started: int = 0

    @property
    def converged(self) -> bool:
        return bool(self.attempts) and self.attempts[-1].status == "converged"

    @property
    def final_config(self) -> str:
        return self.attempts[-1].config if self.attempts else ""

    @property
    def n_escalations(self) -> int:
        return len(self.escalations)

    @property
    def total_iterations(self) -> int:
        return sum(a.iterations for a in self.attempts)

    def to_dict(self) -> dict:
        return {
            "converged": self.converged,
            "final_config": self.final_config,
            "total_iterations": self.total_iterations,
            "warm_started": self.warm_started,
            "attempts": [
                {
                    "config": a.config,
                    "status": a.status,
                    "iterations": a.iterations,
                    "final_residual": a.final_residual,
                    "health_fatal": a.health_fatal,
                    "events": dict(a.events),
                }
                for a in self.attempts
            ],
            "escalations": [
                {
                    "from": e.from_config,
                    "to": e.to_config,
                    "reason": e.reason,
                    "iterations": e.iterations,
                }
                for e in self.escalations
            ],
        }

    def format(self) -> str:
        lines = []
        for a in self.attempts:
            lines.append(
                f"attempt [{a.config}]: {a.status} "
                f"({a.iterations} iterations, final {a.final_residual:.2e})"
            )
        for e in self.escalations:
            lines.append(f"escalate: {e}")
        lines.append(
            f"resilience: {'converged' if self.converged else 'FAILED'} "
            f"under [{self.final_config}] after {self.n_escalations} "
            f"escalation(s), {self.total_iterations} total iterations"
        )
        return "\n".join(lines)


def _finite_iterate(result: SolveResult) -> "np.ndarray | None":
    """The attempt's iterate, if it is worth warm-starting from."""
    final = result.history.final()
    if np.isfinite(final) and final < 1.0 and np.isfinite(result.x).all():
        return result.x
    return None


def _climb(
    who: str,
    config: "PrecisionConfig | None",
    options: "MGOptions | None",
    policy: "EscalationPolicy | None",
    build,
    attempt,
    post_setup=None,
    health_check: bool = True,
    x0: "np.ndarray | None" = None,
    warm_start: bool = True,
    agree=None,
) -> tuple[SolveResult, ResilienceReport]:
    """The escalation ladder both guarded solves climb.

    Per rung ``k``: ``build(cfg, options, k)`` sets up the hierarchy,
    ``post_setup`` and the health audit follow, and ``attempt(hierarchy,
    k, x0)`` runs the solve and returns its :class:`SolveResult`, whose
    status is the policy's classification passed through ``agree`` (when
    given).  ``x0`` is the caller's start for the first attempt and, with
    ``warm_start``, the best finite iterate seen so far for each retry.
    """
    config = config or PrecisionConfig()
    options = options or MGOptions()
    policy = policy or EscalationPolicy()
    ladder = policy.ladder(config)
    # clamp: even a (nonsensical) negative budget makes the first attempt
    n_attempts = min(len(ladder), max(0, policy.max_escalations) + 1)

    report = ResilienceReport()
    best_x: "np.ndarray | None" = np.asarray(x0) if x0 is not None else None
    best_norm = float("inf")
    result: "SolveResult | None" = None

    def escalate(k: int, reason: str, iterations: int, final: float) -> None:
        step = EscalationStep(
            ladder[k].name, ladder[k + 1].name, reason, iterations, final
        )
        report.escalations.append(step)
        _emit_escalation(step)

    for k in range(n_attempts):
        cfg = ladder[k]
        hierarchy = build(cfg, options, k)
        if post_setup is not None:
            post_setup(hierarchy, k)
        health: "HealthReport | None" = None
        if health_check:
            health = hierarchy_health(hierarchy)
            report.health_reports.append(health)
        last = k + 1 == n_attempts

        if health is not None and health.fatal and not last:
            # Poisoned hierarchy: skip the doomed solve, escalate now.
            report.attempts.append(
                AttemptRecord(
                    config=cfg.name,
                    status="unhealthy",
                    iterations=0,
                    final_residual=float("nan"),
                    health_fatal=True,
                    health_findings=tuple(
                        str(f) for f in health.fatal_findings()
                    ),
                    events=_setup_events(hierarchy),
                )
            )
            escalate(
                k, "health:" + health.fatal_findings()[0].message, 0,
                float("nan"),
            )
            continue

        if best_x is not None:
            report.warm_started += 1
        result = attempt(hierarchy, k, best_x)
        status = policy.classify(result)
        if agree is not None:
            status = agree(status)
        final = result.history.final()
        report.attempts.append(
            AttemptRecord(
                config=cfg.name,
                status=status,
                iterations=result.iterations,
                final_residual=final,
                health_fatal=bool(health is not None and health.fatal),
                health_findings=tuple(
                    str(f) for f in (health.findings if health else [])
                ),
                events=_setup_events(hierarchy),
            )
        )
        if status == "converged" or last:
            break
        if status in INTERRUPTED_STATUSES:
            # The run was stopped from outside (deadline/cancel); a wider
            # precision cannot buy back time, so the ladder stops here with
            # the partial iterate.
            break
        candidate = _finite_iterate(result) if warm_start else None
        if candidate is not None and final < best_norm:
            best_x, best_norm = candidate, final
        escalate(k, status, result.iterations, final)

    if result is None:  # every attempt skipped as unhealthy (ladder of 1)
        raise RuntimeError(
            f"{who} exhausted its escalation budget without a solvable "
            "hierarchy:\n" + report.format()
        )
    return result, report


def robust_solve(
    a,
    b,
    config: "PrecisionConfig | None" = None,
    options: "MGOptions | None" = None,
    solver: str = "cg",
    rtol: float = 1e-9,
    maxiter: int = 500,
    policy: "EscalationPolicy | None" = None,
    post_setup=None,
    health_check: bool = True,
    x0: "np.ndarray | None" = None,
    setup=None,
    runtime=None,
    abft_verify_every: int = 0,
    checkpoint_every: int = 0,
    checkpoint_sink=None,
    resume_from=None,
    solver_kwargs: "dict | None" = None,
    policy_controller=None,
) -> tuple[SolveResult, ResilienceReport]:
    """Guarded preconditioned solve with automatic precision escalation.

    Parameters beyond the ``mg_setup``/``solve`` ones:

    policy:
        The :class:`EscalationPolicy` (ladder shape, escalation budget,
        stagnation thresholds).
    post_setup:
        Optional callable ``(hierarchy, attempt_index) -> None`` invoked
        after each setup, before the health audit — the hook fault-injection
        tests (and any external corruption model) use to corrupt the freshly
        built hierarchy deterministically.
    health_check:
        Run :func:`hierarchy_health` before each attempt; a *fatal* report
        escalates immediately without burning ``maxiter`` iterations on a
        hierarchy known to be poisoned.
    setup:
        Optional callable ``(a, config, options, attempt_index) ->
        MGHierarchy`` replacing ``mg_setup`` per attempt.  The serving layer
        uses this to hand the ladder's first rung a *cached* hierarchy while
        escalated rungs build fresh (the cached one already failed).
    runtime:
        Optional :class:`~repro.resilience.runtime.ExecContext` threaded
        into every attempt's solver.  An interrupted attempt (status
        ``"deadline"``/``"cancelled"``) *stops the ladder* — escalating
        precision cannot buy back wall-clock time — and returns the partial
        iterate.
    abft_verify_every:
        When ``> 0``, attach :class:`~repro.resilience.abft.ABFTChecker` to
        each freshly built hierarchy (checksums taken *before* ``post_setup``
        runs, so injected corruption is detectable) and validate every
        ``k``-th V-cycle SpMV.  A persistent mismatch classifies the attempt
        as ``"corrupted"``, which escalates: the next rung rebuilds from the
        pristine operator at safer precision.
    checkpoint_every / checkpoint_sink / resume_from:
        Solver checkpointing, passed through to the underlying solver.
        ``resume_from`` applies to the *first* attempt only (a checkpoint
        captures solver state, which survives a preconditioner rebuild, but
        escalated attempts restart deliberately).
    solver_kwargs:
        Extra keyword arguments forwarded verbatim to every attempt's
        solver — the inner-solver knobs of ``fgmres``/``gmres_ir``
        (``inner=``, ``inner_dtype=``, ...) ride the ladder this way.
    policy_controller:
        Optional :class:`repro.policy.PolicyController` passed through to
        :func:`repro.solvers.solve` on every attempt.

    Returns ``(result, report)``: the last attempt's :class:`SolveResult`
    and the full :class:`ResilienceReport`.
    """

    def build(cfg, options, k):
        hierarchy = (
            setup(a, cfg, options, k) if setup is not None
            else mg_setup(a, cfg, options)
        )
        if abft_verify_every > 0:
            # Checksum the payload while it is still trusted — before the
            # post_setup hook gets a chance to corrupt it.
            from .abft import attach_abft

            attach_abft(hierarchy, verify_every=abft_verify_every)
        return hierarchy

    def attempt(hierarchy, k, x):
        return solve(
            solver,
            a,
            b,
            preconditioner=hierarchy.precondition,
            rtol=rtol,
            maxiter=maxiter,
            x0=x,
            runtime=runtime,
            checkpoint_every=checkpoint_every,
            checkpoint_sink=checkpoint_sink,
            resume_from=resume_from if k == 0 else None,
            policy_controller=policy_controller,
            **(solver_kwargs or {}),
        )

    return _climb(
        "robust_solve", config, options, policy, build, attempt,
        post_setup=post_setup, health_check=health_check, x0=x0,
    )


def robust_distributed_solve(
    a,
    b,
    proc_grid: tuple[int, int, int] = (2, 2, 2),
    config: "PrecisionConfig | None" = None,
    options: "MGOptions | None" = None,
    rtol: float = 1e-9,
    maxiter: int = 500,
    policy: "EscalationPolicy | None" = None,
    post_setup=None,
    health_check: bool = True,
):
    """Distributed variant of :func:`robust_solve` (decomposed CG + MG).

    ``a`` is the global :class:`~repro.sgdia.SGDIAMatrix`, ``b`` the global
    right-hand side; each attempt rebuilds the aligned decomposition for its
    hierarchy depth, scatters, and runs ``distributed_cg`` with the
    distributed multigrid preconditioner.  The ladder is
    :func:`robust_solve`'s: the same rungs, budget, health skip, records
    and journal events.

    All ranks escalate in lockstep: the per-iteration residual norm is an
    allreduce, so one rank's non-finite subdomain poisons the global norm
    every rank tests — there is no path where rank ``i`` escalates while
    rank ``j`` keeps iterating (the hang mode of naive per-rank guards).
    The solver additionally attributes the failure (``detail["failed_ranks"]``)
    with one extra allreduce.  Warm-starting is not attempted across
    attempts (each retry starts from zero, keeping every rank's state
    trivially identical).

    Returns ``(result, report, stats)`` with the aggregated
    :class:`~repro.parallel.CommStats` across attempts.
    """
    from ..parallel import (
        CommStats,
        DistributedMG,
        DistributedSGDIA,
        distributed_cg,
    )

    stats = CommStats()

    def build(cfg, options, k):
        return mg_setup(a, cfg, options)

    def attempt(hierarchy, k, x):
        decomp = DistributedMG.aligned_decomposition(hierarchy, proc_grid)
        # the preconditioner's halo exchanges and the Krylov loop's traffic
        # go to one per-attempt profile, merged into the total
        attempt_stats = CommStats()
        dmg = DistributedMG(hierarchy, decomp, attempt_stats)
        result, _ = distributed_cg(
            DistributedSGDIA.from_global(a, decomp), b, rtol=rtol,
            maxiter=maxiter, preconditioner=dmg.precondition,
            stats=attempt_stats,
        )
        stats.merge(attempt_stats)
        return result

    def agree(status):
        # Every rank saw the same allreduced norms, hence the same status;
        # the explicit reduction documents (and charges) the agreement.
        return agree_on_status([status] * prod(proc_grid), stats)

    result, report = _climb(
        "robust_distributed_solve", config, options, policy, build, attempt,
        post_setup=post_setup, health_check=health_check, warm_start=False,
        agree=agree,
    )
    return result, report, stats
