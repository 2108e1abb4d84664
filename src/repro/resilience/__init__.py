"""Numerical resilience layer: guarded solves, fault injection, health audits,
and the deadline-aware execution runtime.

The paper makes FP16 storage safe by construction (setup-then-scale,
Theorem-4.1 headroom, ``shift_levid``); this package makes it safe by
*supervision*:

- :func:`robust_solve` / :func:`robust_distributed_solve` — detect-and-
  escalate drivers that climb one deterministic precision ladder loop (bump
  ``shift_levid`` -> drop half storage -> Full64) only when the cheap
  precision demonstrably fails, recording everything in a
  :class:`ResilienceReport`; the sequential one warm-starts each retry
  from the best iterate, the distributed one restarts from zero;
- :mod:`repro.resilience.runtime` — :class:`Deadline` / :class:`CancelToken`
  contexts checked cooperatively per iteration and per V-cycle level visit,
  :class:`SolverCheckpoint` snapshots with bit-identical CG resume, and the
  service layer's :class:`RetryPolicy` (exponential backoff + seeded jitter);
- :mod:`repro.resilience.abft` — opt-in Huang–Abraham row-sum checksums
  validated after every ``verify_every``-th SpMV, with detect →
  recompute-once → escalate semantics;
- :func:`hierarchy_health` — a pre-solve audit of per-level overflow /
  underflow exposure, scaling state, diagonal dominance and finiteness,
  folding in the setup-phase statistics ``mg_setup`` records;
- :class:`FaultInjector` / :func:`cycle_fault` / :func:`halo_fault` — seeded
  corruption of half-precision payloads, transient V-cycle faults, and
  comm/cache-layer faults, so the recovery paths above are actually
  testable (:func:`run_chaos` sweeps them all).

``runtime`` is imported eagerly (it is dependency-free and both the solver
and multigrid packages reach into it); everything else loads lazily via
PEP 562 so that ``repro.solvers`` / ``repro.mg`` can import this package's
runtime without completing the guard's own imports of them.
"""

from __future__ import annotations

import importlib

from .runtime import (
    CancelToken,
    Deadline,
    ExecContext,
    RetryPolicy,
    SolveInterrupted,
    SolverCheckpoint,
    load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "ABFTChecker",
    "ABFTError",
    "AttemptRecord",
    "CancelToken",
    "ChaosReport",
    "Deadline",
    "EscalationPolicy",
    "EscalationStep",
    "ExecContext",
    "FaultInjector",
    "FaultRecord",
    "Finding",
    "HealthReport",
    "LevelHealth",
    "ResilienceReport",
    "RetryPolicy",
    "SolveInterrupted",
    "SolverCheckpoint",
    "agree_on_status",
    "attach_abft",
    "cycle_fault",
    "halo_fault",
    "hierarchy_health",
    "level_health",
    "load_checkpoint",
    "robust_distributed_solve",
    "robust_solve",
    "run_chaos",
    "save_checkpoint",
]

#: name -> submodule, resolved on first attribute access (PEP 562).
_LAZY = {
    "ABFTChecker": ".abft",
    "ABFTError": ".abft",
    "attach_abft": ".abft",
    "AttemptRecord": ".guard",
    "EscalationPolicy": ".guard",
    "EscalationStep": ".guard",
    "ResilienceReport": ".guard",
    "agree_on_status": ".guard",
    "robust_distributed_solve": ".guard",
    "robust_solve": ".guard",
    "FaultInjector": ".faults",
    "FaultRecord": ".faults",
    "cycle_fault": ".faults",
    "halo_fault": ".faults",
    "Finding": ".health",
    "HealthReport": ".health",
    "LevelHealth": ".health",
    "hierarchy_health": ".health",
    "level_health": ".health",
    "ChaosReport": ".chaos",
    "run_chaos": ".chaos",
}


def __getattr__(name: str):
    try:
        modname = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(modname, __name__), name)
    globals()[name] = value  # cache: subsequent lookups skip __getattr__
    return value


def __dir__():  # pragma: no cover - introspection nicety
    return sorted(set(globals()) | set(_LAZY))
