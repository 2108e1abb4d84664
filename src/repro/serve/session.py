"""Warm-start solver sessions over a hierarchy cache.

A :class:`SolverSession` owns the state a long-running application carries
between solves against the same (or slowly drifting) operator:

- the set-up hierarchy, obtained through a :class:`HierarchyCache` so
  repeated sessions — and other sessions sharing the cache — amortize the
  setup phase;
- the previous solution, used to warm-start the next solve (time-stepping
  right-hand sides move slowly, so the previous state is a far better
  initial guess than zero);
- the operator's identity, taken once per accepted operator: its
  fingerprint (the cache key, which the cache looks up without hashing
  again) and its signature, so :meth:`update_operator` can decide cheaply
  whether a refreshed operator still matches the cached hierarchy
  (multigrid tolerates small coefficient drift) or is stale and needs a
  rebuild.

Failures escalate through the resilience ladder
(:func:`repro.resilience.robust_solve`) with the cached hierarchy serving
the first rung — the cache must never turn a recoverable failure into a
poisoned retry loop.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from ..mg import MGOptions
from ..observability import metrics as _metrics
from ..observability import trace as _trace
from ..precision import PrecisionConfig
from ..resilience import EscalationPolicy, robust_solve
from ..sgdia import SGDIAMatrix
from ..solvers import INTERRUPTED_STATUSES, SolveResult, batched_cg, solve
from .cache import HierarchyCache
from .fingerprint import OperatorSignature, cache_key, matrix_fingerprint

__all__ = ["SolverSession"]

#: Default relative operator drift up to which a cached hierarchy is
#: reused for a refreshed operator.  Multigrid convergence degrades
#: gracefully with preconditioner mismatch; 1e-3 keeps the iteration-count
#: penalty negligible while skipping nearly all rebuilds in a
#: slowly-varying time-stepping run.
DEFAULT_DRIFT_THRESHOLD = 1e-3


class SolverSession:
    """Stateful solve endpoint for one operator stream.

    Parameters
    ----------
    a:
        The initial operator (:class:`SGDIAMatrix`).
    config, options:
        Precision configuration and hierarchy options (defaults as in
        :func:`repro.mg.mg_setup`).
    cache:
        Shared :class:`HierarchyCache`; a private unbounded-ish cache is
        created when omitted.
    solver:
        Krylov method for single solves (``"cg"`` / ``"gmres"`` /
        ``"fgmres"`` / ``"gmres-ir"`` / ``"richardson"``).
    solver_kwargs:
        Extra keyword arguments forwarded to every solver dispatch (the
        fgmres/gmres-ir inner-solver knobs: ``inner=``, ``inner_dtype=``,
        ``inner_rtol=``, ``inner_maxiter=``).
    drift_threshold:
        Max relative operator drift (see
        :class:`~repro.serve.fingerprint.OperatorSignature`) under which
        :meth:`update_operator` keeps the current hierarchy.
    escalate:
        When True (default), a failed solve retries up the resilience
        precision ladder instead of returning the failure.
    precision_policy:
        Runtime precision policy for the session's hierarchy (a
        :class:`~repro.policy.PrecisionPolicy`, a name, or ``None`` to
        resolve from ``config.policy``).  Under the default static
        policy no controller is created and solves are bit-identical to
        pre-policy sessions.  With ``"adaptive"`` the session closes the
        loop: stalling levels escalate FP16 -> BF16/FP32 mid-solve, and
        an accepted operator drift (the ``"reuse"`` branch of
        :meth:`update_operator`) triggers a dynamic re-scale of the
        finest level instead of silently serving a stale ``Q``.  Note
        that ``config.policy`` is part of the hierarchy cache key, so an
        adaptive session never mutates a hierarchy a static session
        shares.
    """

    def __init__(
        self,
        a: SGDIAMatrix,
        config: "PrecisionConfig | None" = None,
        options: "MGOptions | None" = None,
        cache: "HierarchyCache | None" = None,
        solver: str = "cg",
        rtol: float = 1e-9,
        maxiter: int = 500,
        drift_threshold: float = DEFAULT_DRIFT_THRESHOLD,
        escalate: bool = True,
        policy: "EscalationPolicy | None" = None,
        precision_policy=None,
        solver_kwargs: "dict | None" = None,
    ) -> None:
        self.config = config or PrecisionConfig()
        self.options = options or MGOptions()
        self.cache = cache if cache is not None else HierarchyCache()
        self.solver = solver
        #: Extra solver keyword arguments forwarded to every dispatch —
        #: the inner-solver knobs of ``fgmres``/``gmres_ir``.
        self.solver_kwargs = dict(solver_kwargs or {})
        self.rtol = float(rtol)
        self.maxiter = int(maxiter)
        self.drift_threshold = float(drift_threshold)
        self.escalate = bool(escalate)
        self.policy = policy or EscalationPolicy()
        self.precision_policy = precision_policy
        self._policy_controller = None

        self.a = a
        #: Fingerprint of ``self.a``, hashed the first time it is needed.
        self._fingerprint: "str | None" = None
        self._hierarchy = None
        self._hierarchy_key = None
        #: Signature of the operator the current hierarchy was built from
        #: (drift accumulates against the *build* operator, not the last
        #: accepted refresh — otherwise a slow creep never trips the
        #: threshold); with no hierarchy, that of the operator the next
        #: build will use, if already taken.
        self._built_signature: "OperatorSignature | None" = None
        self._last_x: "np.ndarray | None" = None
        self.n_solves = 0
        self.n_drift_reuses = 0
        self.n_rebuilds = 0
        self.n_warm_starts = 0

    # ------------------------------------------------------------------
    def _bind_precision_policy(self, hierarchy) -> None:
        """(Re)attach the precision-policy controller to a hierarchy.

        No controller exists under the default static policy — the hot
        path is byte-for-byte the pre-policy one.
        """
        spec = self.precision_policy
        if spec is None and self.config.policy == "static":
            self._policy_controller = None
            return
        from ..policy import attach_policy

        if (
            self._policy_controller is not None
            and self._policy_controller.hierarchy is hierarchy
        ):
            return
        self._policy_controller = attach_policy(hierarchy, spec)

    def _key(self, config: PrecisionConfig, options: MGOptions) -> tuple:
        """The cache key of ``self.a`` under ``config``/``options``, from
        its stored fingerprint."""
        if self._fingerprint is None:
            self._fingerprint = matrix_fingerprint(self.a)
        return cache_key(self._fingerprint, config, options)

    @property
    def hierarchy(self):
        """The session's preconditioner hierarchy (built on first access)."""
        if self._hierarchy is None:
            key = self._key(self.config, self.options)
            self._hierarchy, self._hierarchy_key, _src = (
                self.cache.get_or_build(self.a, self.config, self.options, key)
            )
            if self._built_signature is None:
                self._built_signature = OperatorSignature.of(self.a)
            self.n_rebuilds += 1
            self._bind_precision_policy(self._hierarchy)
        return self._hierarchy

    def update_operator(self, a: SGDIAMatrix) -> str:
        """Swap in a refreshed operator; returns the decision taken.

        ``"unchanged"``  — identical content (same fingerprint); nothing
        to do.  ``"reuse"`` — the operator drifted within the threshold;
        the hierarchy is kept (counted in ``n_drift_reuses``).
        ``"rebuild"`` — drift exceeded the threshold (or no hierarchy
        exists yet); the stale cache entry is invalidated and the next
        solve sets up fresh.

        ``a`` is hashed once and, unless unchanged, signed once; neither
        is taken again while ``a`` is the session's operator.
        """
        if self._hierarchy is None:
            self.a, self._fingerprint, self._built_signature = a, None, None
            return "rebuild"
        fingerprint = matrix_fingerprint(a)
        if fingerprint == self._fingerprint:
            return "unchanged"
        signature = OperatorSignature.of(a)
        drift = self._built_signature.drift(signature)
        self.a, self._fingerprint = a, fingerprint
        if drift <= self.drift_threshold:
            self.n_drift_reuses += 1
            _metrics.incr("serve.session.drift_reuse")
            if self._policy_controller is not None:
                # The hierarchy is kept, but its finest-level scaling was
                # chosen for the old coefficients; let the policy decide
                # whether the drift warrants a dynamic re-scale of Q.
                self._policy_controller.on_drift(drift, a)
            return "reuse"
        # The hierarchy no longer represents the operator stream: drop it
        # from the cache (stale) and rebuild lazily on the next solve, from
        # ``a``, whose signature is taken.
        self.invalidate()
        self._built_signature = signature
        return "rebuild"

    def invalidate(self) -> None:
        """Force the next solve to set up a fresh hierarchy (the current
        one's cache entry is dropped as stale)."""
        if self._hierarchy_key is not None:
            self.cache.invalidate(self._hierarchy_key, stale=True)
        self._hierarchy = self._hierarchy_key = self._built_signature = None
        self._policy_controller = None

    # ------------------------------------------------------------------
    def solve(
        self,
        b: np.ndarray,
        x0: "np.ndarray | None" = None,
        warm_start: bool = True,
        rtol: "float | None" = None,
        maxiter: "int | None" = None,
        runtime=None,
        checkpoint_every: int = 0,
        checkpoint_sink=None,
        resume_from=None,
    ) -> SolveResult:
        """Solve ``A x = b`` with the session's preconditioner.

        ``x0`` overrides the warm start; otherwise, with ``warm_start``
        enabled, the previous solution (if any, and shape-compatible) seeds
        the iteration.  On failure the resilience ladder is climbed, with
        the cached hierarchy serving the first rung.  ``runtime`` (an
        :class:`~repro.resilience.runtime.ExecContext`) bounds the solve
        cooperatively — an interrupted solve (``"deadline"`` /
        ``"cancelled"``) returns its partial iterate immediately and is
        *not* escalated (the deadline applies to the whole attempt chain).
        ``checkpoint_every`` / ``checkpoint_sink`` / ``resume_from`` are
        forwarded to the underlying Krylov solver.
        """
        rtol = self.rtol if rtol is None else float(rtol)
        maxiter = self.maxiter if maxiter is None else int(maxiter)
        start = x0
        if start is None and warm_start and self._last_x is not None:
            if np.shape(self._last_x) == np.shape(np.asarray(b)) or (
                np.asarray(self._last_x).size == np.asarray(b).size
            ):
                start = np.asarray(self._last_x).reshape(np.shape(b))
                self.n_warm_starts += 1
                _metrics.incr("serve.session.warm_start")
        hierarchy = self.hierarchy
        controller = self._policy_controller
        if controller is not None:
            # Each solve is a fresh outer-iteration stream: clear the
            # policy's residual window and probation state (recorded
            # decisions and re-tiered levels persist across solves).
            controller.reset()
        with _trace.span("session_solve", solver=self.solver):
            result = solve(
                self.solver,
                self.a,
                b,
                preconditioner=hierarchy.precondition,
                rtol=rtol,
                maxiter=maxiter,
                x0=start,
                runtime=runtime,
                checkpoint_every=checkpoint_every,
                checkpoint_sink=checkpoint_sink,
                resume_from=resume_from,
                policy_controller=controller,
                **self.solver_kwargs,
            )
        if (
            result.status != "converged"
            and result.status not in INTERRUPTED_STATUSES
            and self.escalate
        ):
            result = self._escalated_solve(
                b, start, rtol, maxiter, result, runtime=runtime
            )
        self.n_solves += 1
        _metrics.incr("serve.session.solves")
        if result.status == "converged" and np.isfinite(result.x).all():
            self._last_x = np.array(result.x, copy=True)
        return result

    def _escalated_solve(
        self, b, x0, rtol, maxiter, first: SolveResult, runtime=None
    ):
        """Climb the resilience ladder, reusing the cached hierarchy on
        the first rung (it is what just failed, but ``robust_solve`` also
        re-audits health and classifies stagnation before escalating)."""

        def setup(a, cfg, options, attempt):
            if attempt == 0 and cfg.cache_key == self.config.cache_key:
                return self.hierarchy
            key = self._key(cfg, options) if a is self.a else None
            hierarchy, _key, _src = self.cache.get_or_build(a, cfg, options, key)
            return hierarchy

        result, report = robust_solve(
            self.a,
            b,
            config=self.config,
            options=self.options,
            solver=self.solver,
            rtol=rtol,
            maxiter=maxiter,
            policy=self.policy,
            x0=x0,
            setup=setup,
            runtime=runtime,
            solver_kwargs=self.solver_kwargs,
        )
        result.detail["resilience"] = report.to_dict()
        _metrics.incr("serve.session.escalations", report.n_escalations)
        return result

    # ------------------------------------------------------------------
    def solve_many(
        self,
        b: np.ndarray,
        x0: "np.ndarray | None" = None,
        rtol: "float | None" = None,
        maxiter: "int | None" = None,
        runtime=None,
    ) -> list[SolveResult]:
        """Solve one RHS block ``(n, k)`` / ``field_shape + (k,)`` at once.

        For the CG session the block runs through
        :func:`repro.solvers.batched_cg` — the SpMV and the V-cycle see
        ``(n, k)`` blocks, amortizing FP16 payload conversions across the
        columns, while each column's answer stays bit-identical to a
        sequential solve.  Non-CG sessions (GMRES for the nonsymmetric
        problems) fall back to a sequential column loop behind the same
        interface.  Warm starting is not applied (columns are independent
        right-hand sides, not a time series).
        """
        rtol = self.rtol if rtol is None else float(rtol)
        maxiter = self.maxiter if maxiter is None else int(maxiter)
        b = np.asarray(b)
        if b.ndim < 2:
            raise ValueError(
                "solve_many expects an RHS block with a trailing batch axis"
            )
        hierarchy = self.hierarchy
        k = b.shape[-1]
        with _trace.span("session_solve_many", solver=self.solver, columns=k):
            if self.solver == "cg":
                results = batched_cg(
                    self.a,
                    b,
                    x0=x0,
                    preconditioner=hierarchy.precondition,
                    rtol=rtol,
                    maxiter=maxiter,
                    runtime=runtime,
                )
            else:
                results = [
                    solve(
                        self.solver,
                        self.a,
                        np.ascontiguousarray(b[..., j]),
                        preconditioner=hierarchy.precondition,
                        rtol=rtol,
                        maxiter=maxiter,
                        x0=(
                            np.ascontiguousarray(x0[..., j])
                            if x0 is not None
                            else None
                        ),
                        runtime=runtime,
                        **self.solver_kwargs,
                    )
                    for j in range(k)
                ]
        self.n_solves += k
        _metrics.incr("serve.session.solves", k)
        return results

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        out = {
            "solves": self.n_solves,
            "warm_starts": self.n_warm_starts,
            "drift_reuses": self.n_drift_reuses,
            "rebuilds": self.n_rebuilds,
            "cache": asdict(self.cache.stats),
        }
        if self._policy_controller is not None:
            out["policy"] = self._policy_controller.snapshot()
        return out
