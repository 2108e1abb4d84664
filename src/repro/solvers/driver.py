"""The one solver loop every iterative method runs on.

The Krylov solvers run unchanged in the iterative precision and reach the
FP16 multigrid through the one Algorithm-2 interface (Section 4.2).
Everything around the recurrence is the same for all of them, so it lives
here, once:

- input normalization: dtype, matvec, ``||b||`` (per column in block
  mode), and the identity ``M`` when no preconditioner is given;
- the ``x0`` copy, or the ``resume_from`` restore with its solver-name
  check;
- the initial-residual early exit: ``converged`` (or ``diverged`` for a
  non-finite residual) at 0 iterations and 0 preconditioner applications,
  after a resume too;
- the runtime scope, ``runtime.check()`` at every step boundary, and
  :class:`SolveInterrupted` turned into a status with the partial iterate
  kept;
- checkpoint emission and the sink;
- :class:`SolveResult` assembly, ``detail["checkpoint"]`` included.

A :class:`Method` supplies the rest.  Its ``steps(run)`` generator
advances the :class:`Run` (iterate, residual, counters) and yields at
boundaries:

- a bare ``yield`` is a step boundary.  The driver checks the runtime
  there and, when it says stop, raises :class:`SolveInterrupted` *at that
  yield*, just as an interrupt from inside the V-cycle surfaces;
- ``yield n`` marks a checkpointable state, saved when ``n`` is a multiple
  of ``checkpoint_every`` (``0`` saves every one);
- returning a status ends the solve.  Running out of steps is
  ``"maxiter"``.

``state``/``restore`` carry what the method needs across a checkpoint
besides ``x`` and ``r``.  ``dot``/``norm`` are its reductions: the driver's
``||b||`` and residual norms call ``norm``, and CG's inner products call
``dot``.  They default to one BLAS call on the vector; the distributed CG
(:mod:`repro.parallel.dist_solver`) makes each one per-rank partial sums
and one counted allreduce, and is otherwise this loop and CG's recurrence.
Block mode (CG over a trailing batch axis) keeps
its per-column bookkeeping here too: status, iteration count, history and
reason per column, plus an active mask.  Every per-column reduction
(``||b||``, the residual norms, CG's dots) runs on :meth:`Run.rows`: one
C-contiguous ``(k, n)`` row copy of a block, a view of a single vector.
``b``, ``x`` and ``r`` are C-contiguous, so a method updates a block in
place through its ``(n, k)`` reshape.  So one recurrence serves a single
vector and a block alike.
"""

from __future__ import annotations

import time

import numpy as np

from ..observability import trace as _trace
from ..resilience.runtime import SolveInterrupted, SolverCheckpoint
from ..resilience.runtime import scope as _runtime_scope
from .history import ConvergenceHistory, SolveResult

__all__ = ["INTERRUPTS", "Method", "Run", "drive"]

#: Statuses of a phase stopped from outside the numerics (runtime stop,
#: ABFT corruption); an inner solve reporting one stops the outer solve.
INTERRUPTS = ("deadline", "cancelled", "corrupted")


class Method:
    """One iterative method on the driver contract (see the module doc)."""

    name = ""
    #: dtype of ``b`` and of the residual; ``None`` means the working dtype
    residual_dtype = None

    def steps(self, run: "Run"):
        raise NotImplementedError

    def residual(self, run: "Run") -> np.ndarray:
        return run.b - run.apply(run.x)

    def dot(self, u: np.ndarray, v: np.ndarray) -> float:
        """The inner product of two vectors (rows of :meth:`Run.rows`)."""
        return float(np.vdot(u, v).real)

    def norm(self, v: np.ndarray) -> float:
        """The 2-norm of a vector: ``||b||`` and every residual norm."""
        return float(np.linalg.norm(v))

    def state(self, run: "Run") -> dict:
        """:class:`SolverCheckpoint` fields: ``arrays`` (copied), and
        optionally ``scalars``/``extra``."""
        return {"arrays": {"x": run.x, "r": run.r}}

    def restore(self, run: "Run", cp: SolverCheckpoint, arrays: dict) -> None:
        """Take back what :meth:`state` saved; ``arrays`` holds every
        checkpoint array except ``x``/``r`` (the driver restores those)."""

    def detail(self, run: "Run") -> dict:
        """Method-specific ``result.detail`` entries."""
        return {}


class Run:
    """The state one solve shares across its steps."""

    def __init__(
        self, method, a, b, preconditioner, rtol, maxiter, dtype, callback,
        runtime, checkpoint_every, checkpoint_sink, block,
    ):
        self.t0 = time.perf_counter()
        self.method = method
        self.a = a
        self.dtype = np.dtype(dtype)
        self.block = block
        self._matvec = _as_matvec(a, block)
        b_dtype = method.residual_dtype
        self.b = np.ascontiguousarray(
            b, dtype=self.dtype if b_dtype is None else b_dtype
        )
        self.shape = self.b.shape
        self.k = self.shape[-1] if block else 1
        self.bn = [method.norm(row) or 1.0 for row in self.rows(self.b)]
        self.m = preconditioner if preconditioner is not None else (lambda r: r)
        self.rtol = rtol
        self.maxiter = maxiter
        self.callback = callback
        self.runtime = runtime
        self.checkpoint_every = checkpoint_every
        self.checkpoint_sink = checkpoint_sink
        self.last_cp: "SolverCheckpoint | None" = None
        self.x = self.r = None
        self.it = 0
        self.n_prec = 0
        self.rel = np.zeros(self.k)
        self.active = np.ones(self.k, dtype=bool)
        self.statuses = ["maxiter"] * self.k
        self.iters = [0] * self.k
        self.reasons: list = [None] * self.k
        self.histories = [ConvergenceHistory() for _ in range(self.k)]

    # -- column helpers (a single vector is the one column 0) -------------
    @property
    def history(self) -> ConvergenceHistory:
        return self.histories[0]

    def live(self) -> np.ndarray:
        return np.flatnonzero(self.active)

    def rows(self, v: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
        """``v`` as C-contiguous ``(k, n)`` rows: row ``j`` is column ``j``
        flattened in C order, the vector a single solve reduces over, so a
        column's dots and norms are that solve's BLAS calls on the same
        bytes.  For ``k == 1`` a reshape (a view of a contiguous ``v``);
        otherwise one transposed copy, into ``out`` when it has ``v``'s
        dtype."""
        if self.k == 1:
            return v.reshape(1, -1)
        if out is None or out.dtype != v.dtype:
            return np.ascontiguousarray(v.reshape(-1, self.k).T)
        np.copyto(out, v.reshape(-1, self.k).T)
        return out

    def measure(self, rows: "np.ndarray | None" = None) -> np.ndarray:
        """``rel[j] = ||r_j|| / ||b_j||`` for every live column ``j``, from
        ``rows`` (``r``'s rows) when given; returns those ``j``."""
        rows = self.rows(self.r) if rows is None else rows
        live = self.live()
        for j in live:
            self.rel[j] = self.method.norm(rows[j]) / self.bn[j]
        return live

    def record(self, rows: "np.ndarray | None" = None) -> float:
        """:meth:`measure`, and each live column's history; returns column
        0's ``rel`` (a single vector's)."""
        for j in self.measure(rows):
            self.histories[j].record(float(self.rel[j]))
        return float(self.rel[0])

    def freeze(self, j: int, status: str, reason: "str | None" = None) -> None:
        """Column ``j`` stops here with ``status``."""
        self.statuses[j], self.iters[j], self.reasons[j] = status, self.it, reason
        self.active[j] = False

    def finish(self, status: str) -> None:
        for j in self.live():
            self.freeze(j, status)

    # -- operators ----------------------------------------------------------
    def matvec(self, v: np.ndarray) -> np.ndarray:
        """``A v``: every operator product of a solve, the initial residual's
        included, runs here, in one ``spmv`` span."""
        with _trace.span("spmv"):
            return self._matvec(v)

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matvec(v).reshape(self.shape)

    def precondition(self, v: np.ndarray) -> np.ndarray:
        z = np.asarray(self.m(v), dtype=self.dtype).reshape(self.shape)
        self.n_prec += 1
        return z

    # -- checkpoints --------------------------------------------------------
    def checkpoint(self) -> SolverCheckpoint:
        state = self.method.state(self)
        arrays = {name: v.copy() for name, v in state.pop("arrays").items()}
        history = [] if self.block else list(self.history.norms)
        if self.block:
            state["extra"] = {
                **state.get("extra", {}),
                "rel": [float(v) for v in self.rel],
                "active": [bool(v) for v in self.active],
                "statuses": list(self.statuses),
                "iters": list(self.iters),
                "histories": [list(h.norms) for h in self.histories],
                "reasons": list(self.reasons),
            }
        return SolverCheckpoint(
            solver=self.method.name, iteration=self.it, arrays=arrays,
            history=history, n_prec=self.n_prec, **state,
        )

    def restore(self, cp: SolverCheckpoint) -> None:
        if cp.solver != self.method.name:
            raise ValueError(
                f"cannot resume {self.method.name} from a {cp.solver!r} checkpoint"
            )
        arrays = {
            name: np.array(v, dtype=self.dtype, order="C").reshape(self.shape)
            for name, v in cp.arrays.items()
        }
        self.x = arrays.pop("x")
        self.r = arrays.pop("r", None)
        self.it = int(cp.iteration)
        self.n_prec = int(cp.n_prec)
        if self.block:
            extra = cp.extra
            self.rel = np.array(extra["rel"], dtype=np.float64)
            self.active = np.array(extra["active"], dtype=bool)
            self.statuses = [str(s) for s in extra["statuses"]]
            self.iters = [int(v) for v in extra["iters"]]
            self.reasons = list(extra.get("reasons", self.reasons))
            for h, norms in zip(self.histories, extra["histories"]):
                h.norms = [float(v) for v in norms]
        else:
            self.history.norms = [float(v) for v in cp.history]
        self.method.restore(self, cp, arrays)

    # -- the loop -----------------------------------------------------------
    def loop(self, steps) -> str:
        """Drive ``steps`` to its end; returns the status it ends with."""
        try:
            mark = next(steps)
            while True:
                if mark is None:  # step boundary
                    stop = self.runtime.check() if self.runtime is not None else None
                    if stop is not None:
                        mark = steps.throw(SolveInterrupted(stop))
                        continue
                elif self.checkpoint_every > 0 and mark % self.checkpoint_every == 0:
                    self.last_cp = self.checkpoint()
                    if self.checkpoint_sink is not None:
                        self.checkpoint_sink(self.last_cp)
                mark = next(steps)
        except StopIteration as done:
            return done.value or "maxiter"

    def results(self) -> "SolveResult | list[SolveResult]":
        seconds = time.perf_counter() - self.t0
        detail = self.method.detail(self)
        xs = self.rows(self.x)
        out = []
        for j in range(self.k):
            res = SolveResult(
                x=xs[j].reshape(self.shape[:-1]) if self.block else self.x,
                status=self.statuses[j],
                iterations=self.iters[j],
                history=self.histories[j],
                solver=self.method.name,
                precond_applications=self.n_prec,
                seconds=seconds,
                detail=dict(detail),
            )
            if self.last_cp is not None:
                res.detail["checkpoint"] = self.last_cp
            if self.reasons[j] is not None:
                res.detail["reason"] = self.reasons[j]
            out.append(res)
        return out if self.block else out[0]


def drive(
    method: Method,
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
    block: bool = False,
) -> "SolveResult | list[SolveResult]":
    """Solve ``A x = b`` with ``method`` under the shared contract.

    The parameters are the ones every public solver takes, with the same
    meaning; ``block=True`` treats the trailing axis of ``b`` as a batch
    of right-hand sides and returns one result per column.
    """
    run = Run(
        method, a, b, preconditioner, rtol, maxiter, dtype, callback, runtime,
        checkpoint_every, checkpoint_sink, block,
    )
    if resume_from is not None:
        run.restore(resume_from)
    elif x0 is None:
        run.x = np.zeros(run.shape, dtype=run.dtype)
    else:
        run.x = np.array(x0, dtype=run.dtype, order="C").reshape(run.shape)
    with _runtime_scope(runtime):
        try:
            if run.r is None:
                run.r = method.residual(run)
            for j in run.measure():
                rel = float(run.rel[j])
                if resume_from is None:
                    run.histories[j].record(rel)
                if not np.isfinite(rel):
                    run.freeze(j, "diverged")
                elif rel < rtol:
                    run.freeze(j, "converged")
            if run.active.any():
                run.finish(run.loop(method.steps(run)))
        except SolveInterrupted as stop:
            run.finish(stop.status)
    return run.results()


def _as_matvec(a, block: bool = False):
    if callable(a) and not hasattr(a, "matvec") and not hasattr(a, "dot"):
        return a
    if hasattr(a, "matvec"):
        return lambda v: np.asarray(a.matvec(v))
    if block:
        return lambda v: np.asarray(a @ v)
    return lambda v: np.asarray(a @ v.ravel()).reshape(v.shape)
