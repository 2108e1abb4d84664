"""Solve service: worker threads with warm sessions behind one job lifecycle.

:class:`SolverService` is the serving contract: clients submit right-hand
sides (single vectors or multi-RHS blocks) and receive :class:`SolveJob`
futures resolving to :class:`~repro.solvers.SolveResult` objects.  Jobs run
on worker threads, each owning a warm
:class:`~repro.serve.session.SolverSession` over one shared
:class:`HierarchyCache`, so the expensive setup runs once no matter how
many workers serve it.  The service owns the whole job lifecycle —
admission, the job table, one control thread, delivery, retry, expiry,
cancel, worker respawn, counters and the status document.

Admission control is a bounded pending queue: ``submit(..., block=True)``
applies backpressure (the caller waits for a slot), ``block=False``
raises :class:`ServiceSaturated` immediately — the two standard reactions
to a saturated solver backend; a closed service raises
:class:`ServiceClosed`.

The control thread wakes on every submit/cancel and otherwise polls every
``tick`` seconds.  Each round it collects worker outcomes, respawns dead
workers (redelivering the job one held), expires queued jobs past their
deadline (or cancelled), releases due retries, and hands at most one job
to each idle worker — redelivered jobs first.  Jobs carry an optional
:class:`~repro.resilience.runtime.Deadline` and a
:class:`~repro.resilience.runtime.CancelToken`: an expired or cancelled
job resolves with status ``"deadline"`` / ``"cancelled"`` and the best
iterate available, it never blocks the caller forever.  A
:class:`~repro.resilience.runtime.RetryPolicy` re-runs failed attempts
after an exponential backoff that waits on a heap, never in a worker, so
a backing-off job occupies no worker and a cancelled one stops waiting.

The module also hosts :func:`run_serve_bench`, the ``repro serve --bench``
workload: a 50-timestep weather replay measuring setup amortization from
the hierarchy cache, plus a batched multi-RHS consistency check, returned
as a schema-valid snapshot (the CLI writes it as ``BENCH_serve.json``).
"""

from __future__ import annotations

import heapq
import itertools
import os
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..mg import MGOptions
from ..observability import events as _events
from ..observability import metrics as _metrics
from ..observability import trace as _trace
from ..observability.telemetry import STATUS_SCHEMA, ServiceStats, write_status
from ..precision import PrecisionConfig
from ..resilience.runtime import (
    CancelToken,
    Deadline,
    ExecContext,
    RetryPolicy,
)
from ..sgdia import SGDIAMatrix
from ..solvers import (
    FAILURE_STATUSES,
    INTERRUPTED_STATUSES,
    ConvergenceHistory,
    SolveResult,
)
from .cache import HierarchyCache
from .session import SolverSession

__all__ = [
    "ServiceClosed",
    "ServiceSaturated",
    "SolveJob",
    "SolverService",
    "run_serve_bench",
]

#: Times a job is re-queued after its worker died mid-run; past this bound
#: it is quarantined as ``"poisoned"``.
MAX_REDELIVERIES = 2


class ServiceSaturated(RuntimeError):
    """The job queue is full and the caller asked not to wait."""


class ServiceClosed(RuntimeError):
    """The service is draining (or closed) and rejects new jobs.

    Distinct from :class:`ServiceSaturated`: saturation is transient
    backpressure — retry later; closed is terminal — submit elsewhere.
    (Subclasses :class:`RuntimeError` for pre-close() callers that caught
    the old bare ``RuntimeError``.)
    """


@dataclass(eq=False)
class SolveJob:
    """One queued solve request (a deadline-aware future).

    ``state`` walks ``"pending"`` (queued, or waiting out a retry backoff)
    → ``"running"`` (dispatched to a worker) → a terminal state:
    ``"done"`` (a result was delivered, whatever its solver status),
    ``"failed"`` (the worker raised), ``"deadline"`` / ``"cancelled"`` /
    ``"poisoned"`` (the job was interrupted — the result still carries the
    best iterate available, possibly the zero initial guess when the job
    never got solver time).  ``result()`` raising :class:`TimeoutError`
    does **not** consume the job: the future stays retrievable and a later
    ``result()`` call returns normally once the service finishes it.
    """

    id: int
    b: np.ndarray
    batched: bool = False
    kwargs: dict = field(default_factory=dict)
    deadline: "Deadline | None" = None
    cancel: CancelToken = field(default_factory=CancelToken)
    state: str = "pending"
    attempts: int = 0
    worker: "int | None" = None
    #: Times the job was re-queued after its worker died mid-run; past
    #: :data:`MAX_REDELIVERIES` the job is quarantined as ``"poisoned"``.
    redeliveries: int = 0
    #: ``perf_counter`` stamps for the latency histograms: submission time
    #: and first dispatch to a worker (0.0 until the event happened).
    t_submit: float = 0.0
    t_dispatch: float = 0.0
    _done: threading.Event = field(default_factory=threading.Event, repr=False)
    _result: "SolveResult | list[SolveResult] | None" = field(
        default=None, repr=False
    )
    _error: "BaseException | None" = field(default=None, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def done(self) -> bool:
        return self._done.is_set()

    def request_cancel(self) -> None:
        """Ask the job to stop cooperatively (queued or in flight)."""
        self.cancel.cancel()

    def result(self, timeout: "float | None" = None):
        """Block until the job finishes; re-raise the worker's exception.

        A wait timeout raises :class:`TimeoutError` without consuming the
        future — call again later to retrieve the eventual result.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(f"job {self.id} did not finish in time")
        if self._error is not None:
            raise self._error
        return self._result

    # -- state transitions ----------------------------------------------
    def _claim(self, worker: "int | None") -> bool:
        """Atomically move ``pending`` → ``running``; False if already
        claimed or finished."""
        with self._lock:
            if self.state != "pending":
                return False
            self.state = "running"
            self.worker = worker
            return True

    def _finish(self, state: str, result=None, error=None) -> bool:
        with self._lock:
            if self._done.is_set():
                return False
            self.state = state
            self._result = result
            self._error = error
            self._done.set()
            return True

    def _requeue(self) -> bool:
        """Move ``running`` back to ``pending`` (retry or redelivery)."""
        with self._lock:
            if self._done.is_set() or self.state != "running":
                return False
            self.state = "pending"
            self.worker = None
            return True


def interrupted_result(job: SolveJob, status: str):
    """Synthesize the result of a job that never got solver time.

    An expired/cancelled/poisoned job still resolves to a real
    :class:`SolveResult` (zero iterate, one recorded residual) so
    ``result()`` never blocks forever and downstream code sees the normal
    shape.
    """

    def one(col: np.ndarray) -> SolveResult:
        history = ConvergenceHistory()
        history.record(1.0)
        return SolveResult(
            x=np.zeros(col.shape, dtype=np.float64),
            status=status,
            iterations=0,
            history=history,
            solver="service",
            detail={
                "expired_before_run": True,
                "attempts": job.attempts,
                "redeliveries": job.redeliveries,
            },
        )

    b = np.asarray(job.b)
    if job.batched:
        return [one(b[..., j]) for j in range(b.shape[-1])]
    return one(b)


def classify_result(result, batched: bool) -> str:
    """Job-level state for a delivered result.

    ``"cancelled"``/``"deadline"`` when any column was interrupted
    (cancellation wins: it is the explicit signal), ``"retry"`` when any
    column carries a failure status (candidate for the retry policy),
    ``"done"`` otherwise.
    """
    statuses = [r.status for r in result] if batched else [result.status]
    if "cancelled" in statuses:
        return "cancelled"
    if "deadline" in statuses:
        return "deadline"
    if any(s in FAILURE_STATUSES for s in statuses):
        return "retry"
    return "done"


class SolverService:
    """Multi-worker solve service over one operator stream.

    Parameters
    ----------
    a, config, options:
        The operator and setup parameters handed to each worker's session.
    workers:
        Number of worker threads (each with its own warm-start session).
    queue_size:
        Bound of the admission queue — the backpressure knob.
    cache:
        Shared hierarchy cache (created when omitted).  Pass a cache with a
        ``spill_dir`` to survive eviction pressure across services.
    retry_policy:
        :class:`~repro.resilience.runtime.RetryPolicy` for re-running
        failed attempts (exceptions and failure-classified statuses such as
        ``"corrupted"``).  The default policy has ``max_retries=0`` — no
        retries.  A backing-off job waits on the service's retry heap,
        not in a worker, and cancelling it ends the wait.
    default_deadline:
        Per-job wall-clock budget in seconds applied to every submission
        that does not pass its own ``deadline``; ``None`` (default) leaves
        jobs unbounded.
    tick:
        Poll period of the control thread that expires queued jobs past
        their deadline, releases due retries and respawns dead workers.
    status_path:
        Where to publish the ``repro top`` status document (optional).
    session_kwargs:
        Extra :class:`SolverSession` parameters (``solver``, ``rtol``,
        ``maxiter``, ``drift_threshold``, ``escalate``...).

    All job-table state is mutated by the control thread alone, except
    admission (``submit``) and cancellation requests.
    """

    def __init__(
        self,
        a: SGDIAMatrix,
        config: "PrecisionConfig | None" = None,
        options: "MGOptions | None" = None,
        workers: int = 2,
        queue_size: int = 8,
        cache: "HierarchyCache | None" = None,
        retry_policy: "RetryPolicy | None" = None,
        default_deadline: "float | None" = None,
        tick: float = 0.02,
        status_path: "str | None" = None,
        **session_kwargs,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        self.queue_size = int(queue_size)
        self.retry_policy = retry_policy or RetryPolicy()
        self.default_deadline = default_deadline
        self.tick = float(tick)
        self.status_path = status_path
        self.telemetry = ServiceStats()
        self._status_written = 0.0
        self._cond = threading.Condition()
        self._pending: deque[SolveJob] = deque()
        self._jobs: dict[int, SolveJob] = {}
        #: worker index -> the one job in flight on it
        self._running: dict[int, SolveJob] = {}
        self._retries: list[tuple[float, int, SolveJob]] = []
        self._retry_seq = itertools.count()
        self._next_id = 0
        self._pending_submits = 0
        self._closing = False
        self.n_submitted = self.n_completed = self.n_failed = 0
        self.n_rejected = self.n_retried = 0
        self.n_deadline = self.n_cancelled = self.n_poisoned = 0
        self.n_respawns = self.n_requeued = 0
        self.cache = cache if cache is not None else HierarchyCache()
        self.sessions = [
            SolverSession(
                a, config=config, options=options, cache=self.cache,
                **session_kwargs,
            )
            for _ in range(workers)
        ]
        #: (worker, job, result, error) outcomes; ``None`` is a wake-up
        self._outbox: "queue.SimpleQueue" = queue.SimpleQueue()
        self._inboxes: "list[queue.SimpleQueue]" = [None] * workers
        self._threads = [self._spawn(w) for w in range(workers)]
        self._control = threading.Thread(
            target=self._control_loop, name="solve-supervisor", daemon=True
        )
        self._control.start()
        _events.emit(
            "info", "service.start", "thread service up",
            mode="thread", workers=workers,
        )

    def update_operator(self, a: SGDIAMatrix) -> list[str]:
        """Refresh the operator on every session (between batches).

        Callers are responsible for quiescing in-flight jobs when the
        operator swap must be atomic with respect to running solves.
        """
        return [s.update_operator(a) for s in self.sessions]

    # -- admission --------------------------------------------------------
    def submit(
        self,
        b: np.ndarray,
        batched: bool = False,
        block: bool = True,
        timeout: "float | None" = None,
        deadline: "float | Deadline | None" = None,
        **kwargs,
    ) -> SolveJob:
        """Enqueue a solve; returns the :class:`SolveJob` future.

        ``batched=True`` routes the RHS block through ``solve_many``.
        With ``block=False`` (or on timeout) a full queue raises
        :class:`ServiceSaturated` instead of waiting.  ``deadline`` is a
        per-job wall-clock budget in seconds (or a prebuilt
        :class:`Deadline`); it covers queue wait *and* solve time, and
        falls back to the service's ``default_deadline``.  A closed or
        draining service raises :class:`ServiceClosed` — the closed check
        and the queue insertion are coordinated with ``close()`` through
        an in-flight-submit counter, so ``close()`` never returns with an
        accepted job unfinished.  Other keyword arguments go to the
        session's ``solve``/``solve_many``.
        """
        with self._cond:
            if self._closing:
                raise ServiceClosed("service is closed to new submissions")
            self._pending_submits += 1
        try:
            if deadline is None:
                deadline = self.default_deadline
            if deadline is not None and not isinstance(deadline, Deadline):
                deadline = Deadline.after(float(deadline))
            with self._cond:
                if len(self._pending) >= self.queue_size:
                    ok = block and self._cond.wait_for(
                        lambda: (
                            len(self._pending) < self.queue_size
                            or self._closing
                        ),
                        timeout,
                    )
                    if self._closing:
                        raise ServiceClosed(
                            "service closed while waiting for a queue slot"
                        )
                    if not ok:
                        self.n_rejected += 1
                        _metrics.incr("serve.jobs.rejected")
                        raise ServiceSaturated(
                            f"solve queue is full ({self.queue_size} pending)"
                        )
                job = SolveJob(
                    id=self._next_id, b=np.asarray(b), batched=batched,
                    kwargs=kwargs, deadline=deadline,
                    t_submit=time.perf_counter(),
                )
                self._next_id += 1
                self._jobs[job.id] = job
                self._pending.append(job)
                self.n_submitted += 1
            _metrics.incr("serve.jobs.submitted")
            self._wake()
            return job
        finally:
            with self._cond:
                self._pending_submits -= 1
                self._cond.notify_all()

    def cancel(self, job: SolveJob) -> None:
        """Cooperatively cancel a queued or in-flight job.

        A queued job (also one waiting out a retry backoff) is finalized
        by the control thread; a running job aborts at its next
        cooperative check and returns its partial iterate with status
        ``"cancelled"``.
        """
        job.request_cancel()
        self._wake()

    def solve(self, b: np.ndarray, **kwargs):
        """Convenience: submit and wait."""
        return self.submit(b, **kwargs).result()

    def drain(self) -> None:
        """Wait until every accepted job has a terminal state."""
        with self._cond:
            self._cond.wait_for(lambda: not self._jobs)

    # -- worker threads -------------------------------------------------
    def _spawn(self, index: int) -> threading.Thread:
        self._inboxes[index] = inbox = queue.SimpleQueue()
        t = threading.Thread(
            target=self._worker, args=(index, inbox),
            name=f"solve-worker-{index}", daemon=True,
        )
        t.start()
        return t

    def _worker(self, index: int, inbox: queue.SimpleQueue) -> None:
        """Run each job dispatched to this worker; ``None`` stops it."""
        session = self.sessions[index]
        while (job := inbox.get()) is not None:
            try:
                ctx = ExecContext(deadline=job.deadline, cancel=job.cancel)
                run = session.solve_many if job.batched else session.solve
                t0 = time.perf_counter()
                with _trace.span(
                    "job", id=job.id, worker=index, attempt=job.attempts - 1
                ):
                    out = run(job.b, runtime=ctx, **job.kwargs)
                self.telemetry.record("solve", time.perf_counter() - t0)
                self._outbox.put((index, job, out, None))
            except Exception as exc:
                self._outbox.put((index, job, None, exc))

    def _wake(self) -> None:
        self._outbox.put(None)

    # -- control loop -----------------------------------------------------
    def _control_loop(self) -> None:
        while True:
            self._collect()
            self._supervise()
            self._expire_pending()
            self._release_retries()
            self._dispatch()
            self._maybe_write_status()
            if self._closing:
                with self._cond:
                    if not self._jobs:
                        return

    def _collect(self) -> None:
        """Wait up to ``tick`` for worker outcomes and deliver them."""
        try:
            item = self._outbox.get(timeout=self.tick)
            while True:
                if item is not None:
                    index, job, out, exc = item
                    if self._running.get(index) is job:
                        del self._running[index]
                    self._deliver(job, out, exc)
                item = self._outbox.get_nowait()
        except queue.Empty:
            pass

    def _supervise(self) -> None:
        """Respawn dead worker threads, redelivering a job they held."""
        for w, t in enumerate(self._threads):
            if t.is_alive():
                continue
            job = self._running.pop(w, None)
            if job is not None:
                self._redeliver(job)
            self._threads[w] = self._spawn(w)
            _events.emit(
                "error", "service.worker.respawn",
                f"worker thread {w} died; respawned", worker=w,
            )
            _metrics.incr("service.worker.respawn")
            self.n_respawns += 1

    def _expire_pending(self) -> None:
        """Finalize queued jobs past their deadline or cancelled."""
        with self._cond:
            pending = [j for j in self._jobs.values() if j.state == "pending"]
        for job in pending:
            status = ExecContext(
                deadline=job.deadline, cancel=job.cancel
            ).check()
            if status is not None and job._claim(None):
                self._finalize(
                    job, status, result=interrupted_result(job, status)
                )
                with self._cond:  # free its admission slot right away
                    if job in self._pending:
                        self._pending.remove(job)

    def _dispatch(self) -> None:
        """Hand each idle worker its next job (at most one in flight)."""
        idle = [
            w for w, t in enumerate(self._threads)
            if t.is_alive() and w not in self._running
        ]
        for w in idle:
            while True:
                with self._cond:
                    job = self._pending.popleft() if self._pending else None
                    if job is not None:
                        self._cond.notify_all()  # a queue slot freed up
                if job is None:
                    return
                if job._claim(w):
                    break
            job.attempts += 1
            if job.t_dispatch == 0.0:
                job.t_dispatch = time.perf_counter()
                self.telemetry.record(
                    "queue_wait", job.t_dispatch - job.t_submit
                )
            self._running[w] = job
            self._inboxes[w].put(job)

    def _deliver(self, job: SolveJob, result=None, error=None) -> None:
        """Route one attempt's outcome: finalize, or schedule a retry."""
        if error is not None:
            if not self._schedule_retry(job):
                self._finalize(job, "failed", error=error)
            return
        state = classify_result(result, job.batched)
        if state in INTERRUPTED_STATUSES:
            # Interrupts are not retried — the budget is spent (or the
            # caller asked to stop); the partial iterate is the answer.
            self._finalize(job, state, result=result)
        elif state != "retry" or not self._schedule_retry(job):
            self._finalize(job, "done", result=result)

    def _schedule_retry(self, job: SolveJob) -> bool:
        """Put a failed attempt on the backoff heap; False if out of
        retries (or out of time, or cancelled)."""
        policy = self.retry_policy
        ctx = ExecContext(deadline=job.deadline, cancel=job.cancel)
        if job.attempts - 1 >= policy.max_retries or ctx.check() is not None:
            return False
        if not job._requeue():
            return False
        self.n_retried += 1
        _metrics.incr("service.job.retry")
        self.telemetry.count("retried")
        _events.emit(
            "warning", "service.job.retry",
            f"job {job.id} attempt {job.attempts} failed; backing off",
            job=job.id, attempt=job.attempts,
        )
        due = time.monotonic() + policy.delay(job.attempts - 1, key=job.id)
        heapq.heappush(self._retries, (due, next(self._retry_seq), job))
        return True

    def _release_retries(self) -> None:
        now = time.monotonic()
        while self._retries and self._retries[0][0] <= now:
            job = heapq.heappop(self._retries)[2]
            if not job.done():
                with self._cond:
                    self._pending.append(job)

    def _redeliver(self, job: SolveJob) -> None:
        """Requeue a job whose attempt was lost with its worker.

        Bounded: past :data:`MAX_REDELIVERIES` the job is quarantined as
        ``"poisoned"`` — one pathological job cannot crash-loop the
        workers.
        """
        job.redeliveries += 1
        if job.redeliveries > MAX_REDELIVERIES:
            self._finalize(
                job, "poisoned", result=interrupted_result(job, "poisoned")
            )
            return
        if job._requeue():
            self.n_requeued += 1
            _metrics.incr("service.job.requeued")
            self.telemetry.count("redelivered")
            _events.emit(
                "warning", "service.job.requeued",
                f"job {job.id} redelivered "
                f"({job.redeliveries}/{MAX_REDELIVERIES})",
                job=job.id, redeliveries=job.redeliveries,
            )
            with self._cond:
                self._pending.appendleft(job)  # redelivered jobs go first

    def _finalize(self, job: SolveJob, state: str, result=None, error=None):
        """Deliver a terminal state exactly once and update the counters."""
        if not job._finish(state, result=result, error=error):
            return False
        with self._cond:
            self._jobs.pop(job.id, None)
            self._cond.notify_all()
        self.telemetry.record("e2e", time.perf_counter() - job.t_submit)
        if error is not None:
            self.n_failed += 1
            _metrics.incr("serve.jobs.failed")
            self.telemetry.count("failed")
        else:
            self.n_completed += 1
            _metrics.incr("serve.jobs.completed")
            self.telemetry.count("completed")
        if state == "deadline":
            self.n_deadline += 1
            _metrics.incr("service.job.deadline")
            self.telemetry.count("deadline_miss")
            _events.emit(
                "warning", "service.job.deadline",
                f"job {job.id} missed its deadline", job=job.id,
            )
        elif state == "cancelled":
            self.n_cancelled += 1
            _metrics.incr("service.job.cancelled")
            self.telemetry.count("cancelled")
            _events.emit(
                "info", "service.job.cancelled",
                f"job {job.id} cancelled", job=job.id,
            )
        elif state == "poisoned":
            self.n_poisoned += 1
            _metrics.incr("service.job.poisoned")
            _events.emit(
                "critical", "service.job.poisoned",
                f"job {job.id} quarantined after {job.redeliveries} "
                "redeliveries",
                job=job.id, redeliveries=job.redeliveries,
            )
        return True

    # -- close ------------------------------------------------------------
    def close(self) -> None:
        """Graceful drain: reject new jobs, finish accepted ones, stop.

        After ``close()`` returns every job accepted before the close has
        a terminal state, the workers have exited, ``service.stop`` was
        emitted and the final status document written; any concurrent
        ``submit()`` has either been accepted (and completed) or raised
        :class:`ServiceClosed`.  Idempotent.
        """
        with self._cond:
            first = not self._closing
            self._closing = True
            self._cond.notify_all()  # fail queue-slot waiters fast
            self._cond.wait_for(lambda: self._pending_submits == 0)
        if not first:
            self._control.join()
            return
        self._wake()
        self._control.join()
        for inbox in self._inboxes:
            inbox.put(None)
        for t in self._threads:
            t.join()
        _events.emit("info", "service.stop", "thread service drained")
        self._maybe_write_status(min_interval=0.0)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection ----------------------------------------------------
    def topology(self) -> dict:
        """Worker layout for the benchmark snapshot."""
        return {
            "mode": "thread",
            "workers": len(self._threads),
            "respawns": self.n_respawns,
            "requeued": self.n_requeued,
            "poisoned": self.n_poisoned,
        }

    def _cache_summary(self) -> dict:
        """Counters of the shared hierarchy cache."""
        return {
            **self.cache.stats.to_dict(),
            "entries": len(self.cache),
            "resident_bytes": self.cache.resident_bytes,
            "hit_rate": self.cache.stats.hit_rate,
        }

    def stats(self) -> dict:
        return {
            "submitted": self.n_submitted,
            "completed": self.n_completed,
            "failed": self.n_failed,
            "rejected": self.n_rejected,
            "retried": self.n_retried,
            "deadline": self.n_deadline,
            "cancelled": self.n_cancelled,
            "requeued": self.n_requeued,
            "poisoned": self.n_poisoned,
            "worker_respawns": self.n_respawns,
            "workers": len(self._threads),
            "queue_size": self.queue_size,
            "latency": self.telemetry.snapshot(),
            "cache": self._cache_summary(),
            "topology": self.topology(),
            "sessions": [s.stats() for s in self.sessions],
        }

    def status_doc(self) -> dict:
        """Live-state document for ``repro top`` / ``serve --watch``."""
        running = dict(self._running)
        with self._cond:
            depth = len(self._pending)
        journal = _events.get_journal()
        pid = os.getpid()
        return {
            "schema": STATUS_SCHEMA,
            "ts": time.time(),
            "pid": pid,
            "mode": "thread",
            "workers": [
                {
                    "index": w,
                    "pid": pid,
                    "alive": t.is_alive(),
                    "ready": t.is_alive(),
                    "inflight": int(w in running),
                }
                for w, t in enumerate(self._threads)
            ],
            "queue_depth": depth,
            "counts": {
                "submitted": self.n_submitted,
                "completed": self.n_completed,
                "failed": self.n_failed,
                "deadline": self.n_deadline,
                "cancelled": self.n_cancelled,
                "poisoned": self.n_poisoned,
                "requeued": self.n_requeued,
                "respawns": self.n_respawns,
            },
            "cache": self._cache_summary(),
            "latency": self.telemetry.snapshot(),
            "events": journal.to_dicts(10) if journal is not None else [],
        }

    def _maybe_write_status(self, min_interval: float = 0.5) -> None:
        """Publish the status document at most every ``min_interval`` s."""
        if not self.status_path:
            return
        now = time.monotonic()
        if now - self._status_written < min_interval:
            return
        self._status_written = now
        try:
            write_status(self.status_path, self.status_doc())
        except OSError:  # pragma: no cover - status is best-effort
            pass


# ----------------------------------------------------------------------
# the `repro serve --bench` workload
# ----------------------------------------------------------------------

def run_serve_bench(
    shape: tuple[int, int, int] = (20, 20, 12),
    steps: int = 50,
    refresh_every: int = 10,
    rhs_block: int = 4,
    config: "PrecisionConfig | None" = None,
    seed: int = 0,
) -> dict:
    """Timestep-replay benchmark of the serving layer.

    Replays ``steps`` solves of the weather problem whose operator is
    refreshed every ``refresh_every`` steps (one "assimilation window"),
    comparing per-step hierarchy setup (the uncached baseline) against the
    fingerprinted cache, and checking the cache counters against the known
    replay schedule.  A second section runs ``solve_many`` on a
    ``rhs_block``-column block of the SPD laplace27 problem against
    sequential solves.  Returns the snapshot document; its one gate,
    ``counters_match_schedule``, says the cache missed once per epoch and
    hit on every other step.
    """
    from ..mg import mg_setup
    from ..observability import Metrics
    from ..observability.snapshot import build_snapshot
    from ..problems import build_problem, consistent_rhs
    from ..solvers import solve as solve_one

    config = config or PrecisionConfig()
    rng = np.random.default_rng(seed)

    prob = build_problem("weather", shape, seed=seed)
    options = prob.mg_options
    n_epochs = (steps + refresh_every - 1) // refresh_every
    # One operator per refresh epoch: re-seeded builds stand in for the
    # assimilation updates that change coefficients between windows.
    epoch_ops = [
        build_problem("weather", shape, seed=seed + e).a
        for e in range(n_epochs)
    ]
    schedule = [t // refresh_every for t in range(steps)]

    # -- uncached baseline: one setup per step ---------------------------
    t0 = time.perf_counter()
    for t in range(steps):
        mg_setup(epoch_ops[schedule[t]], config, options)
    uncached_seconds = time.perf_counter() - t0

    # -- cached replay ----------------------------------------------------
    cache = HierarchyCache()
    t0 = time.perf_counter()
    for t in range(steps):
        cache.get_or_build(epoch_ops[schedule[t]], config, options)
    cached_seconds = time.perf_counter() - t0
    stats = cache.stats
    counters_ok = (
        stats.misses == n_epochs and stats.hits == steps - n_epochs
    )
    # Freeze the replay-phase counters now: the warm-start and multi-RHS
    # sections below reuse the same cache and would skew them.
    replay_cache = stats.to_dict()
    replay_hit_rate = stats.hit_rate

    # -- warm-start service over the same replay -------------------------
    # Routed through a real SolverService so the snapshot's ``latency``
    # section carries measured queue-wait / solve / e2e histograms.
    svc = SolverService(
        epoch_ops[0], config=config, options=options, workers=1,
        queue_size=4, cache=cache, solver=prob.solver, rtol=prob.rtol,
        maxiter=500,
    )
    b = prob.b
    first = svc.submit(b, warm_start=False).result(timeout=600.0)
    second = svc.submit(b).result(timeout=600.0)  # warm-started
    warm_iters = (first.iterations, second.iterations)
    session = svc.sessions[0]
    latency = svc.telemetry.snapshot()
    topology = svc.topology()
    svc.close()

    # -- batched multi-RHS block vs sequential ---------------------------
    lap = build_problem("laplace27", shape, seed=seed)
    lap_session = SolverSession(
        lap.a, config=config, options=lap.mg_options, cache=cache,
        solver="cg", rtol=lap.rtol, maxiter=500,
    )
    block = np.stack(
        [consistent_rhs(lap.a, rng).ravel() for _ in range(rhs_block)], axis=-1
    )
    batch_results = lap_session.solve_many(block)
    max_rel = 0.0
    for j, rj in enumerate(batch_results):
        ref = solve_one(
            "cg", lap.a, np.ascontiguousarray(block[:, j]),
            preconditioner=lap_session.hierarchy.precondition,
            rtol=lap.rtol, maxiter=500,
        )
        denom = float(np.linalg.norm(ref.x.ravel())) or 1.0
        max_rel = max(
            max_rel,
            float(np.linalg.norm(rj.x.ravel() - ref.x.ravel())) / denom,
        )

    serve_extra = {
        "replay": {
            "problem": "weather",
            "steps": steps,
            "refresh_every": refresh_every,
            "epochs": n_epochs,
            "uncached_setup_seconds": uncached_seconds,
            "cached_setup_seconds": cached_seconds,
            "amortization": (
                uncached_seconds / cached_seconds
                if cached_seconds > 0
                else float("inf")
            ),
            "cache": replay_cache,
            "hit_rate": replay_hit_rate,
        },
        "warm_start": {
            "cold_iterations": warm_iters[0],
            "warm_iterations": warm_iters[1],
        },
        "solve_many": {
            "problem": "laplace27",
            "rhs_block": rhs_block,
            "max_rel_error_vs_sequential": max_rel,
            "statuses": [r.status for r in batch_results],
        },
    }
    metrics = _metrics.get_metrics() or Metrics()
    return build_snapshot(
        problem="weather-replay",
        config="serve",  # -> BENCH_serve.json
        shape=shape,
        result=second,
        hierarchy=session.hierarchy,
        gates={"counters_match_schedule": counters_ok},
        metrics=metrics,
        extra={"serve": serve_extra, "precision_config": config.name},
        topology=topology,
        latency=latency,
    )
