"""Crash-resilient process executor for the solve service.

:class:`ProcessSolverService` runs the one job scheduler of
:mod:`repro.serve.service` (:class:`~repro.serve.service.JobScheduler`:
admission, deadlines, cancel, retry backoff, delivery, counters, status,
drain) over OS *processes* instead of threads.  Each worker process runs
a full :class:`~repro.serve.session.SolverSession` — a crashed or wedged
worker can therefore be SIGKILLed and replaced without taking the service
down, which no thread pool can offer.  This module holds only the
process-side machinery.

Architecture (one supervisor, N workers)::

    parent (supervisor)                      worker i (process)
    -------------------                      ------------------
    publish: hierarchy -> shm segment   -->  attach (checksummed) ->
      (consistent-hash shard caches)           SolverSession(hierarchy=h)
    per-worker request mp.Queue         -->  blocking get()
    per-worker result Pipe              <--  results / errors / corruption
    per-worker heartbeat (shared f64)   <--  beat thread, every interval
    per-worker cancel mp.Event          -->  worker job's CancelToken

    scheduler control thread: collect results (this module) -> check
    heartbeats (this module) -> expire queued jobs -> propagate cancels
    (this module) -> release due retries -> dispatch

Supervision contract:

- **Crash** (worker exits / SIGKILL): its result pipe hits EOF; every
  in-flight job is re-queued with ``redeliveries += 1`` and the worker is
  respawned.  Past ``max_redeliveries`` a job is quarantined with status
  ``"poisoned"`` — one bad job cannot crash-loop the pool forever.
- **Hang** (heartbeat silent for ``hang_timeout``): the supervisor
  SIGKILLs the worker and takes the crash path.  The beat runs on a
  side thread, so only a whole-process freeze (SIGSTOP, deadlocked C
  call) trips it — a long solve does not.
- **Corruption** (shm checksum mismatch on attach): the worker reports
  ``corrupt`` instead of solving; the supervisor unlinks the segment,
  rebuilds the hierarchy from the source operator, republishes under a
  fresh name, and redelivers the job.  A damaged segment can delay an
  answer, never change one.
- **Close** (``close()`` / SIGTERM): new submissions raise
  :class:`~repro.serve.service.ServiceClosed`, queued and running jobs
  finish, workers exit, and every shm segment is unlinked — backstopped
  by an ``atexit`` hook and, across hard kills, by
  :func:`~repro.serve.shm.reap_orphans` at the next service start.

Dispatch keeps at most **one** job in flight per worker: redelivery after
a crash then loses at most one solve per worker, and cancel propagation
is race-free (the parent clears the shared cancel event before handing a
worker its next job — the worker never observes a stale cancel).

The module also hosts :func:`run_serve_mp_bench` (``repro serve
--processes N --bench``): a multi-RHS weather replay measuring throughput
scaling over the process pool, with every answer checked bit-identical to
the thread service.
"""

from __future__ import annotations

import atexit
import bisect
import hashlib
import multiprocessing as mp
import multiprocessing.connection as mpconn
import os
import signal
import threading
import time

import numpy as np

from ..mg import MGOptions
from ..observability import events as _events
from ..observability import metrics as _metrics
from ..observability import trace as _trace
from ..precision import PrecisionConfig
from ..resilience.runtime import (
    CancelToken,
    Deadline,
    ExecContext,
    RetryPolicy,
)
from ..sgdia import SGDIAMatrix
from . import shm as _shm
from .cache import HierarchyCache
from .fingerprint import matrix_fingerprint
from .service import JobScheduler, SolveJob, SolverService
from .session import SolverSession

__all__ = ["ProcessSolverService", "run_serve_mp_bench"]


# ----------------------------------------------------------------------
# consistent-hash shard ring
# ----------------------------------------------------------------------

class _HashRing:
    """Consistent hashing of operator fingerprints onto cache shards.

    Virtual nodes (``replicas`` per shard) spread fingerprints evenly; the
    assignment depends only on ``(fingerprint, n_shards)``, so a restarted
    service reproduces the same shard map — and the snapshot's recorded
    topology stays meaningful across runs.
    """

    def __init__(self, n_shards: int, replicas: int = 32) -> None:
        points: list[tuple[int, int]] = []
        for shard in range(n_shards):
            for r in range(replicas):
                digest = hashlib.sha256(f"{shard}:{r}".encode()).hexdigest()
                points.append((int(digest[:16], 16), shard))
        points.sort()
        self._keys = [p[0] for p in points]
        self._shards = [p[1] for p in points]

    def shard_for(self, fingerprint: str) -> int:
        h = int(hashlib.sha256(fingerprint.encode()).hexdigest()[:16], 16)
        i = bisect.bisect_right(self._keys, h) % len(self._keys)
        return self._shards[i]


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------

def _send(conn, msg) -> bool:
    try:
        conn.send(msg)
    except (BrokenPipeError, OSError):  # supervisor is gone
        return False
    return True


def _worker_main(
    index: int,
    req_q,
    res_conn,
    heartbeat,
    cancel_event,
    config,
    options,
    session_kwargs: dict,
    heartbeat_interval: float,
) -> None:
    """Worker entry point: attach segments, solve, report.

    Runs in a child process.  Sessions are keyed by segment name — a
    republished (rebuilt) segment gets a fresh name and therefore a fresh
    attach, so a worker can never keep serving from bytes the supervisor
    has condemned.

    Telemetry: fork-inherited collectors belong to the parent and are
    dropped, but when the supervisor dispatches a job with ``collect``
    set, the worker installs a *per-job* tracer + metrics registry and
    ships the finished spans, counter totals, and its tracer epoch back
    alongside the result — the supervisor merges them, so worker-side
    counters (``kernel.*``, ``precision.fcvt.values``) and V-cycle spans
    are never lost to the process boundary.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent handles Ctrl-C
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # Fork-inherited collectors belong to the parent; per-job scoped
    # collection below replaces them when the supervisor asks for it.
    _metrics.uninstall()
    _trace.uninstall()

    stop = threading.Event()

    def _beat() -> None:
        while not stop.is_set():
            heartbeat.value = time.monotonic()
            stop.wait(heartbeat_interval)

    beat = threading.Thread(target=_beat, name="heartbeat", daemon=True)
    beat.start()

    sessions: dict[str, SolverSession] = {}
    if not _send(res_conn, ("ready", index, os.getpid())):
        return
    try:
        while True:
            try:
                msg = req_q.get()
            except (EOFError, OSError):  # queue torn down under us
                return
            kind = msg[0]
            if kind == "stop":
                _send(res_conn, ("bye", index))
                return
            if kind == "drop":  # segment republished: forget the old attach
                sessions.pop(msg[1], None)
                continue
            _, job_id, seg_name, b, batched, kwargs, remaining, collect = msg
            timings: dict = {}

            def _serve_one():
                session = sessions.get(seg_name)
                if session is None:
                    t0 = time.perf_counter()
                    with _trace.span("shm_attach", segment=seg_name):
                        a, h = _shm.attach_hierarchy(
                            seg_name, config, options
                        )
                    timings["attach_s"] = time.perf_counter() - t0
                    session = SolverSession(
                        a, config=config, options=options,
                        cache=HierarchyCache(), hierarchy=h,
                        **session_kwargs,
                    )
                    sessions[seg_name] = session
                token = CancelToken()
                token._event = cancel_event  # share the cross-process flag
                ctx = ExecContext(
                    deadline=(
                        Deadline.after(remaining)
                        if remaining is not None
                        else None
                    ),
                    cancel=token,
                )
                t0 = time.perf_counter()
                if batched:
                    out = session.solve_many(b, runtime=ctx, **kwargs)
                else:
                    out = session.solve(b, runtime=ctx, **kwargs)
                timings["solve_s"] = time.perf_counter() - t0
                return out

            try:
                payload: dict = {"pid": os.getpid(), "timings": timings}
                if collect:
                    wtracer = _trace.install()
                    wmetrics = _metrics.install()
                    try:
                        with _trace.span(
                            "worker_job",
                            job=job_id, worker=index, pid=os.getpid(),
                        ):
                            out = _serve_one()
                    finally:
                        _trace.uninstall()
                        _metrics.uninstall()
                    payload["spans"] = [
                        s.to_dict() for s in wtracer.finished()
                    ]
                    payload["epoch"] = wtracer.epoch
                    payload["metrics"] = wmetrics.to_dict()
                else:
                    out = _serve_one()
                if not _send(
                    res_conn, ("result", index, job_id, out, payload)
                ):
                    return
            except _shm.ShmCorruption as exc:
                sessions.pop(seg_name, None)
                if not _send(
                    res_conn, ("corrupt", index, job_id, seg_name, str(exc))
                ):
                    return
            except BaseException as exc:
                if not _send(
                    res_conn,
                    ("error", index, job_id, f"{type(exc).__name__}: {exc}"),
                ):
                    return
    finally:
        stop.set()


# ----------------------------------------------------------------------
# parent-side records
# ----------------------------------------------------------------------

class _Worker:
    """Parent-side handle on one worker process."""

    __slots__ = (
        "index", "generation", "proc", "req_q", "res_conn", "heartbeat",
        "cancel_event", "ready", "alive", "cancel_flagged", "pid",
    )

    def __init__(self, index, generation, proc, req_q, res_conn,
                 heartbeat, cancel_event):
        self.index = index
        self.generation = generation
        self.proc = proc
        self.req_q = req_q
        self.res_conn = res_conn
        self.heartbeat = heartbeat
        self.cancel_event = cancel_event
        self.ready = False
        self.alive = True
        self.cancel_flagged = False
        self.pid = proc.pid


class _Segment:
    """Parent-side record of one published hierarchy segment."""

    __slots__ = ("fp", "name", "handle", "shard", "rebuilds")

    def __init__(self, fp, name, handle, shard):
        self.fp = fp
        self.name = name
        self.handle = handle
        self.shard = shard
        self.rebuilds = 0


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------

class ProcessSolverService(JobScheduler):
    """Supervised process pool serving solves from shared-memory hierarchies.

    Parameters
    ----------
    a, config, options:
        Initial operator and setup parameters; further operators join via
        :meth:`publish` / :meth:`update_operator`.
    processes:
        Number of worker processes.
    queue_size:
        Bound of the pending-job queue (backpressure, as in the thread
        service).
    retry_policy:
        :class:`~repro.resilience.runtime.RetryPolicy` for re-running
        failure-classified results and worker exceptions.
    default_deadline:
        Wall-clock budget (seconds) applied to submissions without one.
    max_redeliveries:
        Crash/corruption redeliveries per job before it is quarantined as
        ``"poisoned"``.
    heartbeat_interval, hang_timeout:
        Workers write a monotonic timestamp every ``heartbeat_interval``
        seconds; a worker silent for ``hang_timeout`` is declared hung,
        SIGKILLed, and replaced.
    tick:
        Supervisor poll period (result drain / deadline expiry cadence).
    shard_max_bytes, spill_dir:
        Per-shard :class:`HierarchyCache` bound and optional spill root
        (shard ``i`` spills under ``spill_dir/shard<i>``).
    handle_sigterm:
        Install a SIGTERM handler that drains gracefully (main thread
        only).
    start_method:
        ``multiprocessing`` start method; default prefers ``fork``.
    collect_telemetry:
        Ship worker spans and counters back with each result; ``None``
        (default) does so whenever the supervisor has a tracer or metrics
        registry installed.
    status_path:
        Where to publish the ``repro top`` status document (optional).
    session_kwargs:
        Extra :class:`SolverSession` parameters for the workers
        (``solver``, ``rtol``, ``maxiter``, ...).
    """

    mode = "process"

    def __init__(
        self,
        a: SGDIAMatrix,
        config: "PrecisionConfig | None" = None,
        options: "MGOptions | None" = None,
        processes: int = 2,
        queue_size: int = 8,
        retry_policy: "RetryPolicy | None" = None,
        default_deadline: "float | None" = None,
        max_redeliveries: int = 2,
        heartbeat_interval: float = 0.05,
        hang_timeout: float = 5.0,
        tick: float = 0.02,
        shard_max_bytes: int = 1 << 30,
        spill_dir: "str | None" = None,
        handle_sigterm: bool = False,
        start_method: "str | None" = None,
        collect_telemetry: "bool | None" = None,
        status_path: "str | None" = None,
        **session_kwargs,
    ) -> None:
        if processes < 1:
            raise ValueError("need at least one worker process")
        super().__init__(
            queue_size, retry_policy, default_deadline, tick, status_path,
            max_redeliveries,
        )
        self.config = config or PrecisionConfig()
        self.options = options or MGOptions()
        self.heartbeat_interval = float(heartbeat_interval)
        self.hang_timeout = float(hang_timeout)
        self.collect_telemetry = collect_telemetry
        self._session_kwargs = dict(session_kwargs)
        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._mpctx = mp.get_context(start_method)

        # Startup hygiene: a previous service that died without atexit
        # (SIGKILL, OOM) left its segments behind — sweep them now.
        reaped = _shm.reap_orphans()
        if reaped:
            _metrics.incr("serve.shm.orphans_reaped", len(reaped))
            _events.emit(
                "warning", "serve.shm.orphans_reaped",
                f"swept {len(reaped)} orphaned segment(s) from a dead "
                "service", count=len(reaped),
            )

        self._ring = _HashRing(processes)
        self._shards = [
            HierarchyCache(
                max_bytes=shard_max_bytes,
                spill_dir=(
                    os.path.join(spill_dir, f"shard{i}")
                    if spill_dir is not None
                    else None
                ),
            )
            for i in range(processes)
        ]
        self._seg_lock = threading.RLock()
        self._segments: dict[str, _Segment] = {}
        self._operators: dict[str, SGDIAMatrix] = {}

        # Publish the initial operator before any worker exists, so the
        # first dispatch never waits on a setup.
        self._fp = self.publish(a)

        self._wake_r, self._wake_w = self._mpctx.Pipe(duplex=False)
        self._wake_lock = threading.Lock()
        self._workers = [self._spawn(i, 0) for i in range(processes)]

        self._sigterm_prev = None
        self._sigterm_installed = False
        if handle_sigterm:
            try:
                self._sigterm_prev = signal.signal(
                    signal.SIGTERM, self._on_sigterm
                )
                self._sigterm_installed = True
            except ValueError:  # not the main thread
                pass

        atexit.register(self._emergency)
        self._start_control(processes=processes)

    # -- segments -------------------------------------------------------
    @property
    def processes(self) -> int:
        return len(self._workers)

    def publish(self, a: SGDIAMatrix) -> str:
        """Register an operator and publish its hierarchy segment.

        Builds the hierarchy through the operator's consistent-hash cache
        shard (a no-op when cached) and publishes it into shared memory;
        returns the fingerprint to pass as ``submit(..., operator=fp)``.
        """
        fp = matrix_fingerprint(a)
        with self._seg_lock:
            self._operators.setdefault(fp, a)
            self._ensure_segment(fp)
        return fp

    def update_operator(self, a: SGDIAMatrix) -> str:
        """Publish ``a`` and make it the default operator for new jobs."""
        fp = self.publish(a)
        self._fp = fp
        return fp

    def _target(self, kwargs: dict) -> str:
        """Resolve ``submit(..., operator=)``: a matrix (published on the
        fly), a fingerprint from :meth:`publish`, or the default."""
        operator = kwargs.pop("operator", None)
        if operator is None:
            return self._fp
        if isinstance(operator, str):
            if operator not in self._operators:
                raise ValueError(
                    f"unknown operator fingerprint {operator[:12]!r}; "
                    "publish() it first"
                )
            return operator
        return self.publish(operator)

    def _ensure_segment(self, fp: str) -> _Segment:
        """Publish (or return) the segment for a registered fingerprint."""
        with self._seg_lock:
            seg = self._segments.get(fp)
            if seg is not None:
                return seg
            op = self._operators[fp]
            shard = self._ring.shard_for(fp)
            t0 = time.perf_counter()
            hierarchy, _key, _src = self._shards[shard].get_or_build(
                op, self.config, self.options
            )
            # setup-or-cache-hit latency: a hit lands in the lowest
            # buckets, a cold build in the high ones — the gap IS the
            # cache's value, so both belong in the same histogram.
            self.telemetry.record("setup", time.perf_counter() - t0)
            handle = _shm.publish_hierarchy(op, hierarchy)
            _metrics.incr("serve.shm.publish")
            seg = _Segment(fp, handle.name, handle, shard)
            self._segments[fp] = seg
            return seg

    def _republish(self, seg_name: str) -> "_Segment | None":
        """Replace a condemned segment: unlink, rebuild, publish fresh.

        Returns the new segment, or ``None`` when the name is no longer
        one of ours (already republished — a second worker reporting the
        same corruption is not an error).
        """
        with self._seg_lock:
            seg = next(
                (s for s in self._segments.values() if s.name == seg_name),
                None,
            )
            if seg is None:
                return None
            rebuilds = seg.rebuilds
            self._segments.pop(seg.fp, None)
            _shm.unlink_segment(seg.handle)
            fresh = self._ensure_segment(seg.fp)
            fresh.rebuilds = rebuilds + 1
            self.n_segment_rebuilds += 1
            _events.emit(
                "warning", "serve.shm.republished",
                f"segment {seg_name} rebuilt and republished as "
                f"{fresh.name}",
                old=seg_name, new=fresh.name, rebuilds=fresh.rebuilds,
            )
        # Any worker holding a session keyed by the old name must forget
        # it (the name is dead; a fresh attach re-verifies checksums).
        for w in self._workers:
            if w.alive:
                try:
                    w.req_q.put(("drop", seg_name))
                except (ValueError, OSError):
                    pass
        return fresh

    # -- workers --------------------------------------------------------
    def _spawn(self, index: int, generation: int) -> _Worker:
        heartbeat = self._mpctx.Value("d", time.monotonic())
        cancel_event = self._mpctx.Event()
        req_q = self._mpctx.Queue()
        res_recv, res_send = self._mpctx.Pipe(duplex=False)
        proc = self._mpctx.Process(
            target=_worker_main,
            args=(
                index, req_q, res_send, heartbeat, cancel_event,
                self.config, self.options, self._session_kwargs,
                self.heartbeat_interval,
            ),
            name=f"solve-proc-{index}",
            daemon=True,
        )
        proc.start()
        res_send.close()  # the parent only reads results
        _events.emit(
            "info", "service.worker.spawn",
            f"worker {index} (generation {generation}) pid {proc.pid}",
            worker=index, generation=generation, pid=proc.pid,
        )
        return _Worker(
            index, generation, proc, req_q, res_recv, heartbeat, cancel_event
        )

    def _close_handles(self, w: _Worker) -> None:
        w.alive = False
        try:
            w.res_conn.close()
        except OSError:
            pass
        try:
            w.req_q.close()
            w.req_q.cancel_join_thread()  # never wait on a dead feeder
        except (ValueError, OSError):
            pass

    def _on_worker_death(self, w: _Worker, reason: str) -> None:
        """Reap a dead worker: redeliver its job, respawn a successor."""
        if not w.alive:
            return
        self._close_handles(w)
        try:
            w.proc.join(timeout=1.0)
        except (ValueError, AssertionError):  # pragma: no cover
            pass
        job = self._running.pop(w.index, None)
        if job is not None:
            self._redeliver(job)
        self._workers[w.index] = self._spawn(w.index, w.generation + 1)
        self._note_respawn(
            f"worker {w.index} pid {w.pid} died ({reason}); respawning",
            worker=w.index, pid=w.pid, reason=reason,
        )

    # -- executor hooks -------------------------------------------------
    def _wake(self) -> None:
        with self._wake_lock:
            try:
                self._wake_w.send_bytes(b"w")
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass

    def _collect(self) -> None:
        """Wait up to ``tick`` for worker messages (or a wake-up)."""
        conns = [w.res_conn for w in self._workers if w.alive]
        conns.append(self._wake_r)
        try:
            ready = mpconn.wait(conns, timeout=self.tick)
        except OSError:  # pragma: no cover - conn closed mid-wait
            ready = []
        for conn in ready:
            if conn is self._wake_r:
                try:
                    while self._wake_r.poll():
                        self._wake_r.recv_bytes()
                except (EOFError, OSError):  # pragma: no cover
                    pass
                continue
            w = next((x for x in self._workers if x.res_conn is conn), None)
            if w is None or not w.alive:
                continue
            try:
                while conn.poll():
                    self._handle_message(w, conn.recv())
            except (EOFError, OSError):
                self._on_worker_death(w, "exit")

    def _ingest_telemetry(self, w: _Worker, job: SolveJob, payload: dict) -> None:
        """Fold one worker result's shipped telemetry into the supervisor.

        Timings feed the latency histograms; counter totals merge into the
        installed metrics registry (bit-for-bit: addition of exact integer
        tallies); spans graft under a fresh ``serve.job`` root span — the
        worker's ``perf_counter`` epoch is rebased onto the supervisor
        tracer's, valid because both processes share the Linux
        ``CLOCK_MONOTONIC`` domain across ``fork``.
        """
        timings = payload.get("timings") or {}
        if "attach_s" in timings:
            self.telemetry.record("shm_verify", timings["attach_s"])
        if "solve_s" in timings:
            self.telemetry.record("solve", timings["solve_s"])
        m = _metrics.get_metrics()
        if m is not None and payload.get("metrics"):
            m.merge(payload["metrics"])
        t = _trace.get_tracer()
        if t is not None and payload.get("spans"):
            now_rel = time.perf_counter() - t.epoch
            sub_rel = job.t_submit - t.epoch
            root = t.record_span(
                "serve.job", sub_rel, now_rel,
                job=job.id, worker=w.index, attempts=job.attempts,
                redeliveries=job.redeliveries,
            )
            t.record_span(
                "queue_wait", sub_rel, job.t_dispatch - t.epoch,
                parent=root.index,
            )
            shift = float(payload.get("epoch", t.epoch)) - t.epoch
            t.graft(
                payload["spans"], parent=root.index, shift=shift,
                lane=w.index + 1,
                extra_attrs={"pid": payload.get("pid")},
            )

    def _handle_message(self, w: _Worker, msg: tuple) -> None:
        kind = msg[0]
        if kind == "ready":
            w.ready = True
            w.pid = msg[2]
            return
        if kind == "bye":  # the worker exits and its pipe EOFs
            return
        # result / error / corrupt: the worker's one in-flight job is over
        job = self._running.pop(w.index, None)
        if job is None:
            return
        if kind == "result":
            if isinstance(msg[4], dict):
                self._ingest_telemetry(w, job, msg[4])
            self._deliver(job, result=msg[3])
        elif kind == "error":
            self._deliver(
                job, error=RuntimeError(f"worker {w.index}: {msg[3]}")
            )
        elif kind == "corrupt":
            _, _wid, _job_id, seg_name, detail = msg
            self.n_shm_corrupt += 1
            _metrics.incr("serve.shm.corrupt")
            _events.emit(
                "error", "serve.shm.corrupt",
                f"segment {seg_name} failed verification on worker "
                f"{w.index}: {detail}",
                segment=seg_name, worker=w.index, detail=detail,
            )
            try:
                self._republish(seg_name)
            except Exception as exc:
                self._finalize(
                    job, "failed",
                    error=RuntimeError(
                        f"segment {seg_name} corrupt ({detail}) and "
                        f"rebuild failed: {exc}"
                    ),
                )
                return
            self._redeliver(job)

    def _supervise(self) -> None:
        """Crash and hang detection: reap exited or heartbeat-silent
        workers (a hung one is SIGKILLed first)."""
        now = time.monotonic()
        for w in list(self._workers):
            if not w.alive:
                continue
            if not w.proc.is_alive():
                self._on_worker_death(w, "exit")
            elif now - w.heartbeat.value > self.hang_timeout:
                self.n_heartbeat_miss += 1
                _metrics.incr("service.worker.heartbeat_miss")
                _events.emit(
                    "error", "service.worker.heartbeat_miss",
                    f"worker {w.index} pid {w.pid} silent for "
                    f"{now - w.heartbeat.value:.2f}s; killing",
                    worker=w.index, pid=w.pid,
                    age=now - w.heartbeat.value,
                )
                try:
                    os.kill(w.proc.pid, signal.SIGKILL)
                except (ProcessLookupError, TypeError):  # pragma: no cover
                    pass
                self._on_worker_death(w, "hang")

    def _propagate_cancels(self) -> None:
        for w in self._workers:
            job = self._running.get(w.index)
            if (
                w.alive and not w.cancel_flagged and job is not None
                and job.cancel.cancelled()
            ):
                w.cancel_event.set()
                w.cancel_flagged = True

    def _idle_workers(self) -> list[int]:
        return [
            w.index for w in self._workers
            if w.alive and w.ready and w.index not in self._running
        ]

    def _start(self, index: int, job: SolveJob) -> None:
        w = self._workers[index]
        try:
            seg = self._ensure_segment(job.fp)
        except Exception as exc:
            del self._running[index]
            self._finalize(
                job, "failed",
                error=RuntimeError(
                    f"could not publish hierarchy segment: {exc}"
                ),
            )
            return
        if w.cancel_flagged:
            # The previous job's cancel is spent; with one job in flight
            # per worker, clearing here cannot race a live cancel — the
            # new job's own cancel re-sets the event.
            w.cancel_event.clear()
            w.cancel_flagged = False
        remaining = (
            job.deadline.remaining() if job.deadline is not None else None
        )
        collect = self.collect_telemetry
        if collect is None:
            collect = _metrics.active() or _trace.enabled()
        try:
            w.req_q.put((
                "solve", job.id, seg.name, job.b, job.batched,
                job.kwargs, remaining, bool(collect),
            ))
        except (ValueError, OSError):  # worker died under us
            del self._running[index]
            self._redeliver(job)

    # -- stop -----------------------------------------------------------
    def _stop_workers(self) -> None:
        """Stop the pool, unlink every segment, drop the signal hooks."""
        for w in self._workers:
            if w.alive:
                try:
                    w.req_q.put(("stop",))
                except (ValueError, OSError):
                    pass
        for w in self._workers:
            if not w.alive:
                continue
            w.proc.join(timeout=2.0)
            if w.proc.is_alive():
                w.proc.terminate()
                w.proc.join(timeout=1.0)
            if w.proc.is_alive():  # pragma: no cover - last resort
                w.proc.kill()
                w.proc.join(timeout=1.0)
            self._close_handles(w)
        with self._seg_lock:
            for seg in self._segments.values():
                _shm.unlink_segment(seg.handle)
                _metrics.incr("serve.shm.unlink")
            self._segments.clear()
        if self._sigterm_installed:
            try:
                signal.signal(signal.SIGTERM, self._sigterm_prev)
            except ValueError:  # pragma: no cover - not main thread
                pass
            self._sigterm_installed = False
        atexit.unregister(self._emergency)

    def _emergency(self) -> None:
        """atexit backstop: no worker and no segment may outlive us."""
        for w in getattr(self, "_workers", []):
            try:
                if w.proc.is_alive():
                    w.proc.kill()
            except Exception:
                pass
        for seg in list(getattr(self, "_segments", {}).values()):
            try:
                _shm.unlink_segment(seg.handle)
            except Exception:
                pass

    def _on_sigterm(self, signum, frame) -> None:
        self.close()
        prev = self._sigterm_prev
        if callable(prev):
            prev(signum, frame)

    # -- introspection --------------------------------------------------
    def wait_ready(self, timeout: float = 30.0) -> bool:
        """Block until every live worker has reported ready.

        Chaos harnesses freeze or kill the pool *before* submitting, so a
        job can only complete through the supervisor's recovery path; this
        barrier guarantees the freeze actually catches a serving worker
        (and not one still booting, which would never be dispatched to and
        thus never exercise redelivery).
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            live = [w for w in self._workers if w.alive]
            if live and all(w.ready for w in live):
                return True
            time.sleep(0.005)
        return False

    def worker_pids(self) -> list[int]:
        """PIDs of the live worker processes (chaos targets)."""
        return [
            w.proc.pid for w in self._workers
            if w.alive and w.proc.pid is not None
        ]

    def segment_names(self) -> list[str]:
        with self._seg_lock:
            return [seg.name for seg in self._segments.values()]

    def _worker_rows(self) -> list[dict]:
        now = time.monotonic()
        return [
            {
                "index": w.index,
                "pid": w.pid,
                "alive": bool(w.alive),
                "ready": bool(w.ready),
                "heartbeat_age": (
                    max(0.0, now - w.heartbeat.value) if w.alive else None
                ),
            }
            for w in self._workers
        ]

    def _caches(self) -> list[HierarchyCache]:
        return self._shards

    def _topology(self) -> dict:
        with self._seg_lock:
            shard_map = {
                fp[:12]: self._ring.shard_for(fp) for fp in self._operators
            }
        n = len(self._workers)
        return {"processes": n, "workers": n, "shard_map": shard_map}

    def stats(self) -> dict:
        with self._seg_lock:
            segments = {
                seg.fp[:12]: {
                    "name": seg.name,
                    "shard": seg.shard,
                    "rebuilds": seg.rebuilds,
                }
                for seg in self._segments.values()
            }
        return {**super().stats(), "segments": segments}


# ----------------------------------------------------------------------
# the `repro serve --processes N --bench` workload
# ----------------------------------------------------------------------

def run_serve_mp_bench(
    shape: tuple[int, int, int] = (16, 16, 10),
    steps: int = 12,
    refresh_every: int = 4,
    rhs_block: int = 4,
    processes: int = 4,
    config: "PrecisionConfig | None" = None,
    seed: int = 0,
) -> dict:
    """Multi-RHS weather replay over the process pool.

    Replays ``steps`` timesteps of ``rhs_block``-column batched solves,
    with the weather operator refreshed every ``refresh_every`` steps.
    Three runs share identical right-hand sides: a single-threaded
    :class:`SolverService` reference, and the process pool at ``N=1`` and
    ``N=processes`` (hierarchies pre-published, so the timed region is
    pure serving).  Every process-pool answer must be **bit-identical** to
    the thread reference — crossing a process boundary and a checksummed
    segment may cost time, never ULPs.

    The scaling gate is core-aware: the snapshot requires ``speedup >=
    0.5 * min(processes, cores)``, which reduces to the paper-style "N=4
    at least 2x N=1" on a >= 4-core machine and degrades to a sanity
    check on the 1-core CI runner (process scaling cannot be measured
    without cores).  A no-chaos replay must miss no deadline.  Returns the
    snapshot document, with the three verdicts in its ``gates``:
    ``bit_identical_to_thread``, ``scaling_ok`` and ``latency_ok``.
    """
    from ..observability import Metrics
    from ..observability.snapshot import build_snapshot
    from ..problems import build_problem, consistent_rhs

    config = config or PrecisionConfig()
    rng = np.random.default_rng(seed)

    prob = build_problem("weather", shape, seed=seed)
    options = prob.mg_options
    n_epochs = (steps + refresh_every - 1) // refresh_every
    epoch_ops = [
        build_problem("weather", shape, seed=seed + e).a
        for e in range(n_epochs)
    ]
    schedule = [t // refresh_every for t in range(steps)]
    blocks = [
        np.stack(
            [
                consistent_rhs(epoch_ops[schedule[t]], rng).ravel()
                for _ in range(rhs_block)
            ],
            axis=-1,
        )
        for t in range(steps)
    ]

    # -- thread-service reference (the bit-identity oracle) --------------
    tsvc = SolverService(
        epoch_ops[0], config=config, options=options, workers=1,
        queue_size=steps + 2, solver=prob.solver, rtol=prob.rtol,
        maxiter=500, drift_threshold=0.0,
    )
    for op in epoch_ops:  # pre-warm so the timed region is solves only
        tsvc.cache.get_or_build(op, config, options)
    ref_results = []
    current = 0
    t0 = time.perf_counter()
    for t in range(steps):
        epoch = schedule[t]
        if epoch != current:
            tsvc.update_operator(epoch_ops[epoch])
            current = epoch
        ref_results.append(
            tsvc.submit(blocks[t], batched=True).result(timeout=600.0)
        )
    thread_seconds = time.perf_counter() - t0
    hierarchy = tsvc.sessions[0].hierarchy
    tsvc.close()

    # -- process pool at N=1 and N=processes -----------------------------
    def replay(n_proc: int):
        svc = ProcessSolverService(
            epoch_ops[0], config=config, options=options,
            processes=n_proc, queue_size=steps + 2,
            solver=prob.solver, rtol=prob.rtol, maxiter=500,
        )
        try:
            fps = [svc.publish(op) for op in epoch_ops]
            t0 = time.perf_counter()
            jobs = [
                svc.submit(
                    blocks[t], batched=True, operator=fps[schedule[t]]
                )
                for t in range(steps)
            ]
            results = [job.result(timeout=600.0) for job in jobs]
            seconds = time.perf_counter() - t0
            topo = svc.topology()
            latency = svc.telemetry.snapshot()
        finally:
            svc.close()
        return results, seconds, topo, latency

    ns = sorted({1, int(processes)})
    seconds_by_n: dict[str, float] = {}
    throughput_by_n: dict[str, float] = {}
    bit_identical = True
    topo = None
    latency = None
    for n in ns:
        results, seconds, topo_n, latency_n = replay(n)
        seconds_by_n[str(n)] = seconds
        throughput_by_n[str(n)] = (
            steps * rhs_block / seconds if seconds > 0 else float("inf")
        )
        if n == max(ns):
            topo = topo_n
            latency = latency_n
            last_results = results
        for got, ref in zip(results, ref_results):
            for g, r in zip(got, ref):
                if g.status != r.status or not np.array_equal(g.x, r.x):
                    bit_identical = False

    cores = len(os.sched_getaffinity(0))
    speedup = (
        throughput_by_n[str(max(ns))] / throughput_by_n[str(min(ns))]
        if throughput_by_n[str(min(ns))] > 0
        else float("inf")
    )
    expected = 0.5 * min(max(ns), cores)
    # SLO gate: a no-chaos replay must not miss a single deadline (the
    # replay submits without deadlines, so any miss is a service bug).
    deadline_miss_rate = latency["rates"]["deadline_miss"]

    serve_mp = {
        "replay": {
            "problem": "weather",
            "steps": steps,
            "refresh_every": refresh_every,
            "epochs": n_epochs,
            "rhs_block": rhs_block,
        },
        "processes_tested": ns,
        "seconds": seconds_by_n,
        "throughput_solves_per_s": throughput_by_n,
        "thread_reference_seconds": thread_seconds,
        "speedup": speedup,
        "cores": cores,
        "expected_speedup": expected,
        "deadline_miss_rate": deadline_miss_rate,
    }
    metrics = _metrics.get_metrics() or Metrics()
    return build_snapshot(
        problem="weather-replay-mp",
        config="serve_mp",  # -> BENCH_serve_mp.json
        shape=shape,
        result=last_results[-1][0],
        hierarchy=hierarchy,
        gates={
            "bit_identical_to_thread": bit_identical,
            "scaling_ok": speedup >= expected,
            "latency_ok": deadline_miss_rate == 0.0,
        },
        metrics=metrics,
        extra={"serve_mp": serve_mp, "precision_config": config.name},
        topology=topo,
        latency=latency,
    )
