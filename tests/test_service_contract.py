"""The serving contract of :class:`~repro.serve.service.SolverService`.

Answers, batching, admission, graceful close, deadlines, cancellation,
non-consuming futures, retry, and the final status document on context
exit.  Nothing is monkeypatched: every behaviour runs through the real
worker threads and control loop.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.observability import events as obs_events
from repro.observability.telemetry import read_status
from repro.precision import K64P32D16_SETUP_SCALE
from repro.problems import build_problem, consistent_rhs
from repro.resilience.runtime import Deadline, RetryPolicy
from repro.serve import (
    ServiceClosed,
    ServiceSaturated,
    SolverService,
    SolverSession,
)

SESSION = dict(maxiter=300, escalate=False)


@pytest.fixture(scope="module")
def lap():
    return build_problem("laplace27", shape=(10, 10, 8), seed=0)


@pytest.fixture(params=["thread"])
def make(lap):
    """Build a thread service over ``lap`` (the ``thread`` id keeps the
    test names of the suite)."""

    def factory(workers=1, **kw):
        kw = {**SESSION, "solver": lap.solver, "rtol": lap.rtol, **kw}
        return SolverService(
            lap.a, workers=workers, config=K64P32D16_SETUP_SCALE,
            options=lap.mg_options, tick=0.005, **kw,
        )

    return factory


def _slow_sink(checkpoint) -> None:
    time.sleep(0.05)


def submit_slow(svc, lap, **kw):
    """A job that holds its worker for seconds until it is cancelled.

    ``rtol=0`` never converges, and a checkpoint sink that sleeps paces
    every iteration; the tests cancel it once it has served its purpose.
    """
    return svc.submit(
        lap.b, warm_start=False, rtol=0.0, maxiter=10_000,
        checkpoint_every=1, checkpoint_sink=_slow_sink, **kw,
    )


def wait_running(job, timeout=30.0):
    deadline = time.monotonic() + timeout
    while job.state == "pending" and time.monotonic() < deadline:
        time.sleep(0.005)
    assert job.state == "running"


def expired():
    return Deadline(at=-1.0, clock=time.monotonic)


def test_jobs_complete_bit_identical_to_in_process_session(make, lap):
    rng = np.random.default_rng(0)
    rhs = [consistent_rhs(lap.a, rng) for _ in range(4)]
    with make(workers=2) as svc:
        jobs = [svc.submit(b, warm_start=False) for b in rhs]
        results = [j.result(timeout=120.0) for j in jobs]
    reference = SolverSession(
        lap.a, config=K64P32D16_SETUP_SCALE, options=lap.mg_options,
        solver=lap.solver, rtol=lap.rtol, **SESSION,
    )
    for b, r, job in zip(rhs, results, jobs):
        ref = reference.solve(b, warm_start=False)
        assert r.status == ref.status == "converged"
        assert np.array_equal(r.x, ref.x)
        assert job.state == "done" and job.attempts == 1
    assert svc.stats()["completed"] == 4


def test_batched_job(make, lap):
    rng = np.random.default_rng(1)
    block = np.stack(
        [consistent_rhs(lap.a, rng).ravel() for _ in range(3)], axis=-1
    )
    with make() as svc:
        out = svc.submit(block, batched=True).result(timeout=120.0)
    assert len(out) == 3
    assert all(r.status == "converged" for r in out)


def test_saturation_raises_distinct_from_closed(make, lap):
    svc = make(queue_size=1)
    try:
        blocker = submit_slow(svc, lap)
        with pytest.raises(ServiceSaturated):
            for _ in range(20):
                svc.submit(lap.b, block=False)
        assert svc.n_rejected == 1
        assert svc.stats()["rejected"] == 1
        svc.cancel(blocker)
    finally:
        svc.close()
    with pytest.raises(ServiceClosed):
        svc.submit(lap.b, block=False)
    assert not issubclass(ServiceClosed, ServiceSaturated)


def test_close_drains_rejects_and_is_idempotent(make, lap):
    rng = np.random.default_rng(4)
    svc = make(queue_size=8)
    jobs = [svc.submit(consistent_rhs(lap.a, rng)) for _ in range(4)]
    svc.close()
    # every job accepted before close holds a terminal result
    for job in jobs:
        assert job.result(timeout=1.0).status == "converged"
        assert job.state == "done"
    with pytest.raises(ServiceClosed):
        svc.submit(lap.b)
    svc.close()  # idempotent
    assert not svc._control.is_alive()
    assert svc.stats()["completed"] == 4


@pytest.mark.parametrize("batched", [False, True], ids=["single", "batched"])
def test_queued_deadline_expires(make, lap, batched):
    b = np.stack([lap.b.ravel()] * 2, axis=-1) if batched else lap.b
    with make() as svc:
        blocker = submit_slow(svc, lap)
        doomed = svc.submit(b, batched=batched, deadline=expired())
        late = doomed.result(timeout=30.0)
        assert doomed.state == "deadline"
        columns = late if batched else [late]
        assert [r.status for r in columns] == ["deadline"] * len(columns)
        assert all(r.detail["expired_before_run"] for r in columns)
        assert all(np.isfinite(r.x).all() for r in columns)
        svc.cancel(blocker)
        assert svc.stats()["deadline"] == 1


def test_cancel_queued_job(make, lap):
    with make() as svc:
        blocker = submit_slow(svc, lap)
        queued = svc.submit(lap.b)
        svc.cancel(queued)
        result = queued.result(timeout=30.0)
        assert queued.state == "cancelled"
        assert result.status == "cancelled"
        assert result.detail["expired_before_run"]
        svc.cancel(blocker)


def test_cancel_in_flight_job_returns_partial_iterate(make, lap):
    with make() as svc:
        job = submit_slow(svc, lap)
        wait_running(job)
        time.sleep(0.1)  # let it iterate
        svc.cancel(job)
        result = job.result(timeout=30.0)
        assert job.state == "cancelled"
        assert result.status == "cancelled"
        assert result.iterations >= 1
        assert np.isfinite(result.x).all()
        # the worker is free again
        assert svc.solve(lap.b).status == "converged"


def test_result_timeout_does_not_consume_the_future(make, lap):
    with make() as svc:
        blocker = submit_slow(svc, lap)
        job = svc.submit(lap.b)
        with pytest.raises(TimeoutError):
            job.result(timeout=1e-6)
        svc.cancel(blocker)
        assert job.result(timeout=60.0).status == "converged"
        assert job.result(timeout=0.0).status == "converged"


def test_retry_backoff_never_occupies_a_worker(make, lap):
    """A failure-classified result is retried after its backoff, and the
    backoff waits on the scheduler's heap — the one worker serves the
    next job meanwhile."""
    policy = RetryPolicy(max_retries=1, base_delay=3.0, jitter=0.0)
    with make(retry_policy=policy) as svc:
        assert svc.solve(lap.b).status == "converged"  # warm the worker
        failing = svc.submit(lap.b, warm_start=False, rtol=1e-30, maxiter=1)
        t0 = time.monotonic()
        healthy = svc.submit(lap.b)
        assert healthy.result(timeout=30.0).status == "converged"
        assert time.monotonic() - t0 < 1.0
        result = failing.result(timeout=30.0)
    assert failing.state == "done"
    assert result.status == "maxiter"
    assert failing.attempts == 2
    assert svc.stats()["retried"] == 1


def test_concurrent_submitters_books_balance(make, lap):
    """More workers than cores, eight submitter threads and a tiny switch
    interval: every submission is accepted or rejected exactly once and
    every accepted job completes — a lost counter update breaks this."""
    n_threads, per_thread = 8, 6
    accepted, rejected = [], []
    lock = threading.Lock()

    def submitter():
        for _ in range(per_thread):
            try:
                job = svc.submit(lap.b, block=False)
                with lock:
                    accepted.append(job)
            except ServiceSaturated:
                with lock:
                    rejected.append(1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with make(workers=4, queue_size=3) as svc:
            threads = [
                threading.Thread(target=submitter) for _ in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
                assert not t.is_alive()
            svc.drain()
    finally:
        sys.setswitchinterval(interval)
    stats = svc.stats()
    assert len(accepted) + len(rejected) == n_threads * per_thread
    assert stats["submitted"] == stats["completed"] == len(accepted)
    assert stats["rejected"] == len(rejected)
    assert all(j.result(timeout=0.0).status == "converged" for j in accepted)


def test_context_exit_writes_final_status_and_stop_event(make, lap, tmp_path):
    path = str(tmp_path / "status.json")
    rng = np.random.default_rng(6)
    with obs_events.capturing() as journal:
        with make(status_path=path) as svc:
            for _ in range(6):
                svc.submit(consistent_rhs(lap.a, rng))
    doc = read_status(path)
    assert doc["counts"]["submitted"] == 6
    assert doc["counts"]["completed"] == 6
    assert doc["queue_depth"] == 0
    assert "service.stop" in {e.kind for e in journal.events()}
