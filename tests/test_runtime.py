"""Tests for the deadline-aware execution runtime (repro.resilience.runtime).

Covers the context primitives (deadlines, cancel tokens, thread-local
scopes), cooperative interruption of the solvers and of the V-cycle,
checkpoint/resume — CG bit-identically — the retry policy, and the
service-layer integration (job states, per-job deadlines, watchdog,
backoff, worker respawn).  The per-solver contract (interruption at any
iteration, resume from every checkpoint) is checked for every solver in
``tests/test_solver_contract.py``.
"""

import threading
import time

import numpy as np
import pytest

from repro.mg import mg_setup
from repro.precision import K64P32D16_SETUP_SCALE
from repro.problems import build_problem
from repro.resilience import robust_solve
from repro.resilience.runtime import (
    CancelToken,
    Deadline,
    ExecContext,
    RetryPolicy,
    SolveInterrupted,
    SolverCheckpoint,
    check_active,
    load_checkpoint,
    save_checkpoint,
    scope,
)
from repro.solvers import INTERRUPTED_STATUSES, batched_cg, solve


@pytest.fixture(scope="module")
def problem():
    return build_problem("laplace27", shape=(14, 14, 10), seed=0)


@pytest.fixture(scope="module")
def hierarchy(problem):
    return mg_setup(problem.a, K64P32D16_SETUP_SCALE, problem.mg_options)


class FakeClock:
    """Injectable monotonic clock for deterministic deadline tests."""

    def __init__(self, t=0.0):
        self.t = float(t)

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestDeadline:
    def test_remaining_and_expiry_follow_the_clock(self):
        clock = FakeClock()
        d = Deadline.after(5.0, clock=clock)
        assert d.remaining() == pytest.approx(5.0)
        assert not d.expired()
        clock.advance(5.0)
        assert d.expired()
        assert d.remaining() == pytest.approx(0.0)

    def test_default_clock_is_monotonic(self):
        d = Deadline.after(60.0)
        assert not d.expired()
        assert 0 < d.remaining() <= 60.0


class TestCancelToken:
    def test_latches(self):
        token = CancelToken()
        assert not token.cancelled()
        token.cancel()
        assert token.cancelled()
        token.cancel()  # idempotent
        assert token.cancelled()

    def test_wait_returns_immediately_once_cancelled(self):
        token = CancelToken()
        assert token.wait(0.001) is False
        token.cancel()
        t0 = time.monotonic()
        assert token.wait(10.0) is True
        assert time.monotonic() - t0 < 1.0

    def test_cancel_from_another_thread_unblocks_wait(self):
        token = CancelToken()
        threading.Timer(0.01, token.cancel).start()
        assert token.wait(10.0) is True


class TestExecContext:
    def test_no_conditions_never_interrupts(self):
        ctx = ExecContext()
        assert ctx.check() is None
        ctx.raise_if_interrupted()  # no-op

    def test_deadline_status(self):
        clock = FakeClock()
        ctx = ExecContext(deadline=Deadline.after(1.0, clock=clock))
        assert ctx.check() is None
        clock.advance(2.0)
        assert ctx.check() == "deadline"

    def test_cancel_wins_over_deadline(self):
        clock = FakeClock(10.0)
        token = CancelToken()
        token.cancel()
        ctx = ExecContext(
            deadline=Deadline(at=0.0, clock=clock), cancel=token
        )
        assert ctx.check() == "cancelled"

    def test_raise_carries_the_status(self):
        token = CancelToken()
        token.cancel()
        with pytest.raises(SolveInterrupted) as exc:
            ExecContext(cancel=token).raise_if_interrupted()
        assert exc.value.status == "cancelled"


class TestScope:
    def test_check_active_without_scope_is_noop(self):
        check_active()

    def test_scope_installs_and_uninstalls(self):
        token = CancelToken()
        token.cancel()
        ctx = ExecContext(cancel=token)
        with scope(ctx):
            with pytest.raises(SolveInterrupted):
                check_active()
        check_active()  # scope left: ambient context gone

    def test_scopes_nest(self):
        inner_token = CancelToken()
        outer = ExecContext()
        inner = ExecContext(cancel=inner_token)
        with scope(outer):
            with scope(inner):
                inner_token.cancel()
                with pytest.raises(SolveInterrupted):
                    check_active()
            check_active()  # back to the (unexpired) outer scope

    def test_none_scope_installs_nothing(self):
        with scope(None):
            check_active()

    def test_scope_is_thread_local(self):
        token = CancelToken()
        token.cancel()
        seen = []

        def worker():
            try:
                check_active()
                seen.append("clean")
            except SolveInterrupted:  # pragma: no cover - the failure mode
                seen.append("leaked")

        with scope(ExecContext(cancel=token)):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen == ["clean"]


class TestSolverInterruption:
    """Each solver converts interruption into a status, keeping the iterate."""

    def test_vcycle_checks_per_level_visit(self, problem, hierarchy):
        # A deadline that expires *during* the first preconditioner
        # application is caught by the per-level check inside the cycle.
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock=clock)
        fired = []

        def expire_soon(it, rel, x):
            clock.advance(10.0)
            fired.append(it)

        result = solve(
            "cg", problem.a, problem.b,
            preconditioner=hierarchy.precondition,
            rtol=1e-12, maxiter=500,
            runtime=ExecContext(deadline=deadline),
            callback=expire_soon,
        )
        assert result.status == "deadline"
        assert len(fired) == 1  # expired right after the first iteration

    def test_batched_cg_interruption_classifies_active_columns(
        self, problem, hierarchy
    ):
        b = np.stack([problem.b.ravel(), 2.0 * problem.b.ravel()], axis=-1)
        token = CancelToken()
        token.cancel()
        results = batched_cg(
            problem.a, b,
            preconditioner=hierarchy.precondition,
            rtol=1e-10, maxiter=200,
            runtime=ExecContext(cancel=token),
        )
        assert [r.status for r in results] == ["cancelled", "cancelled"]

    def test_interrupted_statuses_registered(self):
        assert INTERRUPTED_STATUSES == {"deadline", "cancelled"}


class TestCheckpointResume:
    def _solve(self, problem, hierarchy, **kwargs):
        return solve(
            "cg", problem.a, problem.b,
            preconditioner=hierarchy.precondition,
            rtol=1e-11, maxiter=200, **kwargs,
        )

    def test_cg_resume_bit_identical_through_disk(
        self, problem, hierarchy, tmp_path
    ):
        sink = []
        full = self._solve(
            problem, hierarchy, checkpoint_every=4,
            checkpoint_sink=sink.append,
        )
        path = save_checkpoint(tmp_path / "cg.npz", sink[-1])
        cp = load_checkpoint(path)
        assert cp.iteration == sink[-1].iteration
        resumed = self._solve(problem, hierarchy, resume_from=cp)
        np.testing.assert_array_equal(resumed.x, full.x)
        assert resumed.iterations == full.iterations

    def test_gmres_resume_at_restart_boundary(self, problem, hierarchy):
        sink = []
        full = solve(
            "gmres", problem.a, problem.b,
            preconditioner=hierarchy.precondition,
            rtol=1e-11, maxiter=60, restart=5,
            checkpoint_every=1, checkpoint_sink=sink.append,
        )
        assert full.status == "converged"
        if not sink:
            pytest.skip("converged within the first restart cycle")
        cp = sink[0]
        resumed = solve(
            "gmres", problem.a, problem.b,
            preconditioner=hierarchy.precondition,
            rtol=1e-11, maxiter=60, restart=5, resume_from=cp,
        )
        assert resumed.status == "converged"
        np.testing.assert_array_equal(resumed.x, full.x)

    def test_interrupted_solve_carries_resumable_checkpoint(
        self, problem, hierarchy
    ):
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock=clock)
        ticks = [0]

        def expire_at_5(it, rel, x):
            ticks[0] += 1
            if ticks[0] == 5:
                clock.advance(10.0)

        interrupted = solve(
            "cg", problem.a, problem.b,
            preconditioner=hierarchy.precondition,
            rtol=1e-11, maxiter=200,
            runtime=ExecContext(deadline=deadline),
            checkpoint_every=2, callback=expire_at_5,
        )
        assert interrupted.status == "deadline"
        cp = interrupted.detail["checkpoint"]
        assert cp is not None
        finished = solve(
            "cg", problem.a, problem.b,
            preconditioner=hierarchy.precondition,
            rtol=1e-11, maxiter=200, resume_from=cp,
        )
        assert finished.status == "converged"
        reference = solve(
            "cg", problem.a, problem.b,
            preconditioner=hierarchy.precondition,
            rtol=1e-11, maxiter=200,
        )
        np.testing.assert_array_equal(finished.x, reference.x)

    def test_checkpoint_file_roundtrip_preserves_extra(self, tmp_path):
        cp = SolverCheckpoint(
            solver="batched_cg",
            iteration=4,
            arrays={"x": np.arange(6.0), "r": np.ones(6)},
            scalars={"rz": 0.5},
            history=[1.0, 0.25],
            n_prec=4,
            extra={"statuses": ["active", "converged"], "active": [True, False]},
        )
        path = save_checkpoint(tmp_path / "b.npz", cp)
        back = load_checkpoint(path)
        assert back.solver == "batched_cg"
        assert back.extra["statuses"] == ["active", "converged"]
        assert back.scalars["rz"] == 0.5
        np.testing.assert_array_equal(back.arrays["x"], cp.arrays["x"])
        assert back.nbytes() == cp.nbytes()

    def test_corrupt_checkpoint_raises_value_error(self, tmp_path):
        from repro.resilience import FaultInjector

        cp = SolverCheckpoint(
            solver="cg", iteration=1,
            arrays={"x": np.zeros(128), "r": np.zeros(128), "p": np.zeros(128)},
        )
        path = save_checkpoint(tmp_path / "c.npz", cp)
        assert FaultInjector(seed=1).corrupt_spill(path, nbytes=96) == 96
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_missing_checkpoint_raises_value_error(self, tmp_path):
        with pytest.raises(ValueError):
            load_checkpoint(tmp_path / "nope.npz")

    def test_atomic_write_crash_leaves_previous_checkpoint(
        self, tmp_path, monkeypatch
    ):
        import repro.sgdia.io as io_mod

        cp1 = SolverCheckpoint(
            solver="cg", iteration=1, arrays={"x": np.ones(16)}
        )
        cp2 = SolverCheckpoint(
            solver="cg", iteration=2, arrays={"x": np.full(16, 2.0)}
        )
        path = save_checkpoint(tmp_path / "a.npz", cp1)

        def crash(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(io_mod.os, "replace", crash)
        with pytest.raises(OSError):
            save_checkpoint(path, cp2)
        monkeypatch.undo()
        # the previous checkpoint survives intact; no temp files linger
        back = load_checkpoint(path)
        assert back.iteration == 1
        np.testing.assert_array_equal(back.arrays["x"], np.ones(16))
        assert list(tmp_path.glob(".*tmp*")) == []


class TestRetryPolicy:
    def test_exponential_growth_and_cap(self):
        p = RetryPolicy(base_delay=0.1, factor=2.0, max_delay=0.5, jitter=0.0)
        assert p.delay(0) == pytest.approx(0.1)
        assert p.delay(1) == pytest.approx(0.2)
        assert p.delay(2) == pytest.approx(0.4)
        assert p.delay(3) == pytest.approx(0.5)  # capped
        assert p.delay(10) == pytest.approx(0.5)

    def test_jitter_is_bounded_and_deterministic(self):
        p = RetryPolicy(base_delay=0.1, factor=2.0, jitter=0.25, seed=7)
        d1 = p.delay(1, key=42)
        d2 = p.delay(1, key=42)
        assert d1 == d2  # seeded: replayable
        assert 0.2 * 0.75 <= d1 <= 0.2 * 1.25
        assert p.delay(1, key=43) != d1  # distinct jobs de-synchronize

    def test_zero_jitter_is_exact(self):
        p = RetryPolicy(jitter=0.0, base_delay=0.05)
        assert p.delay(0, key=999) == 0.05


class TestRobustSolveRuntime:
    def test_interrupted_status_stops_the_ladder(self, problem):
        token = CancelToken()
        token.cancel()
        result, report = robust_solve(
            problem.a, problem.b,
            config=K64P32D16_SETUP_SCALE,
            options=problem.mg_options,
            rtol=1e-10, maxiter=100,
            runtime=ExecContext(cancel=token),
        )
        assert result.status == "cancelled"
        # no escalation happened: time cannot be bought back
        assert len(report.attempts) == 1
        assert report.n_escalations == 0

    def test_resume_from_feeds_only_the_first_attempt(self, problem, hierarchy):
        sink = []
        solve(
            "cg", problem.a, problem.b,
            preconditioner=hierarchy.precondition,
            rtol=1e-11, maxiter=200,
            checkpoint_every=3, checkpoint_sink=sink.append,
        )
        result, report = robust_solve(
            problem.a, problem.b,
            config=K64P32D16_SETUP_SCALE,
            options=problem.mg_options,
            rtol=1e-11, maxiter=200,
            resume_from=sink[0],
        )
        assert result.status == "converged"
        # resumed run converges in fewer iterations than a cold start
        assert result.iterations < 200
