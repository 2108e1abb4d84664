"""The mixed-precision Krylov zoo: FGMRES, GMRES-IR, and the GMRES/CG
policy-feedback fixes.

Four regression families (each observable was wrong before the fix):

- the GMRES policy callback receives the *current iterate* and a truthy
  return ends the Arnoldi cycle at that iteration, not at the scheduled
  restart boundary;
- CG classifies an indefinite operator (``p^T A p < 0``) as
  ``"breakdown"`` with ``detail["reason"] == "indefinite"`` — a failure
  status the escalation ladder acts on;
- a GMRES resume whose restored residual already satisfies (a possibly
  looser) ``rtol`` converges immediately instead of running another
  Arnoldi cycle;
- GMRES history records the *recomputed true residual* at every restart
  boundary, bit-equal to ``||b - A x||/||b||`` of the checkpoint state.

Plus what is particular to the two new solvers (dispatch, changing and
nested preconditioners, a resume that rechecks its tolerance, a deadline
reaching the nested inner solve, three-precision detail; the driver's
warm-start, resume and deadline/cancel contract is
``tests/test_solver_contract.py``'s, for every solver) and the policy
stall-recovery acceptance scenario on a nonsymmetric problem through the
flexible restart path.
"""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from repro.solvers import (
    FAILURE_STATUSES,
    batched_cg,
    cg,
    fgmres,
    gmres,
    gmres_ir,
    solve,
)


def _spd_system(n=80, seed=0):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) * 0.2
    a = sp.csr_matrix(m @ m.T + np.eye(n) * 3.0)
    b = rng.standard_normal(n)
    return a, b


def _nonsym_system(n=80, seed=0):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) * 0.1
    a = sp.csr_matrix(m + np.eye(n) * 3.0)
    b = rng.standard_normal(n)
    return a, b


def _jacobi(a):
    dinv = 1.0 / a.diagonal()
    return lambda r: dinv * r


# ----------------------------------------------------------------------
# regression: the GMRES policy-feedback holes
# ----------------------------------------------------------------------

class TestGmresCallbackFix:
    def test_callback_receives_current_iterate(self):
        a, b = _nonsym_system()
        bn = np.linalg.norm(b)
        seen = []

        def cb(it, rel, x):
            seen.append((rel, x))

        gmres(a, b, rtol=1e-10, maxiter=200, restart=10, callback=cb)
        assert seen, "callback never invoked"
        for rel, x in seen:
            assert x is not None, "callback must receive the iterate"
            true_rel = np.linalg.norm(b - a @ x) / bn
            # implicit estimate and true residual agree to rounding here
            assert true_rel == pytest.approx(rel, rel=1e-3, abs=1e-12)

    def test_truthy_return_restarts_cycle(self):
        a, b = _nonsym_system()
        sink = []
        res = gmres(
            a, b, rtol=1e-10, maxiter=200, restart=10,
            callback=lambda it, rel, x: it == 2,
            checkpoint_every=1, checkpoint_sink=sink.append,
        )
        assert res.converged
        assert sink, "no checkpoints emitted"
        # The restart request at iteration 2 must end the first cycle
        # there: before the fix the return value was ignored and the
        # first boundary checkpoint landed at the scheduled restart=10.
        assert sink[0].iteration == 2

    def test_restart_request_preserves_correctness(self):
        a, b = _nonsym_system()
        plain = gmres(a, b, rtol=1e-10, maxiter=300, restart=8)
        chopped = gmres(
            a, b, rtol=1e-10, maxiter=300, restart=8,
            callback=lambda it, rel, x: it % 3 == 0,
        )
        assert chopped.converged
        np.testing.assert_allclose(chopped.x, plain.x, rtol=1e-6)


class TestCgIndefiniteBreakdown:
    def test_negative_curvature_is_breakdown(self):
        a = sp.diags([-1.0] + [1.0] * 19).tocsr()
        b = np.zeros(20)
        b[0] = 1.0  # first search direction has p^T A p = -1
        res = cg(a, b, rtol=1e-10, maxiter=50)
        assert res.status == "breakdown"
        assert res.detail["reason"] == "indefinite"

    def test_block_mode_matches_sequential(self):
        # block mode shares cg's curvature check: before, every column of
        # batched_cg reported "converged" on this indefinite operator
        d = np.ones(50)
        d[::7] = -1.0
        a = sp.diags(d).tocsr()
        b = np.random.default_rng(0).standard_normal(50)
        ref = cg(a, b, rtol=1e-10, maxiter=200)
        assert (ref.status, ref.iterations) == ("breakdown", 2)
        assert ref.detail["reason"] == "indefinite"
        block = batched_cg(a, np.stack([b, 2.0 * b], axis=-1), rtol=1e-10,
                           maxiter=200)
        for res in block:
            assert res.status == ref.status
            assert res.iterations == ref.iterations
            assert res.detail["reason"] == "indefinite"

    def test_breakdown_is_escalatable(self):
        # the guard ladder escalates exactly the failure statuses
        assert "breakdown" in FAILURE_STATUSES

    def test_nonfinite_curvature_still_diverged(self):
        a, b = _spd_system()
        res = cg(a, b, preconditioner=lambda r: r * np.nan, rtol=1e-10)
        assert res.status == "diverged"
        assert "reason" not in res.detail


class TestGmresResumeFixes:
    def test_resume_rechecks_tolerance(self):
        a, b = _nonsym_system()
        sink = []
        gmres(
            a, b, rtol=1e-12, maxiter=300, restart=5,
            checkpoint_every=1, checkpoint_sink=sink.append,
        )
        bn = np.linalg.norm(b)
        good = [
            cp for cp in sink
            if np.linalg.norm(cp.arrays["r"]) / bn < 1e-6
        ]
        assert good, "no checkpoint below the loose tolerance"
        cp = good[0]
        res = gmres(
            a, b, rtol=1e-6, maxiter=300, restart=5, resume_from=cp
        )
        # Before the fix the restored state ran one more Arnoldi cycle.
        assert res.converged
        assert res.iterations == cp.iteration
        assert res.precond_applications == cp.n_prec

    def test_boundary_history_is_true_residual(self):
        a, b = _nonsym_system()
        bn = float(np.linalg.norm(b))
        sink = []
        gmres(
            a, b, rtol=1e-11, maxiter=300, restart=4,
            checkpoint_every=1, checkpoint_sink=sink.append,
        )
        assert len(sink) >= 2
        for cp in sink:
            x, r = cp.arrays["x"], cp.arrays["r"]
            np.testing.assert_array_equal(r, b - a @ x)
            # bit-equal: the boundary entry IS the recomputed residual
            assert cp.history[-1] == float(np.linalg.norm(r)) / bn


# ----------------------------------------------------------------------
# FGMRES contract
# ----------------------------------------------------------------------

class TestFgmres:
    def test_dispatch(self):
        a, b = _nonsym_system()
        res = solve("fgmres", a, b, rtol=1e-10, maxiter=300)
        assert res.solver == "fgmres" and res.converged

    def test_matches_reference(self):
        a, b = _nonsym_system()
        res = fgmres(a, b, preconditioner=_jacobi(a), rtol=1e-10, maxiter=300)
        assert res.converged
        ref = sp.linalg.spsolve(a.tocsc(), b)
        np.testing.assert_allclose(res.x, ref, rtol=1e-6)

    def test_tolerates_changing_preconditioner(self):
        # the flexible property: M may differ at every single step
        a, b = _nonsym_system()
        dinv = 1.0 / a.diagonal()
        calls = [0]

        def wobbly(r):
            calls[0] += 1
            return dinv * r * (1.0 + 0.5 * (calls[0] % 3))

        res = fgmres(a, b, preconditioner=wobbly, rtol=1e-10, maxiter=300)
        assert res.converged
        bn = np.linalg.norm(b)
        assert np.linalg.norm(b - a @ res.x) / bn < 1e-9

    def test_nested_inner_counts_applications(self):
        a, b = _nonsym_system()
        res = fgmres(
            a, b, preconditioner=_jacobi(a), rtol=1e-9, maxiter=300,
            inner="gmres", inner_maxiter=3, inner_rtol=1e-2,
        )
        assert res.converged
        assert res.detail["inner"]["solver"] == "gmres"
        assert res.detail["inner"]["iterations"] >= res.iterations
        assert res.precond_applications >= res.iterations

    def test_unknown_inner_rejected(self):
        a, b = _nonsym_system()
        with pytest.raises(ValueError, match="unknown inner solver"):
            fgmres(a, b, inner="bicgstab")

    def test_inner_dtype_names(self):
        a, b = _nonsym_system()
        res = fgmres(
            a, b, preconditioner=_jacobi(a), rtol=1e-8, maxiter=300,
            inner="gmres", inner_dtype="fp32",
        )
        assert res.converged
        assert res.detail["inner"]["dtype"] == "float32"

    def test_resume_rechecks_tolerance(self):
        a, b = _nonsym_system()
        sink = []
        fgmres(
            a, b, preconditioner=_jacobi(a), rtol=1e-11, maxiter=300,
            restart=5, checkpoint_every=1, checkpoint_sink=sink.append,
        )
        bn = np.linalg.norm(b)
        good = [cp for cp in sink
                if np.linalg.norm(cp.arrays["r"]) / bn < 1e-6]
        assert good
        res = fgmres(a, b, rtol=1e-6, maxiter=300, resume_from=good[0])
        assert res.converged and res.iterations == good[0].iteration

    def test_deadline_cuts_nested_inner(self):
        from repro.resilience.runtime import Deadline, ExecContext

        a, b = _nonsym_system()
        expired = ExecContext(deadline=Deadline(at=5.0, clock=lambda: 10.0))
        res = fgmres(
            a, b, preconditioner=_jacobi(a), rtol=1e-12, maxiter=300,
            inner="gmres", runtime=expired,
        )
        assert res.status == "deadline"


# ----------------------------------------------------------------------
# GMRES-IR contract
# ----------------------------------------------------------------------

class TestGmresIr:
    def test_dispatch_including_alias(self):
        a, b = _nonsym_system()
        for name in ("gmres_ir", "gmres-ir"):
            res = solve(name, a, b, rtol=1e-9, maxiter=400)
            assert res.solver == "gmres_ir" and res.converged

    def test_reaches_working_tolerance(self):
        a, b = _nonsym_system()
        res = gmres_ir(
            a, b, preconditioner=_jacobi(a), rtol=1e-12, maxiter=500,
            inner_dtype=np.float32, inner_rtol=1e-4,
        )
        assert res.converged
        bn = np.linalg.norm(b)
        # judged on the FP64 true residual, not an implicit estimate
        assert np.linalg.norm(b - a @ res.x) / bn < 1e-11

    def test_three_precision_detail(self):
        a, b = _nonsym_system()
        res = gmres_ir(a, b, rtol=1e-9, maxiter=400, inner_dtype="fp32")
        assert res.converged
        prec = res.detail["precisions"]
        assert prec == {
            "working": "float64",
            "residual": "float64",
            "inner": "float32",
        }
        assert res.detail["refinement_steps"] >= 1
        assert res.detail["refinement_steps"] == len(res.history.norms) - 1


# ----------------------------------------------------------------------
# acceptance: policy stall recovery through the flexible restart path
# ----------------------------------------------------------------------

class TestPolicyStallRecovery:
    @pytest.fixture(scope="class")
    def damaged(self):
        from repro.mg import mg_setup
        from repro.precision import parse_config
        from repro.problems import build_problem
        from repro.resilience.faults import FaultInjector

        cfg = parse_config("K64P32D16-setup-scale").with_(policy="adaptive")
        prob = build_problem("weather", (10, 10, 8), seed=0)
        options = dataclasses.replace(prob.mg_options, keep_high=True)

        def build():
            hierarchy = mg_setup(prob.a, cfg, options)
            FaultInjector(seed=0).inject_perturbation(
                hierarchy, level=0, count=4000, factor=-1.0
            )
            return hierarchy

        return prob, build

    def test_static_policy_stalls(self, damaged):
        prob, build = damaged
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = solve(
                "fgmres", prob.a, prob.b,
                preconditioner=build().precondition,
                rtol=prob.rtol, maxiter=300,
            )
        assert res.status == "maxiter"

    def test_adaptive_policy_recovers(self, damaged):
        from repro.policy import attach_policy

        prob, build = damaged
        hierarchy = build()
        controller = attach_policy(hierarchy)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = solve(
                "fgmres", prob.a, prob.b,
                preconditioner=hierarchy.precondition,
                rtol=prob.rtol, maxiter=300,
                policy_controller=controller,
            )
        assert res.converged
        assert controller.escalations >= 1
        assert res.iterations < 300


# ----------------------------------------------------------------------
# the krylov bench snapshot
# ----------------------------------------------------------------------

class TestKrylovBench:
    @pytest.fixture(scope="class")
    def bench(self):
        from repro.perf.krylov_bench import run_krylov_bench

        return run_krylov_bench(
            shape=(10, 10, 8), problems=("laplace27", "weather")
        )

    def test_snapshot_is_schema_valid(self, bench):
        from repro.observability.snapshot import validate_snapshot

        assert validate_snapshot(bench) == []

    def test_structure_and_counters(self, bench):
        krylov = bench["krylov"]
        assert [e["problem"] for e in krylov["problems"]] == [
            "laplace27", "weather",
        ]
        for entry in krylov["problems"]:
            for run in entry["runs"].values():
                assert run["precond_applications"] >= 0
                assert run["fcvt_values"] >= 0
                assert run["modeled_seconds"] >= 0.0
        assert set(bench["gates"]) == {
            "gmres_ir_tolerance", "fgmres_apps_not_worse",
        }

    def test_gates_pass(self, bench):
        assert all(bench["gates"].values()), f"gates failed: {bench['gates']}"
