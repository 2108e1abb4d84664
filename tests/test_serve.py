"""Tests for the solver service layer (repro.serve)."""

import threading

import numpy as np
import pytest

from repro.mg import MGOptions, mg_setup
from repro.precision import (
    FULL64,
    K64P32D16_SETUP_SCALE,
    K64P32D32,
    PrecisionConfig,
)
from repro.problems import build_problem, consistent_rhs
from repro.serve import (
    HierarchyCache,
    OperatorSignature,
    ServiceSaturated,
    SolverService,
    SolverSession,
    cache_key,
    matrix_fingerprint,
    operator_drift,
)
from repro.solvers import batched_cg, solve

from tests.helpers import random_sgdia


@pytest.fixture
def lap():
    return build_problem("laplace27", shape=(10, 10, 8), seed=0)


@pytest.fixture
def weather():
    return build_problem("weather", shape=(12, 12, 8), seed=0)


# ----------------------------------------------------------------------
# fingerprints and drift
# ----------------------------------------------------------------------

class TestFingerprint:
    def test_deterministic(self, lap):
        assert matrix_fingerprint(lap.a) == matrix_fingerprint(lap.a)

    def test_rebuild_same_content_same_fingerprint(self):
        a1 = build_problem("laplace27", shape=(8, 8, 8), seed=3).a
        a2 = build_problem("laplace27", shape=(8, 8, 8), seed=3).a
        assert a1 is not a2
        assert matrix_fingerprint(a1) == matrix_fingerprint(a2)

    def test_value_change_changes_fingerprint(self, lap):
        b = lap.a.copy() if hasattr(lap.a, "copy") else None
        data = np.array(lap.a.data, copy=True)
        data.ravel()[0] += 1e-9
        modified = type(lap.a)(lap.a.grid, lap.a.stencil, data, layout=lap.a.layout)
        assert matrix_fingerprint(modified) != matrix_fingerprint(lap.a)

    def test_cache_key_includes_config_and_options(self, lap):
        k1 = cache_key(lap.a, K64P32D16_SETUP_SCALE, MGOptions())
        k2 = cache_key(lap.a, FULL64, MGOptions())
        k3 = cache_key(lap.a, K64P32D16_SETUP_SCALE, MGOptions(nu1=5))
        assert len({k1, k2, k3}) == 3

    def test_drift_zero_for_identical(self, lap):
        assert operator_drift(lap.a, lap.a) == 0.0

    def test_drift_small_for_small_perturbation(self, lap):
        data = np.array(lap.a.data, copy=True)
        data *= 1 + 1e-6
        b = type(lap.a)(lap.a.grid, lap.a.stencil, data, layout=lap.a.layout)
        d = operator_drift(lap.a, b)
        assert 0 < d < 1e-4

    def test_drift_infinite_for_structural_change(self):
        a = random_sgdia((6, 6, 6), "3d7", spd=True, seed=0)
        b = random_sgdia((6, 6, 8), "3d7", spd=True, seed=0)
        assert operator_drift(a, b) == np.inf

    def test_signature_of_roundtrip(self, lap):
        sig = OperatorSignature.of(lap.a)
        assert sig.drift(OperatorSignature.of(lap.a)) == 0.0


# ----------------------------------------------------------------------
# hierarchy cache
# ----------------------------------------------------------------------

class TestHierarchyCache:
    def test_hit_miss_counters(self, lap):
        cache = HierarchyCache()
        h1, key, src1 = cache.get_or_build(lap.a, FULL64, lap.mg_options)
        h2, _, src2 = cache.get_or_build(lap.a, FULL64, lap.mg_options)
        assert (src1, src2) == ("build", "memory")
        assert h1 is h2
        assert cache.stats.misses == 1 and cache.stats.hits == 1

    def test_distinct_configs_get_distinct_entries(self, lap):
        cache = HierarchyCache()
        cache.get_or_build(lap.a, FULL64, lap.mg_options)
        cache.get_or_build(lap.a, K64P32D32, lap.mg_options)
        assert len(cache) == 2
        assert cache.stats.misses == 2

    def test_lru_eviction_under_byte_budget(self):
        # laplace27's operator is seed-independent; vary the shape to get
        # three genuinely distinct operators.
        ops = [
            build_problem("laplace27", shape=(8, 8, 6 + 2 * s)).a
            for s in range(3)
        ]
        from repro.serve.cache import hierarchy_nbytes

        cache = HierarchyCache()
        nbytes = []
        for a in ops:
            h, _, _ = cache.get_or_build(a, FULL64)
            nbytes.append(hierarchy_nbytes(h))
        # budget too small for all three: the first (LRU) entry must go
        cache2 = HierarchyCache(max_bytes=nbytes[1] + nbytes[2] + 1)
        keys = []
        for a in ops:
            _, key, _ = cache2.get_or_build(a, FULL64)
            keys.append(key)
        assert cache2.stats.evictions >= 1
        assert keys[0] not in cache2
        assert keys[-1] in cache2

    def test_spill_and_restore_bit_exact(self, tmp_path, lap):
        cache = HierarchyCache(max_bytes=1, spill_dir=tmp_path)
        h1, key, _ = cache.get_or_build(
            lap.a, K64P32D16_SETUP_SCALE, lap.mg_options
        )
        # force the entry out: a second (different-shape) operator evicts it
        other = build_problem("laplace27", shape=(8, 8, 6), seed=9)
        cache.get_or_build(other.a, K64P32D16_SETUP_SCALE, other.mg_options)
        assert cache.stats.spill_writes >= 1
        h2, _, src = cache.get_or_build(
            lap.a, K64P32D16_SETUP_SCALE, lap.mg_options
        )
        assert src == "disk"
        assert cache.stats.spill_loads >= 1
        r = consistent_rhs(lap.a, np.random.default_rng(0))
        np.testing.assert_array_equal(h1.precondition(r), h2.precondition(r))

    def test_corrupt_spill_file_rebuilds(self, tmp_path, lap):
        cache = HierarchyCache(max_bytes=1, spill_dir=tmp_path)
        _, key, _ = cache.get_or_build(lap.a, FULL64, lap.mg_options)
        other = build_problem("laplace27", shape=(8, 8, 6), seed=9)
        cache.get_or_build(other.a, FULL64, other.mg_options)
        spills = list(tmp_path.glob("*.npz"))
        assert spills
        for p in spills:
            p.write_bytes(b"garbage")
        _, _, src = cache.get_or_build(lap.a, FULL64, lap.mg_options)
        assert src == "build"

    def test_invalidate_stale(self, lap):
        cache = HierarchyCache()
        _, key, _ = cache.get_or_build(lap.a, FULL64, lap.mg_options)
        assert cache.invalidate(key, stale=True)
        assert cache.stats.stale == 1
        assert key not in cache
        assert not cache.invalidate(key)

    def test_concurrent_builds_deduplicated(self, lap):
        cache = HierarchyCache()
        results = []

        def worker():
            h, _, _ = cache.get_or_build(
                lap.a, K64P32D16_SETUP_SCALE, lap.mg_options
            )
            results.append(h)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.stats.misses == 1
        assert all(h is results[0] for h in results)


# ----------------------------------------------------------------------
# sessions: warm start, drift, escalation
# ----------------------------------------------------------------------

class TestSolverSession:
    def test_warm_start_strictly_fewer_iterations(self, weather):
        """Satellite acceptance: on the weather problem, a warm-started
        repeat solve takes strictly fewer iterations than the cold one."""
        session = SolverSession(
            weather.a, config=K64P32D16_SETUP_SCALE,
            options=weather.mg_options, solver=weather.solver,
            rtol=weather.rtol,
        )
        cold = session.solve(weather.b, warm_start=False)
        warm = session.solve(weather.b)
        assert cold.status == "converged" and warm.status == "converged"
        assert warm.iterations < cold.iterations
        assert session.n_warm_starts == 1

    def test_explicit_x0_overrides_warm_start(self, lap):
        session = SolverSession(
            lap.a, options=lap.mg_options, solver="cg", rtol=lap.rtol
        )
        first = session.solve(lap.b)
        res = session.solve(lap.b, x0=np.array(first.x, copy=True))
        assert res.iterations == 0 or res.iterations < first.iterations

    def test_update_operator_unchanged(self, lap):
        session = SolverSession(lap.a, options=lap.mg_options)
        session.solve(lap.b)
        same = build_problem("laplace27", shape=(10, 10, 8), seed=0).a
        assert session.update_operator(same) == "unchanged"

    def test_update_operator_reuse_within_threshold(self, lap):
        session = SolverSession(lap.a, options=lap.mg_options)
        session.solve(lap.b)
        data = np.array(lap.a.data, copy=True) * (1 + 1e-7)
        drifted = type(lap.a)(
            lap.a.grid, lap.a.stencil, data, layout=lap.a.layout
        )
        assert session.update_operator(drifted) == "reuse"
        assert session.n_drift_reuses == 1
        res = session.solve(lap.b, warm_start=False)
        assert res.status == "converged"

    def test_update_operator_rebuild_past_threshold(self, lap):
        cache = HierarchyCache()
        session = SolverSession(lap.a, options=lap.mg_options, cache=cache)
        session.solve(lap.b)
        h_old = session.hierarchy
        data = np.array(lap.a.data, copy=True) * 1.5
        changed = type(lap.a)(
            lap.a.grid, lap.a.stencil, data, layout=lap.a.layout
        )
        assert session.update_operator(changed) == "rebuild"
        assert cache.stats.stale == 1
        res = session.solve(consistent_rhs(changed, np.random.default_rng(1)))
        assert res.status == "converged"
        assert session.hierarchy is not h_old

    def test_drift_accumulates_against_build_operator(self, lap):
        """Many sub-threshold steps must eventually trip the rebuild."""
        session = SolverSession(
            lap.a, options=lap.mg_options, drift_threshold=1e-3
        )
        session.solve(lap.b)
        a = lap.a
        decisions = []
        for _ in range(12):
            data = np.array(a.data, copy=True) * (1 + 5e-4)
            a = type(a)(a.grid, a.stencil, data, layout=a.layout)
            decisions.append(session.update_operator(a))
        assert "rebuild" in decisions

    def test_escalation_from_broken_config(self):
        prob = build_problem("laplace27e8", shape=(8, 8, 8), seed=0)
        bad = PrecisionConfig("fp64", "fp32", "fp16", scaling="none")
        session = SolverSession(
            prob.a, config=bad, options=prob.mg_options,
            solver=prob.solver, rtol=prob.rtol, maxiter=100,
        )
        res = session.solve(prob.b)
        assert res.status == "converged"
        assert "resilience" in res.detail


@pytest.fixture
def identity_calls(monkeypatch):
    """Counts the operator fingerprints and signatures taken from here on."""
    import repro.serve.fingerprint as fingerprint_mod
    import repro.serve.session as session_mod

    calls = {"fingerprint": 0, "signature": 0}
    fingerprint = fingerprint_mod.matrix_fingerprint
    sign = OperatorSignature.of.__func__

    def counted_fingerprint(a):
        calls["fingerprint"] += 1
        return fingerprint(a)

    def counted_sign(cls, a):
        calls["signature"] += 1
        return sign(cls, a)

    for mod in (fingerprint_mod, session_mod):
        monkeypatch.setattr(mod, "matrix_fingerprint", counted_fingerprint)
    monkeypatch.setattr(OperatorSignature, "of", classmethod(counted_sign))
    return calls


def _scaled(a, factor):
    data = np.array(a.data, copy=True) * factor
    return type(a)(a.grid, a.stencil, data, layout=a.layout)


class TestOperatorIdentity:
    """A session fingerprints and signs each operator it accepts once, and
    the cache looks up the key the session holds."""

    def test_fresh_session_first_hierarchy(self, lap, identity_calls):
        session = SolverSession(lap.a, options=lap.mg_options)
        session.hierarchy
        session.hierarchy
        assert identity_calls == {"fingerprint": 1, "signature": 1}

    def test_drifted_update_then_hierarchy(self, lap, identity_calls):
        cache = HierarchyCache()
        session = SolverSession(lap.a, options=lap.mg_options, cache=cache)
        h_old = session.hierarchy
        identity_calls.update(fingerprint=0, signature=0)
        assert session.update_operator(_scaled(lap.a, 1.5)) == "rebuild"
        assert session.hierarchy is not h_old
        assert identity_calls == {"fingerprint": 1, "signature": 1}
        assert (cache.stats.misses, cache.stats.stale) == (2, 1)
        assert session.n_rebuilds == 2

    def test_unchanged_and_reuse_updates(self, lap, identity_calls):
        session = SolverSession(lap.a, options=lap.mg_options)
        session.hierarchy
        identity_calls.update(fingerprint=0, signature=0)
        same = build_problem("laplace27", shape=(10, 10, 8), seed=0).a
        assert session.update_operator(same) == "unchanged"
        assert identity_calls["fingerprint"] == 1
        identity_calls.update(fingerprint=0, signature=0)
        assert session.update_operator(_scaled(lap.a, 1 + 1e-7)) == "reuse"
        assert identity_calls["fingerprint"] == 1
        assert session.n_drift_reuses == 1 and session.n_rebuilds == 1

    def test_escalated_solve_reuses_the_fingerprint(self, identity_calls):
        prob = build_problem("laplace27e8", shape=(8, 8, 8), seed=0)
        bad = PrecisionConfig("fp64", "fp32", "fp16", scaling="none")
        session = SolverSession(
            prob.a, config=bad, options=prob.mg_options,
            solver=prob.solver, rtol=prob.rtol, maxiter=100,
        )
        res = session.solve(prob.b)
        assert res.status == "converged"
        assert len(res.detail["resilience"]["attempts"]) >= 2
        assert identity_calls["fingerprint"] == 1


# ----------------------------------------------------------------------
# batched multi-RHS
# ----------------------------------------------------------------------

class TestSolveMany:
    def test_block_matches_sequential_within_1e10(self, lap):
        """Acceptance: a 4-RHS solve_many block matches 4 sequential
        solves within 1e-10."""
        session = SolverSession(
            lap.a, config=K64P32D16_SETUP_SCALE, options=lap.mg_options,
            solver="cg", rtol=lap.rtol,
        )
        rng = np.random.default_rng(5)
        block = np.stack(
            [consistent_rhs(lap.a, rng).ravel() for _ in range(4)], axis=-1
        )
        results = session.solve_many(block)
        assert len(results) == 4
        for j, rj in enumerate(results):
            ref = solve(
                "cg", lap.a, np.ascontiguousarray(block[:, j]),
                preconditioner=session.hierarchy.precondition,
                rtol=lap.rtol, maxiter=500,
            )
            assert rj.status == ref.status == "converged"
            denom = np.linalg.norm(ref.x.ravel()) or 1.0
            rel = np.linalg.norm(rj.x.ravel() - ref.x.ravel()) / denom
            assert rel < 1e-10

    def test_batched_cg_bitwise_equal_to_cg(self, lap):
        """Every column of a block solve is the single solve, bit for bit,
        on a scalar operator and on a 4x4-block one (oil-4c), whose block
        products must sum in one order whatever the column count."""
        oil = build_problem("oil-4c", shape=(12, 12, 8), seed=0)
        for prob in (lap, oil):
            h = mg_setup(prob.a, K64P32D16_SETUP_SCALE, prob.mg_options)
            rng = np.random.default_rng(11)
            block = np.stack(
                [consistent_rhs(prob.a, rng).ravel() for _ in range(3)], axis=-1
            )
            batch = batched_cg(
                prob.a, block, preconditioner=h.precondition,
                rtol=prob.rtol, maxiter=500,
            )
            for j, rj in enumerate(batch):
                ref = solve(
                    "cg", prob.a, np.ascontiguousarray(block[:, j]),
                    preconditioner=h.precondition, rtol=prob.rtol, maxiter=500,
                )
                assert rj.iterations == ref.iterations
                np.testing.assert_array_equal(
                    rj.x.ravel(), ref.x.ravel()
                )

    def test_field_shaped_block(self, lap):
        session = SolverSession(
            lap.a, options=lap.mg_options, solver="cg", rtol=lap.rtol
        )
        rng = np.random.default_rng(2)
        block = np.stack(
            [consistent_rhs(lap.a, rng) for _ in range(2)], axis=-1
        )
        assert block.shape == lap.a.grid.field_shape + (2,)
        results = session.solve_many(block)
        assert all(r.status == "converged" for r in results)

    def test_gmres_sequential_fallback(self, weather):
        session = SolverSession(
            weather.a, options=weather.mg_options, solver="gmres",
            rtol=weather.rtol,
        )
        rng = np.random.default_rng(8)
        block = np.stack(
            [consistent_rhs(weather.a, rng).ravel() for _ in range(2)],
            axis=-1,
        )
        results = session.solve_many(block)
        assert len(results) == 2
        assert all(r.status == "converged" for r in results)

    def test_single_vector_rejected(self, lap):
        session = SolverSession(lap.a, options=lap.mg_options)
        with pytest.raises(ValueError, match="batch axis"):
            session.solve_many(lap.b.ravel())


# ----------------------------------------------------------------------
# service: queue, workers, admission control
# ----------------------------------------------------------------------

class TestSolverService:
    def test_jobs_complete(self, lap):
        rng = np.random.default_rng(0)
        with SolverService(
            lap.a, options=lap.mg_options, workers=2, queue_size=8,
            solver="cg", rtol=lap.rtol,
        ) as svc:
            jobs = [svc.submit(consistent_rhs(lap.a, rng)) for _ in range(6)]
            results = [j.result(timeout=120) for j in jobs]
        assert all(r.status == "converged" for r in results)
        assert svc.stats()["completed"] == 6
        # all workers share one cache: exactly one setup ran
        assert svc.cache.stats.misses == 1

    def test_batched_job(self, lap):
        rng = np.random.default_rng(1)
        block = np.stack(
            [consistent_rhs(lap.a, rng).ravel() for _ in range(3)], axis=-1
        )
        with SolverService(
            lap.a, options=lap.mg_options, workers=1, solver="cg",
            rtol=lap.rtol,
        ) as svc:
            out = svc.submit(block, batched=True).result(timeout=120)
        assert len(out) == 3
        assert all(r.status == "converged" for r in out)

    def test_saturation_raises(self, lap):
        # no workers consuming: fill the queue, then the next submit fails
        svc = SolverService(
            lap.a, options=lap.mg_options, workers=1, queue_size=2,
            solver="cg", rtol=lap.rtol,
        )
        try:
            # occupy the worker with a big job, then flood the queue
            rng = np.random.default_rng(2)
            svc.submit(consistent_rhs(lap.a, rng))
            with pytest.raises(ServiceSaturated):
                for _ in range(20):
                    svc.submit(consistent_rhs(lap.a, rng), block=False)
            assert svc.n_rejected >= 1
            svc.drain()
        finally:
            svc.close()

    def test_worker_exception_delivered_to_caller(self, lap):
        with SolverService(
            lap.a, options=lap.mg_options, workers=1, solver="cg",
            rtol=lap.rtol,
        ) as svc:
            job = svc.submit(np.ones(3))  # wrong size: worker must raise
            with pytest.raises(Exception):
                job.result(timeout=60)
            ok = svc.submit(lap.b).result(timeout=120)
        assert ok.status == "converged"
        assert svc.stats()["failed"] == 1


# ----------------------------------------------------------------------
# bench snapshot
# ----------------------------------------------------------------------

class TestServeBench:
    def test_bench_snapshot_schema_and_acceptance(self, tmp_path,
                                                  monkeypatch):
        from repro.observability.snapshot import assert_valid_snapshot
        from repro.serve import run_serve_bench

        monkeypatch.chdir(tmp_path)
        doc = run_serve_bench(
            shape=(10, 10, 8), steps=6, refresh_every=3, rhs_block=2,
        )
        assert list(tmp_path.iterdir()) == []  # the runner writes no file
        assert_valid_snapshot(doc)
        replay = doc["extra"]["serve"]["replay"]
        assert doc["gates"] == {"counters_match_schedule": True}
        assert replay["cache"]["misses"] == 2
        assert replay["cache"]["hits"] == 4
        many = doc["extra"]["serve"]["solve_many"]
        assert many["max_rel_error_vs_sequential"] < 1e-10
        warm = doc["extra"]["serve"]["warm_start"]
        assert warm["warm_iterations"] < warm["cold_iterations"]
