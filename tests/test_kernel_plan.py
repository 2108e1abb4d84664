"""Tests for the kernel execution-plan layer (repro.kernels.plan).

Covers plan structure, the structure-keyed cache, every kernel (which
always runs on a plan) against an independent FP64 scipy oracle on
mixed-precision payloads, scratch-buffer reuse, and the setup-vs-apply
contract (zero plan construction in the V-cycle hot loop).
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.kernels import (
    clear_plan_cache,
    compute_diag_inv,
    gs_sweep_colored,
    jacobi_sweep,
    plan_cache_info,
    plan_for,
    spmv_plain,
    sptrsv,
)
from repro.kernels.lines import line_sweep
from repro.kernels.plan import KernelPlan
from repro.mg import MGOptions, mg_setup
from repro.observability import metrics as _metrics
from repro.precision import K64P32D16_SETUP_SCALE, parse_config
from repro.sgdia import StoredMatrix

from tests.helpers import color_groups, csr_apply, gauss_seidel_oracle, random_sgdia


def _vec(a, seed=0, k=None, dtype=np.float32):
    rng = np.random.default_rng(seed)
    shape = a.grid.field_shape + ((k,) if k else ())
    return rng.standard_normal(shape).astype(dtype)


def _close(got, ref, tol=1e-5):
    """``got`` (FP32 compute) agrees with the FP64 oracle ``ref`` within
    ``tol`` of ``max |ref|``."""
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= tol * np.abs(ref).max()


class TestPlanStructure:
    def test_terms_cover_all_offsets(self):
        a = random_sgdia((5, 4, 6), "3d27")
        plan = plan_for(a)
        assert len(plan.spmv_terms) == len(a.stencil.offsets)
        assert plan.sweep_colors is not None
        # every (color, offset) pair in the tables is a non-empty coupling
        for _color, _cslice, terms in plan.sweep_colors:
            assert terms  # empty colors are filtered at build time

    def test_radius2_has_no_sweep_tables(self):
        offsets = ((0, 0, -2), (0, 0, 0), (0, 0, 2))
        plan = KernelPlan((6, 5, 4), 1, offsets)
        assert plan.diag_index == 1
        assert plan.sweep_colors is None

    def test_no_diagonal_no_sweep_tables(self):
        """The diagonal index comes from the offsets; without one the plan
        still serves the SpMV but has no sweep tables."""
        plan = KernelPlan((6, 5, 4), 1, ((0, 0, -1), (0, 0, 1)))
        assert plan.diag_index is None
        assert plan.sweep_colors is None
        assert len(plan.spmv_terms) == 2

    def test_describe(self):
        a = random_sgdia((5, 4, 6), "3d7")
        d = plan_for(a).describe()
        assert d["shape"] == [5, 4, 6]
        assert d["ndiag"] == 7

    def test_cache_shared_across_payloads(self):
        """fp32 and fp16 truncations of one operator share a single plan."""
        a = random_sgdia((6, 5, 4), "3d27")
        assert plan_for(a.astype("fp32")) is plan_for(a.astype("fp16"))

    def test_cache_info_and_clear(self):
        clear_plan_cache()
        a = random_sgdia((4, 4, 4), "3d7")
        plan_for(a)
        info = plan_cache_info()
        assert info["entries"] >= 1
        clear_plan_cache()
        assert plan_cache_info()["entries"] == 0

    def test_build_metric_counts_builds_not_hits(self):
        clear_plan_cache()
        a = random_sgdia((4, 5, 6), "3d27")
        with _metrics.collecting() as m:
            plan_for(a)
            plan_for(a)  # cache hit: no second build
        assert m.get("kernel.plan.builds") == 1


class TestPlannedParity:
    """The kernels on FP16/FP32 payloads under FP32 compute against
    independent FP64 scipy oracles of the stored values (``test_spmv.py``,
    ``test_sweeps.py`` and ``test_sptrsv.py`` check FP64 on every
    backend)."""

    @pytest.mark.parametrize("fmt", ["fp32", "fp16"])
    @pytest.mark.parametrize("k", [None, 3])
    def test_spmv(self, fmt, k):
        a = random_sgdia((6, 5, 7), "3d27").astype(fmt)
        x = _vec(a, k=k)
        got = spmv_plain(a, x, compute_dtype=np.float32)
        _close(got, csr_apply(a.to_csr(), x, a.grid, a.grid, np.float64))

    def test_spmv_block_grid(self):
        a = random_sgdia((4, 4, 5), "3d7", ncomp=2).astype("fp16")
        x = _vec(a, seed=1)
        got = spmv_plain(a, x, compute_dtype=np.float32)
        _close(got, csr_apply(a.to_csr(), x, a.grid, a.grid, np.float64))

    def test_spmv_aos_layout(self):
        """AOS runs the SOA slice tables on strided views: same bytes."""
        a = random_sgdia((5, 6, 4), "3d27").astype("fp16")
        x = _vec(a)
        soa = spmv_plain(a, x, compute_dtype=np.float32)
        aos = spmv_plain(a.as_layout("aos"), x, compute_dtype=np.float32)
        assert soa.tobytes() == aos.tobytes()

    @pytest.mark.parametrize("fmt", ["fp32", "fp16"])
    @pytest.mark.parametrize("k", [None, 2])
    @pytest.mark.parametrize("forward", [True, False])
    def test_gs_sweep(self, fmt, k, forward):
        a = random_sgdia((6, 5, 7), "3d27").astype(fmt)
        dinv = compute_diag_inv(a)
        b = _vec(a, seed=1, k=k)
        x = _vec(a, seed=2, k=k)
        ref = gauss_seidel_oracle(a, b, x, color_groups(a, forward))
        gs_sweep_colored(a, b, x, dinv, forward=forward)
        _close(x, ref)

    @pytest.mark.parametrize("fmt", ["fp32", "fp16"])
    def test_jacobi(self, fmt):
        a = random_sgdia((5, 6, 4), "3d27").astype(fmt)
        dinv = compute_diag_inv(a)
        b = _vec(a, seed=1)
        x = _vec(a, seed=2)
        diag = a.diag_view(a.stencil.diag_index).astype(np.float64)
        ax = csr_apply(a.to_csr(), x, a.grid, a.grid, np.float64)
        ref = x + 0.8 * (b - ax) / diag
        jacobi_sweep(a, b, x, dinv, weight=0.8)
        _close(x, ref)

    @pytest.mark.parametrize("fmt", ["fp32", "fp16"])
    @pytest.mark.parametrize("lower", [True, False])
    def test_sptrsv(self, fmt, lower):
        a = random_sgdia((6, 5, 4), "3d7").astype(fmt)
        dinv = compute_diag_inv(a)
        b = _vec(a, seed=3)
        part = "lower" if lower else "upper"
        got = sptrsv(a, b, lower=lower, part=part, diag_inv=dinv)
        csr = a.to_csr(dtype=np.float64)
        tri = (sp.tril if lower else sp.triu)(csr).tocsr()
        ref = spla.spsolve_triangular(tri, b.ravel().astype(np.float64), lower=lower)
        _close(got, ref.reshape(b.shape))

    def test_line_sweep(self):
        """Colored line Gauss-Seidel along z: per parity color of (x, y),
        the color's z-lines solve their tridiagonal systems."""
        a = random_sgdia((6, 5, 7), "3d7", spd=True, diag_boost=8.0)
        b = _vec(a, seed=1)
        x = _vec(a, seed=2)
        i, j, _k = np.unravel_index(np.arange(a.grid.ndof), a.grid.shape)
        lines = [
            np.flatnonzero((i % 2 == ci) & (j % 2 == cj))
            for ci, cj in ((0, 0), (0, 1), (1, 0), (1, 1))
        ]
        ref = gauss_seidel_oracle(a, b, x, lines)
        line_sweep(a, b, x, axis=2, colored=True)
        _close(x, ref)

    @pytest.mark.parametrize("fmt", ["fp32", "fp16"])
    def test_fcvt_counts_match_reference(self, fmt):
        """An FP16 SpMV converts every in-grid coefficient once (the
        reference count); an FP32 payload under FP32 compute converts none."""
        a = random_sgdia((5, 5, 5), "3d27").astype(fmt)
        in_grid = sum(
            int(np.prod([n - abs(o) for n, o in zip(a.grid.shape, off)]))
            for off in a.stencil.offsets
        )
        with _metrics.collecting() as m:
            spmv_plain(a, _vec(a), compute_dtype=np.float32)
        assert m.get("precision.fcvt.values") == (in_grid if fmt == "fp16" else 0)


class TestScratch:
    def test_buffers_are_reused(self):
        a = random_sgdia((5, 4, 6), "3d7")
        plan = plan_for(a)
        b1 = plan.scratch("t", (4, 4), np.float32)
        b2 = plan.scratch("t", (4, 4), np.float32)
        assert b1 is b2
        assert plan.scratch("t", (4, 5), np.float32) is not b1
        assert plan.scratch_nbytes() > 0


class TestHotLoopContract:
    def test_vcycle_builds_no_plans(self):
        """After setup + one warm cycle, V-cycles do zero plan construction."""
        a = random_sgdia((12, 12, 10), "3d27", spd=True, diag_boost=8.0)
        h = mg_setup(a, K64P32D16_SETUP_SCALE, MGOptions(min_coarse_dofs=50))
        b = np.random.default_rng(0).standard_normal(
            a.grid.field_shape
        ).astype(np.float32)
        h.precondition(b)  # warm: binds lazily-bound plans
        with _metrics.collecting() as m:
            for _ in range(3):
                h.precondition(b)
            assert m.get("kernel.sweep.calls") > 0
        assert m.get("kernel.plan.builds") == 0

    def test_setup_emits_kernel_plan_spans(self):
        from repro.observability import trace as _trace

        a = random_sgdia((10, 10, 8), "3d27", spd=True, diag_boost=8.0)
        with _trace.tracing() as t:
            mg_setup(a, parse_config("Full64"), MGOptions(min_coarse_dofs=50))
        names = [s.name for s in t.spans]
        assert "kernel_plan" in names


class TestRestoreRebindsPlans:
    def test_diag_inv_smoother_restore(self):
        from repro.smoothers import SymGS

        a = random_sgdia((5, 5, 5), "3d27", spd=True, diag_boost=8.0)
        stored = StoredMatrix.truncate(a, "fp32", "fp32", scale="never")
        sm = SymGS().setup(a, stored)
        state = sm.state_arrays()
        restored = SymGS().load_state(stored, state)
        assert restored.plan is not None
        assert restored.plan is sm.plan  # structure-keyed: shared instance

    def test_direct_solver_restore(self):
        from repro.smoothers import CoarseDirectSolver

        a = random_sgdia((4, 4, 4), "3d7", spd=True, diag_boost=8.0)
        stored = StoredMatrix.truncate(a, "fp32", "fp32", scale="never")
        sm = CoarseDirectSolver().setup(a, stored)
        restored = CoarseDirectSolver().load_state(stored, sm.state_arrays())
        assert restored.plan is not None
