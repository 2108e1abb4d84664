"""Tests for the in-process distributed-memory engine."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given
from hypothesis import strategies as st

from repro.grid import StructuredGrid
from repro.kernels import (
    compute_diag_inv,
    gs_sweep_colored,
    jacobi_sweep,
    spmv_plain,
)
from repro.mg import mg_setup
from repro.parallel import (
    CartesianDecomposition,
    CommStats,
    DistributedMG,
    DistributedSGDIA,
    balanced_split,
    distributed_cg,
    distributed_dot,
)
from repro.parallel.halo import DistributedField
from repro.precision import K64P32D16_SETUP_SCALE
from repro.problems import build_problem
from repro.resilience.runtime import CancelToken, Deadline, ExecContext
from repro.sgdia import StoredMatrix

from tests.helpers import assert_same_bytes, random_sgdia

class TestBalancedSplit:
    @given(st.integers(1, 50), st.integers(1, 8))
    def test_covers_range(self, n, parts):
        ranges = balanced_split(n, parts)
        assert len(ranges) == parts
        assert ranges[0][0] == 0 and ranges[-1][1] == n
        for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
            assert a1 == b0

    @given(st.integers(1, 50), st.integers(1, 8))
    def test_balanced(self, n, parts):
        sizes = [hi - lo for lo, hi in balanced_split(n, parts)]
        assert max(sizes) - min(sizes) <= 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            balanced_split(5, 0)


class TestDecomposition:
    def test_rank_coords_roundtrip(self):
        dec = CartesianDecomposition(StructuredGrid((8, 8, 8)), (2, 2, 2))
        for rank in range(dec.nranks):
            assert dec.rank_of(dec.rank_coords(rank)) == rank

    def test_owned_slices_partition(self):
        dec = CartesianDecomposition(StructuredGrid((9, 7, 5)), (2, 3, 1))
        seen = np.zeros((9, 7, 5), dtype=int)
        for rank in range(dec.nranks):
            seen[dec.owned_slices(rank)] += 1
        assert (seen == 1).all()

    def test_neighbors(self):
        dec = CartesianDecomposition(StructuredGrid((8, 8, 8)), (2, 2, 2))
        assert dec.neighbor(0, 0, -1) is None
        assert dec.neighbor(0, 0, +1) == dec.rank_of((1, 0, 0))
        assert dec.neighbor(dec.nranks - 1, 2, +1) is None

    def test_proc_grid_validation(self):
        with pytest.raises(ValueError):
            CartesianDecomposition(StructuredGrid((4, 4, 4)), (8, 1, 1))
        with pytest.raises(ValueError):
            CartesianDecomposition(StructuredGrid((4, 4, 4)), (0, 1, 1))

    def test_auto_prefers_long_axes(self):
        dec = CartesianDecomposition.auto(StructuredGrid((32, 8, 8)), 8)
        assert dec.nranks == 8
        # the largest process count lands on the longest axis
        assert dec.proc_grid[0] == max(dec.proc_grid)

    def test_max_local_dofs(self):
        dec = CartesianDecomposition(
            StructuredGrid((9, 8, 8), ncomp=2), (2, 2, 2)
        )
        assert dec.max_local_dofs() == 5 * 4 * 4 * 2

    def test_bad_rank(self):
        dec = CartesianDecomposition(StructuredGrid((4, 4, 4)), (2, 1, 1))
        with pytest.raises(ValueError):
            dec.rank_coords(5)


class TestDistributedField:
    @pytest.mark.parametrize("pg", [(1, 1, 1), (2, 2, 2), (3, 2, 1)])
    def test_scatter_gather_roundtrip(self, pg, rng):
        g = StructuredGrid((7, 6, 5))
        dec = CartesianDecomposition(g, pg)
        xg = rng.standard_normal(g.field_shape)
        f = DistributedField.scatter(xg, dec, dtype=np.float64)
        np.testing.assert_array_equal(f.gather(), xg)

    def test_block_field(self, rng):
        g = StructuredGrid((6, 6, 6), ncomp=3)
        dec = CartesianDecomposition(g, (2, 1, 2))
        xg = rng.standard_normal(g.field_shape)
        f = DistributedField.scatter(xg, dec, dtype=np.float64)
        np.testing.assert_array_equal(f.gather(), xg)

    def test_halo_exchange_matches_global(self, rng):
        """After exchange, every interior ghost equals the neighbour's
        owned value, including edges and corners (staged exchange)."""
        g = StructuredGrid((6, 6, 6))
        dec = CartesianDecomposition(g, (2, 2, 2))
        xg = rng.standard_normal(g.field_shape)
        f = DistributedField.scatter(xg, dec, dtype=np.float64)
        f.exchange_halos()
        pad = np.zeros((8, 8, 8))
        pad[1:-1, 1:-1, 1:-1] = xg
        for rank in range(dec.nranks):
            (x0, x1), (y0, y1), (z0, z1) = dec.owned_ranges(rank)
            expect = pad[x0 : x1 + 2, y0 : y1 + 2, z0 : z1 + 2]
            np.testing.assert_array_equal(f.locals[rank], expect)

    def test_exchange_message_count(self):
        g = StructuredGrid((8, 8, 8))
        dec = CartesianDecomposition(g, (2, 2, 2))
        f = DistributedField(dec, dtype=np.float32)
        stats = CommStats()
        f.exchange_halos(stats)
        # each of 8 ranks has exactly 3 neighbours: 24 directed messages
        assert stats.p2p_messages == 24

    def test_exchange_bytes(self):
        g = StructuredGrid((4, 4, 4))
        dec = CartesianDecomposition(g, (2, 1, 1))
        f = DistributedField(dec, dtype=np.float32)
        stats = CommStats()
        f.exchange_halos(stats)
        # stage-0 slabs span owned y,z extents: 4*4 floats each way
        assert stats.p2p_messages == 2
        assert stats.p2p_bytes == 2 * 4 * 4 * 4

    def test_boundary_ghosts_zero(self, rng):
        g = StructuredGrid((4, 4, 4))
        dec = CartesianDecomposition(g, (1, 1, 1))
        f = DistributedField.scatter(rng.standard_normal(g.field_shape), dec)
        f.exchange_halos()
        assert (f.locals[0][0] == 0).all() and (f.locals[0][-1] == 0).all()


class TestDistributedSpMV:
    @pytest.mark.parametrize("pattern", ["3d7", "3d19", "3d27"])
    @pytest.mark.parametrize("pg", [(2, 2, 2), (4, 1, 1), (1, 3, 2)])
    def test_matches_sequential(self, pattern, pg, rng):
        a = random_sgdia((8, 7, 6), pattern, seed=5)
        dec = CartesianDecomposition(a.grid, pg)
        da = DistributedSGDIA.from_global(a, dec)
        xg = rng.standard_normal(a.grid.field_shape)
        y = da.spmv(xg)
        assert_same_bytes(y, spmv_plain(a, xg, compute_dtype=np.float64))

    def test_block_matches(self, rng):
        a = random_sgdia((6, 6, 6), "3d7", ncomp=3, seed=2)
        dec = CartesianDecomposition(a.grid, (2, 2, 1))
        da = DistributedSGDIA.from_global(a, dec)
        xg = rng.standard_normal(a.grid.field_shape)
        y = da.spmv(xg)
        assert_same_bytes(y, spmv_plain(a, xg, compute_dtype=np.float64))

    def test_grid_mismatch_rejected(self):
        a = random_sgdia((6, 6, 6), "3d7")
        dec = CartesianDecomposition(StructuredGrid((8, 8, 8)), (2, 2, 2))
        with pytest.raises(ValueError, match="does not match"):
            DistributedSGDIA.from_global(a, dec)


class TestDistributedSmoothers:
    def test_colored_gs_bitwise_matches_sequential(self, rng):
        a = random_sgdia((8, 7, 6), "3d27", spd=True, diag_boost=8.0)
        dec = CartesianDecomposition(a.grid, (2, 2, 2))
        da = DistributedSGDIA.from_global(a, dec)
        bg = rng.standard_normal(a.grid.field_shape)
        xd = np.zeros(a.grid.field_shape)
        dinv = compute_diag_inv(a, np.float64)
        for _ in range(3):
            da.gs_sweep_colored(bg, xd, dinv)
        xs = np.zeros(a.grid.field_shape)
        for _ in range(3):
            gs_sweep_colored(a, bg, xs, dinv, compute_dtype=np.float64)
        assert_same_bytes(xd, xs)

    def test_colored_gs_backward(self, rng):
        a = random_sgdia((6, 6, 6), "3d7", spd=True, diag_boost=8.0)
        dec = CartesianDecomposition(a.grid, (2, 1, 2))
        da = DistributedSGDIA.from_global(a, dec)
        bg = rng.standard_normal(a.grid.field_shape)
        dinv = compute_diag_inv(a, np.float64)
        xd = np.zeros(a.grid.field_shape)
        da.gs_sweep_colored(bg, xd, dinv, forward=False)
        xs = np.zeros(a.grid.field_shape)
        gs_sweep_colored(
            a, bg, xs, dinv, forward=False, compute_dtype=np.float64,
        )
        assert_same_bytes(xd, xs)

    @pytest.mark.parametrize("ncomp,pattern", [(1, "3d27"), (3, "3d15")])
    @pytest.mark.parametrize("storage", ["fp64", "fp16"])
    def test_sweeps_match_sequential(self, storage, ncomp, pattern, rng):
        """Jacobi and both Gauss-Seidel directions, scalar and block, on an
        FP64 payload and on an unscaled FP16 one (FP32 compute): byte for
        byte the sequential kernels, with the same diagonal inverse."""
        a = random_sgdia((8, 7, 6), pattern, ncomp=ncomp, spd=True,
                         diag_boost=8.0)
        cdtype = np.float64
        if storage == "fp16":
            a = StoredMatrix.truncate(a, "fp16", "fp32", scale=False)
            cdtype = np.float32
        dec = CartesianDecomposition(a.grid, (2, 2, 2))
        da = DistributedSGDIA.from_global(a, dec)
        seq = a.matrix if storage == "fp16" else a
        dinv = compute_diag_inv(seq, cdtype)
        bg = rng.standard_normal(a.grid.field_shape).astype(cdtype)
        x0 = rng.standard_normal(a.grid.field_shape).astype(cdtype)
        xd = x0.copy()
        xs = x0.copy()
        da.jacobi_sweep(bg, xd, dinv, weight=0.7)
        jacobi_sweep(seq, bg, xs, dinv, weight=0.7, compute_dtype=cdtype)
        assert_same_bytes(xd, xs)
        for forward in (True, False):
            da.gs_sweep_colored(bg, xd, dinv, forward=forward)
            gs_sweep_colored(seq, bg, xs, dinv, forward=forward,
                             compute_dtype=cdtype)
            assert_same_bytes(xd, xs)

    def test_jacobi_converges(self, rng):
        a = random_sgdia((6, 6, 6), "3d7", spd=True, diag_boost=10.0)
        dec = CartesianDecomposition(a.grid, (2, 2, 1))
        da = DistributedSGDIA.from_global(a, dec)
        bg = rng.standard_normal(a.grid.field_shape)
        xd = np.zeros(a.grid.field_shape)
        dinv = compute_diag_inv(a, np.float64)
        for _ in range(300):
            da.jacobi_sweep(bg, xd, dinv, weight=0.8)
        r = bg - spmv_plain(a, xd, compute_dtype=np.float64)
        assert np.linalg.norm(r) / np.linalg.norm(bg) < 1e-8

    def test_gs_comm_count(self, rng):
        a = random_sgdia((8, 8, 8), "3d27", spd=True)
        dec = CartesianDecomposition(a.grid, (2, 2, 2))
        da = DistributedSGDIA.from_global(a, dec)
        bg = rng.standard_normal(a.grid.field_shape)
        stats = CommStats()
        da.gs_sweep_colored(
            bg, np.zeros_like(bg), compute_diag_inv(a, np.float64),
            stats=stats,
        )
        # 8 colors x 24 directed messages
        assert stats.p2p_messages == 8 * 24


class TestDistributedCG:
    def test_matches_direct_solution(self, rng):
        a = random_sgdia((8, 8, 8), "3d7", spd=True, diag_boost=8.0)
        dec = CartesianDecomposition(a.grid, (2, 2, 2))
        da = DistributedSGDIA.from_global(a, dec)
        bg = rng.standard_normal(a.grid.field_shape)
        res, stats = distributed_cg(da, bg, rtol=1e-10, maxiter=400)
        assert res.converged
        ref = spla.spsolve(a.to_csr().tocsc(), bg.ravel())
        np.testing.assert_allclose(res.x.ravel(), ref, rtol=1e-6)

    def test_iterations_match_sequential_cg(self, rng):
        from repro.solvers import cg

        a = random_sgdia((8, 8, 8), "3d7", spd=True, diag_boost=8.0)
        dec = CartesianDecomposition(a.grid, (2, 2, 1))
        da = DistributedSGDIA.from_global(a, dec)
        bg = rng.standard_normal(a.grid.field_shape)
        res_d, _ = distributed_cg(da, bg, rtol=1e-9, maxiter=400)
        res_s = cg(a, bg, rtol=1e-9, maxiter=400)
        assert abs(res_d.iterations - res_s.iterations) <= 1

    def test_indefinite_is_breakdown_like_sequential_cg(self, rng):
        from repro.solvers import cg

        a = random_sgdia((8, 8, 8), "3d7", spd=True, diag_boost=8.0)
        a.diag_view(a.stencil.diag_index)[:4] *= -1.0
        dec = CartesianDecomposition(a.grid, (2, 2, 1))
        da = DistributedSGDIA.from_global(a, dec)
        bg = rng.standard_normal(a.grid.field_shape)
        res_d, _ = distributed_cg(da, bg, rtol=1e-9, maxiter=400)
        res_s = cg(a, bg, rtol=1e-9, maxiter=400)
        # before, only pap == 0 stopped the distributed solver: it
        # reported "converged" after 16 iterations
        assert (res_s.status, res_s.iterations) == ("breakdown", 1)
        assert res_d.status == res_s.status
        assert res_d.iterations == res_s.iterations
        assert res_d.detail["reason"] == res_s.detail["reason"] == "indefinite"

    def test_comm_accounting(self, rng):
        a = random_sgdia((8, 8, 8), "3d7", spd=True, diag_boost=8.0)
        dec = CartesianDecomposition(a.grid, (2, 2, 2))
        da = DistributedSGDIA.from_global(a, dec)
        res, stats = distributed_cg(
            da, rng.standard_normal(a.grid.field_shape), rtol=1e-9,
            maxiter=400,
        )
        it = res.iterations
        # one halo exchange (24 msgs) per matvec; >= 3 allreduces per iter
        assert stats.p2p_messages == 24 * it
        assert stats.allreduces >= 3 * it
        assert "matvec" in stats.by_phase

    def test_jacobi_preconditioned(self, rng):
        a = random_sgdia((8, 8, 8), "3d7", spd=True, diag_boost=8.0)
        dec = CartesianDecomposition(a.grid, (2, 2, 2))
        da = DistributedSGDIA.from_global(a, dec)
        dinv = compute_diag_inv(a, np.float64)
        res, _ = distributed_cg(
            da, rng.standard_normal(a.grid.field_shape), rtol=1e-9,
            maxiter=400, preconditioner=lambda r: dinv * r,
        )
        assert res.converged

    def test_zero_rhs(self):
        a = random_sgdia((6, 6, 6), "3d7", spd=True)
        dec = CartesianDecomposition(a.grid, (2, 1, 1))
        da = DistributedSGDIA.from_global(a, dec)
        res, _ = distributed_cg(da, np.zeros(a.grid.field_shape), rtol=1e-9)
        assert res.converged and res.iterations == 0

    @pytest.mark.parametrize("stop", ["deadline", "cancelled"])
    def test_pre_stopped_runtime_runs_no_preconditioner(self, stop):
        """A runtime that has already said stop ends the solve at its first
        step boundary: 0 iterations, the zero iterate, and not one halo
        exchange (not even the preconditioner's first application)."""
        p = build_problem("laplace27", shape=(16, 16, 16))
        h = mg_setup(p.a, K64P32D16_SETUP_SCALE, p.mg_options)
        dec = DistributedMG.aligned_decomposition(h, (2, 2, 2))
        stats = CommStats()
        dmg = DistributedMG(h, dec, stats)
        if stop == "deadline":
            runtime = ExecContext(deadline=Deadline(at=0.0, clock=lambda: 1.0))
        else:
            runtime = ExecContext(cancel=CancelToken())
            runtime.cancel.cancel()
        res, _ = distributed_cg(
            DistributedSGDIA.from_global(p.a, dec), p.b, rtol=p.rtol,
            maxiter=100, preconditioner=dmg.precondition, stats=stats,
            runtime=runtime,
        )
        assert (res.status, res.iterations) == (stop, 0)
        assert np.isfinite(res.x).all() and not res.x.any()
        assert stats.p2p_messages == 0


class TestDot:
    def test_matches_numpy(self, rng):
        g = StructuredGrid((6, 6, 6))
        dec = CartesianDecomposition(g, (2, 2, 2))
        xg = rng.standard_normal(g.field_shape)
        yg = rng.standard_normal(g.field_shape)
        stats = CommStats()
        assert distributed_dot(dec, xg, yg, stats) == pytest.approx(
            float(xg.ravel() @ yg.ravel())
        )
        assert stats.allreduces == 1
