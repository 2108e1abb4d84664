"""Tests for multicolor Gauss-Seidel / Jacobi sweep kernels."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from repro.kernels import (
    COLORS8,
    available_backends,
    color_offset_slices,
    compute_diag_inv,
    gs_sweep_colored,
    jacobi_sweep,
    spmv_plain,
    use_backend,
)

from tests.helpers import color_groups, gauss_seidel_oracle, random_sgdia


class TestColorSlices:
    def test_all_colors_partition_grid(self):
        shape = (5, 6, 7)
        seen = np.zeros(shape, dtype=int)
        for color in COLORS8:
            cs = tuple(slice(c, None, 2) for c in color)
            seen[cs] += 1
        assert (seen == 1).all()

    @given(
        st.tuples(st.integers(2, 7), st.integers(2, 7), st.integers(2, 7)),
        st.sampled_from(
            [
                (1, 0, 0),
                (0, -1, 1),
                (-1, 1, -1),
                (0, 0, 1),
                (1, 1, 1),
                (-1, 0, 0),
            ]
        ),
        st.sampled_from(COLORS8),
    )
    def test_slices_consistent(self, shape, off, color):
        """Global dst/src and local dst slices index the same cells."""
        sl = color_offset_slices(shape, off, color)
        if sl is None:
            return
        dst_g, src_g, dst_l = sl
        # the global dst cells must be exactly the color's cells that have
        # an in-bounds neighbour
        mask = np.zeros(shape, dtype=bool)
        mask[dst_g] = True
        expect = np.zeros(shape, dtype=bool)
        cs = tuple(slice(c, None, 2) for c in color)
        color_mask = np.zeros(shape, dtype=bool)
        color_mask[cs] = True
        idx = np.argwhere(color_mask)
        for (i, j, k) in idx:
            ni, nj, nk = i + off[0], j + off[1], k + off[2]
            if 0 <= ni < shape[0] and 0 <= nj < shape[1] and 0 <= nk < shape[2]:
                expect[i, j, k] = True
        np.testing.assert_array_equal(mask, expect)
        # the local slice must select the same cells inside the color array
        local = np.zeros(shape)[cs]
        local[dst_l] = 1.0
        glob = np.zeros(shape)
        glob[cs] = local
        np.testing.assert_array_equal(glob.astype(bool), expect)

    def test_source_cells_differ_in_color(self):
        """8-coloring validity: neighbours are never the same color."""
        shape = (6, 6, 6)
        for color in COLORS8:
            for off in [(1, 0, 0), (0, -1, 1), (1, 1, 1), (-1, 1, 0)]:
                sl = color_offset_slices(shape, off, color)
                if sl is None:
                    continue
                _, src_g, _ = sl
                starts = tuple(s.start % 2 for s in src_g)
                assert starts != color

    def test_empty_intersection(self):
        # axis of size 1 has no cells of parity 1
        assert color_offset_slices((1, 4, 4), (0, 0, 1), (1, 0, 0)) is None


class TestDiagInv:
    def test_scalar(self):
        a = random_sgdia((4, 4, 4), "3d7")
        dinv = compute_diag_inv(a, dtype=np.float64)
        np.testing.assert_allclose(
            dinv, 1.0 / a.diag_view(a.stencil.diag_index)
        )

    def test_block(self):
        a = random_sgdia((3, 3, 3), "3d7", ncomp=3)
        dinv = compute_diag_inv(a, dtype=np.float64)
        blocks = a.diag_view(a.stencil.diag_index)
        prod = np.einsum("...ab,...bc->...ac", dinv, blocks)
        np.testing.assert_allclose(
            prod, np.broadcast_to(np.eye(3), prod.shape), atol=1e-10
        )

    def test_zero_diag_raises(self):
        a = random_sgdia((3, 3, 3), "3d7")
        a.diag_view(a.stencil.diag_index)[0, 0, 0] = 0.0
        with pytest.raises(ZeroDivisionError):
            compute_diag_inv(a)


class TestGaussSeidel:
    def _solve_gs(self, a, b, sweeps, forward=True, dtype=np.float64):
        dinv = compute_diag_inv(a, dtype=dtype)
        x = np.zeros(a.grid.field_shape, dtype=dtype)
        for _ in range(sweeps):
            gs_sweep_colored(a, b, x, dinv, forward=forward, compute_dtype=dtype)
        return x

    @pytest.mark.parametrize("pattern", ["3d7", "3d19", "3d27"])
    def test_converges_on_spd(self, pattern, rng):
        a = random_sgdia((5, 5, 5), pattern, spd=True, diag_boost=8.0)
        b = rng.standard_normal(a.grid.field_shape)
        x = self._solve_gs(a, b, sweeps=60)
        r = b - spmv_plain(a, x, compute_dtype=np.float64)
        assert np.linalg.norm(r) / np.linalg.norm(b) < 1e-8

    def test_block_converges(self, rng):
        a = random_sgdia((4, 4, 4), "3d7", ncomp=3, spd=True, diag_boost=8.0)
        b = rng.standard_normal(a.grid.field_shape)
        x = self._solve_gs(a, b, sweeps=60)
        r = b - spmv_plain(a, x, compute_dtype=np.float64)
        assert np.linalg.norm(r) / np.linalg.norm(b) < 1e-8

    def test_exact_solution_is_fixed_point(self, rng):
        a = random_sgdia((4, 4, 4), "3d7", spd=True)
        x_star = rng.standard_normal(a.grid.field_shape)
        b = spmv_plain(a, x_star, compute_dtype=np.float64)
        x = x_star.copy()
        dinv = compute_diag_inv(a, dtype=np.float64)
        gs_sweep_colored(a, b, x, dinv, compute_dtype=np.float64)
        np.testing.assert_allclose(x, x_star, rtol=1e-10, atol=1e-10)

    def test_one_sweep_reduces_error(self, rng):
        a = random_sgdia((5, 5, 5), "3d27", spd=True)
        x_star = rng.standard_normal(a.grid.field_shape)
        b = spmv_plain(a, x_star, compute_dtype=np.float64)
        x = np.zeros_like(b)
        dinv = compute_diag_inv(a, dtype=np.float64)
        e0 = np.linalg.norm(x - x_star)
        gs_sweep_colored(a, b, x, dinv, compute_dtype=np.float64)
        assert np.linalg.norm(x - x_star) < e0

    @pytest.mark.parametrize("k", [None, 3])
    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("ncomp", [1, 2, 3])
    @pytest.mark.parametrize("pattern", ["3d7", "3d15", "3d19", "3d27"])
    @pytest.mark.parametrize("backend", available_backends())
    def test_matches_csr_oracle(self, backend, pattern, ncomp, forward, k):
        """One FP64 sweep equals the scipy CSR Gauss-Seidel oracle: per
        color, ``x_c = D_c^{-1} (b_c - (A - D)_c x)``."""
        a = random_sgdia((6, 5, 7), pattern, ncomp=ncomp, seed=5)
        rng = np.random.default_rng(6)
        shape = a.grid.field_shape + ((k,) if k else ())
        b = rng.standard_normal(shape)
        x = rng.standard_normal(shape)
        ref = gauss_seidel_oracle(a, b, x, color_groups(a, forward))
        dinv = compute_diag_inv(a, dtype=np.float64)
        with use_backend(backend):
            gs_sweep_colored(a, b, x, dinv, forward=forward,
                             compute_dtype=np.float64)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_backward_differs_from_forward(self, rng):
        a = random_sgdia((4, 4, 4), "3d27", spd=True, diag_boost=3.0)
        b = rng.standard_normal(a.grid.field_shape)
        dinv = compute_diag_inv(a, dtype=np.float64)
        xf = np.zeros_like(b)
        xb = np.zeros_like(b)
        gs_sweep_colored(a, b, xf, dinv, forward=True, compute_dtype=np.float64)
        gs_sweep_colored(a, b, xb, dinv, forward=False, compute_dtype=np.float64)
        assert not np.allclose(xf, xb)

    def test_radius_two_rejected(self):
        from repro.grid import Stencil, StructuredGrid
        from repro.sgdia import SGDIAMatrix

        st2 = Stencil("wide", ((0, 0, 0), (0, 0, 2), (0, 0, -2)))
        g = StructuredGrid((4, 4, 6))
        a = SGDIAMatrix.zeros(g, st2)
        a.diag_view(st2.diag_index)[...] = 1.0
        with pytest.raises(ValueError, match="radius-1"):
            gs_sweep_colored(
                a,
                np.zeros(g.field_shape),
                np.zeros(g.field_shape),
                np.ones(g.field_shape),
            )

    def test_fp16_payload_converges(self, rng):
        """Recover-on-the-fly: GS against a quantized payload still solves
        the quantized system."""
        a = random_sgdia((4, 4, 4), "3d7", spd=True, diag_boost=8.0)
        a16 = a.astype("fp16")
        dinv = compute_diag_inv(a, dtype=np.float32)
        b = rng.standard_normal(a.grid.field_shape).astype(np.float32)
        x = np.zeros_like(b)
        for _ in range(60):
            gs_sweep_colored(a16, b, x, dinv, compute_dtype=np.float32)
        r = b - spmv_plain(a16, x, compute_dtype=np.float32)
        assert np.linalg.norm(r) / np.linalg.norm(b) < 1e-2


class TestJacobi:
    def test_converges_on_dd(self, rng):
        a = random_sgdia((5, 5, 5), "3d7", spd=True, diag_boost=10.0)
        b = rng.standard_normal(a.grid.field_shape)
        dinv = compute_diag_inv(a, dtype=np.float64)
        x = np.zeros_like(b)
        for _ in range(200):
            jacobi_sweep(a, b, x, dinv, weight=0.8, compute_dtype=np.float64)
        r = b - spmv_plain(a, x, compute_dtype=np.float64)
        assert np.linalg.norm(r) / np.linalg.norm(b) < 1e-8

    def test_weight_zero_is_identity(self, rng):
        a = random_sgdia((4, 4, 4), "3d7")
        b = rng.standard_normal(a.grid.field_shape)
        dinv = compute_diag_inv(a, dtype=np.float64)
        x0 = rng.standard_normal(a.grid.field_shape)
        x = x0.copy()
        jacobi_sweep(a, b, x, dinv, weight=0.0, compute_dtype=np.float64)
        np.testing.assert_allclose(x, x0)

    def test_matches_formula(self, rng):
        a = random_sgdia((4, 4, 4), "3d7")
        b = rng.standard_normal(a.grid.field_shape)
        x0 = rng.standard_normal(a.grid.field_shape)
        dinv = compute_diag_inv(a, dtype=np.float64)
        x = x0.copy()
        jacobi_sweep(a, b, x, dinv, weight=0.7, compute_dtype=np.float64)
        ax = (a.to_csr() @ x0.ravel()).reshape(x0.shape)
        expect = x0 + 0.7 * dinv * (b - ax)
        np.testing.assert_allclose(x, expect, rtol=1e-12)
