"""Tests for the SG-DIA SpMV kernel (plain, mixed-precision, scaled)."""

import numpy as np
import pytest

from repro.grid import Stencil, StructuredGrid, stencil as make_stencil
from repro.kernels import available_backends, residual, spmv, spmv_plain, use_backend
from repro.sgdia import SGDIAMatrix, StoredMatrix

from tests.helpers import random_sgdia


class TestPlain:
    @pytest.mark.parametrize("pattern", ["3d7", "3d15", "3d19", "3d27"])
    def test_matches_scipy_scalar(self, pattern, rng):
        a = random_sgdia((5, 4, 6), pattern)
        x = rng.standard_normal(a.grid.field_shape)
        y = spmv_plain(a, x, compute_dtype=np.float64)
        np.testing.assert_allclose(
            y.ravel(), a.to_csr() @ x.ravel(), rtol=1e-12
        )

    @pytest.mark.parametrize("ncomp", [2, 3, 4])
    def test_matches_scipy_block(self, ncomp, rng):
        a = random_sgdia((4, 3, 4), "3d7", ncomp=ncomp)
        x = rng.standard_normal(a.grid.field_shape)
        y = spmv_plain(a, x, compute_dtype=np.float64)
        np.testing.assert_allclose(
            y.ravel(), a.to_csr() @ x.ravel(), rtol=1e-12
        )

    @pytest.mark.parametrize("backend", available_backends())
    def test_stencil_without_diagonal(self, backend, rng):
        """A stencil with no (0, 0, 0) offset still runs on a plan, through
        the kernel and through ``matvec``."""
        offs = tuple(o for o in make_stencil("3d19").offsets if o != (0, 0, 0))
        a = SGDIAMatrix.zeros(StructuredGrid((5, 4, 6)), Stencil("3d18", offs))
        a.data[...] = rng.standard_normal(a.data.shape)
        a.zero_boundary()
        x = rng.standard_normal(a.grid.field_shape)
        ref = a.to_csr() @ x.ravel()
        with use_backend(backend):
            y = spmv_plain(a, x, compute_dtype=np.float64)
            np.testing.assert_allclose(y.ravel(), ref, rtol=1e-12)
            np.testing.assert_allclose(a.matvec(x).ravel(), ref, rtol=1e-12)

    def test_flat_vector_accepted(self, rng):
        a = random_sgdia((4, 4, 4), "3d7")
        x = rng.standard_normal(a.grid.ndof)
        y = spmv_plain(a, x, compute_dtype=np.float64)
        assert y.shape == x.shape
        np.testing.assert_allclose(y, a.to_csr() @ x, rtol=1e-12)

    def test_wrong_shape_rejected(self):
        a = random_sgdia((4, 4, 4), "3d7")
        with pytest.raises(ValueError, match="incompatible"):
            spmv_plain(a, np.zeros(63))

    def test_out_argument(self, rng):
        a = random_sgdia((4, 4, 4), "3d7")
        x = rng.standard_normal(a.grid.field_shape)
        out = np.empty(a.grid.field_shape, dtype=np.float64)
        y = spmv_plain(a, x, out=out, compute_dtype=np.float64)
        assert y is out
        np.testing.assert_allclose(out.ravel(), a.to_csr() @ x.ravel())

    def test_aos_layout_same_result(self, rng):
        a = random_sgdia((4, 5, 4), "3d19")
        x = rng.standard_normal(a.grid.field_shape)
        np.testing.assert_array_equal(
            spmv_plain(a, x), spmv_plain(a.as_layout("aos"), x)
        )

    def test_default_compute_promotes_fp16(self, rng):
        a = random_sgdia((4, 4, 4), "3d7").astype("fp16")
        x = rng.standard_normal(a.grid.field_shape).astype(np.float32)
        y = spmv_plain(a, x)
        assert y.dtype == np.float32  # never computes in fp16

    def test_fp32_compute_precision(self, rng):
        a = random_sgdia((4, 4, 4), "3d7")
        x = rng.standard_normal(a.grid.field_shape)
        y = spmv_plain(a, x, compute_dtype=np.float32)
        assert y.dtype == np.float32


class TestScaled:
    def test_scaled_spmv_equals_recovered(self, rng):
        a = random_sgdia((4, 4, 4), "3d27", spd=True)
        a.data *= 1e7  # out of fp16 range
        stored = StoredMatrix.truncate(a, "fp16", "fp32", scale="auto")
        assert stored.is_scaled
        x = rng.standard_normal(a.grid.field_shape).astype(np.float32)
        y = spmv(stored, x)
        ref = a.to_csr() @ x.ravel().astype(np.float64)
        rel = np.abs(y.ravel() - ref) / (np.abs(ref).max())
        assert rel.max() < 5e-3

    def test_scaled_block_spmv(self, rng):
        a = random_sgdia((3, 3, 3), "3d7", ncomp=3, spd=True)
        a.data *= 1e6
        stored = StoredMatrix.truncate(a, "fp16", "fp32", scale="always")
        x = rng.standard_normal(a.grid.field_shape).astype(np.float32)
        y = spmv(stored, x)
        ref = a.to_csr() @ x.ravel().astype(np.float64)
        assert np.abs(y.ravel() - ref).max() / np.abs(ref).max() < 5e-3

    def test_unscaled_stored_spmv(self, rng):
        a = random_sgdia((4, 4, 4), "3d7")
        stored = StoredMatrix.truncate(a, "fp16", "fp32", scale="never")
        x = rng.standard_normal(a.grid.field_shape).astype(np.float32)
        y = spmv(stored, x)
        ref = a.to_csr() @ x.ravel().astype(np.float64)
        assert np.abs(y.ravel() - ref).max() / np.abs(ref).max() < 5e-3

    def test_matmul_protocol(self, rng):
        a = random_sgdia((4, 4, 4), "3d7")
        stored = StoredMatrix.truncate(a, "fp32", "fp32", scale="never")
        x = rng.standard_normal(a.grid.field_shape).astype(np.float32)
        np.testing.assert_array_equal(stored @ x, spmv(stored, x))


class TestResidual:
    def test_residual_definition(self, rng):
        a = random_sgdia((4, 4, 4), "3d7")
        x = rng.standard_normal(a.grid.field_shape)
        b = rng.standard_normal(a.grid.field_shape)
        r = residual(a, b, x, compute_dtype=np.float64)
        np.testing.assert_allclose(
            r.ravel(), b.ravel() - a.to_csr() @ x.ravel(), rtol=1e-12
        )

    def test_residual_zero_solution(self, rng):
        a = random_sgdia((4, 4, 4), "3d7")
        b = rng.standard_normal(a.grid.field_shape)
        np.testing.assert_allclose(
            residual(a, b, np.zeros_like(b), compute_dtype=np.float64), b
        )

    def test_residual_dtype(self, rng):
        a = random_sgdia((4, 4, 4), "3d7").astype("fp16")
        b = rng.standard_normal(a.grid.field_shape).astype(np.float32)
        x = np.zeros_like(b)
        assert residual(a, b, x).dtype == np.float32

    def test_inf_payload_propagates(self, rng):
        a = random_sgdia((4, 4, 4), "3d7")
        a.data *= 1e8
        stored = StoredMatrix.truncate(a, "fp16", "fp32", scale="never")
        assert stored.has_nonfinite()
        x = rng.standard_normal(a.grid.field_shape).astype(np.float32)
        y = spmv(stored, x)
        assert not np.isfinite(y).all()
