"""Tests for the wavefront SpTRSV kernel."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from repro.grid import StructuredGrid, stencil as make_stencil
from repro.kernels import available_backends, sptrsv, use_backend, wavefront_planes
from repro.sgdia import SGDIAMatrix

from tests.helpers import random_sgdia


class TestWavefrontPlanes:
    @given(
        st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
    )
    def test_partition(self, shape):
        planes = wavefront_planes(shape)
        seen = np.zeros(shape, dtype=int)
        for (i, j, k) in planes:
            seen[i, j, k] += 1
        assert (seen == 1).all()

    @given(
        st.tuples(st.integers(2, 6), st.integers(2, 6), st.integers(2, 6))
    )
    def test_dependencies_respect_plane_order(self, shape):
        """Every lexicographically-lower radius-1 neighbour lies on a
        strictly earlier plane (the 4i+2j+k weighting property)."""
        planes = wavefront_planes(shape)
        plane_of = np.empty(shape, dtype=int)
        for p, (i, j, k) in enumerate(planes):
            plane_of[i, j, k] = p
        lower = make_stencil("3d27").lower(include_diagonal=False)
        for off in lower.offsets:
            dst = np.argwhere(np.ones(shape, dtype=bool))
            for (i, j, k) in dst[:: max(1, len(dst) // 40)]:
                ni, nj, nk = i + off[0], j + off[1], k + off[2]
                if (
                    0 <= ni < shape[0]
                    and 0 <= nj < shape[1]
                    and 0 <= nk < shape[2]
                ):
                    assert plane_of[ni, nj, nk] < plane_of[i, j, k]

    def test_cached(self):
        assert wavefront_planes((4, 4, 4)) is wavefront_planes((4, 4, 4))


def _triangular_sgdia(shape, pattern, seed=0, lower=True):
    """Random triangular SG-DIA matrix with unit-safe diagonal."""
    rng = np.random.default_rng(seed)
    full = make_stencil(pattern)
    tri = full.lower() if lower else full.upper()
    g = StructuredGrid(shape)
    a = SGDIAMatrix.zeros(g, tri)
    a.data[...] = rng.standard_normal(a.data.shape) * 0.3
    a.diag_view(tri.offsets.index((0, 0, 0)))[...] = 2.0 + rng.random(shape)
    a.zero_boundary()
    return a


class TestTriangularSolve:
    @pytest.mark.parametrize("pattern", ["3d7", "3d19", "3d27"])
    def test_lower_matches_scipy(self, pattern, rng):
        a = _triangular_sgdia((4, 5, 4), pattern, lower=True)
        b = rng.standard_normal(a.grid.field_shape)
        x = sptrsv(a, b, lower=True, part="all", compute_dtype=np.float64)
        ref = sp.linalg.spsolve_triangular(
            a.to_csr(), b.ravel(), lower=True
        )
        np.testing.assert_allclose(x.ravel(), ref, rtol=1e-10)

    @pytest.mark.parametrize("pattern", ["3d7", "3d27"])
    def test_upper_matches_scipy(self, pattern, rng):
        a = _triangular_sgdia((4, 4, 5), pattern, lower=False)
        b = rng.standard_normal(a.grid.field_shape)
        x = sptrsv(a, b, lower=False, part="all", compute_dtype=np.float64)
        ref = sp.linalg.spsolve_triangular(
            a.to_csr(), b.ravel(), lower=False
        )
        np.testing.assert_allclose(x.ravel(), ref, rtol=1e-10)

    def test_part_lower_of_full_matrix(self, rng):
        a = random_sgdia((4, 4, 4), "3d27", seed=2)
        b = rng.standard_normal(a.grid.field_shape)
        x = sptrsv(a, b, lower=True, part="lower", compute_dtype=np.float64)
        ref = sp.linalg.spsolve_triangular(
            sp.tril(a.to_csr()).tocsr(), b.ravel(), lower=True
        )
        np.testing.assert_allclose(x.ravel(), ref, rtol=1e-10)

    def test_part_upper_of_full_matrix(self, rng):
        a = random_sgdia((4, 4, 4), "3d27", seed=3)
        b = rng.standard_normal(a.grid.field_shape)
        x = sptrsv(a, b, lower=False, part="upper", compute_dtype=np.float64)
        ref = sp.linalg.spsolve_triangular(
            sp.triu(a.to_csr()).tocsr(), b.ravel(), lower=False
        )
        np.testing.assert_allclose(x.ravel(), ref, rtol=1e-10)

    def test_all_mode_rejects_full_matrix(self, rng):
        a = random_sgdia((4, 4, 4), "3d7")
        b = np.zeros(a.grid.field_shape)
        with pytest.raises(ValueError, match="triangular side"):
            sptrsv(a, b, lower=True, part="all")

    def test_bad_part(self):
        a = _triangular_sgdia((3, 3, 3), "3d7")
        with pytest.raises(ValueError, match="part"):
            sptrsv(a, np.zeros(a.grid.field_shape), part="middle")

    def test_blocks_unsupported(self):
        a = random_sgdia((3, 3, 3), "3d7", ncomp=2)
        with pytest.raises(NotImplementedError):
            sptrsv(a, np.zeros(a.grid.field_shape), part="lower")

    def test_zero_diag_raises(self):
        a = _triangular_sgdia((3, 3, 3), "3d7")
        a.diag_view(a.stencil.offsets.index((0, 0, 0)))[0, 0, 0] = 0.0
        with pytest.raises(ZeroDivisionError):
            sptrsv(a, np.zeros(a.grid.field_shape), part="all")

    def test_precomputed_diag_inv(self, rng):
        a = _triangular_sgdia((4, 4, 4), "3d7")
        dinv = (
            1.0 / a.diag_view(a.stencil.offsets.index((0, 0, 0)))
        ).astype(np.float64)
        b = rng.standard_normal(a.grid.field_shape)
        x1 = sptrsv(a, b, part="all", compute_dtype=np.float64)
        x2 = sptrsv(a, b, part="all", diag_inv=dinv, compute_dtype=np.float64)
        np.testing.assert_allclose(x1, x2, rtol=1e-12)

    def test_fp16_payload(self, rng):
        """Mixed-precision SpTRSV: fp16 factors, fp32 compute."""
        a = _triangular_sgdia((4, 4, 4), "3d7")
        a16 = SGDIAMatrix(
            a.grid, a.stencil, a.data.astype(np.float16)
        )
        b = rng.standard_normal(a.grid.field_shape).astype(np.float32)
        x = sptrsv(a16, b, part="all", compute_dtype=np.float32)
        ref = sp.linalg.spsolve_triangular(
            a16.to_csr(dtype=np.float64), b.ravel().astype(np.float64),
            lower=True,
        )
        assert np.abs(x.ravel() - ref).max() / np.abs(ref).max() < 1e-2

    @pytest.mark.parametrize("k", [None, 3])
    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("fmt", ["fp16", "fp32", "fp64"])
    @pytest.mark.parametrize("backend", available_backends())
    def test_aos_matches_soa(self, backend, fmt, lower, k):
        """AOS coefficients are read through strided views on the same
        gather tables: the solve is byte-identical to SOA."""
        a = random_sgdia((5, 4, 6), "3d27", seed=4).astype(fmt)
        shape = a.grid.field_shape + ((k,) if k else ())
        b = np.random.default_rng(1).standard_normal(shape).astype(np.float32)
        part = "lower" if lower else "upper"
        with use_backend(backend):
            soa = sptrsv(a, b, lower=lower, part=part)
            aos = sptrsv(a.as_layout("aos"), b, lower=lower, part=part)
        assert soa.dtype == aos.dtype and soa.tobytes() == aos.tobytes()

    def test_flat_input(self, rng):
        a = _triangular_sgdia((4, 4, 4), "3d7")
        b = rng.standard_normal(a.grid.ndof)
        x = sptrsv(a, b, part="all", compute_dtype=np.float64)
        assert x.shape == b.shape

    def test_identity_solve(self):
        g = StructuredGrid((3, 3, 3))
        tri = make_stencil("3d7").lower()
        a = SGDIAMatrix.zeros(g, tri)
        a.diag_view(tri.offsets.index((0, 0, 0)))[...] = 2.0
        b = np.ones(g.field_shape)
        x = sptrsv(a, b, part="all", compute_dtype=np.float64)
        np.testing.assert_allclose(x, 0.5)
