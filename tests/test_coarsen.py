"""Tests for interpolation, transfers and Galerkin coarsening."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.coarsen import (
    build_transfer,
    choose_coarsen_factors,
    constant_coefficient_coarse_stencil,
    galerkin_coarse_sgdia,
    galerkin_product,
    injection_1d,
    interp_1d,
)
from repro.grid import StructuredGrid, stencil as make_stencil
from repro.kernels import available_backends, use_backend
from repro.mg import MGOptions, mg_setup
from repro.precision import parse_config
from repro.problems.laplace import laplace27_matrix
from repro.sgdia import SGDIAMatrix

from tests.helpers import csr_apply, csr_transfer, random_sgdia

#: the kernel backends to run every transfer and Galerkin case on
BACKENDS = tuple(b for b in ("numpy", "c") if b in available_backends())


def _dense(t) -> tuple[np.ndarray, np.ndarray]:
    """``(P, R)`` as applied by the transfer kernels: each applied to an
    identity block, in FP64."""
    p = t.prolongate(np.eye(t.coarse.ndof), dtype=np.float64)
    r = t.restrict(np.eye(t.fine.ndof), dtype=np.float64)
    return p.reshape(t.fine.ndof, -1), r.reshape(t.coarse.ndof, -1)


class TestInterp1D:
    @pytest.mark.parametrize("n", [2, 5, 8, 9, 13])
    def test_rows_sum_to_one(self, n):
        p = interp_1d(n, 2)
        np.testing.assert_allclose(np.asarray(p.sum(axis=1)).ravel(), 1.0)

    def test_coarse_points_injected(self):
        p = interp_1d(9, 2).toarray()
        for c in range(5):
            assert p[2 * c, c] == 1.0

    def test_midpoints_averaged(self):
        p = interp_1d(9, 2).toarray()
        assert p[1, 0] == p[1, 1] == 0.5

    def test_factor_one_identity(self):
        p = interp_1d(7, 1)
        np.testing.assert_array_equal(p.toarray(), np.eye(7))

    def test_factor_four_weights(self):
        p = interp_1d(9, 4).toarray()
        np.testing.assert_allclose(p[1, 0], 0.75)
        np.testing.assert_allclose(p[1, 1], 0.25)

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            interp_1d(5, 0)

    def test_injection(self):
        r = injection_1d(9, 2).toarray()
        assert r.shape == (9, 5)
        assert r.sum() == 5


class TestTransfer:
    def test_shapes(self):
        g = StructuredGrid((8, 6, 9))
        t = build_transfer(g)
        assert t.coarse.shape == (4, 3, 5)
        p, r = csr_transfer(t)
        assert p.shape == (g.ndof, t.coarse.ndof)
        assert r.shape == (t.coarse.ndof, g.ndof)

    def test_restriction_is_transpose(self):
        g = StructuredGrid((6, 6, 6))
        t = build_transfer(g)
        p, r = _dense(t)
        diff = abs(p.T - r)
        assert diff.max() < 1e-7

    def test_block_transfer(self):
        g = StructuredGrid((6, 6, 6), ncomp=3)
        t = build_transfer(g)
        assert csr_transfer(t)[0].shape == (g.ndof, t.coarse.ndof)
        assert t.coarse.ncomp == 3

    def test_prolongate_constant_preserved(self):
        g = StructuredGrid((7, 8, 9))
        t = build_transfer(g)
        xc = np.ones(t.coarse.field_shape, dtype=np.float32)
        xf = t.prolongate(xc)
        np.testing.assert_allclose(xf, 1.0, rtol=1e-6)

    def test_prolongate_linear_exact(self):
        """Tri-linear interpolation reproduces linear functions exactly
        (away from the clamped tail)."""
        g = StructuredGrid((9, 9, 9))
        t = build_transfer(g)
        ii, jj, kk = np.meshgrid(
            np.arange(5), np.arange(5), np.arange(5), indexing="ij"
        )
        lin_c = 2.0 * ii + 3.0 * jj - kk
        fine = t.prolongate(lin_c.astype(np.float64))
        fi, fj, fk = np.meshgrid(
            np.arange(9), np.arange(9), np.arange(9), indexing="ij"
        )
        expect = (2.0 * fi + 3.0 * fj - fk) / 2.0
        np.testing.assert_allclose(fine, expect, rtol=1e-12)

    def test_restrict_shape_and_adjoint(self):
        g = StructuredGrid((8, 8, 8))
        t = build_transfer(g)
        rng = np.random.default_rng(0)
        xf = rng.standard_normal(g.field_shape)
        xc = rng.standard_normal(t.coarse.field_shape)
        lhs = np.vdot(t.restrict(xf).ravel(), xc.ravel())
        rhs = np.vdot(xf.ravel(), t.prolongate(xc).ravel())
        assert lhs == pytest.approx(rhs, rel=1e-5)

    def test_injection_kind(self):
        g = StructuredGrid((8, 8, 8))
        t = build_transfer(g, kind="injection")
        xc = np.ones(t.coarse.field_shape)
        xf = t.prolongate(xc)
        assert xf[0, 0, 0] == 1.0 and xf[1, 1, 1] == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_transfer(StructuredGrid((4, 4, 4)), kind="cubic")

    def test_semicoarsening_factors(self):
        g = StructuredGrid((8, 8, 8))
        t = build_transfer(g, factors=(2, 2, 1))
        assert t.coarse.shape == (4, 4, 8)

    @pytest.mark.parametrize("kind", ["linear", "injection"])
    @pytest.mark.parametrize(
        "factors", [(2, 2, 2), (1, 2, 4), (4, 1, 2), (2, 1, 1)]
    )
    @pytest.mark.parametrize("ncomp", [1, 2, 3, 4])
    def test_byte_identical_to_csr_oracle(self, ncomp, factors, kind):
        """Restrict and prolong equal scipy's CSR matvec of the assembled
        ``P`` and ``R`` byte for byte, on every backend: 2- to 5-point
        axes, fp32 and fp64, a vector and blocks of 1, 3 and 8 columns
        (field-shaped and ``(ndof, k)``)."""
        rng = np.random.default_rng(3)
        for shape in ORACLE_SHAPES + [(5, 5, 5)]:
            t = build_transfer(StructuredGrid(shape, ncomp=ncomp), factors, kind)
            p, r = csr_transfer(t)
            for dtype in (np.float32, np.float64):
                for k in (None, 1, 3, 8):
                    for mat, src, dst, apply in (
                        (r, t.fine, t.coarse, t.restrict),
                        (p, t.coarse, t.fine, t.prolongate),
                    ):
                        fs = src.field_shape + ((k,) if k else ())
                        x = rng.standard_normal(fs).astype(dtype)
                        ref = csr_apply(mat, x, src, dst, dtype)
                        inputs = [x] + ([x.reshape(src.ndof, k)] if k else [])
                        for backend in BACKENDS:
                            for xin in inputs:
                                with use_backend(backend):
                                    got = apply(xin, dtype=dtype)
                                assert got.dtype == ref.dtype
                                assert got.shape == ref.shape
                                assert got.tobytes() == ref.tobytes(), (
                                    backend, shape, dtype, k)

    @pytest.mark.parametrize("kind", ["linear", "injection"])
    def test_keeps_1d_factors(self, kind):
        g = StructuredGrid((5, 4, 7), ncomp=2)
        t = build_transfer(g, factors=(2, 1, 4), kind=kind)
        p1 = sp.kron(sp.kron(t.p1d[0], t.p1d[1]), t.p1d[2])
        p = sp.kron(p1, sp.identity(2)).toarray()
        np.testing.assert_array_equal(p, _dense(t)[0])


class TestChooseFactors:
    def test_isotropic_full(self):
        g = StructuredGrid((16, 16, 16))
        assert choose_coarsen_factors(g) == (2, 2, 2)

    def test_short_axis_skipped(self):
        g = StructuredGrid((16, 16, 4))
        assert choose_coarsen_factors(g) == (2, 2, 1)

    def test_anisotropy_semicoarsening(self):
        g = StructuredGrid((16, 16, 16))
        f = choose_coarsen_factors(g, anisotropy_weights=(1.0, 1.0, 100.0))
        assert f == (1, 1, 2)

    def test_mild_anisotropy_full(self):
        g = StructuredGrid((16, 16, 16))
        f = choose_coarsen_factors(g, anisotropy_weights=(1.0, 1.0, 3.0))
        assert f == (2, 2, 2)

    def test_deadlock_avoided(self):
        g = StructuredGrid((16, 16, 16))
        # all axes below threshold relative to... cannot happen, but the
        # guard must coarsen something rather than loop forever
        f = choose_coarsen_factors(
            g, anisotropy_weights=(1.0, 1.0, 1.0), semi_threshold=0.1
        )
        assert any(x == 2 for x in f)


#: Axes of 2 to 5 points, odd and even, in every position.
ORACLE_SHAPES = [(2, 3, 4), (5, 4, 3), (3, 5, 2), (4, 2, 5)]


def _planted_zeros(a: SGDIAMatrix, seed: int) -> SGDIAMatrix:
    """Exact zeros in a fifth of the entries and in one whole off-diagonal."""
    rng = np.random.default_rng(seed)
    a.data[rng.random(a.data.shape) < 0.2] = 0.0
    off = [d for d in range(a.ndiag) if d != a.stencil.diag_index]
    a.diag_view(off[seed % len(off)])[...] = 0.0
    return a


def _oracle(a: SGDIAMatrix, t) -> tuple[np.ndarray, np.ndarray]:
    """scipy's ``R A P`` and ``|R||A||P|``, dense."""
    csr = a.to_csr()
    p, r = csr_transfer(t)
    bound = abs(r) @ abs(csr) @ abs(p)
    return galerkin_product(csr, t).toarray(), bound.toarray()


def _collapse_reference(a: sp.spmatrix, grid, pattern: str) -> np.ndarray:
    """Per-entry collapse of a CSR product onto ``pattern``, dense.

    Each out-of-pattern entry goes, if negative, in equal shares to the
    face offsets it decomposes into that the pattern keeps, else (or with
    no such face) to the diagonal; it keeps its row and block column.
    """
    st = make_stencil(pattern)
    coo = sp.coo_matrix(a)
    r = grid.ncomp
    out = np.zeros(a.shape)
    for row, col, val in zip(coo.row, coo.col, coo.data):
        here = np.array(grid.cell_coords(row // r))
        d = np.array(grid.cell_coords(col // r)) - here
        if tuple(d) in st:
            out[row, col] += val
            continue
        units = [
            u for u in (np.eye(3, dtype=int)[ax] * np.sign(d[ax])
                        for ax in range(3) if d[ax])
            if tuple(u) in st
        ]
        targets = units if val < 0 and units else [np.zeros(3, dtype=int)]
        for u in targets:
            cell = grid.cell_index(*(here + u))
            out[row, cell * r + col % r] += val / len(targets)
    return out


class TestGalerkin:
    def test_matches_direct_product(self):
        a = random_sgdia((6, 6, 6), "3d7", spd=True)
        t = build_transfer(a.grid)
        coarse = galerkin_product(a.to_csr(), t)
        p, r = csr_transfer(t)
        ref = r @ a.to_csr() @ p
        assert abs(coarse - ref).max() < 1e-12

    @pytest.mark.parametrize("kind", ["linear", "injection"])
    @pytest.mark.parametrize(
        "factors", [(2, 2, 2), (1, 2, 2), (2, 1, 1), (4, 4, 2)]
    )
    @pytest.mark.parametrize("ncomp", [1, 2, 3, 4])
    @pytest.mark.parametrize("pattern", ["3d7", "3d15", "3d19", "3d27"])
    def test_matches_scipy_oracle(self, pattern, ncomp, factors, kind):
        """Entrywise within a few ulps of ``|R||A||P|`` of scipy's SpGEMM,
        exact zeros planted in the operator; every backend forms the same
        coarse operator byte for byte."""
        eps = np.finfo(np.float64).eps
        for seed, shape in enumerate(ORACLE_SHAPES):
            a = _planted_zeros(
                random_sgdia(shape, pattern, ncomp=ncomp, seed=seed), seed
            )
            t = build_transfer(a.grid, factors, kind=kind)
            per_backend = []
            for backend in BACKENDS:
                with use_backend(backend):
                    # raises if outside 3d27
                    per_backend.append(galerkin_coarse_sgdia(a, t))
            coarse = per_backend[0]
            for other in per_backend[1:]:  # compiled == numpy, byte for byte
                assert other.data.tobytes() == coarse.data.tobytes()
            assert coarse.grid == t.coarse
            assert coarse.boundary_is_zero()
            ref, bound = _oracle(a, t)
            err = np.abs(coarse.to_csr().toarray() - ref)
            assert np.all(err <= 4 * eps * bound), (shape, err.max())

    @pytest.mark.parametrize(
        "shape", [(16, 16, 16), (17, 17, 17), (9, 8, 7), (12, 12, 8)]
    )
    @pytest.mark.parametrize(
        "factors", [(2, 2, 2), (1, 2, 2), (2, 1, 1), (4, 4, 2)]
    )
    def test_laplace27_byte_identical_to_scipy(self, shape, factors):
        """Constant-coefficient laplace27 sums are exact: two levels of the
        structured product equal scipy's SpGEMM byte for byte."""
        a = laplace27_matrix(shape)
        for level_factors in (factors, (2, 2, 2)):
            t = build_transfer(a.grid, level_factors)
            coarse = galerkin_coarse_sgdia(a, t)
            ref = SGDIAMatrix.from_csr(
                galerkin_product(a.to_csr(), t), t.coarse, "3d27"
            )
            assert coarse.data.tobytes() == ref.data.tobytes()
            a = coarse

    @pytest.mark.parametrize("pattern", ["3d7", "3d19", "3d27"])
    def test_coarse_fits_3d27(self, pattern):
        a = random_sgdia((8, 8, 8), pattern, spd=True)
        t = build_transfer(a.grid)
        coarse = galerkin_coarse_sgdia(a, t)  # raises if outside pattern
        assert coarse.stencil.name == "3d27"
        assert coarse.grid.shape == (4, 4, 4)

    def test_block_coarse(self):
        a = random_sgdia((6, 6, 6), "3d7", ncomp=2, spd=True)
        t = build_transfer(a.grid)
        coarse = galerkin_coarse_sgdia(a, t)
        p, r = csr_transfer(t)
        ref = r @ a.to_csr() @ p
        assert abs(coarse.to_csr() - ref).max() < 1e-10

    def test_spd_preserved(self):
        a = random_sgdia((6, 6, 6), "3d7", spd=True, diag_boost=8.0)
        t = build_transfer(a.grid)
        coarse = galerkin_coarse_sgdia(a, t).to_csr().toarray()
        np.testing.assert_allclose(coarse, coarse.T, atol=1e-10)
        assert np.linalg.eigvalsh(coarse).min() > 0

    def test_matches_constant_stencil_reference(self):
        """Interior coarse stencil equals the convolution-algebra RAP."""
        fine = {
            off: (6.0 if off == (0, 0, 0) else -1.0)
            for off in make_stencil("3d7").offsets
        }
        ref = constant_coefficient_coarse_stencil(fine, (2, 2, 2))
        a = SGDIAMatrix.from_constant_stencil(
            StructuredGrid((17, 17, 17)),
            "3d7",
            [fine[o] for o in make_stencil("3d7").offsets],
        )
        t = build_transfer(a.grid)
        coarse = galerkin_coarse_sgdia(a, t)
        centre = (4, 4, 4)  # interior coarse cell
        for off, val in ref.items():
            d = coarse.stencil.index_of(off)
            got = coarse.diag_view(d)[centre]
            assert got == pytest.approx(val, rel=1e-12), off

    @pytest.mark.parametrize("ncomp", [1, 3])
    @pytest.mark.parametrize("pattern", ["3d7", "3d15", "3d19"])
    def test_collapse_preserves_row_sums(self, pattern, ncomp):
        a = _planted_zeros(
            random_sgdia((7, 8, 6), "3d27", ncomp=ncomp, spd=True), 1
        )
        t = build_transfer(a.grid)
        full = galerkin_product(a.to_csr(), t)
        collapsed = galerkin_coarse_sgdia(
            a, t, coarse_pattern=pattern, collapse=True
        )
        assert collapsed.stencil.name == pattern
        np.testing.assert_allclose(
            np.asarray(collapsed.to_csr().sum(axis=1)).ravel(),
            np.asarray(full.sum(axis=1)).ravel(),
            rtol=1e-10,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            collapsed.to_csr().toarray(),
            _collapse_reference(full, t.coarse, pattern),
            rtol=1e-12,
            atol=1e-14,
        )

    def test_collapse_is_sign_aware(self):
        """On an M-matrix product, dropped couplings only strengthen the
        retained face couplings, and the diagonal never shrinks."""
        a = laplace27_matrix((9, 9, 9))
        t = build_transfer(a.grid)
        full = galerkin_coarse_sgdia(a, t)
        collapsed = galerkin_coarse_sgdia(a, t, coarse_pattern="3d7", collapse=True)
        for d, off in enumerate(collapsed.stencil.offsets):
            got = collapsed.diag_view(d)
            ref = full.diag_view(full.stencil.index_of(off))
            if off == (0, 0, 0):
                assert np.all(got >= ref)
            else:
                assert np.all(got <= ref)

    def test_strict_rejects_out_of_pattern(self):
        a = random_sgdia((8, 8, 8), "3d19", spd=True)
        t = build_transfer(a.grid)
        with pytest.raises(ValueError, match="outside stencil"):
            galerkin_coarse_sgdia(a, t, coarse_pattern="3d7", collapse=False)

    def test_aggressive_factor_four(self):
        a = laplace27_matrix((17, 17, 17))
        t = build_transfer(a.grid, factors=(4, 4, 4))
        coarse = galerkin_coarse_sgdia(a, t)
        assert coarse.grid.shape == (5, 5, 5)

    def test_setup_never_converts_to_csr(self, monkeypatch):
        """With no coarsest direct LU, setup touches no CSR operator."""
        a = laplace27_matrix((17, 17, 17))

        def refuse(*args, **kwargs):
            raise AssertionError("setup converted an operator through CSR")

        monkeypatch.setattr(SGDIAMatrix, "to_csr", refuse)
        monkeypatch.setattr(SGDIAMatrix, "from_csr", refuse)
        for config in ("K64P32D16-setup-scale", "K64P32D16-scale-setup"):
            for pattern in ("galerkin", "same"):
                hierarchy = mg_setup(
                    a, parse_config(config),
                    MGOptions(coarse_solver="smoother", coarse_pattern=pattern),
                )
                assert hierarchy.n_levels >= 3


class TestConstantStencilRAP:
    def test_1d_laplacian_halves(self):
        """Classic result: RAP of tridiag(-1,2,-1) with linear interp is
        tridiag(-1/2, 1, -1/2)."""
        fine = {(0, 0, 1): -1.0, (0, 0, -1): -1.0, (0, 0, 0): 2.0}
        coarse = constant_coefficient_coarse_stencil(fine, (1, 1, 2))
        assert coarse[(0, 0, 0)] == pytest.approx(1.0)
        assert coarse[(0, 0, 1)] == pytest.approx(-0.5)
        assert coarse[(0, 0, -1)] == pytest.approx(-0.5)

    def test_identity_under_injection_like_factor1(self):
        fine = {(0, 0, 0): 3.0, (1, 0, 0): -1.0, (-1, 0, 0): -1.0}
        coarse = constant_coefficient_coarse_stencil(fine, (1, 1, 1))
        assert coarse == pytest.approx(fine)

    def test_row_sum_preserved_for_singular_operator(self):
        """Galerkin preserves the null space action: zero row sums stay
        zero for the periodic-interior Laplacian stencil."""
        st7 = make_stencil("3d7")
        fine = {off: (6.0 if off == (0, 0, 0) else -1.0) for off in st7.offsets}
        coarse = constant_coefficient_coarse_stencil(fine, (2, 2, 2))
        assert sum(coarse.values()) == pytest.approx(0.0, abs=1e-12)
