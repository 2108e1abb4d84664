"""Regression tests for the batched-path correctness fixes.

Each test class pins one bug:

- ``field_view`` misclassifying an ``(ndof, 1)`` block as an unbatched
  vector (the flat-size check used to run before the 2-D block check);
- ``sptrsv`` rejecting ``(ndof, k)`` / field-shape-plus-batch inputs;
- the line smoother crashing on batched right-hand sides;
- ``CommStats.record_allreduce`` dropping bytes from the per-phase bucket;
- the grid transfers flattening a one-column RHS block.

Plus the blanket guarantee: EVERY registered smoother handles a batched
RHS block bit-identically to column-by-column application.
"""

import numpy as np
import pytest

from repro.grid import StructuredGrid
from repro.kernels import compute_diag_inv, field_view, sptrsv
from repro.mg import MGOptions, mg_setup
from repro.parallel.comm import CommStats
from repro.precision import parse_config
from repro.problems import build_problem
from repro.sgdia import StoredMatrix
from repro.smoothers import _REGISTRY, make_smoother
from repro.solvers import batched_cg, solve

from tests.helpers import random_sgdia


class TestFieldViewBlockClassification:
    def test_single_column_block_stays_batched(self):
        """(ndof, 1) is a block with k=1, not a flat vector."""
        grid = StructuredGrid((4, 3, 5))
        x = np.arange(grid.ndof, dtype=np.float32).reshape(grid.ndof, 1)
        xf, batched = field_view(grid, x)
        assert batched is True
        assert xf.shape == grid.field_shape + (1,)

    def test_flat_vector_still_unbatched(self):
        grid = StructuredGrid((4, 3, 5))
        x = np.arange(grid.ndof, dtype=np.float32)
        xf, batched = field_view(grid, x)
        assert batched is False
        assert xf.shape == grid.field_shape

    def test_multi_column_block(self):
        grid = StructuredGrid((4, 3, 5))
        x = np.zeros((grid.ndof, 3), dtype=np.float32)
        xf, batched = field_view(grid, x)
        assert batched is True
        assert xf.shape == grid.field_shape + (3,)


class TestSptrsvBatched:
    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("fmt", ["fp32", "fp16"])
    def test_batched_matches_per_column(self, lower, fmt):
        a = random_sgdia((6, 5, 4), "3d7").astype(fmt)
        dinv = compute_diag_inv(a)
        part = "lower" if lower else "upper"
        rng = np.random.default_rng(0)
        k = 3
        bb = rng.standard_normal(a.grid.field_shape + (k,)).astype(np.float32)
        got = sptrsv(a, bb, lower=lower, part=part, diag_inv=dinv)
        assert got.shape == bb.shape
        for j in range(k):
            col = sptrsv(a, bb[..., j], lower=lower, part=part, diag_inv=dinv)
            assert np.array_equal(
                got[..., j].view(np.uint32), col.view(np.uint32)
            )

    def test_ndof_k_block_shape(self):
        """The flat (ndof, k) convention round-trips through sptrsv."""
        a = random_sgdia((5, 4, 6), "3d7")
        dinv = compute_diag_inv(a)
        rng = np.random.default_rng(1)
        bb = rng.standard_normal((a.grid.ndof, 2)).astype(np.float32)
        got = sptrsv(a, bb, lower=True, part="lower", diag_inv=dinv)
        assert got.shape == (a.grid.ndof, 2)
        col = sptrsv(
            a, bb[:, 0].reshape(a.grid.field_shape),
            lower=True, part="lower", diag_inv=dinv,
        )
        assert np.array_equal(
            got[:, 0].reshape(a.grid.field_shape).view(np.uint32),
            col.view(np.uint32),
        )


class TestCommStatsAllreduceBucket:
    def test_phase_bucket_gets_bytes(self):
        cs = CommStats()
        cs.set_phase("solve")
        cs.record_allreduce(800)
        cs.record_allreduce(200)
        assert cs.allreduce_bytes == 1000
        assert cs.by_phase["solve"]["allreduce_bytes"] == 1000

    def test_phases_reconcile_with_globals(self):
        """Sum over phase buckets must equal every global counter."""
        cs = CommStats()
        cs.set_phase("setup")
        cs.record_p2p(64)
        cs.record_allreduce(8)
        cs.set_phase("solve")
        cs.record_allreduce(16)
        cs.record_p2p(32)
        d = cs.to_dict()
        for key in ("p2p_messages", "p2p_bytes", "allreduces", "allreduce_bytes"):
            assert d[key] == sum(b[key] for b in d["by_phase"].values()), key

    def test_merge_keeps_buckets_reconciled(self):
        a, b = CommStats(), CommStats()
        a.set_phase("solve")
        a.record_allreduce(8)
        b.set_phase("solve")
        b.record_allreduce(24)
        a.merge(b)
        assert a.allreduce_bytes == 32
        assert a.by_phase["solve"]["allreduce_bytes"] == 32


def _smoother_operator(name):
    """An operator each smoother supports (line wants anisotropy to pick
    an axis; ilu0/line are scalar-3d7-only)."""
    if name in ("ilu0", "line"):
        a = random_sgdia((6, 5, 4), "3d7", spd=True, diag_boost=8.0)
    else:
        a = random_sgdia((6, 5, 4), "3d27", spd=True, diag_boost=8.0)
    return a


class TestAllSmoothersBatched:
    @pytest.mark.parametrize("name", sorted(_REGISTRY))
    def test_batched_bit_identical_to_sequential(self, name):
        operators = [_smoother_operator(name)]
        if make_smoother(name).supports_blocks:
            # 4x4 blocks: a single column must sum each block product in
            # the order a column of the batch does
            operators.append(
                random_sgdia((6, 5, 4), "3d27", ncomp=4, spd=True, diag_boost=8.0)
            )
        for a in operators:
            stored = StoredMatrix.truncate(a, "fp32", "fp32", scale="never")
            rng = np.random.default_rng(3)
            k = 3
            bb = rng.standard_normal(a.grid.field_shape + (k,)).astype(np.float32)
            x0 = rng.standard_normal(a.grid.field_shape + (k,)).astype(np.float32)

            sm = make_smoother(name).setup(a, stored)
            xb = x0.copy()
            sm.smooth(bb, xb, forward=True)

            for j in range(k):
                xc = x0[..., j].copy()
                sm.smooth(bb[..., j], xc, forward=True)
                assert np.array_equal(
                    xb[..., j].view(np.uint32), xc.view(np.uint32)
                ), (
                    f"smoother {name!r} batched column {j} diverges from "
                    f"sequential (ncomp={a.grid.ncomp})"
                )

    @pytest.mark.parametrize("name", sorted(_REGISTRY))
    def test_batched_fp16_payload(self, name):
        """Batched smoothing also works against a scaled FP16 payload."""
        a = _smoother_operator(name)
        a.data *= 3e6  # force the need-to-scale branch
        stored = StoredMatrix.truncate(a, "fp16", "fp32", scale="auto")
        inv = (1.0 / stored.scaling.sqrt_q).astype(np.float64)
        high = a.scaled_two_sided(inv)
        sm = make_smoother(name).setup(high, stored)
        rng = np.random.default_rng(4)
        bb = rng.standard_normal(a.grid.field_shape + (2,)).astype(np.float32)
        xb = np.zeros_like(bb)
        sm.smooth(bb, xb, forward=True)
        assert np.all(np.isfinite(xb))
        assert np.any(xb != 0)


class TestLineSmootherBatchedRegression:
    def test_hierarchy_precondition_ndof_k(self):
        """The original crash: MG preconditioning an (ndof, k) block with
        the line smoother raised a broadcasting error in the tridiagonal
        solve."""
        a = random_sgdia((10, 10, 8), "3d7", spd=True, diag_boost=8.0)
        h = mg_setup(
            a,
            parse_config("Full64"),
            MGOptions(smoother="line", min_coarse_dofs=50),
        )
        rng = np.random.default_rng(0)
        b = rng.standard_normal((a.grid.ndof, 3))
        e = h.precondition(b)  # must not raise
        assert e.shape == (a.grid.ndof, 3)
        # The smoothers are bit-identical column-wise (asserted above); the
        # full hierarchy is only near-exact because LAPACK's multi-RHS
        # triangular solve in the coarse direct solver may take a blocked
        # code path (observed: <=1 ULP on a handful of entries).
        for j in range(3):
            ej = h.precondition(b[:, j])
            np.testing.assert_allclose(e[:, j], ej, rtol=0, atol=1e-14)


class TestOneColumnBlock:
    """A one-column RHS block, ``(ndof, 1)`` or ``field_shape + (1,)``,
    keeps its batch axis through restrict and prolong (the transfers used
    to flatten it, and the next level's sweep raised on the mismatch)."""

    @pytest.mark.parametrize("layout", ["ndof", "field"])
    @pytest.mark.parametrize(
        "name,shape", [("laplace27", (16, 16, 16)), ("solid-3d", (12, 12, 8))]
    )
    def test_batched_cg_equals_cg(self, name, shape, layout):
        """Every column of a block is ``cg`` on that column, byte for byte
        (x, status, iterations, history): a one-column block; a block in
        FP32 working precision, whose FP64 operator returns FP64 products;
        and a Fortran-ordered block and ``x0`` whose columns stop at
        different iterations (the RHS scaled by 1e3 and 1e-3 at a tight
        rtol) next to a zero column, converged at 0 iterations.  Both
        solves update ``x`` in place through ``(n, k)`` views, which a
        Fortran-ordered ``x0`` would silently turn into copies, so each
        answer is also checked against the FP64 operator."""
        prob = build_problem(name, shape, seed=0)
        h = mg_setup(prob.a, parse_config("K64P32D16-setup-scale"), prob.mg_options)
        csr = prob.a.to_csr()
        b = np.asarray(prob.b, dtype=np.float64).ravel()
        col = (prob.a.grid.ndof,) if layout == "ndof" else prob.a.grid.field_shape
        guess = np.random.default_rng(1).standard_normal(b.size)
        zero = np.zeros_like(b)

        def block(columns):
            return np.asfortranarray(
                np.stack(columns, axis=-1).reshape(col + (len(columns),))
            )

        for rhs, x0, rtol, dtype in [
            (block([b]), None, prob.rtol, np.float64),
            (block([b, 1e-3 * b]), None, 1e-5, np.float32),
            (block([1e3 * b, 1e-3 * b, zero]), block([guess, guess, zero]),
             1e-12, np.float64),
        ]:
            got = batched_cg(
                prob.a, rhs, x0=x0, preconditioner=h.precondition,
                rtol=rtol, maxiter=500, dtype=dtype,
            )
            for j, res in enumerate(got):
                ref = solve(
                    "cg", prob.a, rhs[..., j],
                    x0=None if x0 is None else x0[..., j],
                    preconditioner=h.precondition, rtol=rtol, maxiter=500,
                    dtype=dtype,
                )
                assert res.status == ref.status == "converged"
                assert res.iterations == ref.iterations
                assert res.history.norms == ref.history.norms
                assert res.x.shape == ref.x.shape == col
                assert res.x.tobytes() == ref.x.tobytes()
                bj = rhs[..., j].ravel()
                true = np.linalg.norm(bj - csr @ res.x.ravel())
                assert true <= 10 * rtol * np.linalg.norm(bj)
        iterations = [res.iterations for res in got]
        assert iterations[0] != iterations[1] and iterations[2] == 0
