"""Structured ILU(0) smoother for 7-point (3d7) operators.

For the 7-point stencil, ILU(0) has a particularly clean structure: when
eliminating a lower neighbour ``k`` of row ``i``, the only position in
``pattern(i)`` that is also an upper-pattern position of ``k`` is the
diagonal itself, so **only the diagonal is modified** by the factorization:

    u_ii = a_ii - sum_{k in lower(i)} a_ik * a_ki / u_kk,
    L strict-lower entries: a_ik / u_kk,   U strict-upper entries: a_ij.

The recurrence follows the same wavefront order as SpTRSV, so the setup is
vectorized per hyperplane.  Factor data is computed in FP64 and truncated
to the storage precision (Section 4.1: smoother data "calculated in
iterative precision followed by truncation to storage precision"); the
application is two wavefront SpTRSVs with on-the-fly recovery — the exact
kernel pair the paper's Figure 7 benchmarks.

Scalar 3d7 grids only (the paper's rhd and oil problems); other patterns
use SymGS.
"""

from __future__ import annotations

import numpy as np

from ..grid import Stencil
from ..kernels import sptrsv
from ..kernels.sptrsv import wavefront_planes
from ..sgdia import SGDIAMatrix, StoredMatrix
from .base import Smoother

__all__ = ["ILU0"]


def _mirror_index(st: Stencil, d: int) -> int:
    ox, oy, oz = st.offsets[d]
    return st.index_of((-ox, -oy, -oz))


class ILU0(Smoother):
    """ILU(0) smoother, ``x += (LU)^{-1} (b - A x)``, for scalar 3d7 grids."""

    supports_blocks = False

    def __init__(self, sweeps: int = 1) -> None:
        super().__init__()
        if sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        self.sweeps = int(sweeps)
        self.l_factor: "SGDIAMatrix | None" = None  # unit lower, 3d4 pattern
        self.u_factor: "SGDIAMatrix | None" = None  # upper with diagonal
        self.u_diag_inv: "np.ndarray | None" = None
        # the factors have their own (triangular) stencils, hence own plans
        self.l_plan = None
        self.u_plan = None

    # ------------------------------------------------------------------
    def _setup_scaled(self, high: SGDIAMatrix, stored: StoredMatrix) -> None:
        st = high.stencil
        if st.name != "3d7" or high.grid.ncomp != 1:
            raise NotImplementedError(
                "structured ILU(0) is implemented for scalar 3d7 operators"
            )
        grid = high.grid
        nx, ny, nz = grid.shape
        lower_idx = [int(d) for d in st.strict_lower_indices()]
        diag_idx = st.diag_index

        a64 = high.data.astype(np.float64)
        u_diag = np.zeros(grid.shape, dtype=np.float64)
        for (pi, pj, pk) in wavefront_planes(grid.shape):
            acc = a64[diag_idx, pi, pj, pk].copy()
            for d in lower_idx:
                off = st.offsets[d]
                m = _mirror_index(st, d)
                ni, nj, nk = pi + off[0], pj + off[1], pk + off[2]
                valid = (
                    (ni >= 0) & (ni < nx) & (nj >= 0) & (nj < ny)
                    & (nk >= 0) & (nk < nz)
                )
                if not valid.any():
                    continue
                a_ik = a64[d, pi[valid], pj[valid], pk[valid]]
                a_ki = a64[m, ni[valid], nj[valid], nk[valid]]
                ukk = u_diag[ni[valid], nj[valid], nk[valid]]
                upd = np.zeros_like(a_ik)
                nz_mask = ukk != 0
                upd[nz_mask] = a_ik[nz_mask] * a_ki[nz_mask] / ukk[nz_mask]
                np.subtract.at(acc, np.flatnonzero(valid), upd)
            u_diag[pi, pj, pk] = acc
        if np.any(u_diag == 0):
            raise ZeroDivisionError("ILU(0) breakdown: zero pivot")

        storage = stored.storage
        cdtype = stored.compute.np_dtype

        # L: unit diagonal + a_ik / u_kk on strict lower offsets (3d4).
        lower_st = st.lower(include_diagonal=True)
        lf = SGDIAMatrix.zeros(grid, lower_st, dtype=np.float64)
        lf.diag_view(lower_st.diag_index)[...] = 1.0
        for d in lower_idx:
            off = st.offsets[d]
            ld = lower_st.index_of(off)
            vals = a64[d].copy()
            # divide by u at the neighbour cell, where defined
            from ..sgdia import offset_slices

            dst, src = offset_slices(grid.shape, off)
            vals_dst = vals[dst]
            vals_dst /= u_diag[src]
            lf.data[ld][dst] = vals_dst
        lf.zero_boundary()

        # U: diagonal u + unchanged strict-upper entries.
        upper_st = st.upper(include_diagonal=True)
        uf = SGDIAMatrix.zeros(grid, upper_st, dtype=np.float64)
        uf.diag_view(upper_st.offsets.index((0, 0, 0)))[...] = u_diag
        for d in st.strict_upper_indices():
            off = st.offsets[int(d)]
            uf.data[upper_st.index_of(off)][...] = a64[int(d)]
        uf.zero_boundary()

        # Truncate factors to storage precision (kept dtype float32 for bf16).
        self.l_factor = lf.astype(storage)
        self.u_factor = uf.astype(storage)
        self.u_diag_inv = (1.0 / u_diag).astype(cdtype)
        self._l_diag_inv = np.ones(grid.shape, dtype=cdtype)
        from ..kernels.plan import plan_for

        self.l_plan = plan_for(self.l_factor)
        self.u_plan = plan_for(self.u_factor)

    # ------------------------------------------------------------------
    def _smooth_scaled(self, b, x, forward: bool) -> None:
        from ..kernels import spmv_plain

        cdtype = self.compute_dtype
        for _ in range(self.sweeps):
            r = np.asarray(b, dtype=cdtype) - spmv_plain(
                self.matrix, x, compute_dtype=cdtype, plan=self.plan
            )
            z = sptrsv(
                self.l_factor, r, lower=True, part="all",
                diag_inv=self._l_diag_inv, compute_dtype=cdtype,
                plan=self.l_plan,
            )
            e = sptrsv(
                self.u_factor, z, lower=False, part="all",
                diag_inv=self.u_diag_inv, compute_dtype=cdtype,
                plan=self.u_plan,
            )
            x += e

    def extra_nbytes(self) -> int:
        n = 0
        if self.l_factor is not None:
            n += self.l_factor.value_nbytes(self.stored.storage)
            n += self.u_factor.value_nbytes(self.stored.storage)
            n += self.u_diag_inv.nbytes
        return n
