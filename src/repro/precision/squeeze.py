"""Alternative squeezing schemes used as comparison baselines.

The Ginkgo three-precision AMG (the paper's main prior-art comparison, its
reference [33]) avoids FP16 overflow with the symmetry-preserving row/column
equilibration of Higham, Pranesh & Zounon (SIAM J. Sci. Comput. 41(4), 2019,
Algorithm 2.5).  We provide it here so benchmarks can contrast it with the
paper's diagonal-based setup-then-scale strategy.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..observability import metrics as _metrics
from ..observability import trace as _trace
from .types import FP16, range_counts

__all__ = ["symmetric_equilibrate", "equilibration_scaling_vectors"]


def equilibration_scaling_vectors(
    a: sp.spmatrix, iterations: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Row/column scaling vectors of Higham et al. Algorithm 2.5.

    One iteration computes ``r_i = max_j |a_ij|^{1/2}`` and
    ``c_j = max_i |a_ij|^{1/2}`` and divides each entry by ``r_i c_j``;
    further iterations refine on the scaled matrix.  Returns the cumulative
    ``(r, c)`` vectors such that the equilibrated matrix is
    ``diag(1/r) A diag(1/c)``.
    """
    a = sp.csr_matrix(a, dtype=np.float64, copy=True)
    n_rows, n_cols = a.shape
    r_total = np.ones(n_rows)
    c_total = np.ones(n_cols)
    for _ in range(iterations):
        abs_a = abs(a)
        row_max = np.asarray(abs_a.max(axis=1).todense()).ravel()
        col_max = np.asarray(abs_a.max(axis=0).todense()).ravel()
        r = np.sqrt(np.where(row_max > 0, row_max, 1.0))
        c = np.sqrt(np.where(col_max > 0, col_max, 1.0))
        a = sp.diags(1.0 / r) @ a @ sp.diags(1.0 / c)
        r_total *= r
        c_total *= c
    return r_total, c_total


def symmetric_equilibrate(
    a: sp.spmatrix, iterations: int = 1
) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """Equilibrate ``A`` so its entries lie in roughly unit range.

    Returns ``(A_scaled, r, c)`` with ``A_scaled = diag(1/r) A diag(1/c)``.
    For a symmetric ``A`` the row and column vectors coincide and symmetry is
    preserved.
    """
    with _trace.span("scale", scheme="equilibrate"):
        r, c = equilibration_scaling_vectors(a, iterations)
        a_scaled = (
            sp.diags(1.0 / r) @ sp.csr_matrix(a, dtype=np.float64) @ sp.diags(1.0 / c)
        )
        a_scaled = sp.csr_matrix(a_scaled)
        if _metrics.active():
            # What the equilibrated values would still suffer in FP16 — the
            # same event taxonomy the Algorithm-1 setup path reports.
            _metrics.incr("setup.scale.calls")
            counts = range_counts(a_scaled.data, FP16)
            _metrics.incr("precision.overflow_clamp", counts.n_overflow)
            _metrics.incr("precision.underflow_flush", counts.n_underflow)
            _metrics.incr("precision.subnormal", counts.n_subnormal)
    return a_scaled, r, c
