"""Setup kernels: Algorithm 1's per-level scale, range audit and truncation.

Numpy references of the two kernel-table entries that the setup runs on
every level of the FP64 Galerkin chain (paper Algorithm 1, lines 5-12):

``truncate_audit``
    One level's values, optionally scaled two-sided by ``W = Q^{-1/2}``
    (:meth:`~repro.sgdia.SGDIAMatrix.scaled_two_sided`), audited against
    one format's range (:func:`~repro.precision.range_counts`) and truncated
    to the storage format (:func:`~repro.precision.truncate`).  The compiled
    kernel does all three in one read of the FP64 array and must give the
    same bytes: the scaled operator, the payload (FP64 -> FP16 rounded once,
    as numpy's cast does) and the counts.

``scaled_ratio``
    Theorem 4.1's ``max_ij |a_ij| / sqrt(a_ii a_jj)``, the input to
    ``G_max`` (:meth:`~repro.sgdia.SGDIAMatrix.max_scaled_ratio`).
"""

from __future__ import annotations

import numpy as np

from ..precision import range_counts
from ..sgdia.matrix import offset_slices

__all__ = ["truncate_audit_ref", "scaled_ratio_ref"]


def truncate_audit_ref(a, weight=None, storage=None, audit="fp16"):
    """Scale (if ``weight``), audit and truncate one SG-DIA operator.

    ``weight`` is the per-dof field ``W`` of ``W A W`` (``None``: no
    scaling); ``storage`` the payload format (``None``: no payload);
    ``audit`` the format the values are audited against.  Returns
    ``(payload, scaled, counts)``: the payload array or ``None``, the scaled
    FP64 values or ``None`` when there is no ``weight``, and the
    :class:`~repro.precision.RangeCounts` of the values truncated.
    """
    scaled = a if weight is None else a.scaled_two_sided(weight)
    payload = None if storage is None else scaled.astype(storage).data
    return (payload, None if weight is None else scaled.data,
            range_counts(scaled.data, audit))


def scaled_ratio_ref(a, sqrt_d) -> float:
    """``max |a_ij| / (sqrt_d_i * sqrt_d_j)`` over the stored entries whose
    neighbour is in the grid; ``sqrt_d`` is the square root of the per-dof
    diagonal (field shape).  Zero entries count as 0."""
    best = 0.0
    for d, off in enumerate(a.stencil.offsets):
        dst, src = offset_slices(a.grid.shape, off)
        vals = np.abs(a.diag_view(d)[dst].astype(np.float64))
        if a.grid.ncomp == 1:
            denom = sqrt_d[dst] * sqrt_d[src]
        else:
            denom = sqrt_d[dst][..., :, None] * sqrt_d[src][..., None, :]
        with np.errstate(invalid="ignore"):
            ratio = np.where(vals > 0, vals / denom, 0.0)
        if ratio.size:
            best = max(best, float(ratio.max()))
    return best
