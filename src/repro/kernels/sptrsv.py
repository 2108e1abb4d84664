"""Sparse triangular solve (SpTRSV) on SG-DIA matrices via wavefronts.

SpTRSV is the heart of the SymGS/ILU smoothers and — per the HPCG profiling
the paper cites in Section 5 — the single most time-consuming kernel of the
whole workflow.  The structured-grid parallelization is hyperplane wavefront
scheduling: with plane index ``p = 4i + 2j + k`` every lexicographically
*lower* radius-1 offset strictly decreases ``p`` (its first nonzero
coordinate is negative: ``-4 + 2 + 1 < 0``, ``-2 + 1 < 0``, ``-1 < 0``),
so cells on one plane depend only on earlier planes and each plane is solved
as one vectorized gather/multiply.

The symbolic analysis (grouping cells into planes) depends only on the grid
shape and is cached; the per-plane gather tables built from it live in the
operator structure's :class:`~repro.kernels.plan.KernelPlan` — matching the
paper's measurement protocol, which excludes symbolic analysis time from
the SpTRSV comparisons (Section 7.2).  Every solve dispatches to the active
kernel backend; :func:`sptrsv_ref` is the numpy reference.

Scalar grids only; block smoothers use the multicolor sweeps instead.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..observability import metrics as _metrics
from ..sgdia import SGDIAMatrix
from .backend import get_backend
from .plan import plan_for
from .spmv import field_view

__all__ = ["sptrsv", "wavefront_planes", "TriangularPart"]

TriangularPart = str  # "lower" | "upper" | "all"

_WEIGHTS = (4, 2, 1)


@lru_cache(maxsize=32)
def wavefront_planes(shape: tuple[int, int, int]):
    """Cells of an ``(nx, ny, nz)`` grid grouped by plane ``4i + 2j + k``.

    Returns a list of ``(i, j, k)`` int arrays, one per plane in ascending
    plane order.  This is the cached symbolic analysis.
    """
    nx, ny, nz = shape
    i, j, k = np.meshgrid(
        np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
    )
    i, j, k = i.ravel(), j.ravel(), k.ravel()
    p = _WEIGHTS[0] * i + _WEIGHTS[1] * j + _WEIGHTS[2] * k
    order = np.argsort(p, kind="stable")
    i, j, k, p = i[order], j[order], k[order], p[order]
    boundaries = np.flatnonzero(np.diff(p)) + 1
    i_split = np.split(i, boundaries)
    j_split = np.split(j, boundaries)
    k_split = np.split(k, boundaries)
    return [
        (ii.astype(np.int64), jj.astype(np.int64), kk.astype(np.int64))
        for ii, jj, kk in zip(i_split, j_split, k_split)
    ]


def _participating_offsets(a: SGDIAMatrix, lower: bool, part: TriangularPart):
    """Indices of strictly-off-diagonal offsets that take part in the solve."""
    if part == "all":
        idx = (
            a.stencil.strict_lower_indices()
            if lower
            else a.stencil.strict_upper_indices()
        )
        # In "all" mode the matrix is expected to *be* triangular: entries on
        # the wrong side must be absent (or the caller wanted "lower"/"upper").
        other = (
            a.stencil.strict_upper_indices()
            if lower
            else a.stencil.strict_lower_indices()
        )
        for d in other:
            if np.any(a.diag_view(int(d)) != 0):
                raise ValueError(
                    "matrix has entries on the wrong triangular side; pass "
                    "part='lower'/'upper' to solve with a triangular part of "
                    "a full matrix"
                )
        return idx
    if part == "lower":
        return a.stencil.strict_lower_indices()
    if part == "upper":
        return a.stencil.strict_upper_indices()
    raise ValueError(f"part must be 'lower', 'upper' or 'all', got {part!r}")


def sptrsv(
    a: SGDIAMatrix,
    b: np.ndarray,
    lower: bool = True,
    part: TriangularPart = "all",
    diag_inv: "np.ndarray | None" = None,
    out: "np.ndarray | None" = None,
    compute_dtype=np.float32,
    plan=None,
) -> np.ndarray:
    """Solve ``(D + L) x = b`` (lower) or ``(D + U) x = b`` (upper).

    Parameters
    ----------
    a:
        SG-DIA matrix.  With ``part="all"`` it must itself be triangular
        (e.g. a 3d4/3d10/3d14 pattern); with ``part="lower"``/``"upper"``
        the corresponding triangle of a full matrix is used — which is how
        Gauss-Seidel invokes this kernel.
    diag_inv:
        Optional precomputed reciprocal-diagonal field (smoother data).
    compute_dtype:
        Arithmetic precision; FP16 payloads are converted per gathered
        slice, i.e. recover-on-the-fly.
    plan:
        The :class:`~repro.kernels.plan.KernelPlan` of this operator's
        structure, looked up when omitted; the active kernel backend
        solves on its gather tables.

    ``b`` may carry a trailing batch axis (``(ndof, k)`` or
    ``field_shape + (k,)``): the wavefront gathers are shared across all
    ``k`` columns, each per-plane update running column-parallel and
    bit-identical to the column-by-column solve.
    """
    return get_backend().sptrsv(
        plan or plan_for(a), a, b, lower=lower, part=part, diag_inv=diag_inv,
        out=out, compute_dtype=compute_dtype,
    )


def sptrsv_ref(
    plan,
    a: SGDIAMatrix,
    b: np.ndarray,
    lower: bool = True,
    part: TriangularPart = "all",
    diag_inv: "np.ndarray | None" = None,
    out: "np.ndarray | None" = None,
    compute_dtype=np.float32,
) -> np.ndarray:
    """The numpy backend's SpTRSV (contract of :func:`sptrsv`): planes in
    ascending order (descending for upper), per cell the participating
    offsets subtracted in ascending stencil order.  SOA and AOS payloads
    share the gather tables: each offset's coefficients are read through
    the flat, copy-free (strided for AOS) view ``a.diag_view(d).reshape(n)``.
    """
    if plan.ncomp != 1:
        raise NotImplementedError(
            "wavefront SpTRSV supports scalar grids; block problems use the "
            "multicolor sweeps"
        )
    if plan.radius > 1:
        raise ValueError("wavefront scheduling assumes a radius-1 stencil")

    cdtype = np.dtype(compute_dtype)
    counting = _metrics.active()
    if counting:
        _metrics.incr("kernel.sptrsv.calls")

    bf, batched = field_view(a.grid, np.asarray(b))
    k = bf.shape[-1] if batched else 1
    n = plan.ncells
    b2 = bf.reshape(n, k)

    if diag_inv is None:
        diag = a.diag_view(a.stencil.diag_index).astype(np.float64)
        if np.any(diag == 0):
            raise ZeroDivisionError("zero diagonal in triangular solve")
        diag_inv = (1.0 / diag).astype(cdtype)
    dinv2 = np.asarray(diag_inv).reshape(n, 1)

    # the value check for part="all" on a non-triangular stencil stays in
    # _participating_offsets (value-dependent, so it cannot live in the
    # structure-shared plan)
    offs_idx = tuple(int(d) for d in _participating_offsets(a, lower, part))
    scheme = plan.trsv_scheme(offs_idx, lower)

    dviews = {d: a.diag_view(d).reshape(n) for d in offs_idx}
    x2 = np.zeros((n, k), dtype=cdtype)
    plane_iter = scheme.planes if lower else reversed(scheme.planes)
    for cells, terms in plane_iter:
        acc = b2[cells].astype(cdtype)
        for d, rows, csub, nbr in terms:
            coeff = dviews[d][csub]
            if coeff.dtype != cdtype:
                if counting:
                    _metrics.incr("precision.fcvt.values", coeff.size)
                coeff = coeff.astype(cdtype)
            acc[rows] -= coeff[:, None] * x2[nbr]
        x2[cells] = acc * dinv2[cells]

    xf = x2.reshape(bf.shape)
    if out is not None:
        out.reshape(bf.shape)[...] = xf
        return out
    return xf.reshape(np.shape(b)) if np.shape(b) != xf.shape else xf
