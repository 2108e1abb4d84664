"""Multicolor Gauss-Seidel sweeps on SG-DIA matrices.

Gauss-Seidel is inherently sequential; the standard structured-grid
parallelization — and the one that vectorizes in NumPy — is multicoloring.
For any radius-1 stencil (3d7 up to 3d27) the 8-coloring by coordinate
parity ``(i%2, j%2, k%2)`` is a valid ordering: every nonzero offset flips
the parity of at least one coordinate, so all couplings are between
different colors and each color updates as one strided, fully vectorized
expression.

A forward sweep visits colors in lexicographic order, a backward sweep in
reverse; forward-then-backward is the SymGS smoother that dominates the
HPCG profile cited in Section 5 of the paper.

Mixed precision: the sweep reads FP16 coefficient slices and converts them
to the compute dtype on the fly.  It sweeps the stored payload as it is: on
a scaled level the multigrid cycle keeps the vectors in the level's own
basis, where the stored payload *is* the matrix (see
:mod:`repro.mg.hierarchy`).

The sweep runs on the operator structure's
:class:`~repro.kernels.plan.KernelPlan` and dispatches to the active kernel
backend; :func:`gs_sweep_ref` is the numpy reference.  The Jacobi sweep is
no backend entry: it is numpy vector arithmetic around the dispatched SpMV.
"""

from __future__ import annotations

import numpy as np

from ..observability import metrics as _metrics
from ..sgdia import SGDIAMatrix
from .backend import get_backend
from .plan import plan_for
from .spmv import _coeff_term, _convert_coeff, block_contract, spmv_plain

__all__ = [
    "COLORS8",
    "color_offset_slices",
    "gs_sweep_colored",
    "jacobi_sweep",
    "compute_diag_inv",
]

#: The 8 parity colors in lexicographic (forward) order.
COLORS8: tuple[tuple[int, int, int], ...] = tuple(
    (a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)
)


def color_offset_slices(
    shape: tuple[int, int, int],
    offset: tuple[int, int, int],
    color: tuple[int, int, int],
):
    """Slices coupling one color class through one stencil offset.

    Returns ``(dst_global, src_global, dst_local)`` or ``None`` when the
    intersection is empty:

    - ``dst_global``: stride-2 slices selecting the color's cells that have
      an in-grid neighbour at ``offset`` (indexes full-grid arrays: the
      coefficient array and destination masks);
    - ``src_global``: the corresponding neighbour cells (full-grid arrays);
    - ``dst_local``: unit-stride slices selecting the same cells inside the
      color-subsampled array ``x[c0::2, c1::2, c2::2]``.
    """
    dst_g, src_g, dst_l = [], [], []
    for n, d, c0 in zip(shape, offset, color):
        lo, hi = max(0, -d), n - max(0, d)
        first = lo + ((c0 - lo) % 2)
        if first >= hi:
            return None
        count = (hi - first + 1) // 2
        dst_g.append(slice(first, hi, 2))
        src_g.append(slice(first + d, hi + d, 2))
        l0 = (first - c0) // 2
        dst_l.append(slice(l0, l0 + count))
    return tuple(dst_g), tuple(src_g), tuple(dst_l)


def compute_diag_inv(a: SGDIAMatrix, dtype=np.float32) -> np.ndarray:
    """Inverse of the (block) diagonal, precomputed as smoother data.

    Scalar grids: elementwise reciprocal field.  Block grids: per-cell
    ``r x r`` block inverses (shape ``(nx, ny, nz, r, r)``).  Computed in
    FP64 and truncated to ``dtype`` — the paper's smoother-setup rule
    (compute high, then truncate).
    """
    blk = a.diag_view(a.stencil.diag_index).astype(np.float64)
    if a.grid.ncomp == 1:
        if np.any(blk == 0):
            raise ZeroDivisionError("zero diagonal entry in smoother setup")
        return (1.0 / blk).astype(dtype)
    return np.linalg.inv(blk).astype(dtype)


def _apply_diag_inv(
    diag_inv: np.ndarray, rhs: np.ndarray, scalar: bool, batched: bool = False
) -> np.ndarray:
    if scalar:
        return (diag_inv[..., None] if batched else diag_inv) * rhs
    return block_contract(diag_inv, rhs, batched)


def gs_sweep_colored(
    a: SGDIAMatrix,
    b: np.ndarray,
    x: np.ndarray,
    diag_inv: np.ndarray,
    forward: bool = True,
    compute_dtype=np.float32,
    plan=None,
    color: "tuple[int, int, int] | None" = None,
) -> np.ndarray:
    """One multicolor Gauss-Seidel sweep, updating ``x`` in place.

    ``x`` and ``b`` are field arrays in the compute dtype; ``a`` may hold an
    FP16 payload (converted slice-by-slice on the fly).  ``diag_inv`` comes
    from :func:`compute_diag_inv` on the same operator.  A trailing batch
    axis on ``b``/``x`` (shape ``field_shape + (k,)``) sweeps all ``k``
    right-hand sides together, converting each FP16 slice only once.

    ``plan`` is the operator structure's
    :class:`~repro.kernels.plan.KernelPlan` (looked up when omitted); the
    active kernel backend runs the sweep on its color/offset tables.

    ``color``, one class of :data:`COLORS8`, updates that class alone (then
    ``forward`` has no effect): the eight calls in ``COLORS8`` order equal
    one forward sweep.  The distributed engine sweeps this way, one halo
    exchange before each color.
    """
    return get_backend().gs_sweep(
        plan or plan_for(a), a, b, x, diag_inv, forward=forward,
        compute_dtype=compute_dtype, color=color,
    )


def gs_sweep_ref(
    plan,
    a: SGDIAMatrix,
    b: np.ndarray,
    x: np.ndarray,
    diag_inv: np.ndarray,
    forward: bool = True,
    compute_dtype=np.float32,
    color: "tuple[int, int, int] | None" = None,
) -> np.ndarray:
    """The numpy backend's sweep (contract of :func:`gs_sweep_colored`):
    colors in ``COLORS8`` order (reversed backward), or the one ``color``,
    per color the off-diagonal offsets subtracted in ascending stencil
    order."""
    if plan.sweep_colors is None:
        raise ValueError("8-coloring requires a radius-1 stencil with a diagonal")
    scalar = plan.ncomp == 1
    batched = x.ndim == len(plan.field_shape) + 1
    cdtype = np.dtype(compute_dtype)
    entries = plan.sweep_colors if forward else plan.sweep_colors[::-1]
    if color is not None:
        entries = [e for e in entries if e[0] == tuple(color)]
    counting = _metrics.active()  # hoisted: the color loop is the hot path
    if counting:
        _metrics.incr("kernel.sweep.calls")
    views = [a.diag_view(d) for d in range(len(plan.offsets))]
    for _color, cslice, terms in entries:
        bc = b[cslice]
        rhs = plan.scratch("sweep_rhs", bc.shape, cdtype)
        np.copyto(rhs, bc)
        for d, dst_g, src_g, dst_l in terms:
            coeff = views[d][dst_g]
            xs = x[src_g]
            if scalar:
                rhs[dst_l] -= _coeff_term(
                    plan, "sweep_tmp", coeff, xs, cdtype, counting, batched
                )
                continue
            coeff = _convert_coeff(plan, "sweep_coeff", coeff, cdtype, counting)
            rhs[dst_l] -= block_contract(coeff, xs, batched)
        dc = diag_inv[cslice]
        if scalar:
            np.multiply(dc[..., None] if batched else dc, rhs, out=rhs)
            x[cslice] = rhs
        else:
            x[cslice] = block_contract(dc, rhs, batched)
    return x


def jacobi_sweep(
    a: SGDIAMatrix,
    b: np.ndarray,
    x: np.ndarray,
    diag_inv: np.ndarray,
    weight: float = 1.0,
    compute_dtype=np.float32,
    plan=None,
) -> np.ndarray:
    """One (weighted) Jacobi sweep ``x += w D^{-1} (b - A x)`` in place.

    ``A x`` is the backend-dispatched :func:`~repro.kernels.spmv.spmv_plain`
    on ``plan`` (looked up when omitted); the update is numpy on every
    backend.
    """
    cdtype = np.dtype(compute_dtype)
    batched = x.ndim == len(a.grid.field_shape) + 1
    ax = spmv_plain(a, x, compute_dtype=cdtype, plan=plan)
    r = np.asarray(b, dtype=cdtype) - ax
    upd = _apply_diag_inv(diag_inv, r, a.grid.ncomp == 1, batched)
    x += cdtype.type(weight) * upd
    return x
