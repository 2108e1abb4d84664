"""SG-DIA sparse matrix-vector product with on-the-fly precision recovery.

The SpMV is one vectorized shifted multiply-add per stencil offset — no
index arrays, no gather/scatter, which is exactly why the paper's Section
3.2 argues structured formats are the right substrate for FP16.  When the
coefficient payload is FP16, each slice is converted to the compute
precision on the fly (the ``fcvt`` of Section 5.1).  The kernels apply the
stored payload exactly as it is: a scaled level's payload ``A_s`` is the
operator of that level's own basis, which the multigrid cycle works in
(see :mod:`repro.mg.hierarchy`).  Only :func:`spmv` of a scaled
:class:`~repro.sgdia.StoredMatrix` applies the operator the payload
represents, ``Q^{1/2} A_s Q^{1/2}`` (Algorithm 3 line 7), as two vector
passes around the same product.

Every call runs on the operator structure's
:class:`~repro.kernels.plan.KernelPlan` (``plan=``, else looked up with
:func:`~repro.kernels.plan.plan_for`) and dispatches to the active kernel
backend; :func:`spmv_ref` is the numpy reference every backend matches bit
for bit.  It runs SOA and AOS layouts through the same code; AOS sees
strided coefficient views, which is precisely the bandwidth-efficiency
penalty the Figure-7 ablation measures.
"""

from __future__ import annotations

import numpy as np

from ..observability import metrics as _metrics
from ..sgdia import SGDIAMatrix, StoredMatrix
from .backend import get_backend
from .plan import plan_for

__all__ = ["spmv", "residual", "spmv_plain", "field_view", "block_contract"]


def field_view(grid, x: np.ndarray) -> tuple[np.ndarray, bool]:
    """Normalize a vector or an RHS block to field shape.

    Accepts a flat dof vector, a field-shaped array, an ``(ndof, k)`` block,
    or a field-shaped array with a trailing batch axis ``k`` (the batched
    multi-RHS convention used by :meth:`MGHierarchy.precondition` and
    ``solve_many``).  Returns ``(field_array, batched)`` where the batched
    form has shape ``grid.field_shape + (k,)``.
    """
    x = np.asarray(x)
    fs = grid.field_shape
    if x.shape == fs:
        return x, False
    if x.ndim == len(fs) + 1 and x.shape[:-1] == fs:
        return x, True
    # The 2-D block test must precede the flat-size test: an (ndof, 1)
    # single-column block also has x.size == ndof, and classifying it as
    # unbatched would silently flatten the caller's block shape.
    if x.ndim == 2 and x.shape[0] == grid.ndof:
        return x.reshape(fs + (x.shape[1],)), True
    if x.size == grid.ndof:
        return x.reshape(fs), False
    raise ValueError(
        f"vector shape {x.shape} incompatible with grid field shape {fs}"
    )


def block_contract(blocks: np.ndarray, v: np.ndarray, batched: bool) -> np.ndarray:
    """Per-cell block product ``w[..., a] = sum_b blocks[..., a, b] * v[..., b]``.

    ``blocks`` has trailing axes ``(r, r)``; ``v`` trailing axis ``r``, plus
    a column axis ``k`` when ``batched``.  The sum over ``b`` runs in
    ascending order from a zero partial sum, for every ``k``.  ``np.einsum``
    reduces a single column (unbatched or ``k == 1``) in a CPU-dispatched
    SIMD order instead, so column ``j`` of a block product would differ
    from the product of column ``j`` alone; one order for every ``k`` keeps
    batched block solves columnwise bit-exact, and the compiled block
    kernels reproduce it.
    """
    vk = v if batched else v[..., None]
    shape = np.broadcast_shapes(blocks.shape[:-2], vk.shape[:-2])
    out = np.zeros(shape + (blocks.shape[-2], vk.shape[-1]),
                   dtype=np.result_type(blocks, vk))
    term = np.empty_like(out)
    for b in range(blocks.shape[-1]):
        np.multiply(blocks[..., :, b, None], vk[..., None, b, :], out=term)
        out += term
    return out if batched else out[..., 0]


def spmv_plain(
    a: SGDIAMatrix,
    x: np.ndarray,
    out: "np.ndarray | None" = None,
    compute_dtype=None,
    plan=None,
) -> np.ndarray:
    """Core SG-DIA SpMV: ``y = A x``.

    Parameters
    ----------
    compute_dtype:
        Arithmetic dtype.  Matrix slices are converted on the fly; defaults
        to the promotion of matrix and vector dtypes (FP16 payloads promote
        to at least FP32 — computing *in* FP16 is never done, per the
        guidelines).
    plan:
        The :class:`~repro.kernels.plan.KernelPlan` of this operator's
        structure; looked up with :func:`~repro.kernels.plan.plan_for`
        when omitted (a cache hit once a hierarchy exists).

    Batched multi-RHS blocks (trailing batch axis ``k``, see
    :func:`field_view`) run through the same per-offset slicing: each FP16
    coefficient slice is converted *once* and applied to all ``k`` columns,
    amortizing the fcvt cost across the block (the serving-side analogue of
    the paper's SOA/fcvt bandwidth argument).
    """
    return get_backend().spmv(
        plan or plan_for(a), a, x, out=out, compute_dtype=compute_dtype
    )


def _coeff_term(plan, name, coeff, xs, cdtype, counting, batched):
    """``coeff * xs`` in the compute dtype, into a scratch buffer.

    In the unbatched scalar path the storage->compute conversion (fcvt) is
    fused into the multiply when it is an *upcast*: ``np.multiply`` widens
    the FP16 slice inside its buffered inner loop, which is exact (fp16 ->
    fp32 is lossless), so the result is bit-identical to
    astype-then-multiply while skipping one full write+read of a converted
    temporary.  Downcasts (an FP64 payload under FP32 compute) must convert
    first — fusing would multiply at the wider precision and round once,
    which is *not* the product of the converted coefficient.  Batched
    blocks always convert once up front, amortizing a single fcvt across
    all ``k`` columns.
    """
    if counting and coeff.dtype != cdtype:
        _metrics.incr("precision.fcvt.values", coeff.size)
    if coeff.dtype != cdtype and (
        batched or not np.can_cast(coeff.dtype, cdtype, "safe")
    ):
        buf = plan.scratch(name + "_cvt", coeff.shape, cdtype)
        np.copyto(buf, coeff)
        coeff = buf
    if batched:
        coeff = coeff[..., None]
    tmp = plan.scratch(name, xs.shape, cdtype)
    np.multiply(coeff, xs, out=tmp)
    return tmp


def _convert_coeff(plan, name, coeff, cdtype, counting: bool):
    """Storage->compute conversion (fcvt) into a reused scratch buffer."""
    if coeff.dtype == cdtype:
        return coeff
    if counting:
        _metrics.incr("precision.fcvt.values", coeff.size)
    buf = plan.scratch(name, coeff.shape, cdtype)
    np.copyto(buf, coeff)
    return buf


def spmv_ref(
    plan,
    a: SGDIAMatrix,
    x: np.ndarray,
    out: "np.ndarray | None" = None,
    compute_dtype=None,
) -> np.ndarray:
    """The numpy backend's SpMV (contract of :func:`spmv_plain`).

    Per cell the offsets sum in ascending stencil order from zero, and a
    block term is :func:`block_contract`: the order every backend must
    reproduce bit for bit.
    """
    grid = a.grid
    xf, batched = field_view(grid, x)
    if compute_dtype is None:
        compute_dtype = np.result_type(a.data.dtype, xf.dtype)
        if compute_dtype == np.float16:
            compute_dtype = np.float32
    cdtype = np.dtype(compute_dtype)
    if xf.dtype != cdtype:
        xf = xf.astype(cdtype)

    y = np.zeros(xf.shape, dtype=cdtype)
    scalar = plan.ncomp == 1
    counting = _metrics.active()  # hoisted: the loop is the hot path
    if counting:
        _metrics.incr("kernel.spmv.calls")
    for d, dst, src in plan.spmv_terms:
        coeff = a.diag_view(d)[dst]
        if scalar:
            y[dst] += _coeff_term(
                plan, "spmv_tmp", coeff, xf[src], cdtype, counting, batched
            )
            continue
        coeff = _convert_coeff(plan, "spmv_coeff", coeff, cdtype, counting)
        y[dst] += block_contract(coeff, xf[src], batched)

    if out is not None:
        of = field_view(grid, out)[0]
        of[...] = y
        return out
    return y.reshape(np.shape(x)) if np.shape(x) != y.shape else y


def spmv(
    a: "SGDIAMatrix | StoredMatrix",
    x: np.ndarray,
    out: "np.ndarray | None" = None,
    compute_dtype=None,
    plan=None,
) -> np.ndarray:
    """SpMV for plain or mixed-precision stored operators.

    A :class:`StoredMatrix` applies the operator its payload represents; a
    scaled one computes ``y = Q^{1/2} (A_s (Q^{1/2} x))``: the input scaled
    once, the raw payload product, the output rescaled.
    """
    if not isinstance(a, StoredMatrix):
        return spmv_plain(a, x, out=out, compute_dtype=compute_dtype, plan=plan)
    cdtype = compute_dtype or a.compute.np_dtype
    if a.scaling is None:
        return spmv_plain(a.matrix, x, out=out, compute_dtype=cdtype, plan=plan)
    xf, batched = field_view(a.grid, x)
    q = np.asarray(a.scaling.sqrt_q, dtype=cdtype)
    if batched:
        q = q[..., None]
    y = spmv_plain(
        a.matrix, q * np.asarray(xf, dtype=cdtype), compute_dtype=cdtype,
        plan=plan,
    )
    y *= q
    if out is not None:
        field_view(a.grid, out)[0][...] = y
        return out
    return y.reshape(np.shape(x)) if np.shape(x) != y.shape else y


def residual(
    a: "SGDIAMatrix | StoredMatrix",
    b: np.ndarray,
    x: np.ndarray,
    compute_dtype=None,
    plan=None,
) -> np.ndarray:
    """``r = b - A x`` in the requested compute precision."""
    ax = spmv(a, x, compute_dtype=compute_dtype, plan=plan)
    b = np.asarray(b)
    dtype = compute_dtype or np.result_type(b.dtype, ax.dtype)
    r = np.asarray(b, dtype=dtype) - np.asarray(ax, dtype=dtype).reshape(b.shape)
    return r
