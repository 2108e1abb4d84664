"""Kernel execution plans: per-level symbolic analysis, computed once.

The NumPy kernels are bandwidth-bound array expressions, but before PR 4
every invocation re-derived its *symbolic* data — the color/offset slice
tables of the 8-color Gauss-Seidel sweeps, the wavefront gather indices of
SpTRSV, the destination/source slice pairs of the SG-DIA SpMV — and
allocated fresh temporaries.  That per-call overhead is exactly the
setup-vs-apply amortization the paper engineers away on hardware (SOA
layout so ``fcvt`` amortizes, symbolic SpTRSV analysis excluded from the
Section-7.2 timings): the serving layer re-applies these kernels thousands
of times per cached hierarchy, so symbolic work belongs in the setup phase.

A :class:`KernelPlan` freezes that analysis for one operator *structure*
(grid shape, stencil offsets, component count):

- ``spmv_terms``: precomputed ``(d, dst, src)`` slice pairs per offset;
- ``sweep_colors``: per color, the color slice and the per-offset
  ``(d, dst_global, src_global, dst_local)`` tables (radius-1 stencils);
- ``trsv_scheme``: per ``(offsets, direction)``, flat gather index tables
  for every wavefront plane — the explicit, introspectable promotion of
  the old ``lru_cache`` symbolic analysis;
- ``scratch``: a thread-local buffer pool so the hot loop runs with
  near-zero allocations (thread-local because the serving layer applies
  one hierarchy from several worker threads).

Plans are **value-free**: they depend only on structure, so one plan is
shared by every matrix with the same shape/stencil (all levels of equal
geometry, every operator epoch of a time-stepping replay, the spilled and
restored copies of a cached hierarchy).  :func:`plan_for` keeps a bounded
process-wide cache; each construction is counted on the metrics registry
(``kernel.plan.builds``) so benchmarks can assert the V-cycle hot loop
performs zero per-iteration symbolic work.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from ..observability import metrics as _metrics
from .spmv import block_contract

__all__ = [
    "KernelPlan",
    "plan_for",
    "plan_cache_info",
    "clear_plan_cache",
]

#: Upper bound on cached plans (distinct operator structures in flight).
_PLAN_CACHE_MAX = 128

_INDEX_DTYPE = np.int32


def _slice_cells(shape, slices) -> int:
    """Number of grid cells selected by a tuple of per-axis slices."""
    return int(np.prod([len(range(n)[s]) for n, s in zip(shape, slices)]))


class _ScratchLocal(threading.local):
    """Per-thread buffer store (created lazily per thread)."""

    def __init__(self) -> None:  # called once per thread
        self.buffers: dict = {}


class _TrsvScheme:
    """Flat gather tables for one triangular solve direction.

    ``planes`` is a list of ``(cells, terms)`` in ascending plane order;
    ``cells`` are flat (C-order) cell indices of one wavefront plane and
    each term is ``(d, rows, csub, nbr)``: the stencil offset index, the
    positions inside the plane whose neighbour exists, the flat indices of
    those cells (coefficient gather), and the flat indices of their
    neighbours (solution gather).
    """

    __slots__ = ("lower", "offsets_idx", "planes", "nbytes")

    def __init__(self, lower: bool, offsets_idx: tuple, planes: list) -> None:
        self.lower = bool(lower)
        self.offsets_idx = offsets_idx
        self.planes = planes
        self.nbytes = sum(
            cells.nbytes + sum(r.nbytes + c.nbytes + n.nbytes for _, r, c, n in terms)
            for cells, terms in planes
        )


class KernelPlan:
    """Per-structure symbolic execution plan for the SG-DIA kernels."""

    def __init__(self, shape, ncomp: int, offsets, diag_index: int) -> None:
        from .sptrsv import wavefront_planes
        from .sweeps import COLORS8, color_offset_slices
        from ..sgdia import offset_slices

        self.shape = tuple(int(n) for n in shape)
        self.ncomp = int(ncomp)
        self.offsets = tuple(tuple(int(o) for o in off) for off in offsets)
        self.diag_index = int(diag_index)
        self.field_shape = (
            self.shape if self.ncomp == 1 else self.shape + (self.ncomp,)
        )
        self.ncells = int(np.prod(self.shape))
        self.ndof = self.ncells * self.ncomp
        self.radius = max(abs(o) for off in self.offsets for o in off)

        # SpMV: one (d, dst, src) slice pair per stencil offset.
        self.spmv_terms = tuple(
            (d, *offset_slices(self.shape, off))
            for d, off in enumerate(self.offsets)
        )
        # Flat (ndiag, 3) C-int offset table for the compiled kernels, and
        # per offset the number of cells whose neighbour is in the grid
        # (the fcvt volume the reference charges for that term).
        self.offsets_table = np.ascontiguousarray(self.offsets, dtype=np.intc)
        self.term_cells = tuple(
            _slice_cells(self.shape, dst) for _d, dst, _src in self.spmv_terms
        )

        # 8-color sweeps: per color, the color slice and offset tables.
        # Radius-1 stencils only (the 8-coloring invariant); coarser
        # patterns leave ``sweep_colors`` as None and the sweep kernels
        # reject them exactly like the reference path.
        if self.radius <= 1:
            entries = []
            for color in COLORS8:
                if any(n <= c for n, c in zip(self.shape, color)):
                    continue  # this color class is empty on the grid
                cslice = tuple(slice(c, None, 2) for c in color)
                terms = []
                for d, off in enumerate(self.offsets):
                    if d == self.diag_index:
                        continue
                    sl = color_offset_slices(self.shape, off, color)
                    if sl is None:
                        continue
                    terms.append((d, *sl))
                entries.append((color, cslice, tuple(terms)))
            self.sweep_colors = tuple(entries)
            self.sweep_cells = sum(
                _slice_cells(self.shape, dst_g)
                for _c, _s, terms in entries
                for _d, dst_g, _src, _dl in terms
            )
        else:
            self.sweep_colors = None
            self.sweep_cells = 0

        self._wavefront_planes = wavefront_planes  # symbolic plane partition
        self._trsv: dict = {}
        self._trsv_lock = threading.Lock()
        self._scratch = _ScratchLocal()
        _metrics.incr("kernel.plan.builds")

    # ------------------------------------------------------------------
    def scratch(self, name: str, shape, dtype) -> np.ndarray:
        """A reusable uninitialized buffer, private to the calling thread.

        Buffers are keyed by ``(name, shape, dtype)``; callers must fully
        overwrite them before reading.  Because the pool is thread-local,
        concurrent service workers applying the same hierarchy never
        alias each other's temporaries.
        """
        key = (name, tuple(shape), np.dtype(dtype))
        buf = self._scratch.buffers.get(key)
        if buf is None:
            buf = np.empty(key[1], dtype=key[2])
            self._scratch.buffers[key] = buf
        return buf

    def scratch_nbytes(self) -> int:
        """Bytes held by the calling thread's scratch buffers."""
        return sum(b.nbytes for b in self._scratch.buffers.values())

    # ------------------------------------------------------------------
    def trsv_scheme(self, offsets_idx, lower: bool) -> _TrsvScheme:
        """Gather tables for one triangular direction (built once, cached).

        ``offsets_idx`` is the tuple of participating strictly-off-diagonal
        stencil offset indices (what ``_participating_offsets`` returns for
        the requested part).  The scheme stores, per wavefront plane, flat
        index arrays replacing the per-call bound checks and fancy-index
        construction of the unplanned kernel.
        """
        key = (tuple(int(d) for d in offsets_idx), bool(lower))
        scheme = self._trsv.get(key)
        if scheme is not None:
            return scheme
        with self._trsv_lock:
            scheme = self._trsv.get(key)
            if scheme is not None:
                return scheme
            scheme = self._build_trsv_scheme(key[0], key[1])
            self._trsv[key] = scheme
            _metrics.incr("kernel.plan.builds")
        return scheme

    def _build_trsv_scheme(self, offsets_idx: tuple, lower: bool) -> _TrsvScheme:
        nx, ny, nz = self.shape
        planes = []
        for (pi, pj, pk) in self._wavefront_planes(self.shape):
            cells = ((pi * ny + pj) * nz + pk).astype(_INDEX_DTYPE)
            terms = []
            for d in offsets_idx:
                ox, oy, oz = self.offsets[d]
                ni, nj, nk = pi + ox, pj + oy, pk + oz
                valid = (
                    (ni >= 0) & (ni < nx)
                    & (nj >= 0) & (nj < ny)
                    & (nk >= 0) & (nk < nz)
                )
                if not valid.any():
                    continue
                rows = np.flatnonzero(valid).astype(_INDEX_DTYPE)
                csub = cells[rows]
                nbr = (
                    (ni[valid] * ny + nj[valid]) * nz + nk[valid]
                ).astype(_INDEX_DTYPE)
                terms.append((d, rows, csub, nbr))
            planes.append((cells, terms))
        return _TrsvScheme(lower, offsets_idx, planes)

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Introspection summary (sizes, cached schemes, scratch use)."""
        return {
            "shape": list(self.shape),
            "ncomp": self.ncomp,
            "ndiag": len(self.offsets),
            "radius": self.radius,
            "sweep_colors": (
                len(self.sweep_colors) if self.sweep_colors is not None else 0
            ),
            "trsv_schemes": [
                {
                    "lower": k[1],
                    "offsets": list(k[0]),
                    "planes": len(s.planes),
                    "nbytes": int(s.nbytes),
                }
                for k, s in sorted(self._trsv.items())
            ],
            "scratch_nbytes": int(self.scratch_nbytes()),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KernelPlan(shape={self.shape}, ncomp={self.ncomp}, "
            f"ndiag={len(self.offsets)})"
        )


# ----------------------------------------------------------------------
# process-wide structure-keyed plan cache
# ----------------------------------------------------------------------

_PLAN_CACHE: "OrderedDict[tuple, KernelPlan]" = OrderedDict()
_PLAN_LOCK = threading.Lock()


def plan_for(a) -> KernelPlan:
    """The (shared) kernel plan for an :class:`SGDIAMatrix`'s structure.

    Plans are keyed by ``(grid shape, ncomp, stencil offsets)`` — layout
    and dtype do not enter the symbolic analysis — so every matrix with
    the same structure (all epochs of a drifting operator, a spilled and
    restored payload) reuses one plan object.
    """
    key = (a.grid.shape, a.grid.ncomp, a.stencil.offsets)
    with _PLAN_LOCK:
        plan = _PLAN_CACHE.get(key)
        if plan is not None:
            _PLAN_CACHE.move_to_end(key)
            return plan
    # Build outside the lock (plane partitioning can take a moment on big
    # grids); a racing duplicate build is harmless — last writer wins.
    plan = KernelPlan(
        a.grid.shape, a.grid.ncomp, a.stencil.offsets, a.stencil.diag_index
    )
    with _PLAN_LOCK:
        existing = _PLAN_CACHE.get(key)
        if existing is not None:
            return existing
        _PLAN_CACHE[key] = plan
        while len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
            _PLAN_CACHE.popitem(last=False)
    return plan


def plan_cache_info() -> dict:
    """Sizes of the process-wide plan cache (introspection/tests)."""
    with _PLAN_LOCK:
        return {
            "entries": len(_PLAN_CACHE),
            "max_entries": _PLAN_CACHE_MAX,
            "keys": [
                {"shape": list(k[0]), "ncomp": k[1], "ndiag": len(k[2])}
                for k in _PLAN_CACHE
            ],
        }


def clear_plan_cache() -> None:
    with _PLAN_LOCK:
        _PLAN_CACHE.clear()


# ----------------------------------------------------------------------
# planned NumPy kernels (the reference backend's implementations)
# ----------------------------------------------------------------------
#
# Each function performs bit-for-bit the same floating-point operations as
# its unplanned counterpart in spmv.py / sweeps.py / sptrsv.py — only the
# symbolic work (slice tables, gather indices, bound checks) comes from the
# plan and the temporaries from the scratch pool.  Parity is asserted by
# tests/test_kernel_plan.py.


def _coeff_term(plan, name, coeff, xs, cdtype, counting, batched):
    """``coeff * xs`` in the compute dtype, into a scratch buffer.

    In the unbatched scalar path the storage->compute conversion (fcvt) is
    fused into the multiply when it is an *upcast*: ``np.multiply`` widens
    the FP16 slice inside its buffered inner loop, which is exact (fp16 ->
    fp32 is lossless), so the result is bit-identical to
    astype-then-multiply while skipping one full write+read of a converted
    temporary.  Downcasts (an FP64 payload under FP32 compute) must convert
    first — fusing would multiply at the wider precision and round once,
    which is *not* what the reference kernel computes.  Batched blocks
    always convert once up front, amortizing a single fcvt across all ``k``
    columns exactly like the reference kernel.
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


def spmv_planned(
    plan: KernelPlan,
    a,
    x: np.ndarray,
    out: "np.ndarray | None" = None,
    compute_dtype=None,
    sqrt_q: "np.ndarray | None" = None,
) -> np.ndarray:
    """Plan-based SG-DIA SpMV (same contract as ``spmv_plain``)."""
    from .spmv import field_view

    grid = a.grid
    xf, batched = field_view(grid, x)
    if compute_dtype is None:
        compute_dtype = np.result_type(a.data.dtype, xf.dtype)
        if compute_dtype == np.float16:
            compute_dtype = np.float32
    cdtype = np.dtype(compute_dtype)

    q = None
    if sqrt_q is not None:
        q = np.asarray(sqrt_q, dtype=cdtype)
        if batched:
            q = q[..., None]
        xf = q * np.asarray(xf, dtype=cdtype)
    elif xf.dtype != cdtype:
        xf = xf.astype(cdtype)

    y = np.zeros(xf.shape, dtype=cdtype)
    scalar = plan.ncomp == 1
    counting = _metrics.active()
    if counting:
        _metrics.incr("kernel.spmv.calls")
    for d, dst, src in plan.spmv_terms:
        coeff = a.diag_view(d)[dst]
        if scalar:
            xs = xf[src]
            y[dst] += _coeff_term(
                plan, "spmv_tmp", coeff, xs, cdtype, counting, batched
            )
            continue
        coeff = _convert_coeff(plan, "spmv_coeff", coeff, cdtype, counting)
        y[dst] += block_contract(coeff, xf[src], batched)

    if q is not None:
        y *= q

    if out is not None:
        of = field_view(grid, out)[0]
        of[...] = y
        return out
    return y.reshape(np.shape(x)) if np.shape(x) != y.shape else y


def gs_sweep_planned(
    plan: KernelPlan,
    a,
    b: np.ndarray,
    x: np.ndarray,
    diag_inv: np.ndarray,
    forward: bool = True,
    compute_dtype=np.float32,
) -> np.ndarray:
    """Plan-based multicolor Gauss-Seidel sweep, updating ``x`` in place."""
    if plan.sweep_colors is None:
        raise ValueError("8-coloring requires a radius-1 stencil")
    scalar = plan.ncomp == 1
    batched = x.ndim == len(plan.field_shape) + 1
    cdtype = np.dtype(compute_dtype)
    entries = plan.sweep_colors if forward else plan.sweep_colors[::-1]
    counting = _metrics.active()
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


def jacobi_planned(
    plan: KernelPlan,
    a,
    b: np.ndarray,
    x: np.ndarray,
    diag_inv: np.ndarray,
    weight: float = 1.0,
    compute_dtype=np.float32,
    spmv=spmv_planned,
) -> np.ndarray:
    """Plan-based weighted Jacobi sweep (same contract as ``jacobi_sweep``);
    ``spmv`` is the backend's planned SpMV computing ``A x``."""
    from .sweeps import _apply_diag_inv

    cdtype = np.dtype(compute_dtype)
    batched = x.ndim == len(plan.field_shape) + 1
    ax = spmv(plan, a, x, compute_dtype=cdtype)
    r = np.asarray(b, dtype=cdtype) - ax
    upd = _apply_diag_inv(diag_inv, r, plan.ncomp == 1, batched)
    x += cdtype.type(weight) * upd
    return x


def sptrsv_planned(
    plan: KernelPlan,
    a,
    b: np.ndarray,
    lower: bool = True,
    part: str = "all",
    diag_inv: "np.ndarray | None" = None,
    out: "np.ndarray | None" = None,
    compute_dtype=np.float32,
) -> np.ndarray:
    """Plan-based wavefront SpTRSV (same contract as ``sptrsv``).

    The flat gather tables require the SOA layout (an AOS payload would
    need a matrix-sized copy to flatten); AOS inputs take the unplanned
    reference path, which is exactly the strided-access penalty the
    Figure-7 ablation measures.
    """
    from .spmv import field_view
    from .sptrsv import _participating_offsets, sptrsv as _reference_sptrsv

    if a.layout != "soa":
        return _reference_sptrsv(
            a, b, lower=lower, part=part, diag_inv=diag_inv, out=out,
            compute_dtype=compute_dtype,
        )
    if plan.ncomp != 1:
        raise NotImplementedError(
            "wavefront SpTRSV supports scalar grids; block problems use the "
            "multicolor sweeps"
        )
    if plan.radius > 1:
        raise ValueError("wavefront scheduling assumes a radius-1 stencil")

    grid = a.grid
    cdtype = np.dtype(compute_dtype)
    counting = _metrics.active()
    if counting:
        _metrics.incr("kernel.sptrsv.calls")

    bf, batched = field_view(grid, np.asarray(b))
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

    dviews = {d: a.data[d].reshape(n) for d in offs_idx}
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
