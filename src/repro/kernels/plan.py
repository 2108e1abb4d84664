"""Kernel execution plans: per-structure symbolic analysis, computed once.

The SG-DIA kernels are bandwidth-bound loops over the stencil offsets, but
each needs *symbolic* data first — the destination/source slice pairs of
the SpMV, the color/offset slice tables of the 8-color Gauss-Seidel sweeps,
the wavefront gather indices of SpTRSV — plus temporaries.  Deriving that
per call is exactly the setup-vs-apply cost the paper engineers away on
hardware (SOA layout so ``fcvt`` amortizes, symbolic SpTRSV analysis
excluded from the Section-7.2 timings): the serving layer re-applies these
kernels thousands of times per cached hierarchy, so symbolic work belongs
in the setup phase.

A :class:`KernelPlan` freezes that analysis for one operator *structure*
(grid shape, stencil offsets, component count):

- ``spmv_terms``: precomputed ``(d, dst, src)`` slice pairs per offset;
- ``diag_index``: the position of the ``(0, 0, 0)`` offset, ``None`` for a
  stencil without one;
- ``sweep_colors``: per color, the color slice and the per-offset
  ``(d, dst_global, src_global, dst_local)`` tables (radius-1 stencils
  with a diagonal only), and ``sweep_cells``: per color (``None``: the
  whole sweep) the coefficients a sweep reads, the fcvt volume it charges;
- ``trsv_scheme``: per ``(offsets, direction)``, flat gather index tables
  for every wavefront plane, built on first use;
- ``scratch``: a thread-local buffer pool so the hot loop runs with
  near-zero allocations (thread-local because the serving layer applies
  one hierarchy from several worker threads).

Every kernel call runs on a plan: the entry points of :mod:`.spmv`,
:mod:`.sweeps` and :mod:`.sptrsv` take one as ``plan=`` and otherwise look
it up with :func:`plan_for`, then dispatch to the active backend.  The
numpy reference bodies live next to those entry points; this module holds
no arithmetic.

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

    def __init__(self, shape, ncomp: int, offsets) -> None:
        from .sptrsv import wavefront_planes
        from .sweeps import COLORS8, color_offset_slices
        from ..sgdia import offset_slices

        self.shape = tuple(int(n) for n in shape)
        self.ncomp = int(ncomp)
        self.offsets = tuple(tuple(int(o) for o in off) for off in offsets)
        self.diag_index = (
            self.offsets.index((0, 0, 0)) if (0, 0, 0) in self.offsets else None
        )
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
        # Radius-1 stencils with a diagonal only (the 8-coloring invariant,
        # and the sweep divides by the diagonal); other patterns leave
        # ``sweep_colors`` as None and the sweep kernels reject them.
        if self.radius <= 1 and self.diag_index is not None:
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
            cells = {
                color: sum(_slice_cells(self.shape, dst_g)
                           for _d, dst_g, _src, _dl in terms)
                for color, _s, terms in entries
            }
            self.sweep_cells = {None: sum(cells.values()), **cells}
        else:
            self.sweep_colors = None
            self.sweep_cells = {None: 0}

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
        index arrays, so a solve does no bound checks and builds no fancy
        indices.
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
    restored payload) reuses one plan object.  The kernel entry points
    call this when no plan is passed.
    """
    key = (a.grid.shape, a.grid.ncomp, a.stencil.offsets)
    with _PLAN_LOCK:
        plan = _PLAN_CACHE.get(key)
        if plan is not None:
            _PLAN_CACHE.move_to_end(key)
            return plan
    # Build outside the lock (a big grid's tables take a moment); a racing
    # duplicate build is harmless — the first plan stored is kept and
    # returned to both callers.
    plan = KernelPlan(a.grid.shape, a.grid.ncomp, a.stencil.offsets)
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
