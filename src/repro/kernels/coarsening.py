"""Coarsening kernels: grid transfers as stencils, and the Galerkin group.

Numpy references of the two kernel-table entries that setup and the
V-cycle use between levels:

``transfer``
    Restriction and prolongation, ``y = (Mx (x) My (x) Mz (x) I_r) x`` with
    ``M`` the 1-D interpolation ``P1`` (prolong) or its transpose
    (restrict), applied by strided slices per residue class with no
    assembled matrix (paper Guideline 2, §3.2: no index arrays).  Each
    output value sums its terms in ascending flattened source index, from
    a zero partial sum, with tap weight the cast to the working dtype of
    the FP64 product ``(wx * wy) * wz``: the order and values of a CSR
    matvec on the Kronecker-assembled matrix, so the result equals one
    for finite inputs byte for byte.  The working dtype is that of the
    input promoted to at least float32, and the result is cast back.

``galerkin_group``
    The arithmetic of one rest group of a 1-D Galerkin pass; its structure
    (which terms exist, in which order) comes from
    :mod:`repro.coarsen.galerkin`, whose docstring fixes the order.

A :class:`TransferStencil` describes one transfer direction per axis as a
table of *segments* ``(rho_out, rho_src, shift, k0, k1)`` with weight
``w``: output index ``Fo*k + rho_out`` takes ``w`` times source index
``Fs*(k + shift) + rho_src`` for ``k`` in ``[k0, k1)``.  Prolongation has
``Fo`` = the coarsening factor and ``Fs = 1``, restriction the reverse, so
within a residue class the weights are uniform except at the grid ends and
a table holds a few segments per axis.  Segments are sorted by source
offset ``Fs*shift + rho_src``, which orders the terms of every output
index by source index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spmv import field_view

__all__ = ["TransferStencil", "transfer_stencil", "transfer_ref", "galerkin_group_ref"]


@dataclass(frozen=True, eq=False)
class TransferStencil:
    """One transfer direction, from grid ``src`` to grid ``dst``.

    ``tables`` are contiguous arrays the compiled kernel reads as they are:
    the geometry (dst cells, src cells, ``Fo``, ``Fs``, three of each), the
    segments ``(rho_out, rho_src, shift, k0, k1)`` of the x, y and z axes
    one after another, their weights, and the segment count per axis.
    """

    src: object  # StructuredGrid
    dst: object  # StructuredGrid
    tables: tuple

    def slices(self, axis: int) -> list:
        """``(output slice, source slice, weight)`` of each segment of ``axis``."""
        geo, seg, w, nseg = self.tables
        fo, fs = int(geo[6 + axis]), int(geo[9 + axis])
        first = int(nseg[:axis].sum())
        out = []
        for g in range(first, first + int(nseg[axis])):
            ro, rs, shift, k0, k1 = seg[g].tolist()
            o0, s0, n = fo * k0 + ro, fs * (k0 + shift) + rs, k1 - k0
            out.append((slice(o0, o0 + fo * (n - 1) + 1, fo),
                        slice(s0, s0 + fs * (n - 1) + 1, fs), w[g]))
        return out


def _segments(rows, cols, vals, fo: int, fs: int) -> tuple[np.ndarray, np.ndarray]:
    """Segment table of one axis from the entries ``(output, source, weight)``
    of its 1-D matrix; entries of weight zero are no terms."""
    runs: dict[tuple, list[int]] = {}
    for o, s, w in sorted(zip(rows.tolist(), cols.tolist(), vals.tolist())):
        if w == 0:
            continue
        k, ro = divmod(o, fo)
        ks, rs = divmod(s, fs)
        runs.setdefault((ro, rs, ks - k, w), []).append(k)
    segs = []
    for (ro, rs, shift, w), ks in runs.items():
        start = ks[0]
        for prev, k in zip(ks, ks[1:] + [None]):
            if k != prev + 1:
                segs.append(((fs * shift + rs, ro, start), (ro, rs, shift, start, prev + 1), w))
                start = k
    segs.sort(key=lambda g: g[0])
    return (
        np.asarray([g[1] for g in segs], dtype=np.int64).reshape(-1, 5),
        np.asarray([g[2] for g in segs], dtype=np.float64),
    )


def transfer_stencil(src, dst, axes) -> TransferStencil:
    """The stencil from grid ``src`` to ``dst``; ``axes`` gives per axis the
    entries ``(rows, cols, vals)`` of its 1-D matrix (rows index ``dst``,
    columns ``src``) and the residue periods ``(fo, fs)``."""
    tables = [_segments(rows, cols, vals, fo, fs) for rows, cols, vals, fo, fs in axes]
    geo = (*dst.shape, *src.shape, *(a[3] for a in axes), *(a[4] for a in axes))
    return TransferStencil(src=src, dst=dst, tables=(
        np.asarray(geo, dtype=np.int64),
        np.concatenate([t[0] for t in tables]),
        np.concatenate([t[1] for t in tables]),
        np.asarray([len(t[1]) for t in tables], dtype=np.intc),
    ))


def transfer_ref(st: TransferStencil, x: np.ndarray, dtype=None) -> np.ndarray:
    """Apply ``st`` to a field, or to a block with a trailing batch axis ``k``
    (``field_shape + (k,)`` or ``(ndof, k)``, ``k = 1`` included).

    Returns an array of ``dtype`` (default: ``x``'s) in the destination
    grid's field shape, plus the batch axis for a block.
    """
    xf, _ = field_view(st.src, x)
    dtype = xf.dtype if dtype is None else np.dtype(dtype)
    work = np.promote_types(np.float32, dtype)
    xs = np.asarray(xf, dtype=work)
    out = np.zeros(st.dst.shape + xs.shape[3:], dtype=work)
    sx, sy, sz = (st.slices(axis) for axis in range(3))
    for ox, ix, wx in sx:
        for oy, iy, wy in sy:
            wxy = wx * wy
            for oz, iz, wz in sz:
                out[ox, oy, oz] += work.type(wxy * wz) * xs[ix, iy, iz]
    return out.astype(dtype, copy=False)


def _along(axis: int, sl: slice) -> tuple:
    return (slice(None),) * axis + (sl,)


def galerkin_group_ref(
    row: dict, band: np.ndarray, axis: int, factor: int, ra: list, rap: list,
    out: "dict | None" = None,
) -> dict:
    """One rest group of a 1-D Galerkin pass (``repro.coarsen.galerkin``).

    ``row`` maps the pass-axis offset of each fine coefficient array of the
    group to the array; ``band`` is the ``(nc, 2f - 1)`` band of 1-D
    weights.  ``ra`` lists the ``R A`` terms ``(e, s, lo, hi)``: the
    intermediate at offset ``e`` gets ``band[I, s + f - 1] * a(e - s)`` at
    fine row ``f*I + s`` for coarse rows ``I`` in ``[lo, hi)``.  ``rap``
    lists the ``(R A) P`` terms ``(oc, e, k)``: the coarse array at offset
    ``oc`` gets ``(R A)(e) * band[I + oc, k]`` for every ``I`` with
    ``I + oc`` on the grid.  Every array starts from zero and adds its
    terms in list order.  Returns ``{oc: coarse array}``: the C-contiguous
    FP64 array ``out[oc]`` where ``out`` has one (it is overwritten), else
    a new one.
    """
    nc = band.shape[0]
    reach = factor - 1
    first = next(iter(row.values()))
    shape = first.shape[:axis] + (nc,) + first.shape[axis + 1:]
    trail = (1,) * (first.ndim - axis - 1)  # broadcast over later axes
    ra_out: dict[int, np.ndarray] = {}
    for e, s, lo, hi in ra:
        acc = ra_out.get(e)
        if acc is None:
            acc = ra_out[e] = np.zeros(shape)
        fine = slice(factor * lo + s, factor * (hi - 1) + s + 1, factor)
        w = band[lo:hi, s + reach].reshape(-1, *trail)
        acc[_along(axis, slice(lo, hi))] += w * row[e - s][_along(axis, fine)]
    targets, out = out or {}, {}
    for oc, e, k in rap:
        lo, hi = max(0, -oc), min(nc, nc - oc)
        acc = out.get(oc)
        if acc is None:
            acc = out[oc] = targets[oc] if oc in targets else np.empty(shape)
            acc[...] = 0
        w = band[lo + oc:hi + oc, k].reshape(-1, *trail)
        cells = _along(axis, slice(lo, hi))
        acc[cells] += ra_out[e][cells] * w
    return out
